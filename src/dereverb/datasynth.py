"""Synthetic reverberant/clean pair generation.

Room responses are a direct-path impulse followed by a Gaussian noise tail
whose envelope falls 60 dB over T60, cut at T60; clean signals are
deterministic AM/FM harmonic tones with pauses.  Every pair derives its own
seed from (master seed, pair index), so each pair can be regenerated alone.

Manifest: CSV with header ``clean_path,reverb_path,t60_s,snr_db,seed``;
paths are relative to the manifest's directory, ``snr_db`` is empty when no
noise was added.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, DataError
from .signal import WaveForm, write_wav

MANIFEST_HEADER = ["clean_path", "reverb_path", "t60_s", "snr_db", "seed"]


@dataclass
class SynthConfig:
    """Dataset generation parameters (desk-scale defaults)."""

    sample_rate: int = 4000
    duration_s: float = 2.0
    t60_min: float = 0.3
    t60_max: float = 0.7
    snr_db: float | None = None
    direct_path_gain: float = 1.0

    def validate(self):
        for name in ("duration_s", "t60_min", "t60_max", "snr_db", "direct_path_gain"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if not 0 < self.t60_min <= self.t60_max:
            raise ConfigError(
                f"need 0 < t60_min <= t60_max, got [{self.t60_min}, {self.t60_max}]"
            )
        if self.sample_rate < 1 or self.duration_s * self.sample_rate < 1:
            raise ConfigError("duration too short")
        return self


def synth_rir(t60, length, sample_rate, direct_path_gain=1.0, seed=0) -> WaveForm:
    """``length`` samples: a direct-path impulse of ``direct_path_gain``, then
    a Gaussian tail drawn from ``seed`` under an exponential envelope.

    The decay constant tau = T60 / (3 ln 10) puts the envelope exactly
    60 dB down at t = T60 seconds.
    """
    if not t60 > 0:
        raise ContractError(f"t60 must be positive, got {t60}")
    if length < 1:
        raise ContractError(f"RIR length must be >= 1, got {length}")
    h = np.zeros(length)
    h[0] = direct_path_gain
    if length > 1:
        tau = t60 / (3.0 * math.log(10.0))
        n = np.arange(1, length)
        h[1:] = np.random.default_rng(seed).standard_normal(length - 1) * np.exp(
            -n / (sample_rate * tau)
        )
    return WaveForm(h, sample_rate)


def _fft_convolve(a, b):
    n = a.size + b.size - 1
    nfft = 1 << max(0, (n - 1)).bit_length()
    out = np.fft.irfft(np.fft.rfft(a, nfft) * np.fft.rfft(b, nfft), nfft)
    return out[:n]


def reverberate(s: WaveForm, h: WaveForm, snr_db: float | None = None, rng=None) -> WaveForm:
    """x = s (*) h truncated to len(s), plus optional white noise at snr_db.

    The noise is scaled so the empirical SNR relative to the reverberant
    signal power equals ``snr_db`` exactly.
    """
    if s.sample_rate != h.sample_rate:
        raise ContractError(
            f"sample rates differ: signal {s.sample_rate} Hz vs RIR {h.sample_rate} Hz"
        )
    x = _fft_convolve(s.samples, h.samples)[: len(s)]
    if snr_db is not None:
        p_sig = float(np.mean(x * x))
        if p_sig == 0.0:
            raise ContractError("cannot set an SNR against an all-zero signal")
        if rng is None:
            rng = np.random.default_rng(0)
        raw = rng.standard_normal(x.size)
        p_target = p_sig * 10.0 ** (-snr_db / 10.0)
        raw *= np.sqrt(p_target / np.mean(raw * raw))
        x = x + raw
    return WaveForm(x, s.sample_rate)


def synth_speech_like(duration_s, sample_rate, rng) -> WaveForm:
    """Speech-like test signal: AM/FM harmonic tone bursts with pauses.

    Voiced segments carry a vibrato-modulated fundamental (100-250 Hz) with
    1/k harmonics under a raised-cosine syllable envelope; roughly one
    segment in five is silent, but the last is voiced when all before it
    were silent, so no clip is all zeros.  Peak-normalized to 0.5.
    """
    n = int(round(duration_s * sample_rate))
    out = np.zeros(n)
    seg_len = int(round(0.25 * sample_rate))
    if seg_len < 1:
        raise ContractError(f"a 0.25 s segment holds no sample at {sample_rate} Hz")
    t_seg = np.arange(seg_len) / sample_rate
    pos = 0
    voiced = False
    while pos < n:
        cur = min(seg_len, n - pos)
        # the draw is taken either way, so only all-silent clips change
        if rng.uniform() < 0.8 or (not voiced and pos + cur == n):
            voiced = True
            f0 = rng.uniform(100.0, 250.0)
            vib_rate = rng.uniform(3.0, 6.0)
            vib_depth = rng.uniform(0.01, 0.04)
            phase0 = rng.uniform(0.0, 2.0 * np.pi)
            inst = f0 * (1.0 + vib_depth * np.sin(2.0 * np.pi * vib_rate * t_seg[:cur]))
            phase = phase0 + 2.0 * np.pi * np.cumsum(inst) / sample_rate
            n_harm = max(1, min(6, int(0.4 * sample_rate / f0)))
            seg = np.zeros(cur)
            for k in range(1, n_harm + 1):
                amp = rng.uniform(0.5, 1.0) / k
                seg += amp * np.sin(k * phase)
            env = np.sin(np.pi * np.arange(cur) / cur) ** 2
            am = 1.0 + 0.3 * np.sin(2.0 * np.pi * rng.uniform(2.0, 5.0) * t_seg[:cur])
            out[pos : pos + cur] = seg * env * am
        pos += cur
    peak = np.max(np.abs(out))
    if peak > 0:
        out *= 0.5 / peak
    return WaveForm(out, sample_rate)


def _pair_seed(master_seed, index):
    return int(np.random.SeedSequence([int(master_seed), int(index)]).generate_state(1)[0])


def make_pair(pair_seed, cfg: SynthConfig):
    """Build one (clean, reverb, t60) triple from a single pair seed.

    Draw order from the pair rng is fixed: clean signal, T60, RIR seed,
    noise seed.  The RIR holds round(T60 * sample_rate) samples, at least
    one.  Both waveforms are scaled by a common factor bringing the
    pair peak to 0.95 so the clean/reverb gain relation is preserved.
    """
    rng = np.random.default_rng(pair_seed)
    clean = synth_speech_like(cfg.duration_s, cfg.sample_rate, rng)
    t60 = rng.uniform(cfg.t60_min, cfg.t60_max)
    rir_seed = int(rng.integers(2**32))
    noise_seed = int(rng.integers(2**32))
    rir_len = max(1, int(round(t60 * cfg.sample_rate)))
    rir = synth_rir(t60, rir_len, cfg.sample_rate, cfg.direct_path_gain, rir_seed)
    reverb = reverberate(clean, rir, cfg.snr_db, rng=np.random.default_rng(noise_seed))
    peak = max(np.max(np.abs(clean.samples)), np.max(np.abs(reverb.samples)), 1e-9)
    scale = 0.95 / peak
    return (
        WaveForm(clean.samples * scale, cfg.sample_rate),
        WaveForm(reverb.samples * scale, cfg.sample_rate),
        t60,
    )


def generate_dataset(n_pairs, seed, out_dir, cfg: SynthConfig | None = None):
    """Write ``n_pairs`` clean/reverberant WAV pairs plus a manifest CSV.

    Returns the manifest path.
    """
    cfg = (cfg or SynthConfig()).validate()
    if n_pairs < 1:
        raise ContractError(f"number of pairs must be >= 1, got {n_pairs}")
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for i in range(n_pairs):
        pair_seed = _pair_seed(seed, i)
        clean, reverb, t60 = make_pair(pair_seed, cfg)
        clean_name = f"clean_{i:04d}.wav"
        reverb_name = f"reverb_{i:04d}.wav"
        write_wav(out / clean_name, clean)
        write_wav(out / reverb_name, reverb)
        rows.append(
            {
                "clean_path": clean_name,
                "reverb_path": reverb_name,
                "t60_s": repr(t60),
                "snr_db": "" if cfg.snr_db is None else repr(cfg.snr_db),
                "seed": str(pair_seed),
            }
        )
    manifest = out / "manifest.csv"
    with open(manifest, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=MANIFEST_HEADER)
        writer.writeheader()
        writer.writerows(rows)
    return manifest


def read_manifest(path):
    """Manifest rows as dicts with absolute paths; validates the header."""
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: manifest is not UTF-8 text: {exc}") from exc
    reader = csv.DictReader(io.StringIO(text, newline=""))
    if reader.fieldnames != MANIFEST_HEADER:
        raise DataError(
            f"{path}: unexpected manifest header {reader.fieldnames}, want {MANIFEST_HEADER}"
        )
    rows = []
    for row in reader:
        try:
            rows.append(
                {
                    "clean_path": str(path.parent / row["clean_path"]),
                    "reverb_path": str(path.parent / row["reverb_path"]),
                    "t60_s": float(row["t60_s"]),
                    "snr_db": None if row["snr_db"] == "" else float(row["snr_db"]),
                    "seed": int(row["seed"]),
                }
            )
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}: bad manifest row at line {reader.line_num}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty manifest")
    return rows
