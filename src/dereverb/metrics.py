"""Intrusive speech-quality metrics: CD, LLR, FWSegSNR.

Common analysis: 32 ms Hann frames with 8 ms hop, LPC order 12 via
autocorrelation + Levinson-Durbin (R[0] regularized by 1e-10*R[0]).  Frames
whose reference energy falls more than 40 dB below the loudest reference
frame are excluded from every metric, so silence padding does not shift
scores.  Each metric analyses all of a clip's gated frames at once, as
[N, frame] arrays, and runs each recursion once over both signals' rows
stacked.  These are trend metrics: constants are stated here, not tuned to
any external toolkit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractError, DataError
from .signal import WaveForm, hann_window, read_wav

LPC_ORDER = 12
ENERGY_GATE_DB = 40.0
FWSEG_BANDS = 23
FWSEG_CLAMP = (-10.0, 35.0)
FWSEG_WEIGHT_EXP = 0.2
LLR_KEEP_FRACTION = 0.95


def _frame_pair(ref: WaveForm, test: WaveForm):
    """Windowed, energy-gated frame pairs (ref_frames, test_frames)."""
    if ref.sample_rate != test.sample_rate:
        raise ContractError(
            f"sample rates differ: {ref.sample_rate} vs {test.sample_rate}"
        )
    fs = ref.sample_rate
    frame = int(round(0.032 * fs))
    hop = int(round(0.008 * fs))
    if frame < LPC_ORDER + 1:
        raise ContractError(
            f"{fs} Hz is too low a rate: a 32 ms frame holds {frame} samples, "
            f"LPC order {LPC_ORDER} needs {LPC_ORDER + 1}"
        )
    n = min(len(ref), len(test))
    if n < frame:
        raise ContractError(f"signals shorter than one 32 ms frame ({frame} samples)")
    win = hann_window(frame)
    # [num, frame] views of the unwindowed frames; only gated frames are copied
    vr, vt = (np.lib.stride_tricks.sliding_window_view(x.samples[:n], frame)[::hop]
              for x in (ref, test))
    energy = np.einsum("ij,j,ij->i", vr, win * win, vr)
    peak = energy.max()
    if peak <= 0.0:
        raise ContractError("reference signal is silent; metrics undefined")
    keep = energy >= peak * 10.0 ** (-ENERGY_GATE_DB / 10.0)
    if not keep.any():
        raise ContractError("no reference frames above the energy gate")
    fr, ft = vr[keep], vt[keep]
    fr *= win
    ft *= win
    return fr, ft


def _autocorr(x):
    """Lags 0..LPC_ORDER of each row's autocorrelation: [N, LPC_ORDER + 1]."""
    n = x.shape[1]
    return np.stack(
        [np.einsum("ij,ij->i", x[:, : n - k], x[:, k:]) for k in range(LPC_ORDER + 1)],
        axis=1,
    )


def _levinson_durbin(r):
    """Levinson-Durbin on every row of the lags r [N, p+1] at once; rows never mix.

    Regularizes r[:, 0] in place and returns the predictor coefficients a
    [N, p] (s[n] ~ sum a_k s[n-k]) and the mask of rows that are not
    degenerate.  A row is degenerate from the first step where r[0] <= 0 or
    the prediction error e <= 0; its row of ``a`` is then meaningless
    (possibly inf or NaN) and must be dropped by the caller.
    """
    r[:, 0] *= 1.0 + 1e-10
    a = np.zeros((r.shape[0], LPC_ORDER))
    e = r[:, 0].copy()
    bad = e <= 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(LPC_ORDER):
            k = (r[:, i + 1] - np.einsum("ij,ij->i", a[:, :i], r[:, i:0:-1])) / e
            a[:, :i] = a[:, :i] - k[:, None] * a[:, :i][:, ::-1]
            a[:, i] = k
            e = e * (1.0 - k * k)
            bad |= e <= 0.0
    return a, ~bad


def _lpc_cepstrum(a):
    """Minimum-phase cepstra c_1..c_p [N, p] of the all-pole models 1/A(z)."""
    p = a.shape[1]
    c = np.zeros_like(a)
    for n in range(1, p + 1):
        past = np.einsum("ij,j,ij->i", c[:, : n - 1], np.arange(1, n) / n, a[:, : n - 1][:, ::-1])
        c[:, n - 1] = a[:, n - 1] + past
    return c


def _lpc_pair(ref: WaveForm, test: WaveForm):
    """LPC analysis of both signals' gated frames in one recursion: the
    regularized reference autocorrelation r, the predictors a_ref and a_test,
    and the mask of frames valid in both."""
    fr, ft = _frame_pair(ref, test)
    n = fr.shape[0]
    r = np.concatenate([_autocorr(fr), _autocorr(ft)])
    a, ok = _levinson_durbin(r)
    return r[:n], a[:n], a[n:], ok[:n] & ok[n:]


def cepstral_distance(ref: WaveForm, test: WaveForm) -> float:
    """Mean LPC-cepstral distance in dB over energy-gated frames (lower = better)."""
    _, a_ref, a_test, ok = _lpc_pair(ref, test)
    if not ok.any():
        raise ContractError("no valid frames for cepstral distance")
    m = np.count_nonzero(ok)
    c = _lpc_cepstrum(np.concatenate([a_ref[ok], a_test[ok]]))
    d = c[:m] - c[m:]
    scale = 10.0 / math.log(10.0)
    return float(np.mean(scale * np.sqrt(2.0 * np.einsum("ij,ij->i", d, d))))


def _toeplitz_form(r, v):
    """v^T R v per row, R the symmetric Toeplitz matrix of lags r (both [N, p+1])."""
    c = _autocorr(v)
    return r[:, 0] * c[:, 0] + 2.0 * np.einsum("ij,ij->i", r[:, 1:], c[:, 1:])


def llr(ref: WaveForm, test: WaveForm, return_skipped=False):
    """Log-likelihood ratio: mean of the smallest 95% of frame values.

    Frames whose autocorrelation is not positive definite after
    regularization are skipped; pass ``return_skipped=True`` to get
    ``(value, skipped_count)``.
    """
    r_ref, a_ref, a_test, ok = _lpc_pair(ref, test)
    r = r_ref[ok]
    m = r.shape[0]
    # error-filter rows [1, -a_1, ..., -a_p] of the test, then the reference
    # signal, both against the reference autocorrelation
    v = np.ones((2 * m, LPC_ORDER + 1))
    v[:m, 1:] = -a_test[ok]
    v[m:, 1:] = -a_ref[ok]
    q = _toeplitz_form(np.tile(r, (2, 1)), v)
    num, den = q[:m], q[m:]
    pos = (num > 0.0) & (den > 0.0)
    skipped = int(ok.size - np.count_nonzero(pos))
    if not pos.any():
        raise ContractError(f"no valid frames for LLR ({skipped} skipped)")
    values = np.sort(np.maximum(0.0, np.log(num[pos] / den[pos])))
    keep = max(1, round(values.size * LLR_KEEP_FRACTION))
    result = float(np.mean(values[:keep]))
    return (result, skipped) if return_skipped else result


def _mel_filterbank(n_bands, nfft, fs):
    mel = lambda f: 2595.0 * np.log10(1.0 + f / 700.0)
    imel = lambda m: 700.0 * (10.0 ** (m / 2595.0) - 1.0)
    edges = imel(np.linspace(mel(0.0), mel(fs / 2.0), n_bands + 2))
    freqs = np.arange(nfft // 2 + 1) * fs / nfft
    lo, mid, hi = (edges[i : i + n_bands, None] for i in range(3))
    rise = (freqs - lo) / np.maximum(mid - lo, 1e-12)
    fall = (hi - freqs) / np.maximum(hi - mid, 1e-12)
    return np.clip(np.minimum(rise, fall), 0.0, None)


def _band_energy(frames, bank):
    """[N, bands]: each frame's power spectrum summed through the mel bank."""
    power = np.abs(np.fft.rfft(frames, 2 * (bank.shape[1] - 1), axis=1))
    power *= power
    return power @ bank.T


def fwsegsnr(ref: WaveForm, test: WaveForm) -> float:
    """Frequency-weighted segmental SNR in dB (higher = better).

    Per frame and mel band: 10 log10(E_ref / max(E_diff, floor)) weighted by
    the band reference magnitude to the 0.2 power; frame values are clamped
    to [-10, 35] dB and averaged over energy-gated frames.
    """
    fr, ft = _frame_pair(ref, test)
    nfft = 1 << (fr.shape[1] - 1).bit_length()
    bank = _mel_filterbank(FWSEG_BANDS, nfft, ref.sample_rate)
    e_ref = _band_energy(fr, bank)
    ft -= fr  # the difference frames; the sign leaves their power spectrum as it is
    e_diff = _band_energy(ft, bank)
    weights = np.sqrt(np.maximum(e_ref, 0.0)) ** FWSEG_WEIGHT_EXP
    wsum = weights.sum(axis=1)
    ok = wsum > 0.0
    if not ok.any():
        raise ContractError("no valid frames for FWSegSNR")
    snr = 10.0 * np.log10(np.maximum(e_ref, 1e-20) / np.maximum(e_diff, 1e-20))
    values = np.einsum("ij,ij->i", weights, snr)[ok] / wsum[ok]
    return float(np.mean(np.clip(values, *FWSEG_CLAMP)))


@dataclass
class MetricReport:
    """Per-utterance metric rows plus corpus means."""

    rows: list = field(default_factory=list)  # (utt_id, cd, llr, fwsegsnr)

    def add(self, utt_id, cd_val, llr_val, fw_val):
        self.rows.append((utt_id, cd_val, llr_val, fw_val))

    def means(self):
        arr = np.array([[r[1], r[2], r[3]] for r in self.rows])
        return tuple(float(v) for v in arr.mean(axis=0))

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["utt_id", "cd", "llr", "fwsegsnr"])
            writer.writerows(self.rows)
            writer.writerow(["MEAN", *self.means()])


def evaluate_pair(ref: WaveForm, test: WaveForm):
    """All three metrics for one reference/test pair."""
    return {
        "cd": cepstral_distance(ref, test),
        "llr": llr(ref, test),
        "fwsegsnr": fwsegsnr(ref, test),
    }


def evaluate_dirs(ref_dir, test_dir) -> MetricReport:
    """Match WAVs by filename across two directories and score each pair."""
    ref_dir, test_dir = Path(ref_dir), Path(test_dir)
    refs = sorted(p.name for p in ref_dir.glob("*.wav"))
    if not refs:
        raise DataError(f"no WAV files in {ref_dir}")
    report = MetricReport()
    for name in refs:
        test_path = test_dir / name
        if not test_path.exists():
            raise DataError(f"missing test file for {name!r} in {test_dir}")
        ref = read_wav(ref_dir / name)
        test = read_wav(test_path, expected_rate=ref.sample_rate)
        try:
            scores = evaluate_pair(ref, test)
        except ContractError as exc:
            raise ContractError(f"{ref_dir / name}, {test_path}: {exc}") from exc
        report.add(Path(name).stem, scores["cd"], scores["llr"], scores["fwsegsnr"])
    return report
