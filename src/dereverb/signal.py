"""STFT analysis/synthesis, spectral-image batching, masking, PSD smoothing, WAV I/O.

Framing is Hann-windowed with ``0 < hop <= frame_len <= fft_size``; the
model's configs use 32 ms frames with 75% overlap (hop = frame/4) and
fft_size equal to the frame length.  "Spectral images" are fixed-size tiles
cut from the lower half of the STFT (bins 0 .. fft_size/2 - 1: DC kept,
Nyquist dropped and restored as zero on reassembly).
"""

from __future__ import annotations

import math
import wave
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError, DataError, ShapeError


@dataclass
class WaveForm:
    """Mono audio samples at a fixed sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ShapeError(f"waveform must be 1-D, got shape {self.samples.shape}")

    def __len__(self):
        return self.samples.size


@dataclass
class Spectrogram:
    """Complex [T_frames x F_bins] array plus the framing that produced it."""

    data: np.ndarray
    frame_len: int
    hop: int
    sample_rate: int
    fft_size: int
    n_samples: int | None = None

    @property
    def n_frames(self):
        return self.data.shape[0]

    @property
    def n_bins(self):
        return self.data.shape[1]


@dataclass
class SpectralImage:
    """Fixed-size complex tile [T_img x F_img] cut from a spectrogram."""

    data: np.ndarray
    frame_offset: int


def hann_window(n):
    """Periodic Hann window (COLA at 75% overlap)."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def check_framing(frame_len, hop, fft_size, error=ContractError):
    """Raise ``error`` unless 0 < hop <= frame_len <= fft_size."""
    if not (0 < hop <= frame_len <= fft_size):
        raise error(
            f"need 0 < hop <= frame_len <= fft_size, got "
            f"hop={hop}, frame={frame_len}, fft={fft_size}"
        )


def stft(x: WaveForm, frame_len: int, hop: int, fft_size: int) -> Spectrogram:
    """Hann-windowed STFT; the tail is zero-padded so all samples are covered."""
    check_framing(frame_len, hop, fft_size)
    n = len(x)
    if n < frame_len:
        raise ContractError(f"signal length {n} is shorter than one frame ({frame_len})")
    n_frames = 1 + math.ceil(max(0, n - frame_len) / hop)
    padded_len = (n_frames - 1) * hop + frame_len
    sig = np.zeros(padded_len)
    sig[:n] = x.samples
    win = hann_window(frame_len)
    frames = sliding_window_view(sig, frame_len)[::hop] * win
    data = np.fft.rfft(frames, n=fft_size, axis=1)
    return Spectrogram(
        data=data,
        frame_len=frame_len,
        hop=hop,
        sample_rate=x.sample_rate,
        fft_size=fft_size,
        n_samples=n,
    )


def istft(spec: Spectrogram) -> WaveForm:
    """Weighted overlap-add inverse, trimmed to ``spec.n_samples`` when known."""
    check_framing(spec.frame_len, spec.hop, spec.fft_size)
    if spec.data.shape[1] != spec.fft_size // 2 + 1:
        raise ContractError(
            f"expected {spec.fft_size // 2 + 1} bins for fft_size {spec.fft_size}, "
            f"got {spec.data.shape[1]}"
        )
    n_frames = spec.n_frames
    win = hann_window(spec.frame_len)
    total = (n_frames - 1) * spec.hop + spec.frame_len
    y = np.zeros(total)
    wsum = np.zeros(total)
    segs = np.fft.irfft(spec.data, n=spec.fft_size, axis=1)[:, : spec.frame_len] * win
    w2 = win * win
    for t in range(n_frames):
        start = t * spec.hop
        y[start : start + spec.frame_len] += segs[t]
        wsum[start : start + spec.frame_len] += w2
    good = wsum > 1e-12
    y[good] /= wsum[good]
    return WaveForm(y[: spec.n_samples], spec.sample_rate)


def make_spectral_images(spec: Spectrogram, image_frames: int) -> list[SpectralImage]:
    """Cut the lower half of the STFT into consecutive fixed-size tiles.

    Keeps bins [0, fft_size/2); chunks frames into non-overlapping blocks of
    ``image_frames``, zero-padding the final partial block.
    """
    f_img = spec.fft_size // 2
    if spec.n_bins < f_img:
        raise ContractError(
            f"spectrogram has {spec.n_bins} bins, needs at least {f_img}"
        )
    lower = spec.data[:, :f_img]
    images = []
    for start in range(0, spec.n_frames, image_frames):
        block = lower[start : start + image_frames]
        if block.shape[0] < image_frames:
            padded = np.zeros((image_frames, f_img), dtype=np.complex128)
            padded[: block.shape[0]] = block
            block = padded
        images.append(SpectralImage(data=block.copy(), frame_offset=start))
    return images


def reassemble_spectral_images(images, like: Spectrogram) -> Spectrogram:
    """Inverse of :func:`make_spectral_images`: pad bins back to full spectra.

    Drops the zero-padding of the final block and restores the Nyquist bin
    as zero.  ``like`` supplies frame count and metadata.
    """
    f_img = like.fft_size // 2
    n_frames = like.n_frames
    data = np.zeros((n_frames, like.fft_size // 2 + 1), dtype=np.complex128)
    for img in images:
        block = img.data
        stop = min(img.frame_offset + block.shape[0], n_frames)
        if stop > img.frame_offset:
            data[img.frame_offset : stop, :f_img] = block[: stop - img.frame_offset]
    return replace(like, data=data)


def apply_mask(mask: Spectrogram, x: Spectrogram) -> Spectrogram:
    """Complex ratio masking: elementwise complex product of mask and input."""
    if mask.data.shape != x.data.shape:
        raise ShapeError(
            f"mask shape {mask.data.shape} does not match input {x.data.shape}"
        )
    return replace(x, data=mask.data * x.data)


def psd_smooth(spec: Spectrogram, alpha: float) -> Spectrogram:
    """First-order recursive smoothing of the power spectrum along time.

    P(t, f) = alpha * P(t-1, f) + (1 - alpha) * |S(t, f)|^2, initialized at
    the first frame's power; output keeps the original phase with magnitude
    sqrt(P).
    """
    if not (0.0 <= alpha < 1.0):
        raise ContractError(f"smoothing constant must be in [0, 1), got {alpha}")
    if alpha == 0.0:
        return replace(spec, data=spec.data.copy())
    m = np.abs(spec.data)
    p = np.empty_like(m)
    p[0] = m[0] * m[0]
    for t in range(1, m.shape[0]):
        p[t] = alpha * p[t - 1] + (1.0 - alpha) * m[t] * m[t]
    unit = np.divide(spec.data, m, out=np.zeros_like(spec.data), where=m > 0)
    return replace(spec, data=np.sqrt(p) * unit)


# ---------------------------------------------------------------------------
# WAV I/O: 16-bit PCM mono, little-endian RIFF
# ---------------------------------------------------------------------------


def write_wav(path, wf: WaveForm):
    """Write 16-bit PCM mono; samples must be finite and already lie in [-1, 1]."""
    if not np.isfinite(wf.samples).all():
        raise ContractError("samples are not finite (NaN or Inf); nothing written")
    peak = np.max(np.abs(wf.samples)) if len(wf) else 0.0
    if peak > 1.0:
        raise ContractError(f"samples exceed full scale (peak {peak:.3f}); normalize first")
    q = np.clip(np.rint(wf.samples * 32767.0), -32768, 32767).astype("<i2")
    with open(path, "wb") as stream, wave.open(stream, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(wf.sample_rate)
        fh.writeframes(q.tobytes())


def read_wav(path, expected_rate: int | None = None) -> WaveForm:
    """Read 16-bit PCM mono; optionally validates the sample rate."""
    try:
        with open(path, "rb") as stream, wave.open(stream, "rb") as fh:
            if fh.getnchannels() != 1:
                raise DataError(f"{path}: expected mono, got {fh.getnchannels()} channels")
            if fh.getsampwidth() != 2:
                raise DataError(
                    f"{path}: expected 16-bit PCM, got {8 * fh.getsampwidth()}-bit"
                )
            rate = fh.getframerate()
            raw = fh.readframes(fh.getnframes())
    except (wave.Error, EOFError) as exc:
        raise DataError(f"{path}: not a readable WAV file: {exc}") from exc
    except RuntimeError as exc:  # wave's bare error for a seek past a chunk's end
        raise DataError(f"{path}: not a readable WAV file: chunk size past its end") from exc
    if len(raw) % 2:
        raise DataError(f"{path}: data chunk ends inside a 16-bit sample ({len(raw)} bytes)")
    if expected_rate is not None and rate != expected_rate:
        raise ContractError(
            f"{path}: sample rate {rate} Hz does not match expected {expected_rate} Hz"
        )
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32767.0
    return WaveForm(samples, rate)
