"""STFT framing, spectral images, masking, smoothing, WAV I/O."""

from types import SimpleNamespace

import numpy as np
import pytest

from dereverb.errors import ContractError, ShapeError
from dereverb.signal import (
    Spectrogram,
    WaveForm,
    apply_mask,
    hann_window,
    istft,
    make_spectral_images,
    psd_smooth,
    read_wav,
    reassemble_spectral_images,
    stft,
    write_wav,
)

CFG = SimpleNamespace(sample_rate=4000, frame_len=128, hop=32, fft_size=128, image_frames=64)
FRAMING = (CFG.frame_len, CFG.hop, CFG.fft_size)


def naive_frame_dft(frame, fft_size):
    """Direct DFT sum oracle (first fft_size//2 + 1 bins)."""
    n = fft_size
    padded = np.zeros(n)
    padded[: frame.size] = frame
    bins = np.zeros(n // 2 + 1, dtype=np.complex128)
    for k in range(n // 2 + 1):
        acc = 0j
        for t in range(n):
            acc += padded[t] * np.exp(-2j * np.pi * k * t / n)
        bins[k] = acc
    return bins


class TestStft:
    def test_zero_signal(self):
        spec = stft(WaveForm(np.zeros(1000), 4000), *FRAMING)
        assert spec.n_bins == CFG.fft_size // 2 + 1
        np.testing.assert_array_equal(spec.data, 0)

    def test_impulse_matches_naive_dft(self):
        sig = np.zeros(256)
        sig[0] = 1.0
        spec = stft(WaveForm(sig, 4000), *FRAMING)
        win = hann_window(CFG.frame_len)
        want = naive_frame_dft(sig[: CFG.frame_len] * win, CFG.fft_size)
        np.testing.assert_allclose(spec.data[0], want, atol=1e-9)

    def test_random_signal_matches_naive_dft(self):
        rng = np.random.default_rng(80)
        sig = rng.standard_normal(CFG.sample_rate)  # 1 s
        spec = stft(WaveForm(sig, 4000), *FRAMING)
        win = hann_window(CFG.frame_len)
        padded = np.zeros((spec.n_frames - 1) * CFG.hop + CFG.frame_len)
        padded[: sig.size] = sig
        for t in (0, 3, spec.n_frames - 1):
            frame = padded[t * CFG.hop : t * CFG.hop + CFG.frame_len] * win
            np.testing.assert_allclose(
                spec.data[t], naive_frame_dft(frame, CFG.fft_size), atol=1e-9
            )

    def test_tail_padding_covers_all_samples(self):
        n = CFG.frame_len + CFG.hop + 7  # not a whole number of hops
        spec = stft(WaveForm(np.ones(n), 4000), *FRAMING)
        covered = (spec.n_frames - 1) * CFG.hop + CFG.frame_len
        assert covered >= n

    def test_empty_signal_rejected(self):
        with pytest.raises(ContractError):
            stft(WaveForm(np.zeros(10), 4000), *FRAMING)

    def test_parseval_per_frame(self):
        rng = np.random.default_rng(81)
        sig = rng.standard_normal(2000)
        spec = stft(WaveForm(sig, 4000), *FRAMING)
        win = hann_window(CFG.frame_len)
        n = CFG.fft_size
        padded = np.zeros((spec.n_frames - 1) * CFG.hop + CFG.frame_len)
        padded[: sig.size] = sig
        for t in range(0, spec.n_frames, 7):
            frame = padded[t * CFG.hop : t * CFG.hop + CFG.frame_len] * win
            time_energy = np.sum(frame**2)
            s = spec.data[t]
            freq_energy = (
                np.abs(s[0]) ** 2 + 2 * np.sum(np.abs(s[1:-1]) ** 2) + np.abs(s[-1]) ** 2
            ) / n
            np.testing.assert_allclose(freq_energy, time_energy, rtol=1e-9)


class TestIstft:
    def test_roundtrip_interior(self):
        rng = np.random.default_rng(82)
        sig = rng.standard_normal(4000)
        back = istft(stft(WaveForm(sig, 4000), *FRAMING))
        assert len(back) == sig.size
        core = slice(CFG.frame_len, sig.size - CFG.frame_len)
        err = np.sqrt(np.mean((back.samples[core] - sig[core]) ** 2))
        ref = np.sqrt(np.mean(sig[core] ** 2))
        assert err / ref < 1e-6

    def test_zero_spectrogram(self):
        spec = stft(WaveForm(np.zeros(1000), 4000), *FRAMING)
        out = istft(spec)
        np.testing.assert_array_equal(out.samples, 0)

    def test_modified_spectrogram_reanalysis(self):
        rng = np.random.default_rng(83)
        sig = rng.standard_normal(4000)
        spec = stft(WaveForm(sig, 4000), *FRAMING)
        spec.data[:, 5] *= 0.25  # arbitrary consistent modification
        y = istft(spec)
        spec2 = stft(y, *FRAMING)
        y2 = istft(spec2)
        core = slice(CFG.frame_len, sig.size - CFG.frame_len)
        err = np.sqrt(np.mean((y2.samples[core] - y.samples[core]) ** 2))
        ref = np.sqrt(np.mean(y.samples[core] ** 2))
        assert err / ref < 1e-6

    def test_sample_rate_comes_from_the_waveform(self):
        sig = np.random.default_rng(96).standard_normal(1000)
        spec = stft(WaveForm(sig, 8000), *FRAMING)
        assert spec.sample_rate == 8000
        back = istft(spec)
        assert back.sample_rate == 8000 and len(back) == sig.size

    def test_inconsistent_metadata_rejected(self):
        spec = stft(WaveForm(np.zeros(1000), 4000), *FRAMING)
        spec.hop = spec.frame_len * 2
        with pytest.raises(ContractError):
            istft(spec)


class TestSpectralImages:
    def _spec(self, n_frames, rng=None):
        f = CFG.fft_size // 2 + 1
        data = (
            np.zeros((n_frames, f), dtype=np.complex128)
            if rng is None
            else rng.standard_normal((n_frames, f)) + 1j * rng.standard_normal((n_frames, f))
        )
        return Spectrogram(data, CFG.frame_len, CFG.hop, CFG.sample_rate, CFG.fft_size)

    def test_exact_multiple_single_image(self):
        rng = np.random.default_rng(84)
        spec = self._spec(CFG.image_frames, rng)
        images = make_spectral_images(spec, CFG.image_frames)
        assert len(images) == 1
        back = reassemble_spectral_images(images, spec)
        np.testing.assert_array_equal(back.data[:, : CFG.fft_size // 2], spec.data[:, : CFG.fft_size // 2])
        np.testing.assert_array_equal(back.data[:, -1], 0)

    def test_partial_block_zero_padded(self):
        rng = np.random.default_rng(85)
        spec = self._spec(300, rng)
        images = make_spectral_images(spec, 256)
        assert len(images) == 2
        assert images[1].frame_offset == 256
        np.testing.assert_array_equal(images[1].data[44:], 0)
        back = reassemble_spectral_images(images, spec)
        assert back.n_frames == 300

    def test_roundtrip_on_kept_bins(self):
        rng = np.random.default_rng(86)
        spec = self._spec(150, rng)
        back = reassemble_spectral_images(make_spectral_images(spec, 64), spec)
        np.testing.assert_array_equal(
            back.data[:, : CFG.fft_size // 2], spec.data[:, : CFG.fft_size // 2]
        )


class TestApplyMask:
    def _spec(self, data):
        return Spectrogram(np.asarray(data, dtype=np.complex128), 128, 32, 4000, 128)

    def test_identity_mask(self):
        rng = np.random.default_rng(87)
        x = self._spec(rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4)))
        m = self._spec(np.ones((5, 4)))
        np.testing.assert_array_equal(apply_mask(m, x).data, x.data)

    def test_rotation_mask(self):
        x = self._spec([[1.0 + 0j]])
        m = self._spec([[1j]])
        assert apply_mask(m, x).data[0, 0] == 1j

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(88)
        m = self._spec(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
        x = self._spec(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
        got = apply_mask(m, x).data
        for t in range(6):
            for f in range(3):
                mr, mi = m.data[t, f].real, m.data[t, f].imag
                xr, xi = x.data[t, f].real, x.data[t, f].imag
                want = (mr * xr - mi * xi) + 1j * (mr * xi + mi * xr)
                assert abs(got[t, f] - want) <= 1e-12

    def test_bilinear(self):
        rng = np.random.default_rng(89)
        m1 = self._spec(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        m2 = self._spec(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        x = self._spec(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        a = 2.5 - 0.5j
        lhs = apply_mask(self._spec(a * m1.data + m2.data), x).data
        rhs = a * apply_mask(m1, x).data + apply_mask(m2, x).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            apply_mask(self._spec(np.ones((2, 2))), self._spec(np.ones((3, 2))))


class TestPsdSmooth:
    def _spec(self, data):
        return Spectrogram(np.asarray(data, dtype=np.complex128), 128, 32, 4000, 128)

    def test_alpha_zero_is_identity(self):
        rng = np.random.default_rng(93)
        spec = self._spec(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
        np.testing.assert_array_equal(psd_smooth(spec, 0.0).data, spec.data)

    def test_constant_magnitude_steady_state(self):
        rng = np.random.default_rng(94)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(8, 4)))
        spec = self._spec(3.0 * phases)
        out = psd_smooth(spec, 0.6)
        np.testing.assert_allclose(np.abs(out.data), 3.0, atol=1e-12)
        np.testing.assert_allclose(out.data, spec.data, atol=1e-12)

    def test_matches_scalar_recursion_oracle(self):
        rng = np.random.default_rng(95)
        data = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
        out = psd_smooth(self._spec(data), 0.8).data
        for f in range(3):
            p = abs(data[0, f]) ** 2
            for t in range(7):
                p = 0.8 * p + 0.2 * abs(data[t, f]) ** 2
                want = np.sqrt(p) * data[t, f] / abs(data[t, f])
                assert abs(out[t, f] - want) <= 1e-12

    def test_alpha_out_of_range(self):
        spec = self._spec(np.ones((2, 2)))
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ContractError):
                psd_smooth(spec, bad)


class TestWavIO:
    def test_roundtrip_within_one_lsb(self, tmp_path):
        rng = np.random.default_rng(96)
        wf = WaveForm(np.clip(rng.standard_normal(4000) * 0.3, -1, 1), 4000)
        path = tmp_path / "x.wav"
        write_wav(path, wf)
        back = read_wav(path, expected_rate=4000)
        assert back.sample_rate == 4000
        assert np.max(np.abs(back.samples - wf.samples)) <= 1.0 / 32767.0

    def test_rate_validation(self, tmp_path):
        path = tmp_path / "x.wav"
        write_wav(path, WaveForm(np.zeros(100), 8000))
        with pytest.raises(ContractError):
            read_wav(path, expected_rate=16000)

    def test_overrange_rejected(self, tmp_path):
        with pytest.raises(ContractError):
            write_wav(tmp_path / "x.wav", WaveForm(np.array([0.0, 1.5]), 8000))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, tmp_path, bad):
        with pytest.raises(ContractError):
            write_wav(tmp_path / "x.wav", WaveForm(np.array([0.0, bad]), 8000))
        assert not (tmp_path / "x.wav").exists()
