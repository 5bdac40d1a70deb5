"""RIR synthesis, reverberation, and dataset generation."""

import numpy as np
import pytest

from dereverb.datasynth import (
    SynthConfig,
    generate_dataset,
    make_pair,
    read_manifest,
    reverberate,
    synth_rir,
    synth_speech_like,
)
from dereverb.errors import ContractError, DataError
from dereverb.signal import WaveForm, read_wav


class TestSynthRir:
    def test_length_one_is_pure_direct_path(self):
        h = synth_rir(t60=0.5, length=1, sample_rate=4000)
        np.testing.assert_array_equal(h.samples, [1.0])

    def test_envelope_decays_60db_at_t60(self):
        fs, t60 = 4000, 0.5
        tau = t60 / (3 * np.log(10))
        n = int(t60 * fs)
        envelope_at_t60 = 20 * np.log10(np.exp(-n / (fs * tau)))
        assert abs(envelope_at_t60 - (-60.0)) < 0.01

    def test_tail_follows_envelope(self):
        fs, t60 = 4000, 0.4
        h = synth_rir(t60=t60, length=int(t60 * fs), sample_rate=fs, seed=3)
        tau = t60 / (3 * np.log(10))
        n = np.arange(1, len(h))
        whitened = h.samples[1:] / np.exp(-n / (fs * tau))
        # de-enveloped tail should be unit-variance white noise
        assert abs(np.std(whitened) - 1.0) < 0.1

    def test_deterministic_per_seed(self):
        spec = dict(t60=0.3, length=512, sample_rate=4000, seed=11)
        a = synth_rir(**spec)
        b = synth_rir(**spec)
        assert a.samples.tobytes() == b.samples.tobytes()

    def test_invalid_spec(self):
        with pytest.raises(ContractError):
            synth_rir(t60=0.0, length=10, sample_rate=4000)
        with pytest.raises(ContractError):
            synth_rir(t60=0.5, length=0, sample_rate=4000)


class TestReverberate:
    def test_identity_rir(self):
        rng = np.random.default_rng(100)
        s = WaveForm(rng.standard_normal(500), 4000)
        x = reverberate(s, WaveForm(np.array([1.0]), 4000))
        np.testing.assert_allclose(x.samples, s.samples, atol=1e-12)

    def test_zero_signal_with_snr_rejected(self):
        s = WaveForm(np.zeros(100), 4000)
        with pytest.raises(ContractError):
            reverberate(s, WaveForm(np.array([1.0]), 4000), snr_db=20.0)

    def test_matches_naive_convolution_oracle(self):
        rng = np.random.default_rng(101)
        s = WaveForm(rng.standard_normal(200), 4000)
        h = WaveForm(rng.standard_normal(32), 4000)
        got = reverberate(s, h).samples
        want = np.zeros(200)
        for n in range(200):
            acc = 0.0
            for k in range(32):
                if 0 <= n - k < 200:
                    acc += s.samples[n - k] * h.samples[k]
            want[n] = acc
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(102)
        s1 = WaveForm(rng.standard_normal(300), 4000)
        s2 = WaveForm(rng.standard_normal(300), 4000)
        h = WaveForm(rng.standard_normal(64), 4000)
        a = 1.7
        lhs = reverberate(WaveForm(a * s1.samples + s2.samples, 4000), h).samples
        rhs = a * reverberate(s1, h).samples + reverberate(s2, h).samples
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_requested_snr_achieved(self):
        rng = np.random.default_rng(103)
        s = WaveForm(rng.standard_normal(4000), 4000)  # 1 s
        h = WaveForm(rng.standard_normal(128) * 0.1, 4000)
        for snr in (0.0, 10.0, 30.0):
            dry = reverberate(s, h)
            wet = reverberate(s, h, snr_db=snr, rng=np.random.default_rng(7))
            noise = wet.samples - dry.samples
            got = 10 * np.log10(np.mean(dry.samples**2) / np.mean(noise**2))
            assert abs(got - snr) < 0.1

    def test_rate_mismatch(self):
        with pytest.raises(ContractError):
            reverberate(WaveForm(np.zeros(100), 8000), WaveForm(np.array([1.0]), 4000))


class TestSpeechLike:
    def test_has_pauses_and_activity(self):
        wf = synth_speech_like(3.0, 4000, np.random.default_rng(104))
        assert len(wf) == 12000
        assert np.max(np.abs(wf.samples)) == pytest.approx(0.5)
        seg = wf.samples.reshape(-1, 1000)
        rms = np.sqrt(np.mean(seg**2, axis=1))
        assert (rms < 1e-6).any() or rms.min() < 0.1 * rms.max()

    def test_never_all_silent(self):
        # every segment of this pair's clean clip draws silent: the last one
        # is voiced instead, so the pair (and its eval) has a reference
        clean, reverb, _ = make_pair(1927232553, SynthConfig(duration_s=1.0))
        assert np.max(np.abs(clean.samples)) > 0.01
        assert np.max(np.abs(clean.samples[:3000])) == 0.0
        assert np.max(np.abs(reverb.samples)) > 0.1

    def test_deterministic(self):
        a = synth_speech_like(1.0, 4000, np.random.default_rng(5))
        b = synth_speech_like(1.0, 4000, np.random.default_rng(5))
        assert a.samples.tobytes() == b.samples.tobytes()


class TestGenerateDataset:
    def test_file_and_manifest_contract(self, tmp_path):
        manifest = generate_dataset(4, seed=7, out_dir=tmp_path / "d")
        rows = read_manifest(manifest)
        assert len(rows) == 4
        wavs = sorted(p.name for p in (tmp_path / "d").glob("*.wav"))
        assert len(wavs) == 8
        header = open(manifest).readline().strip()
        assert header == "clean_path,reverb_path,t60_s,snr_db,seed"
        for row in rows:
            assert 0.3 <= row["t60_s"] <= 0.7
            assert row["snr_db"] is None

    def test_byte_identical_across_runs(self, tmp_path):
        m1 = generate_dataset(3, seed=9, out_dir=tmp_path / "a")
        m2 = generate_dataset(3, seed=9, out_dir=tmp_path / "b")
        assert open(m1, "rb").read() == open(m2, "rb").read()
        for name in ("clean_0001.wav", "reverb_0002.wav"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b

    def test_regeneration_from_manifest_seed(self, tmp_path):
        cfg = SynthConfig()
        manifest = generate_dataset(2, seed=13, out_dir=tmp_path / "d", cfg=cfg)
        rows = read_manifest(manifest)
        for row in rows:
            clean, reverb, t60 = make_pair(row["seed"], cfg)
            assert t60 == pytest.approx(row["t60_s"])
            disk_clean = read_wav(row["clean_path"])
            disk_reverb = read_wav(row["reverb_path"])
            assert np.max(np.abs(disk_clean.samples - clean.samples)) <= 1 / 32767
            assert np.max(np.abs(disk_reverb.samples - reverb.samples)) <= 1 / 32767

    @pytest.mark.parametrize("field", ["t60_s", "snr_db", "seed"])
    def test_non_numeric_manifest_field_is_data_error(self, tmp_path, field):
        cfg = SynthConfig(duration_s=0.2)
        manifest = generate_dataset(2, seed=3, out_dir=tmp_path / "d", cfg=cfg)
        lines = manifest.read_text().splitlines()
        header = lines[0].split(",")
        cells = lines[2].split(",")
        cells[header.index(field)] = "abc"
        lines[2] = ",".join(cells)
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"manifest\.csv.*line 3"):
            read_manifest(manifest)

    def test_non_utf8_manifest_is_data_error(self, tmp_path):
        cfg = SynthConfig(duration_s=0.2)
        manifest = generate_dataset(1, seed=3, out_dir=tmp_path / "d", cfg=cfg)
        manifest.write_bytes(manifest.read_bytes().replace(b"clean_0000", b"clean_\xff000"))
        with pytest.raises(DataError, match=r"manifest\.csv.*UTF-8"):
            read_manifest(manifest)

    def test_wav_roundtrip_within_one_lsb(self, tmp_path):
        cfg = SynthConfig(duration_s=1.0)
        manifest = generate_dataset(1, seed=3, out_dir=tmp_path / "d", cfg=cfg)
        row = read_manifest(manifest)[0]
        clean, reverb, _ = make_pair(row["seed"], cfg)
        back = read_wav(row["reverb_path"])
        assert np.max(np.abs(back.samples - reverb.samples)) <= 1.0 / 32767.0
