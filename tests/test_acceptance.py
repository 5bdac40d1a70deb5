"""Acceptance suite: one test per release criterion.

Criteria 8 and 9 train real (tiny) models and dominate the runtime; the
whole module is designed to finish in well under twenty minutes on two CPU
cores.  A PASS/FAIL line per criterion is printed in the terminal summary.
"""

import time

import numpy as np
import pytest

from dereverb import ctensor as ct
from dereverb.attention import ComplexTFSA, ConventionalSA, Sdab
from dereverb.ctensor import ComplexTensor
from dereverb.datasynth import SynthConfig, generate_dataset, read_manifest, reverberate
from dereverb.gradcheck import run_suite
from dereverb.layers import complex_conv2d
from dereverb.metrics import cepstral_distance, fwsegsnr
from dereverb.model import (
    DccrnModel,
    ModelConfig,
    complex_loss,
    enhance_waveform,
    train,
)
from dereverb.signal import (
    Spectrogram,
    WaveForm,
    apply_mask,
    hann_window,
    istft,
    read_wav,
    stft,
)
from helpers import ConstantMask, count_parameters, from_complex
from taped_ops import hermitian_transpose

DESK = ModelConfig()  # desk scale: 32 ms frames at 4 kHz, 75% overlap


def rand_ct(rng, *shape):
    return ComplexTensor(rng.standard_normal(shape), rng.standard_normal(shape))


def overfit_config(**overrides):
    """Tiny DCCRN used by the training criteria."""
    base = dict(
        num_enc_layers=2,
        channels=(4, 8),
        gru_hidden=16,
        attention="complex",
        image_frames=64,
        sample_rate=4000,
        frame_len=128,
        hop=32,
        fft_size=128,
        batch_size=4,
        learning_rate=1e-3,
        seed=0,
        checkpoint_every=0,
    )
    base.update(overrides)
    return ModelConfig(**base)


class TestCriterion1GradientSuite:
    def test_all_layers_and_attention_variants_pass_fd(self):
        t0 = time.perf_counter()
        ok, rows = run_suite(seed=0)
        elapsed = time.perf_counter() - t0
        for name, err, _, passed in rows:
            assert passed, f"{name}: max relative error {err:.3e} exceeds 1e-4"
        assert ok
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s (budget 60s)"


class TestCriterion2OracleEquivalence:
    def test_complex_matmul(self):
        rng = np.random.default_rng(201)
        a, b = rand_ct(rng, 3, 4), rand_ct(rng, 4, 2)
        got = ct.matmul(a, b).to_complex()
        want = np.zeros((3, 2), dtype=np.complex128)
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    want[i, j] += a.to_complex()[i, k] * b.to_complex()[k, j]
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_complex_conv2d(self):
        rng = np.random.default_rng(202)
        x = rand_ct(rng, 1, 5, 4, 2)
        w = rand_ct(rng, 3, 2, 3, 3)
        got = complex_conv2d(x, w, stride=(1, 2), padding=1).to_complex()[0]
        xc, wc = x.to_complex()[0], w.to_complex()
        xp = np.zeros((7, 6, 2), dtype=np.complex128)
        xp[1:6, 1:5] = xc
        want = np.zeros_like(got)
        for to in range(want.shape[0]):
            for fo in range(want.shape[1]):
                for co in range(3):
                    acc = 0j
                    for ci in range(2):
                        for a in range(3):
                            for b in range(3):
                                acc += xp[to + a, 2 * fo + b, ci] * wc[co, ci, a, b]
                    want[to, fo, co] = acc
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_apply_mask(self):
        rng = np.random.default_rng(203)
        mk = lambda: Spectrogram(
            rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5)), 128, 32, 4000, 128
        )
        m, x = mk(), mk()
        got = apply_mask(m, x).data
        for t in range(6):
            for f in range(5):
                mr, mi = m.data[t, f].real, m.data[t, f].imag
                xr, xi = x.data[t, f].real, x.data[t, f].imag
                want = (mr * xr - mi * xi) + 1j * (mr * xi + mi * xr)
                assert abs(got[t, f] - want) <= 1e-10

    def test_reverberate(self):
        rng = np.random.default_rng(204)
        s = WaveForm(rng.standard_normal(160), 4000)
        h = WaveForm(rng.standard_normal(24), 4000)
        got = reverberate(s, h).samples
        for n in range(0, 160, 7):
            acc = 0.0
            for k in range(24):
                if 0 <= n - k < 160:
                    acc += s.samples[n - k] * h.samples[k]
            assert abs(got[n] - acc) <= 1e-10

    def _softmax(self, row):
        e = np.exp(row - row.max())
        return e / e.sum()

    def test_conventional_sa_forward(self):
        rng = np.random.default_rng(205)
        sa = ConventionalSA(2, rng=rng)
        x = rand_ct(rng, 1, 4, 3, 2)
        got = sa.branch(x, "time").to_complex()[0]
        xc = x.to_complex()[0]
        parts = []
        for part in ("real", "imag"):
            xp = getattr(xc, part)
            proj = {n: getattr(sa.proj[("time", n)], part) for n in ("q", "k", "v")}
            flat = xp.reshape(-1, 2)
            q = (flat @ proj["q"]).reshape(4, 3, 2).reshape(4, 6)
            k = (flat @ proj["k"]).reshape(4, 3, 2).reshape(4, 6)
            v = (flat @ proj["v"]).reshape(4, 3, 2).reshape(4, 6)
            out = np.zeros((4, 6))
            for i in range(4):
                out[i] = self._softmax(q[i] @ k.T) @ v
            parts.append(out.reshape(4, 3, 2))
        want = parts[0] + 1j * parts[1]
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_complex_tf_sa_forward(self):
        rng = np.random.default_rng(206)
        sa = ComplexTFSA(2, rng=rng)
        x = rand_ct(rng, 1, 4, 3, 2)
        got = sa.branch(x, "time").to_complex()[0]
        xc = x.to_complex()[0]
        w = {n: sa.proj[("time", n)].to_complex() for n in ("q", "k", "v")}
        flat = xc.reshape(-1, 2)
        q = (flat @ w["q"]).reshape(4, 6)
        k = (flat @ w["k"]).reshape(4, 6)
        v = (flat @ w["v"]).reshape(4, 6)
        want = np.zeros((4, 6), dtype=np.complex128)
        for i in range(4):
            corr = np.zeros(4, dtype=np.complex128)
            for j in range(4):
                for m in range(6):
                    qr, qi = q[i, m].real, q[i, m].imag
                    kr, ki = k[j, m].real, k[j, m].imag
                    corr[j] += (qr * kr + qi * ki) + 1j * (qi * kr - qr * ki)
            wrow = self._softmax(np.abs(corr))
            want[i] = wrow @ v.real + 1j * (wrow @ v.imag)
        assert np.max(np.abs(got - want.reshape(4, 3, 2))) <= 1e-10

    def test_sdab_forward(self):
        rng = np.random.default_rng(207)
        blk = Sdab(4, 3, rng=rng)
        x = rand_ct(rng, 1, 4, 3, 2)
        got = blk.branch(x, "frequency").to_complex()[0]
        xc = x.to_complex()[0].transpose(1, 0, 2).reshape(3, 8)
        wr, wi = blk.fc["frequency"].real, blk.fc["frequency"].imag
        br, bi = blk.bias["frequency"].real, blk.bias["frequency"].imag
        want = ((wr @ xc.real + br) + 1j * (wi @ xc.imag + bi)).reshape(3, 4, 2)
        assert np.max(np.abs(got - want.transpose(1, 0, 2))) <= 1e-10


class TestCriterion3HermitianCorrelation:
    def test_worked_example_exact(self):
        q = from_complex([[1 + 1j]])
        k = from_complex([[1 - 1j]])
        corr = ct.matmul(q, hermitian_transpose(k)).to_complex()
        assert corr[0, 0] == 0 + 2j

    def test_worked_example_exact_in_complex_tf_sa(self):
        sa = ComplexTFSA(1, rng=np.random.default_rng(0))
        for name in ("q", "k", "v"):
            sa.proj[("time", name)] = from_complex(np.eye(1))
        x = from_complex(np.array([1 + 1j, 1 - 1j]).reshape(1, 2, 1, 1))
        info = {}
        sa.branch(x, "time", collect=info)
        assert info["corr"][0, 0, 1] == 0 + 2j

    def test_conjugate_symmetry_spot_checks(self):
        rng = np.random.default_rng(208)
        for _ in range(10):
            q = rand_ct(rng, 4, 3)
            k = rand_ct(rng, 4, 3)
            corr_qk = ct.matmul(q, hermitian_transpose(k))
            corr_kq = ct.matmul(k, hermitian_transpose(q))
            swapped = hermitian_transpose(corr_kq)
            np.testing.assert_allclose(corr_qk.real, swapped.real, atol=1e-12)
            np.testing.assert_allclose(corr_qk.imag, swapped.imag, atol=1e-12)

    def test_swapping_query_and_key_projections_in_complex_tf_sa(self):
        rng = np.random.default_rng(218)
        for trial in range(10):
            sa = ComplexTFSA(2, rng=rng)
            x = rand_ct(rng, 2, 4, 3, 2)
            axis = "time" if trial % 2 == 0 else "frequency"
            qk, kq = {}, {}
            sa.branch(x, axis, collect=qk)
            proj = sa.proj
            proj[(axis, "q")], proj[(axis, "k")] = proj[(axis, "k")], proj[(axis, "q")]
            sa.branch(x, axis, collect=kq)
            swapped = np.conj(kq["corr"]).swapaxes(-1, -2)
            np.testing.assert_allclose(qk["corr"], swapped, rtol=0, atol=1e-12)


class TestCriterion4AttentionStochasticity:
    def test_softmax_rows_sum_to_one_100_instances(self):
        rng = np.random.default_rng(209)
        conv_sa = ConventionalSA(2, rng=rng)
        cplx_sa = ComplexTFSA(2, rng=rng)
        for trial in range(50):
            x = rand_ct(rng, 1, 5, 3, 2)
            axis = "time" if trial % 2 == 0 else "frequency"
            length = 5 if axis == "time" else 3
            info = {}
            conv_sa.branch(x, axis, collect=info)
            for key in ("weights_real", "weights_imag"):
                w = info[key][0]
                np.testing.assert_allclose(w.sum(axis=-1), np.ones(length), atol=1e-9)
                assert np.all((w >= 0) & (w <= 1))
            info = {}
            cplx_sa.branch(x, axis, collect=info)
            w = info["weights"][0]
            np.testing.assert_allclose(w.sum(axis=-1), np.ones(length), atol=1e-9)
            assert np.all((w >= 0) & (w <= 1))


class TestCriterion5ParameterParity:
    def test_complex_equals_conventional_at_same_width(self):
        rng = np.random.default_rng(210)
        for cc in (1, 2, 4, 8, 16):
            conv_sa = ConventionalSA(cc, rng=rng)
            cplx_sa = ComplexTFSA(cc, rng=rng)
            n_conv = count_parameters(conv_sa.parameters())
            n_cplx = count_parameters(cplx_sa.parameters())
            assert n_conv == n_cplx, (cc, n_conv, n_cplx)

    def test_parity_inside_full_model(self):
        n = {}
        for variant in ("conventional", "complex"):
            model = DccrnModel(overfit_config(attention=variant))
            n[variant] = count_parameters(model.parameters())
        assert n["conventional"] == n["complex"]


class TestCriterion6StftRoundTrip:
    def test_twenty_random_signals(self):
        for seed in range(20):
            rng = np.random.default_rng(300 + seed)
            sig = rng.standard_normal(DESK.sample_rate)  # 1 s
            back = istft(stft(WaveForm(sig, 4000), DESK.frame_len, DESK.hop, DESK.fft_size))
            core = slice(DESK.frame_len, sig.size - DESK.frame_len)
            err = np.sqrt(np.mean((back.samples[core] - sig[core]) ** 2))
            ref = np.sqrt(np.mean(sig[core] ** 2))
            assert err / ref < 1e-6, f"seed {seed}: relative RMS {err / ref:.2e}"

    def test_identity_mask_enhancement(self):
        rng = np.random.default_rng(211)
        sig = 0.25 * rng.standard_normal(4000)
        wf = WaveForm(sig, 4000)
        cfg = overfit_config()
        out = enhance_waveform(ConstantMask(cfg), wf)
        assert len(out) == len(wf)
        # the pipeline's only loss is the documented zeroed Nyquist bin
        spec = stft(wf, cfg.frame_len, cfg.hop, cfg.fft_size)
        spec.data[:, -1] = 0.0
        ref = istft(spec)
        core = slice(cfg.frame_len, len(wf) - cfg.frame_len)
        err = np.sqrt(np.mean((out.samples[core] - ref.samples[core]) ** 2))
        scale = np.sqrt(np.mean(ref.samples[core] ** 2))
        assert err / scale < 1e-6


class TestCriterion7LossContract:
    def _bin(self, z):
        return ComplexTensor(np.array([[np.real(z)]]), np.array([[np.imag(z)]]))

    def test_zero_for_equal_inputs(self):
        rng = np.random.default_rng(212)
        s = rand_ct(rng, 5, 5)
        assert float(complex_loss(s, s, 0.3, 0.3).real) == 0.0

    def test_beta_extremes_reduce_to_single_terms(self):
        rng = np.random.default_rng(213)
        s, t = rand_ct(rng, 4, 4), rand_ct(rng, 4, 4)
        sc, tc = s.to_complex(), t.to_complex()
        mag_term = np.sum((np.abs(sc) ** 0.3 - np.abs(tc) ** 0.3) ** 2)
        comp = lambda z: np.abs(z) ** 0.3 * np.exp(1j * np.angle(z))
        cplx_term = np.sum(np.abs(comp(sc) - comp(tc)) ** 2)
        np.testing.assert_allclose(float(complex_loss(s, t, 0.3, 0.0).real), mag_term, rtol=1e-12)
        np.testing.assert_allclose(float(complex_loss(s, t, 0.3, 1.0).real), cplx_term, rtol=1e-12)

    def test_hand_computed_values_exact(self):
        assert float(complex_loss(self._bin(1.0), self._bin(0.0), 0.3, 0.3).real) == 1.0
        assert float(complex_loss(self._bin(1.0), self._bin(1j), 1.0, 0.3).real) == 0.6


@pytest.fixture(scope="module")
def overfit_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("overfit")
    cfg = SynthConfig(
        sample_rate=4000, duration_s=0.5, direct_path_gain=5.0, t60_min=0.2, t60_max=0.5
    )
    return generate_dataset(10, seed=42, out_dir=out, cfg=cfg), cfg


class TestCriterion8OverfitSmoke:
    def test_loss_drops_to_ten_percent_within_500_steps(self, overfit_dataset):
        manifest, _ = overfit_dataset
        t0 = time.perf_counter()
        # 10 pairs -> one 64-frame image each -> 3 steps/epoch -> 480 steps
        cfg = overfit_config(epochs=160)
        model = DccrnModel(cfg)
        final, rows = train(model, manifest, final_dir(manifest, "run8"))
        elapsed = time.perf_counter() - t0
        assert len(rows) <= 500
        initial = rows[0][2]
        floor = min(v for _, _, v in rows)
        assert floor <= 0.1 * initial, f"loss {initial:.4g} -> {floor:.4g} (> 10%)"
        assert elapsed < 300.0, f"overfit run took {elapsed:.0f}s (budget 300s)"

    def test_zero_lr_control_is_constant(self, overfit_dataset):
        manifest, _ = overfit_dataset
        cfg = overfit_config(epochs=2, learning_rate=0.0, batch_size=64)
        model = DccrnModel(cfg)
        _, rows = train(model, manifest, final_dir(manifest, "run8_lr0"))
        losses = [v for _, _, v in rows]
        assert max(losses) - min(losses) < 1e-12


def final_dir(manifest, name):
    return manifest.parent.parent / name


TREND_EPOCHS = 8
TREND_TRAIN_PAIRS = 200
TREND_EVAL_PAIRS = 20


@pytest.fixture(scope="module")
def trend_datasets(tmp_path_factory):
    out = tmp_path_factory.mktemp("trend")
    cfg = SynthConfig(
        sample_rate=4000, duration_s=1.0, direct_path_gain=8.0, t60_min=0.2, t60_max=0.5
    )
    train_m = generate_dataset(TREND_TRAIN_PAIRS, seed=101, out_dir=out / "train", cfg=cfg)
    eval_m = generate_dataset(TREND_EVAL_PAIRS, seed=202, out_dir=out / "eval", cfg=cfg)
    return train_m, eval_m


class TestCriterion9DeskScaleTrend:
    @pytest.mark.parametrize("variant", ["sdab", "conventional", "complex"])
    def test_enhancement_improves_over_unprocessed(self, trend_datasets, variant):
        train_m, eval_m = trend_datasets
        cfg = overfit_config(attention=variant, epochs=TREND_EPOCHS)
        model = DccrnModel(cfg)
        train(model, train_m, final_dir(train_m, f"run9_{variant}"))

        un_cd, un_fw, en_cd, en_fw = [], [], [], []
        for row in read_manifest(eval_m):
            clean = read_wav(row["clean_path"])
            reverb = read_wav(row["reverb_path"])
            enhanced = enhance_waveform(model, reverb)
            un_cd.append(cepstral_distance(clean, reverb))
            un_fw.append(fwsegsnr(clean, reverb))
            en_cd.append(cepstral_distance(clean, enhanced))
            en_fw.append(fwsegsnr(clean, enhanced))
        mean = lambda v: float(np.mean(v))
        assert mean(en_fw) > mean(un_fw), (
            f"{variant}: FWSegSNR {mean(un_fw):.3f} -> {mean(en_fw):.3f} (no gain)"
        )
        assert mean(en_cd) < mean(un_cd), (
            f"{variant}: CD {mean(un_cd):.3f} -> {mean(en_cd):.3f} (no reduction)"
        )


class TestCriterion10Determinism:
    def test_datasets_byte_identical(self, tmp_path):
        cfg = SynthConfig(sample_rate=4000, duration_s=0.5)
        m1 = generate_dataset(3, seed=77, out_dir=tmp_path / "a", cfg=cfg)
        m2 = generate_dataset(3, seed=77, out_dir=tmp_path / "b", cfg=cfg)
        assert m1.read_bytes() == m2.read_bytes()
        for wav in sorted((tmp_path / "a").glob("*.wav")):
            assert wav.read_bytes() == (tmp_path / "b" / wav.name).read_bytes()

    def test_training_bit_identical(self, tmp_path):
        cfg_s = SynthConfig(sample_rate=4000, duration_s=0.5)
        manifest = generate_dataset(3, seed=55, out_dir=tmp_path / "data", cfg=cfg_s)
        curves = []
        for tag in ("a", "b"):
            cfg = overfit_config(epochs=2)
            model = DccrnModel(cfg)
            _, rows = train(model, manifest, tmp_path / tag)
            curves.append(rows)
        assert curves[0] == curves[1]
        assert (tmp_path / "a" / "loss.csv").read_bytes() == (tmp_path / "b" / "loss.csv").read_bytes()
        assert (tmp_path / "a" / "final.ckpt").read_bytes() == (tmp_path / "b" / "final.ckpt").read_bytes()
