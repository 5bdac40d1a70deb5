"""DCCRN assembly, loss, Adam, training loop, enhancement pipeline."""

import re
import tracemalloc

import numpy as np
import pytest

from dereverb import ctensor as ct
from dereverb import layers
from dereverb import model as model_mod
from dereverb.checkpoint import load_checkpoint, save_checkpoint
from dereverb.ctensor import ComplexTensor
from dereverb.datasynth import SynthConfig, generate_dataset
from dereverb.errors import ConfigError, ContractError, DataError, ShapeError, TrainingError
from dereverb.gradcheck import check_gradients
from dereverb.model import (
    Adam,
    DccrnModel,
    ModelConfig,
    complex_loss,
    enhance_waveform,
    enhance_with_identity_mask,
    load_training_images,
    train,
)
from dereverb.signal import WaveForm, istft, read_wav, stft, write_wav


def tiny_config(**overrides):
    """2-layer, 4-channel, 8x8-image configuration for fast tests."""
    base = dict(
        num_enc_layers=2,
        channels=(4, 4),
        gru_hidden=4,
        attention="complex",
        image_frames=8,
        sample_rate=500,
        frame_len=16,
        hop=4,
        fft_size=16,
        batch_size=2,
        epochs=2,
        seed=3,
    )
    base.update(overrides)
    return ModelConfig(**base)


def rand_images(rng, cfg, batch=2):
    shape = (batch, cfg.image_frames, cfg.image_bins, 1)
    return ComplexTensor(rng.standard_normal(shape), rng.standard_normal(shape))


class TestComplexLoss:
    def _bin(self, z):
        return ComplexTensor(np.array([[np.real(z)]]), np.array([[np.imag(z)]]))

    def test_equal_spectra_give_zero(self):
        rng = np.random.default_rng(110)
        s = ComplexTensor(rng.standard_normal((3, 4)), rng.standard_normal((3, 4)))
        assert float(complex_loss(s, s, 0.3, 0.3).real) == 0.0

    def test_single_bin_hand_value(self):
        loss = complex_loss(self._bin(1.0), self._bin(0.0), 0.3, 0.3)
        assert float(loss.real) == 1.0

    def test_single_bin_rotated_estimate(self):
        loss = complex_loss(self._bin(1.0), self._bin(1j), 1.0, 0.3)
        assert float(loss.real) == 0.6

    def test_beta_zero_is_pure_magnitude_term(self):
        rng = np.random.default_rng(111)
        s = ComplexTensor(rng.standard_normal((4, 4)), rng.standard_normal((4, 4)))
        t = ComplexTensor(rng.standard_normal((4, 4)), rng.standard_normal((4, 4)))
        got = float(complex_loss(s, t, 0.3, 0.0).real)
        want = np.sum((np.abs(s.to_complex()) ** 0.3 - np.abs(t.to_complex()) ** 0.3) ** 2)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_beta_one_is_pure_complex_term(self):
        rng = np.random.default_rng(112)
        s = ComplexTensor(rng.standard_normal((4, 4)), rng.standard_normal((4, 4)))
        t = ComplexTensor(rng.standard_normal((4, 4)), rng.standard_normal((4, 4)))
        got = float(complex_loss(s, t, 0.3, 1.0).real)
        sc = s.to_complex()
        tc = t.to_complex()
        comp = lambda z: np.abs(z) ** 0.3 * np.exp(1j * np.angle(z))
        want = np.sum(np.abs(comp(sc) - comp(tc)) ** 2)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(113)
        for _ in range(10):
            s = ComplexTensor(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
            t = ComplexTensor(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
            assert float(complex_loss(s, t, 0.3, 0.3).real) >= 0.0

    def test_gradient(self):
        rng = np.random.default_rng(114)
        # keep magnitudes away from the non-smooth origin
        mk = lambda: ComplexTensor(
            np.sign(rng.standard_normal((3, 3))) * rng.uniform(0.5, 2.0, (3, 3)),
            np.sign(rng.standard_normal((3, 3))) * rng.uniform(0.5, 2.0, (3, 3)),
        )
        s, t = mk(), mk()
        build = lambda: complex_loss(s, t, 0.3, 0.3)
        assert check_gradients(build, [t]) < 1e-4

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            complex_loss(self._bin(1.0), ComplexTensor(np.zeros((2, 2))), 0.3, 0.3)


class TestAdam:
    def test_first_step_matches_hand_formula(self):
        p = ComplexTensor(np.array([1.0]), np.array([2.0]))
        opt = Adam([("p", p)], lr=1e-3)
        opt.step([(np.array([1.0]), np.array([0.0]))])
        m_hat = (0.1 * 1.0) / (1 - 0.9)
        v_hat = (0.001 * 1.0) / (1 - 0.999)
        want = 1.0 - 1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(p.real, [want], atol=1e-12)
        np.testing.assert_allclose(p.imag, [2.0], atol=0)

    def test_zero_gradient_leaves_parameters(self):
        rng = np.random.default_rng(115)
        p = ComplexTensor(rng.standard_normal(4), rng.standard_normal(4))
        before = (p.real.copy(), p.imag.copy())
        opt = Adam([("p", p)], lr=0.1)
        for _ in range(5):
            opt.step([(np.zeros(4), np.zeros(4))])
        np.testing.assert_array_equal(p.real, before[0])
        np.testing.assert_array_equal(p.imag, before[1])

    def test_identical_twins_stay_identical(self):
        rng = np.random.default_rng(116)
        init_r, init_i = rng.standard_normal(3), rng.standard_normal(3)
        a = ComplexTensor(init_r.copy(), init_i.copy())
        b = ComplexTensor(init_r.copy(), init_i.copy())
        opt = Adam([("a", a), ("b", b)], lr=0.01)
        for k in range(7):
            g = (np.full(3, 0.5 + k), np.full(3, -1.0 * k))
            opt.step([g, (g[0].copy(), g[1].copy())])
        np.testing.assert_array_equal(a.real, b.real)
        np.testing.assert_array_equal(a.imag, b.imag)

    def test_nan_gradient_rejected(self):
        p = ComplexTensor(np.array([1.0]))
        opt = Adam([("p", p)], lr=0.1)
        with pytest.raises(TrainingError):
            opt.step([(np.array([np.nan]), np.array([0.0]))])


class TestDccrnForward:
    @pytest.mark.parametrize("variant", ["none", "sdab", "conventional", "complex"])
    def test_mask_shape_matches_input(self, variant):
        cfg = tiny_config(attention=variant)
        model = DccrnModel(cfg)
        rng = np.random.default_rng(117)
        x = rand_images(rng, cfg, batch=3)
        mask = model.forward(x)
        assert mask.shape == x.shape

    def test_deterministic_for_fixed_seed(self):
        cfg = tiny_config()
        rng = np.random.default_rng(118)
        xr = rng.standard_normal((2, 8, 8, 1))
        xi = rng.standard_normal((2, 8, 8, 1))
        out1 = DccrnModel(cfg).forward(ComplexTensor(xr.copy(), xi.copy()))
        out2 = DccrnModel(cfg).forward(ComplexTensor(xr.copy(), xi.copy()))
        assert out1.real.tobytes() == out2.real.tobytes()
        assert out1.imag.tobytes() == out2.imag.tobytes()

    def test_outputs_finite(self):
        cfg = tiny_config()
        model = DccrnModel(cfg)
        rng = np.random.default_rng(119)
        mask = model.forward(rand_images(rng, cfg, batch=2), training=True)
        assert np.all(np.isfinite(mask.real)) and np.all(np.isfinite(mask.imag))

    def test_wrong_image_dims_rejected(self):
        cfg = tiny_config()
        model = DccrnModel(cfg)
        with pytest.raises(ShapeError):
            model.forward(ComplexTensor(np.zeros((2, 4, 8, 1))))

    def test_end_to_end_gradient(self):
        cfg = tiny_config(batch_size=1)
        model = DccrnModel(cfg)
        rng = np.random.default_rng(120)
        x = rand_images(rng, cfg, batch=1)
        target = rand_images(rng, cfg, batch=1)
        named = dict(model.parameters())
        # representative parameter subset: checking every scalar is O(minutes)
        subset = [
            x,
            named["enc0.conv.w"],
            named["enc1.bn.gamma_d"],
            named["gru0.w_z"],
            named["gru_proj.w"],
            named["dec1.conv.w"],
            named["head.w"],
        ]
        if "enc0.attn.t.wq" in named:
            subset.append(named["enc0.attn.t.wq"])

        def build():
            mask = model.forward(x, training=True)
            s_hat = ct.cmul(mask, x)
            return complex_loss(target, s_hat, cfg.compress_exponent, cfg.loss_beta)

        assert check_gradients(build, subset) < 1e-4

    @pytest.mark.parametrize(
        "variant, nodes", [("none", 147), ("sdab", 219), ("conventional", 235), ("complex", 235)]
    )
    def test_desk_step_tape_size(self, variant, nodes):
        # one node per conv, batchnorm and GRU layer and per attention branch,
        # and 5 per attention block: the blocks run on the whole batch, and
        # each branch is one node (sdab 283, conventional 523, complex 539
        # when a branch was 4-22 generic nodes)
        cfg = ModelConfig(attention=variant)
        model = DccrnModel(cfg)
        rng = np.random.default_rng(122)
        x = rand_images(rng, cfg, batch=cfg.batch_size)
        tape = ct.GradTape()
        for _, p in model.parameters():
            tape.watch(p)
        s_hat = ct.cmul(model.forward(x, training=True), x)
        complex_loss(x, s_hat, cfg.compress_exponent, cfg.loss_beta)
        assert len(tape) == nodes

    @staticmethod
    def held_at_the_loss(variant):
        """Traced memory at the loss of a desk step (B=4) once the model is built."""
        cfg = ModelConfig(attention=variant)
        model = DccrnModel(cfg)
        x = rand_images(np.random.default_rng(123), cfg, batch=cfg.batch_size)
        held = []

        def build():
            s_hat = ct.cmul(model.forward(x, training=True), x)
            loss = complex_loss(x, s_hat, cfg.compress_exponent, cfg.loss_beta)
            held.append(tracemalloc.get_traced_memory()[0])
            return loss

        tracemalloc.start()
        try:
            ct.gradients(build, [p for _, p in model.parameters()])
        finally:
            tracemalloc.stop()
        return held[0]

    def test_desk_step_memory_held_at_the_loss(self):
        # `none`: 81.0 MB when each conv's patch matrix stayed on the tape,
        # 22.3 MB with its padded map
        assert self.held_at_the_loss("none") < 40e6

    def test_desk_complex_step_memory_held_at_the_loss(self):
        # 52.5 MB when each branch was generic tape nodes and `add` kept its
        # operands, 43.1 MB with one node per branch and shapes in `add`'s vjps
        assert self.held_at_the_loss("complex") < 48e6

    @pytest.mark.parametrize("bounded", [False, True])
    def test_whole_model_gradcheck_eval_mode(self, bounded):
        # every parameter of a shrunken model, through eval-mode batchnorm
        # (running stats moved off their init), complex attention on rank-4
        # maps, the fused GRU and, when on, the bounded mask
        cfg = tiny_config(batch_size=1, channels=(2, 4), image_frames=6, bounded_mask=bounded)
        model = DccrnModel(cfg)
        rng = np.random.default_rng(130)
        model.forward(rand_images(rng, cfg, batch=4), training=True)
        x = rand_images(rng, cfg, batch=1)
        target = rand_images(rng, cfg, batch=1)
        params = [x] + [p for _, p in model.parameters()]

        def build():
            s_hat = ct.cmul(model.forward(x, training=False), x)
            return complex_loss(target, s_hat, cfg.compress_exponent, cfg.loss_beta)

        assert check_gradients(build, params) < 1e-4

    def test_checkpoint_roundtrip_bit_identical_forward(self, tmp_path):
        cfg = tiny_config()
        model = DccrnModel(cfg)
        rng = np.random.default_rng(121)
        # move running stats away from init so buffers matter
        model.forward(rand_images(rng, cfg, batch=4), training=True)
        x = rand_images(rng, cfg, batch=2)
        before = model.forward(x)
        path = tmp_path / "model.ckpt"
        model.save(path)
        restored = DccrnModel.from_checkpoint(path)
        after = restored.forward(x)
        assert before.real.tobytes() == after.real.tobytes()
        assert before.imag.tobytes() == after.imag.tobytes()

    def test_checkpoint_entry_unknown_to_model_rejected(self, tmp_path):
        # metadata edited to a smaller model must not load and drop weights
        path = tmp_path / "model.ckpt"
        DccrnModel(tiny_config(attention="complex")).save(path)
        arrays, meta = load_checkpoint(path)
        meta["model_config"]["attention"] = "none"
        save_checkpoint(path, arrays, meta)
        with pytest.raises(DataError, match=r"model\.ckpt: .*'enc0\.attn\.t\.wq'"):
            DccrnModel.from_checkpoint(path)

    def test_stride_one_config_builds(self):
        cfg = tiny_config(stride=(1, 1))
        model = DccrnModel(cfg)
        rng = np.random.default_rng(122)
        x = rand_images(rng, cfg, batch=1)
        assert model.forward(x).shape == x.shape

    def test_bounded_mask_flag(self):
        cfg = tiny_config(bounded_mask=True)
        model = DccrnModel(cfg)
        rng = np.random.default_rng(123)
        mask = model.forward(rand_images(rng, cfg, batch=1))
        mag = np.hypot(mask.real, mask.imag)
        assert np.all(mag <= 1.0)

    def test_paper_scale_forward(self):
        # the only test reaching 256x256 maps and the 256-channel layers
        cfg = ModelConfig.paper_scale(batch_size=1, dtype="float32")
        model = DccrnModel(cfg)
        rng = np.random.default_rng(124)
        shape = (1, cfg.image_frames, cfg.image_bins, 1)
        x = ComplexTensor(
            rng.standard_normal(shape).astype(np.float32),
            rng.standard_normal(shape).astype(np.float32),
        )
        mask = model.forward(x, training=False)
        assert x.shape == (1, 256, 256, 1) and mask.shape == x.shape
        assert mask.dtype == np.float32
        assert np.all(np.isfinite(mask.real)) and np.all(np.isfinite(mask.imag))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ModelConfig(channels=(4, 7), num_enc_layers=2).validate()
        with pytest.raises(ConfigError):
            ModelConfig(attention="other").validate()
        with pytest.raises(ConfigError):
            ModelConfig(loss_beta=1.5).validate()

    @pytest.mark.parametrize(
        "field,value",
        [("kernel", (3,)), ("kernel", (0, 3)), ("stride", (1, 2, 3)), ("stride", (0, 2)),
         ("padding", (1, 1, 1)), ("padding", (-1, 1)), ("gru_layers", 0), ("seed", -1),
         ("learning_rate", -1.0), ("learning_rate", float("nan")),
         ("learning_rate", float("inf")), ("compress_exponent", float("inf")),
         ("checkpoint_every", -1), ("sample_rate", 0)],
    )
    def test_out_of_range_value_rejected(self, field, value):
        with pytest.raises((ConfigError, ContractError), match=field):
            ModelConfig(**{field: value}).validate()

    def test_range_edges_accepted(self):
        ModelConfig(learning_rate=0.0, checkpoint_every=0, padding=(0, 0), seed=0).validate()


class TestCheckpointLoad:
    """``from_checkpoint`` takes every weight from the file and draws none."""

    @staticmethod
    def _refuse_draws(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a checkpoint load drew initial weights")

        monkeypatch.setattr(layers, "_semi_unitary", refuse)
        monkeypatch.setattr(np.linalg, "qr", refuse)

    def _saved(self, tmp_path, variant):
        cfg = tiny_config(attention=variant)
        model = DccrnModel(cfg)
        rng = np.random.default_rng(125)
        model.forward(rand_images(rng, cfg, batch=4), training=True)  # move the buffers
        for _, p in model.parameters():  # and the weights off the seeded init
            p.real = p.real + 0.1 * rng.standard_normal(p.shape)
            p.imag = p.imag + 0.1 * rng.standard_normal(p.shape)
        path = tmp_path / "model.ckpt"
        model.save(path)
        return model, path

    @staticmethod
    def _assert_same_state(got, want):
        pairs = [(g.real, w.real) for (_, g), (_, w) in zip(got.parameters(), want.parameters())]
        pairs += [(g.imag, w.imag) for (_, g), (_, w) in zip(got.parameters(), want.parameters())]
        pairs += [(g, w) for (_, g), (_, w) in zip(got.buffers(), want.buffers())]
        assert len(pairs) == 2 * len(want.parameters()) + len(want.buffers())
        for g, w in pairs:
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("variant", model_mod.ATTENTION_VARIANTS)
    def test_load_draws_nothing_and_restores_every_array(self, tmp_path, monkeypatch, variant):
        model, path = self._saved(tmp_path, variant)
        self._refuse_draws(monkeypatch)
        self._assert_same_state(DccrnModel.from_checkpoint(path), model)

    def test_edited_seed_loads_the_same_weights(self, tmp_path):
        model, path = self._saved(tmp_path, "complex")
        arrays, meta = load_checkpoint(path)
        meta["model_config"]["seed"] = 11
        save_checkpoint(path, arrays, meta)
        restored = DccrnModel.from_checkpoint(path)
        assert restored.cfg.seed == 11
        self._assert_same_state(restored, model)

    @pytest.mark.parametrize(
        "edit,message",
        [
            ("missing", "checkpoint is missing entry 'head.w'"),
            ("unknown", "checkpoint holds entry 'extra.w', unknown to the model"),
            ("shape", "checkpoint entry 'head.w' has shape (1, 2), want (1, 2, 1, 1)"),
            ("non-finite", "checkpoint entry 'head.w' holds non-finite values"),
            ("buffer imag",
             "checkpoint entry 'buffer.enc0.bn.run_vrr' has a nonzero imaginary part"),
        ],
    )
    def test_bad_entries_keep_their_messages(self, tmp_path, monkeypatch, edit, message):
        _, path = self._saved(tmp_path, "complex")
        arrays, meta = load_checkpoint(path)
        real, imag = arrays["head.w"]
        if edit == "missing":
            del arrays["head.w"]
        elif edit == "unknown":
            arrays["extra.w"] = (real, imag)
        elif edit == "shape":
            arrays["head.w"] = (real.reshape(1, 2), imag.reshape(1, 2))
        elif edit == "non-finite":
            arrays["head.w"] = (np.full_like(real, np.nan), imag)
        else:
            real, imag = arrays["buffer.enc0.bn.run_vrr"]
            arrays["buffer.enc0.bn.run_vrr"] = (real, np.ones_like(imag))
        save_checkpoint(path, arrays, meta)
        self._refuse_draws(monkeypatch)
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {message}')}$"):
            DccrnModel.from_checkpoint(path)


def _make_dataset(tmp_path, n_pairs=2, seed=5):
    cfg = SynthConfig(sample_rate=500, duration_s=0.6, t60_min=0.1, t60_max=0.2)
    return generate_dataset(n_pairs, seed=seed, out_dir=tmp_path, cfg=cfg)


class TestTraining:
    def test_loss_decreases_on_tiny_overfit(self, tmp_path):
        manifest = _make_dataset(tmp_path / "data", n_pairs=2)
        cfg = tiny_config(epochs=6, batch_size=4, learning_rate=3e-3)
        model = DccrnModel(cfg)
        final, rows = train(model, manifest, tmp_path / "run")
        assert final.exists()
        first = np.mean([v for _, e, v in rows if e == 0])
        last = np.mean([v for _, e, v in rows if e == rows[-1][1]])
        assert last < first

    def test_zero_lr_keeps_loss_constant(self, tmp_path):
        manifest = _make_dataset(tmp_path / "data", n_pairs=1)
        cfg = tiny_config(epochs=3, batch_size=64, learning_rate=0.0)
        model = DccrnModel(cfg)
        _, rows = train(model, manifest, tmp_path / "run")
        losses = [v for _, _, v in rows]
        assert len(losses) >= 3
        assert max(losses) - min(losses) < 1e-12

    def test_same_seed_identical_loss_curve(self, tmp_path):
        manifest = _make_dataset(tmp_path / "data", n_pairs=2)
        runs = []
        for tag in ("a", "b"):
            cfg = tiny_config(epochs=2)
            model = DccrnModel(cfg)
            _, rows = train(model, manifest, tmp_path / tag)
            runs.append(rows)
        assert runs[0] == runs[1]
        ck_a = (tmp_path / "a" / "final.ckpt").read_bytes()
        ck_b = (tmp_path / "b" / "final.ckpt").read_bytes()
        assert ck_a == ck_b

    def test_corrupt_pair_skipped_empty_errors(self, tmp_path):
        manifest = _make_dataset(tmp_path / "data", n_pairs=2)
        for wav in (tmp_path / "data").glob("*.wav"):
            wav.write_bytes(b"garbage")
        cfg = tiny_config(epochs=1)
        model = DccrnModel(cfg)
        messages = []
        with pytest.raises(DataError, match="2 skipped; first: .*clean_0000.wav.*not a readable"):
            train(model, manifest, tmp_path / "run", log=messages.append)
        assert sum("skipping" in m for m in messages) == 2

    def test_skip_warning_names_each_wav_once(self, tmp_path):
        manifest = _make_dataset(tmp_path / "data", n_pairs=3)
        clean, reverb = (tmp_path / "data" / f"{kind}_0000.wav" for kind in ("clean", "reverb"))
        clean.write_bytes(b"garbage")
        # a readable WAV shorter than one frame: the reason names no file
        write_wav(tmp_path / "data" / "clean_0001.wav", WaveForm(np.zeros(5), 500))
        messages = []
        load_training_images(manifest, tiny_config(), log=messages.append)
        assert len(messages) == 2
        assert messages[0].startswith(f"warning: skipping pair: {clean}: not a readable")
        assert messages[0].count("_0000.wav") == 1
        short = messages[1]
        assert short.count("clean_0001.wav") == 1 and short.count("reverb_0001.wav") == 1
        assert "shorter than one frame" in short

    def test_pair_of_unequal_lengths_skipped(self, tmp_path):
        manifest = _make_dataset(tmp_path / "data", n_pairs=2)
        clean = tmp_path / "data" / "clean_0000.wav"
        full = read_wav(clean)
        write_wav(clean, WaveForm(full.samples[: len(full) // 2], full.sample_rate))
        messages = []
        inputs, raws, targets, skipped = load_training_images(
            manifest, tiny_config(), log=messages.append
        )
        assert skipped == 1 and len(messages) == 1
        assert f"{clean} holds {len(full) // 2} samples" in messages[0]
        assert f"reverb_0000.wav holds {len(full)}" in messages[0]
        assert len(inputs) == len(raws) == len(targets) > 0

    def test_non_finite_loss_leaves_parameters_detached(self, tmp_path, monkeypatch):
        manifest = _make_dataset(tmp_path / "data", n_pairs=1)
        model = DccrnModel(tiny_config())
        loss = model_mod.complex_loss
        monkeypatch.setattr(model_mod, "complex_loss", lambda *a: ct.scale(loss(*a), np.nan))
        with pytest.raises(TrainingError, match="non-finite loss nan at step 0"):
            train(model, manifest, tmp_path / "run")
        assert all(p.tape is None and p.node_id is None for _, p in model.parameters())
        out = model.forward(rand_images(np.random.default_rng(131), model.cfg), training=True)
        assert out.tape is None


class TestSpectralFrontEnd:
    """PSD smoothing shapes the network input only."""

    def test_smoothing_changes_inputs_not_raws(self, tmp_path):
        manifest = _make_dataset(tmp_path / "data", n_pairs=2)
        plain = load_training_images(manifest, tiny_config())
        smoothed = load_training_images(manifest, tiny_config(psd_smoothing_alpha=0.5))
        assert all(a is b for a, b in zip(plain[0], plain[1]))
        for got, want in ((smoothed[1], plain[1]), (smoothed[2], plain[2])):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g.data, w.data)
        assert len(smoothed[0]) == len(plain[0])
        assert any(not np.array_equal(g.data, w.data) for g, w in zip(smoothed[0], plain[0]))

    def test_identity_mask_ignores_smoothing(self):
        rng = np.random.default_rng(126)
        wf = WaveForm(rng.standard_normal(600) * 0.2, 500)
        plain = enhance_with_identity_mask(wf, tiny_config())
        smoothed = enhance_with_identity_mask(wf, tiny_config(psd_smoothing_alpha=0.5))
        np.testing.assert_array_equal(smoothed.samples, plain.samples)


class TestEnhance:
    def test_zero_input_gives_zero_output(self):
        cfg = tiny_config()
        model = DccrnModel(cfg)
        wf = WaveForm(np.zeros(400), cfg.sample_rate)
        out = enhance_waveform(model, wf)
        assert len(out) == 400
        np.testing.assert_allclose(out.samples, 0.0, atol=1e-12)

    @pytest.mark.parametrize("length", [123, 400, 777])
    def test_output_length_matches_input(self, length):
        cfg = tiny_config()
        model = DccrnModel(cfg)
        rng = np.random.default_rng(124)
        wf = WaveForm(rng.standard_normal(max(length, cfg.frame_len)) * 0.1, cfg.sample_rate)
        out = enhance_waveform(model, wf)
        assert len(out) == len(wf)

    def test_identity_mask_matches_nyquist_filtered_input(self):
        cfg = tiny_config()
        rng = np.random.default_rng(125)
        sig = rng.standard_normal(600) * 0.2
        wf = WaveForm(sig, cfg.sample_rate)
        out = enhance_with_identity_mask(wf, cfg)
        spec = stft(wf, cfg.frame_len, cfg.hop, cfg.fft_size)
        spec.data[:, -1] = 0.0  # the documented Nyquist-bin loss
        ref = istft(spec)
        core = slice(cfg.frame_len, len(sig) - cfg.frame_len)
        err = np.sqrt(np.mean((out.samples[core] - ref.samples[core]) ** 2))
        scale = np.sqrt(np.mean(ref.samples[core] ** 2))
        assert err / scale < 1e-6

    def test_sample_rate_mismatch_rejected(self):
        cfg = tiny_config()
        model = DccrnModel(cfg)
        with pytest.raises(ContractError) as err:
            enhance_waveform(model, WaveForm(np.zeros(1000), 16000))
        assert "500" in str(err.value) and "16000" in str(err.value)
