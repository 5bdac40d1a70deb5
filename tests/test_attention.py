"""Attention mechanisms: SDAB, per-part SA, fully complex SA, and the block."""

import tracemalloc

import numpy as np
import pytest

from dereverb import ctensor as ct
from dereverb.attention import (
    AXES,
    ComplexTFSA,
    ConventionalSA,
    Sdab,
    TFAttentionBlock,
)
from dereverb.ctensor import ComplexTensor
from dereverb.errors import ConfigError, ContractError, ShapeError
from dereverb.gradcheck import check_gradients
from dereverb.layers import ComplexBatchNorm, complex_conv2d, complex_conv_transpose2d
from dereverb.model import DccrnModel, ModelConfig
from helpers import count_parameters
from taped_ops import index_axis, stack, taped_block, taped_branch, taped_project


def rand_ct(rng, *shape):
    return ComplexTensor(rng.standard_normal(shape), rng.standard_normal(shape))


def rows_time(a):
    """[T,F,C] complex -> [T, F*C] (matches the implementation layout)."""
    t, f, c = a.shape
    return a.reshape(t, f * c)


def rows_freq(a):
    t, f, c = a.shape
    return a.transpose(1, 0, 2).reshape(f, t * c)


def per_item_block(block, x):
    """The block as it ran on a [B, T, F, C] batch before it was batched:
    each item sliced out as a batch of one, run through both branches on its
    own, and the results stacked.  The tape then sums a weight's gradient over
    the items last to first."""
    outs = []
    for b in range(x.shape[0]):
        xb = ct.reshape(index_axis(x, 0, b), (1,) + x.shape[1:])
        bt = block.mechanism.branch(xb, "time")
        bf = block.mechanism.branch(xb, "frequency")
        outs.append(ct.reshape(ct.add(xb, ct.scale(ct.add(bt, bf), 0.5)), x.shape[1:]))
    return stack(outs, axis=0)


def desk_maps():
    """The distinct [T, F, C] maps the desk model's attention blocks see."""
    model = DccrnModel(ModelConfig(attention="conventional"))
    spatial = model.dims[1:] + model.dims[-2::-1]  # encoder outputs, then decoder
    blocks = model.encoder + model.decoder
    return sorted({(t, f, blk.attn.mechanism.channels_cc) for (t, f), blk in zip(spatial, blocks)})


DESK_MAPS = desk_maps()


def fused_and_taped(block):
    """(fused, oracle) pairs of callables of a batch and a ``collect`` dict: the
    block, then its mechanism's branch along each axis."""
    mech = block.mechanism
    yield (lambda x, maps: block(x)), (lambda x, maps: taped_block(block, x))
    for axis in AXES:
        yield (
            lambda x, maps, axis=axis: mech.branch(x, axis, maps),
            lambda x, maps, axis=axis: taped_branch(mech, x, axis, maps),
        )


def naive_softmax_rows(m):
    out = np.zeros_like(m)
    for i in range(m.shape[0]):
        e = np.exp(m[i] - m[i].max())
        out[i] = e / e.sum()
    return out


class TestConventionalSA:
    def test_single_row_softmax_returns_value_row(self):
        rng = np.random.default_rng(60)
        sa = ConventionalSA(2, rng=rng)
        x = rand_ct(rng, 1, 1, 3, 2)  # T = 1 along the time axis
        out = sa.branch(x, "time").to_complex()
        v = taped_project(sa, x, "time", "v").to_complex()
        np.testing.assert_allclose(out, v, atol=1e-12)

    def test_equal_correlations_average_value_rows(self):
        rng = np.random.default_rng(61)
        sa = ConventionalSA(2, rng=rng)
        wq = sa.proj[("time", "q")]
        wq.real[:] = 0.0
        wq.imag[:] = 0.0
        x = rand_ct(rng, 1, 4, 3, 2)
        out = sa.branch(x, "time").to_complex()[0]
        v = rows_time(taped_project(sa, x, "time", "v").to_complex()[0])
        mean_row = v.mean(axis=0)
        want = np.broadcast_to(mean_row, v.shape).reshape(4, 3, 2)
        np.testing.assert_allclose(out, want, atol=1e-12)

    @pytest.mark.parametrize("axis", ["time", "frequency"])
    def test_matches_naive_per_row_oracle(self, axis):
        rng = np.random.default_rng(62)
        sa = ConventionalSA(2, rng=rng)
        x = rand_ct(rng, 1, 3, 2, 2)
        got = sa.branch(x, axis).to_complex()[0]

        to_rows = rows_time if axis == "time" else rows_freq
        xc = x.to_complex()[0]
        out_parts = []
        for part in ("real", "imag"):
            xp = getattr(xc, part)
            proj = {
                n: getattr(sa.proj[(axis, n)], part) for n in ("q", "k", "v")
            }
            tfc = xp.reshape(-1, 2)
            q = to_rows((tfc @ proj["q"]).reshape(xp.shape))
            k = to_rows((tfc @ proj["k"]).reshape(xp.shape))
            v = to_rows((tfc @ proj["v"]).reshape(xp.shape))
            w = naive_softmax_rows(q @ k.T)
            out_parts.append(w @ v)
        l, d = out_parts[0].shape
        if axis == "time":
            want = (out_parts[0] + 1j * out_parts[1]).reshape(3, 2, 2)
        else:
            want = (out_parts[0] + 1j * out_parts[1]).reshape(2, 3, 2).transpose(1, 0, 2)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_attention_rows_stochastic(self):
        rng = np.random.default_rng(63)
        sa = ConventionalSA(3, rng=rng)
        for _ in range(20):
            x = rand_ct(rng, 1, 5, 4, 3)
            info = {}
            sa.branch(x, "time", collect=info)
            for key in ("weights_real", "weights_imag"):
                w = info[key][0]
                np.testing.assert_allclose(w.sum(axis=-1), np.ones(5), atol=1e-9)
                assert np.all(w >= 0) and np.all(w <= 1)


class TestComplexTFSA:
    def _unit_layer(self, rng, wk_value=1 + 0j):
        sa = ComplexTFSA(1, rng=rng)
        for name in ("q", "k", "v"):
            w = sa.proj[("time", name)]
            w.real[:] = 1.0
            w.imag[:] = 0.0
        wk = sa.proj[("time", "k")]
        wk.real[:] = np.real(wk_value)
        wk.imag[:] = np.imag(wk_value)
        return sa

    def test_single_element_hermitian_product(self):
        # Q = K = [1+1j]: Corr = (1+1j)(1-1j) = 2, W = [1], A = V
        rng = np.random.default_rng(64)
        sa = self._unit_layer(rng)
        x = ComplexTensor(np.ones((1, 1, 1, 1)), np.ones((1, 1, 1, 1)))
        info = {}
        out = sa.branch(x, "time", collect=info).to_complex()
        assert info["corr"][0, 0, 0] == 2 + 0j
        np.testing.assert_array_equal(info["weights"][0], [[1.0]])
        np.testing.assert_allclose(out, x.to_complex(), atol=1e-15)

    def test_forced_expansion(self):
        # Q = [1+1j], K = [1-1j]: Corr = (1+1j) conj(1-1j) = 0+2j, |Corr| = 2
        rng = np.random.default_rng(65)
        sa = self._unit_layer(rng, wk_value=-1j)  # (1+1j) * -1j = 1-1j
        x = ComplexTensor(np.ones((1, 1, 1, 1)), np.ones((1, 1, 1, 1)))
        info = {}
        sa.branch(x, "time", collect=info)
        assert info["corr"][0, 0, 0] == 0 + 2j

    def test_self_correlation_diagonal_real_nonnegative(self):
        rng = np.random.default_rng(66)
        sa = ComplexTFSA(2, rng=rng)
        wq = sa.proj[("time", "q")]
        wk = sa.proj[("time", "k")]
        wk.real[:] = wq.real
        wk.imag[:] = wq.imag
        x = rand_ct(rng, 1, 4, 3, 2)
        info = {}
        sa.branch(x, "time", collect=info)
        diag = np.diagonal(info["corr"][0])
        np.testing.assert_allclose(diag.imag, 0.0, atol=1e-10)
        assert np.all(diag.real >= -1e-10)

    @pytest.mark.parametrize("axis", ["time", "frequency"])
    def test_matches_termwise_oracle(self, axis):
        rng = np.random.default_rng(67)
        sa = ComplexTFSA(2, rng=rng)
        x = rand_ct(rng, 1, 4, 3, 2)
        got = sa.branch(x, axis).to_complex()[0]

        to_rows = rows_time if axis == "time" else rows_freq
        xc = x.to_complex()[0]
        tfc = xc.reshape(-1, 2)
        w = {n: sa.proj[(axis, n)].to_complex() for n in ("q", "k", "v")}
        q = to_rows((tfc @ w["q"]).reshape(xc.shape))
        k = to_rows((tfc @ w["k"]).reshape(xc.shape))
        v = to_rows((tfc @ w["v"]).reshape(xc.shape))
        l, d = q.shape
        corr = np.zeros((l, l), dtype=np.complex128)
        for i in range(l):
            for j in range(l):
                acc = 0j
                for m in range(d):
                    qr, qi = q[i, m].real, q[i, m].imag
                    kr, ki = k[j, m].real, k[j, m].imag
                    acc += (qr * kr + qi * ki) + 1j * (qi * kr - qr * ki)
                corr[i, j] = acc
        wmap = naive_softmax_rows(np.abs(corr))
        a = wmap @ v.real + 1j * (wmap @ v.imag)
        if axis == "time":
            want = a.reshape(4, 3, 2)
        else:
            want = a.reshape(3, 4, 2).transpose(1, 0, 2)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_attention_rows_stochastic(self):
        rng = np.random.default_rng(68)
        sa = ComplexTFSA(2, rng=rng)
        for _ in range(20):
            x = rand_ct(rng, 1, 6, 3, 2)
            info = {}
            sa.branch(x, "frequency", collect=info)
            w = info["weights"][0]
            np.testing.assert_allclose(w.sum(axis=-1), np.ones(w.shape[0]), atol=1e-9)
            assert np.all(w >= 0) and np.all(w <= 1)


class TestSdab:
    def test_identity_weights_pass_through(self):
        rng = np.random.default_rng(69)
        blk = Sdab(4, 3, rng=rng)
        for axis, dim in (("time", 4), ("frequency", 3)):
            blk.fc[axis].real[:] = np.eye(dim)
            blk.fc[axis].imag[:] = np.eye(dim)
        x = rand_ct(rng, 1, 4, 3, 2)
        for axis in ("time", "frequency"):
            out = blk.branch(x, axis)
            np.testing.assert_allclose(out.to_complex(), x.to_complex(), atol=1e-14)

    def test_zero_weights_give_zero(self):
        rng = np.random.default_rng(70)
        blk = Sdab(4, 3, rng=rng)
        blk.fc["time"].real[:] = 0.0
        blk.fc["time"].imag[:] = 0.0
        x = rand_ct(rng, 1, 4, 3, 2)
        out = blk.branch(x, "time").to_complex()
        np.testing.assert_array_equal(out, np.zeros_like(out))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(71)
        blk = Sdab(4, 3, rng=rng)
        blk.bias["time"].real[:] = rng.standard_normal((4, 1))
        blk.bias["time"].imag[:] = rng.standard_normal((4, 1))
        x = rand_ct(rng, 1, 4, 3, 2)
        got = blk.branch(x, "time").to_complex()[0]
        mat = rows_time(x.to_complex()[0])
        wr, wi = blk.fc["time"].real, blk.fc["time"].imag
        br, bi = blk.bias["time"].real, blk.bias["time"].imag
        want = (wr @ mat.real + br) + 1j * (wi @ mat.imag + bi)
        np.testing.assert_allclose(got, want.reshape(4, 3, 2), atol=1e-12)

    def test_wrong_size_rejected(self):
        rng = np.random.default_rng(72)
        blk = Sdab(4, 3, rng=rng)
        with pytest.raises(ContractError):
            blk.branch(rand_ct(rng, 1, 5, 3, 2), "time")


class TestTFAttentionBlock:
    def test_zero_value_projection_passes_input_through(self):
        rng = np.random.default_rng(73)
        for variant in ("conventional", "complex"):
            block = TFAttentionBlock(variant, 2, 4, 3, rng=rng)
            for axis in ("time", "frequency"):
                wv = block.mechanism.proj[(axis, "v")]
                wv.real[:] = 0.0
                wv.imag[:] = 0.0
            x = rand_ct(rng, 1, 4, 3, 2)
            out = block(x)
            np.testing.assert_allclose(out.to_complex(), x.to_complex(), atol=1e-14)

    def test_sdab_identity_doubles_input(self):
        rng = np.random.default_rng(74)
        block = TFAttentionBlock("sdab", 2, 4, 3, rng=rng)
        for axis, dim in (("time", 4), ("frequency", 3)):
            block.mechanism.fc[axis].real[:] = np.eye(dim)
            block.mechanism.fc[axis].imag[:] = np.eye(dim)
        x = rand_ct(rng, 1, 4, 3, 2)
        out = block(x).to_complex()
        np.testing.assert_allclose(out, 2.0 * x.to_complex(), atol=1e-13)

    def test_recomposes_from_branches(self):
        rng = np.random.default_rng(75)
        block = TFAttentionBlock("complex", 2, 4, 3, rng=rng)
        x = rand_ct(rng, 1, 4, 3, 2)
        got = block(x).to_complex()
        bt = block.mechanism.branch(x, "time").to_complex()
        bf = block.mechanism.branch(x, "frequency").to_complex()
        np.testing.assert_allclose(got, x.to_complex() + 0.5 * (bt + bf), atol=1e-13)

    @pytest.mark.parametrize("variant", ["sdab", "conventional", "complex"])
    def test_batched_matches_per_sample(self, variant):
        rng = np.random.default_rng(76)
        block = TFAttentionBlock(variant, 2, 3, 3, rng=rng)
        xb = rand_ct(rng, 2, 3, 3, 2)
        full = block(xb).to_complex()
        for b in range(2):
            single = block(ComplexTensor(xb.real[b : b + 1], xb.imag[b : b + 1])).to_complex()[0]
            np.testing.assert_array_equal(full[b], single)

    @pytest.mark.parametrize("batch", [3, 4])  # with 2 items the sum order cannot show
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("variant", ["sdab", "conventional", "complex"])
    def test_batched_bit_identical_to_per_item(self, variant, dtype, batch):
        rng = np.random.default_rng(79)

        def draw(*shape):
            return ComplexTensor(*(rng.standard_normal(shape).astype(dtype) for _ in range(2)))

        for t, f, c in DESK_MAPS:
            block = TFAttentionBlock(variant, c, t, f, rng=rng, dtype=dtype)
            x, probe = draw(batch, t, f, c), draw(batch, t, f, c)
            params = [x] + [p for _, p in block.parameters()]
            got_y, want_y = block(x), per_item_block(block, x)
            got, want = (
                ct.gradients(lambda: ct.sum_abs2(ct.cmul(run(block, x), probe)), params)[1]
                for run in (TFAttentionBlock.__call__, per_item_block)
            )
            for g, w in zip(
                [got_y.real, got_y.imag] + [a for pair in got for a in pair],
                [want_y.real, want_y.imag] + [a for pair in want for a in pair],
            ):
                assert g.dtype == dtype
                np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("variant", ["sdab", "conventional", "complex"])
    def test_fused_nodes_bit_identical_to_taped_chain(self, variant, dtype, batch):
        # each branch is one tape node; it equals the branch written as generic
        # tape ops bit for bit: outputs, maps and every gradient, on x given as
        # the strided part views of a conv output, as the model gives it
        rng = np.random.default_rng(82)

        def draw(*shape):
            return ComplexTensor(*(rng.standard_normal(shape).astype(dtype) for _ in range(2)))

        for t, f, c in DESK_MAPS:
            block = TFAttentionBlock(variant, c, t, f, rng=rng, dtype=dtype)
            x = complex_conv2d(draw(batch, t, f, 1), draw(c, 1, 3, 3), 1, 1)
            assert not x.real.flags.c_contiguous
            params = [x] + [p for _, p in block.parameters()]
            for fused, oracle in fused_and_taped(block):
                maps, probe = ({}, {}), draw(batch, t, f, c)
                ys = [run(x, m) for run, m in zip((fused, oracle), maps)]
                grads = [
                    ct.gradients(lambda: ct.sum_abs2(ct.cmul(run(x, None), probe)), params)[1]
                    for run in (fused, oracle)
                ]
                got, want = (
                    [y.real, y.imag, *(a for pair in g for a in pair), *m.values()]
                    for y, g, m in zip(ys, grads, maps)
                )
                assert maps[0].keys() == maps[1].keys()
                for g, w in zip(got, want, strict=True):
                    assert g.dtype == w.dtype and g.shape == w.shape
                    assert np.ascontiguousarray(g).tobytes() == np.ascontiguousarray(w).tobytes()

    @pytest.mark.parametrize("axis", AXES)
    @pytest.mark.parametrize("variant, maps", [("conventional", 2), ("complex", 3)])
    def test_taped_branch_holds_its_maps_not_qkv_rows(self, variant, maps, axis):
        # until backward, a branch node holds the input parts (views here) and
        # its map(s): w_r, w_i for `conventional`, w and Corr's two parts for
        # `complex`; its vjp re-forms the Q, K^T (or K^H) and V rows.  On the
        # desk map [4, 64, 64, 2], time axis: 1.84 MB (`conventional`) and
        # 2.10 MB (`complex`) held beside the output when the node kept the
        # rows (and `complex` its floored |Corr|), 265 / 396 kB now, against
        # bounds of 393 / 524 kB: the maps plus half a Q/K/V part
        rng = np.random.default_rng(83)
        for t, f, c in DESK_MAPS:
            sa = TFAttentionBlock(variant, c, t, f, rng=rng).mechanism
            x = rand_ct(rng, 4, t, f, c)
            tape = ct.GradTape()
            tape.watch(x)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                y = sa.branch(x, axis)
                held = tracemalloc.get_traced_memory()[0] - before - 2 * y.real.nbytes
            finally:
                tracemalloc.stop()
            l = t if axis == "time" else f
            assert held < maps * x.real.itemsize * x.shape[0] * l * l + x.real.nbytes // 2

    @pytest.mark.parametrize("variant", ["conventional", "complex"])
    def test_collect_holds_one_map_per_item(self, variant):
        rng = np.random.default_rng(80)
        sa = TFAttentionBlock(variant, 2, 4, 3, rng=rng).mechanism
        x = rand_ct(rng, 3, 4, 3, 2)
        batched, single = {}, {}
        sa.branch(x, "frequency", collect=batched)
        sa.branch(ComplexTensor(x.real[1:2], x.imag[1:2]), "frequency", collect=single)
        assert batched.keys() == single.keys()
        for key, maps in batched.items():
            assert maps.shape == (3, 3, 3) and single[key].shape == (1, 3, 3)
            np.testing.assert_array_equal(maps[1], single[key][0])

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            TFAttentionBlock("fancy", 2, 4, 4, rng=np.random.default_rng(0))

    def test_parameter_parity_complex_vs_conventional(self):
        rng = np.random.default_rng(77)
        for cc in (1, 2, 4, 8):
            conv_sa = ConventionalSA(cc, rng=rng)
            cplx_sa = ComplexTFSA(cc, rng=rng)
            assert count_parameters(conv_sa.parameters()) == count_parameters(
                cplx_sa.parameters()
            )

    @pytest.mark.parametrize("variant", ["sdab", "conventional", "complex"])
    def test_gradients(self, variant):
        rng = np.random.default_rng(78)
        block = TFAttentionBlock(variant, 2, 3, 3, rng=rng)
        x = rand_ct(rng, 1, 3, 3, 2)
        params = [x] + [p for _, p in block.parameters()]

        def build():
            return ct.sum_abs2(block(x))

        assert check_gradients(build, params) < 1e-4


def _branch(make, axis):
    return lambda rng, x: make(rng).branch(x, axis)


# every layer that takes feature maps, as (the complex channel count C it holds
# weights for, None for a layer that holds none, a call on a map with T = F = 4)
FEATURE_MAP_LAYERS = {
    "complex_conv2d": (2, lambda rng, x: complex_conv2d(x, rand_ct(rng, 2, 2, 3, 3), 1, 1)),
    "complex_conv_transpose2d": (2, lambda rng, x: complex_conv_transpose2d(
        x, rand_ct(rng, 2, 2, 3, 3), 1, 1, (4, 4)
    )),
    "ComplexBatchNorm": (2, lambda rng, x: ComplexBatchNorm(2)(x, training=True)),
    **{
        f"{name}.branch.{axis}": (channels, _branch(make, axis))
        for name, channels, make in (
            ("Sdab", None, lambda rng: Sdab(4, 4, rng=rng)),
            ("ConventionalSA", 2, lambda rng: ConventionalSA(2, rng=rng)),
            ("ComplexTFSA", 2, lambda rng: ComplexTFSA(2, rng=rng)),
        )
        for axis in AXES
    },
    **{
        f"TFAttentionBlock.{variant}": (
            None if variant == "sdab" else 2,
            lambda rng, x, variant=variant: TFAttentionBlock(variant, 2, 4, 4, rng=rng)(x),
        )
        for variant in ("sdab", "conventional", "complex")
    },
}
CHANNEL_COUNTED = {k: v for k, v in FEATURE_MAP_LAYERS.items() if v[0] is not None}


class TestFeatureMapContract:
    """[B, T, F, C] is the only map layout, and C must be the layer's channel
    count: every layer raises ShapeError on anything else."""

    @pytest.mark.parametrize("layer", FEATURE_MAP_LAYERS.values(), ids=FEATURE_MAP_LAYERS.keys())
    def test_one_map_without_batch_axis_rejected(self, layer):
        # a batch of one carries its axis
        channels, call = layer
        rng = np.random.default_rng(81)
        with pytest.raises(ShapeError, match=r"\[B,"):
            call(rng, rand_ct(rng, 4, 4, channels or 2))

    # 2C channels reshape into whole extra attention rows, which the projections
    # take without complaint: only the channel check rejects them
    @pytest.mark.parametrize("wrong", [lambda c: c + 1, lambda c: 2 * c], ids=["C+1", "2C"])
    @pytest.mark.parametrize("layer", CHANNEL_COUNTED.values(), ids=CHANNEL_COUNTED.keys())
    def test_wrong_channel_count_rejected(self, layer, wrong):
        channels, call = layer
        rng = np.random.default_rng(82)
        with pytest.raises(ShapeError, match="channel"):
            call(rng, rand_ct(rng, 1, 4, 4, wrong(channels)))

    def test_model_forward_rejects_one_map(self):
        cfg = ModelConfig(num_enc_layers=1, channels=(2,), gru_hidden=2, image_frames=4,
                          frame_len=8, hop=2, fft_size=8)
        rng = np.random.default_rng(83)
        with pytest.raises(ShapeError, match=r"\[B,"):
            DccrnModel(cfg).forward(rand_ct(rng, 4, 4, 1))
