"""Complex layers: convolution, batchnorm, GRU, unitary init."""

import copy
import math
import tracemalloc

import numpy as np
import pytest

from dereverb import ctensor as ct
from dereverb import layers as ly
from dereverb.ctensor import ComplexTensor
from dereverb.errors import ContractError, ShapeError
from dereverb.gradcheck import check_gradients
from helpers import from_complex
from taped_ops import index_axis, stack, sum_all


def rand_ct(rng, *shape, away_from_zero=False):
    r = rng.standard_normal(shape)
    i = rng.standard_normal(shape)
    if away_from_zero:
        r = np.sign(r) * (0.2 + np.abs(r))
        i = np.sign(i) * (0.2 + np.abs(i))
    return ComplexTensor(r, i)


# tape ops that only the reference chains below use, one node each as they
# were in dereverb.ctensor


def neg(a):
    return ct._emit("neg", -a.real, -a.imag, [(a, lambda gr, gi: (-gr, -gi))])


def mul_split(a, b):
    """Per-part elementwise product: (a_r*b_r, a_i*b_i), with broadcasting."""

    def vjp_a(gr, gi):
        return ct._unbroadcast(gr * b.real, a.shape), ct._unbroadcast(gi * b.imag, a.shape)

    def vjp_b(gr, gi):
        return ct._unbroadcast(gr * a.real, b.shape), ct._unbroadcast(gi * a.imag, b.shape)

    return ct._emit("mul_split", a.real * b.real, a.imag * b.imag, [(a, vjp_a), (b, vjp_b)])


def mean_axes(a, axes):
    shape, inv_n = a.shape, 1.0 / math.prod(a.shape[ax] for ax in axes)

    def vjp(gr, gi):
        gr, gi = np.expand_dims(gr, axes), np.expand_dims(gi, axes)
        return (
            np.broadcast_to(gr * inv_n, shape).copy(),
            np.broadcast_to(gi * inv_n, shape).copy(),
        )

    means = (p.mean(axis=axes, dtype=np.float64).astype(p.dtype) for p in (a.real, a.imag))
    return ct._emit("mean_axes", *means, [(a, vjp)])


def unbroadcast64(grad, shape):
    """``ct._unbroadcast`` with its sums accumulated in float64 and rounded
    once to the gradient's dtype, as batchnorm accumulates its statistics."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)), dtype=np.float64).astype(grad.dtype)
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True, dtype=np.float64).astype(grad.dtype)
    return grad


def real_part(a):
    zero = lambda gr, gi: (gr, np.zeros_like(gr))
    return ct._emit("real_part", a.real, np.zeros_like(a.real), [(a, zero)])


def imag_part(a):
    swap = lambda gr, gi: (np.zeros_like(gr), gr)
    return ct._emit("imag_part", a.imag, np.zeros_like(a.imag), [(a, swap)])


def make_complex(re, im):
    zero_r = lambda gr, gi: (gr, np.zeros_like(gr))
    zero_i = lambda gr, gi: (gi, np.zeros_like(gi))
    return ct._emit("make_complex", re.real, im.real, [(re, zero_r), (im, zero_i)])


def shift(a, c):
    cr, ci = a.dtype.type(np.real(c)), a.dtype.type(np.imag(c))
    return ct._emit("shift", a.real + cr, a.imag + ci, [(a, lambda gr, gi: (gr, gi))])


def naive_complex_conv(x, w, stride, padding):
    """Nested-loop complex convolution oracle on complex ndarrays.

    x: [T, F, C_in] complex; w: [C_out, C_in, kt, kf] complex.
    """
    st, sf = stride
    pt, pf = padding
    t_in, f_in, c_in = x.shape
    c_out, _, kt, kf = w.shape
    xp = np.zeros((t_in + 2 * pt, f_in + 2 * pf, c_in), dtype=np.complex128)
    xp[pt : pt + t_in, pf : pf + f_in] = x
    t_out = (t_in + 2 * pt - kt) // st + 1
    f_out = (f_in + 2 * pf - kf) // sf + 1
    y = np.zeros((t_out, f_out, c_out), dtype=np.complex128)
    for to in range(t_out):
        for fo in range(f_out):
            for co in range(c_out):
                acc = 0j
                for ci in range(c_in):
                    for a in range(kt):
                        for b in range(kf):
                            acc += xp[to * st + a, fo * sf + b, ci] * w[co, ci, a, b]
                y[to, fo, co] = acc
    return y


def naive_complex_conv_transpose(x, w, stride, padding, out_spatial):
    """Nested-loop scatter oracle for the transposed conv on complex ndarrays.

    x: [T, F, C_in] complex; w: [C_in, C_out, kt, kf] complex.  Each input
    pixel adds its kernel-weighted copy at (t*s - p, f*s - p) onward.
    """
    st, sf = stride
    pt, pf = padding
    t_in, f_in, c_in = x.shape
    _, c_out, kt, kf = w.shape
    t_out, f_out = out_spatial
    y = np.zeros(
        (
            max(t_out + 2 * pt, (t_in - 1) * st + kt),
            max(f_out + 2 * pf, (f_in - 1) * sf + kf),
            c_out,
        ),
        dtype=np.complex128,
    )
    for t in range(t_in):
        for f in range(f_in):
            for ci in range(c_in):
                for co in range(c_out):
                    for a in range(kt):
                        for b in range(kf):
                            y[t * st + a, f * sf + b, co] += x[t, f, ci] * w[ci, co, a, b]
    return y[pt : pt + t_out, pf : pf + f_out]


class TestComplexConv2d:
    def test_identity_kernel(self):
        x = ComplexTensor(np.array([[[[1.0]]]]), np.array([[[[2.0]]]]))
        w = ComplexTensor(np.ones((1, 1, 1, 1)), np.zeros((1, 1, 1, 1)))
        y = ly.complex_conv2d(x, w)
        assert y.to_complex()[0, 0, 0, 0] == 1 + 2j

    def test_forced_by_product_rule(self):
        x = ComplexTensor(np.array([[[[1.0]]]]), np.array([[[[1.0]]]]))
        w = ComplexTensor(np.ones((1, 1, 1, 1)), np.ones((1, 1, 1, 1)))
        y = ly.complex_conv2d(x, w)
        assert y.to_complex()[0, 0, 0, 0] == 0 + 2j

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(30)
        x = rand_ct(rng, 1, 4, 4, 1)
        w = rand_ct(rng, 2, 1, 3, 3)
        got = ly.complex_conv2d(x, w, stride=1, padding=1).to_complex()[0]
        want = naive_complex_conv(x.to_complex()[0], w.to_complex(), (1, 1), (1, 1))
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("stride,padding", [((1, 1), (0, 0)), ((2, 1), (1, 0)), ((1, 2), (2, 1))])
    def test_matches_naive_loop_strided(self, stride, padding):
        rng = np.random.default_rng(31)
        x = rand_ct(rng, 1, 6, 5, 2)
        w = rand_ct(rng, 3, 2, 3, 2)
        got = ly.complex_conv2d(x, w, stride=stride, padding=padding).to_complex()[0]
        want = naive_complex_conv(x.to_complex()[0], w.to_complex(), stride, padding)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(32)
        xb = rand_ct(rng, 3, 5, 4, 2)
        w = rand_ct(rng, 2, 2, 3, 3)
        batched = ly.complex_conv2d(xb, w, padding=1).to_complex()
        for b in range(3):
            single = ly.complex_conv2d(
                ComplexTensor(xb.real[b : b + 1], xb.imag[b : b + 1]), w, padding=1
            ).to_complex()[0]
            np.testing.assert_allclose(batched[b], single, atol=1e-13)

    def test_linearity(self):
        rng = np.random.default_rng(33)
        x1, x2 = rand_ct(rng, 1, 5, 5, 2), rand_ct(rng, 1, 5, 5, 2)
        w = rand_ct(rng, 2, 2, 3, 3)
        alpha = 0.37
        lhs = ly.complex_conv2d(
            ComplexTensor(alpha * x1.real + x2.real, alpha * x1.imag + x2.imag), w, padding=1
        ).to_complex()
        rhs = alpha * ly.complex_conv2d(x1, w, padding=1).to_complex() + ly.complex_conv2d(
            x2, w, padding=1
        ).to_complex()
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_gradients(self):
        rng = np.random.default_rng(35)
        x = rand_ct(rng, 1, 4, 4, 2)
        w = rand_ct(rng, 2, 2, 3, 3)

        def build():
            return ct.sum_abs2(ct.crelu(ly.complex_conv2d(x, w, stride=(1, 2), padding=1)))

        assert check_gradients(build, [x, w]) < 1e-4

    def test_tape_holds_padded_map_not_patch_matrix(self):
        # until backward, the node keeps the zero-padded [x_r | x_i] map (83 kB
        # here, 1.3x the input) and vjp_w re-forms the patch matrix from it:
        # 90 kB held beside the output, against 597 kB with the patch matrix
        rng = np.random.default_rng(36)
        x, w = rand_ct(rng, 4, 16, 16, 4), rand_ct(rng, 4, 4, 3, 3)
        s, p, k = (1, 1), (1, 1), (3, 3)
        tape = ct.GradTape()
        for t in (x, w):
            tape.watch(t)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y = ly.complex_conv2d(x, w, stride=s, padding=p)
            held = tracemalloc.get_traced_memory()[0] - before - 2 * y.real.nbytes
        finally:
            tracemalloc.stop()
        assert held < 2 * (2 * x.real.itemsize * 4 * 18 * 18 * 4)  # twice the padded map
        vjp_x, vjp_w = tape.nodes[y.node_id].vjps
        gr, gi = rng.standard_normal((2,) + y.shape)
        cols = ly._windows(ly._padded(x.real, x.imag, p, (1, 1), (18, 18)), k, s)[0]
        for got, want in zip(vjp_w(gr, gi), ly._kernel_grad(cols, gr, gi, k)):
            np.testing.assert_array_equal(got, want)
        blk = ly._block(w.real, w.imag)
        rows = ly._input_adjoint(gr, gi, blk, s, p, (16, 16))
        for got, want in zip(vjp_x(gr, gi), ly._parts(rows, x.shape)):
            np.testing.assert_array_equal(got, want)


class TestComplexConvTranspose2d:
    def test_adjoint_of_conv(self):
        # <conv(x; conj(w)), y> == <x, convT(y; w)> in the paired-real inner product
        rng = np.random.default_rng(36)
        x = rand_ct(rng, 1, 6, 8, 2)
        w = rand_ct(rng, 3, 2, 3, 3)  # [out, in, kt, kf] for the forward conv
        stride, padding = (2, 2), (1, 1)
        y_shape = ly.complex_conv2d(x, ComplexTensor(w.real, -w.imag), stride, padding).shape
        y = rand_ct(rng, *y_shape)

        fx = ly.complex_conv2d(x, ComplexTensor(w.real, -w.imag), stride, padding)
        bty = ly.complex_conv_transpose2d(y, w, stride, padding, (6, 8))
        lhs = float((fx.real * y.real).sum() + (fx.imag * y.imag).sum())
        rhs = float((x.real * bty.real).sum() + (x.imag * bty.imag).sum())
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_inverts_spatial_dims(self):
        rng = np.random.default_rng(37)
        x = rand_ct(rng, 1, 10, 12, 2)
        down = ly.complex_conv2d(x, rand_ct(rng, 3, 2, 3, 3), stride=(2, 2), padding=1)
        up = ly.complex_conv_transpose2d(
            down, rand_ct(rng, 3, 2, 3, 3), (2, 2), (1, 1), (10, 12)
        )
        assert up.shape == (1, 10, 12, 2)

    def test_inconsistent_target_rejected(self):
        rng = np.random.default_rng(38)
        with pytest.raises(ShapeError):
            ly.complex_conv_transpose2d(
                rand_ct(rng, 1, 5, 6, 2), rand_ct(rng, 2, 2, 3, 3), (2, 2), (1, 1), (64, 64)
            )

    def test_gradients(self):
        rng = np.random.default_rng(39)
        x = rand_ct(rng, 1, 3, 3, 2)
        w = rand_ct(rng, 2, 2, 3, 3)

        def build():
            up = ly.complex_conv_transpose2d(x, w, (2, 2), (1, 1), (6, 6))
            return ct.sum_abs2(up)

        assert check_gradients(build, [x, w]) < 1e-4


# (T, F), kernel, stride, padding.  The input gradient is a correlation over
# the dilated, padded output gradient; these geometries make that route crop
# (padding >= kernel), skip input rows (stride > kernel) and over-pad
# ((n + 2p - k) % s != 0), next to the desk encoder's and dense blocks' ones.
CONV_GEOMETRIES = [
    ((5, 6), (3, 3), (1, 1), (1, 1)),
    ((6, 9), (3, 3), (1, 2), (1, 1)),
    ((6, 7), (2, 3), (1, 1), (3, 2)),
    ((5, 7), (1, 1), (2, 2), (0, 0)),
    ((8, 7), (3, 2), (3, 2), (1, 0)),
]
# rank 3: one [T, F, C] map, which the convs take as a batch of one;
# rank 4: a batch of two maps
GEOMETRY_CASES = [
    pytest.param(g, rank, dtype, id=f"g{i}-rank{rank}-{dtype.__name__}")
    for i, g in enumerate(CONV_GEOMETRIES)
    for rank in (3, 4)
    for dtype in (np.float64, np.float32)
]


def rand_typed(rng, shape, dtype):
    return ComplexTensor(
        rng.standard_normal(shape).astype(dtype), rng.standard_normal(shape).astype(dtype)
    )


def inner(a, b):
    """Paired-real inner product sum(a_r b_r + a_i b_i) in float64."""
    ar, ai = a.real.astype(np.float64), a.imag.astype(np.float64)
    return float((ar * b.real).sum() + (ai * b.imag).sum())


def inner_loss(y, probe):
    """<y, probe> as a real scalar tensor: its gradient wrt y is ``probe``."""
    s = sum_all(mul_split(y, probe))
    return ct.add(real_part(s), imag_part(s))


class TestConvGeometry:
    """Conv and conv-transpose against loop oracles and each other, per geometry."""

    def _case(self, geometry, rank, dtype, seed):
        (t, f), k, s, p = geometry
        rng = np.random.default_rng(seed)
        batch = 2 if rank == 4 else 1
        x = rand_typed(rng, (batch, t, f, 2), dtype)
        w = rand_typed(rng, (3, 2) + k, dtype)  # conv: 2 -> 3 channels
        return rng, x, w, s, p

    @staticmethod
    def _rtol(dtype):
        return 1e-12 if dtype == np.float64 else 2e-5

    @pytest.mark.parametrize("geometry,rank,dtype", GEOMETRY_CASES)
    def test_conv_matches_naive_loop(self, geometry, rank, dtype):
        _, x, w, s, p = self._case(geometry, rank, dtype, 60)
        y = ly.complex_conv2d(x, w, s, p)
        assert y.dtype == dtype
        want = np.stack([naive_complex_conv(xb, w.to_complex(), s, p) for xb in x.to_complex()])
        np.testing.assert_allclose(y.to_complex(), want, atol=10 * self._rtol(dtype))

    @pytest.mark.parametrize("geometry,rank,dtype", GEOMETRY_CASES)
    def test_transpose_matches_naive_loop(self, geometry, rank, dtype):
        rng, x, w, s, p = self._case(geometry, rank, dtype, 61)
        spatial = x.shape[-3:-1]
        z = rand_typed(rng, ly.complex_conv2d(x, w, s, p).shape, dtype)
        # the transpose maps conv outputs back: its kernel is [C_in, C_out] = w's [3, 2]
        y = ly.complex_conv_transpose2d(z, w, s, p, spatial)
        assert y.dtype == dtype and y.shape == x.shape
        want = np.stack(
            [naive_complex_conv_transpose(zb, w.to_complex(), s, p, spatial)
             for zb in z.to_complex()]
        )
        np.testing.assert_allclose(y.to_complex(), want, atol=10 * self._rtol(dtype))

    @pytest.mark.parametrize("geometry,rank,dtype", GEOMETRY_CASES)
    def test_input_gradient_is_adjoint(self, geometry, rank, dtype):
        # <op(x), y> == <x, vjp_x(y)> for the conv and for its transpose
        rng, x, w, s, p = self._case(geometry, rank, dtype, 62)
        y_probe = rand_typed(rng, ly.complex_conv2d(x, w, s, p).shape, dtype)
        z = rand_typed(rng, y_probe.shape, dtype)
        x_probe = rand_typed(rng, x.shape, dtype)
        spatial = x.shape[-3:-1]
        for op, arg, probe in (
            (lambda a: ly.complex_conv2d(a, w, s, p), x, y_probe),
            (lambda a: ly.complex_conv_transpose2d(a, w, s, p, spatial), z, x_probe),
        ):
            (vjp,) = ct.gradients(lambda: inner_loss(op(arg), probe), [arg])[1]
            assert vjp[0].dtype == vjp[1].dtype == dtype
            lhs, rhs = inner(op(arg), probe), inner(arg, ComplexTensor(*vjp))
            assert abs(lhs - rhs) <= self._rtol(dtype) * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("geometry,rank,dtype", GEOMETRY_CASES)
    def test_transpose_is_conv_vjp_x_with_conjugate_kernel(self, geometry, rank, dtype):
        rng, x, w, s, p = self._case(geometry, rank, dtype, 63)
        w_conj = ComplexTensor(w.real, -w.imag)
        z = rand_typed(rng, ly.complex_conv2d(x, w, s, p).shape, dtype)
        (vjp_x,) = ct.gradients(
            lambda: inner_loss(ly.complex_conv2d(x, w_conj, s, p), z), [x]
        )[1]
        up = ly.complex_conv_transpose2d(z, w, s, p, x.shape[-3:-1])
        scale = np.abs(up.to_complex()).max()
        np.testing.assert_allclose(up.real, vjp_x[0], atol=self._rtol(dtype) * scale)
        np.testing.assert_allclose(up.imag, vjp_x[1], atol=self._rtol(dtype) * scale)

    @pytest.mark.parametrize("geometry,rank,dtype", GEOMETRY_CASES)
    def test_transpose_gradients_alone_equal_gradients_together(self, geometry, rank, dtype):
        # both vjps come from one memoised im2col; each input still gets the
        # gradient it gets when it is the only one taped
        rng, x, w, s, p = self._case(geometry, rank, dtype, 65)
        z = rand_typed(rng, ly.complex_conv2d(x, w, s, p).shape, dtype)
        probe = rand_typed(rng, x.shape, dtype)
        build = lambda: inner_loss(ly.complex_conv_transpose2d(z, w, s, p, x.shape[-3:-1]), probe)
        together = ct.gradients(build, [z, w])[1]
        alone = ct.gradients(build, [z])[1] + ct.gradients(build, [w])[1]
        for got, want in zip(together, alone):
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize(
        "geometry,rank", [(g, r) for g in CONV_GEOMETRIES for r in (3, 4)]
    )
    def test_kernel_gradients_match_finite_differences(self, geometry, rank):
        rng, x, w, s, p = self._case(geometry, rank, np.float64, 64)
        z = rand_typed(rng, ly.complex_conv2d(x, w, s, p).shape, np.float64)
        spatial = x.shape[-3:-1]
        for build in (
            lambda: ct.sum_abs2(ly.complex_conv2d(x, w, s, p)),
            lambda: ct.sum_abs2(ly.complex_conv_transpose2d(z, w, s, p, spatial)),
        ):
            assert check_gradients(build, [w]) < 1e-7


def _swap_parts(x):
    return make_complex(imag_part(x), real_part(x))


def taped_batchnorm(self, x, training):
    """Reference batchnorm: ``ComplexBatchNorm.__call__`` as a chain of generic
    tape ops, 45 nodes per training-mode call.  Updates ``self``'s running
    stats as the layer does.  Its means accumulate in float64; run its
    backward with ``ct._unbroadcast`` as :func:`unbroadcast64` for the
    layer's float64 gradient sums."""
    if x.ndim < 2:
        raise ShapeError(f"batchnorm input must have rank >= 2, got {x.shape}")
    axes = tuple(range(x.ndim - 1))
    n = 1
    for ax in axes:
        n *= x.shape[ax]

    if training:
        if n < 2:
            raise ContractError(
                f"batchnorm needs >= 2 samples per channel in training mode, got {n}"
            )
        mu = mean_axes(x, axes)
        xc = ct.sub(x, mu)
        vd = mean_axes(mul_split(xc, xc), axes)  # (E r^2, E i^2)
        vcross = mean_axes(mul_split(xc, _swap_parts(xc)), axes)
        vrr = real_part(vd)
        vii = imag_part(vd)
        vri = real_part(vcross)
        self._running *= 1 - self.momentum
        self._running += self.momentum * np.stack(
            [mu.real, mu.imag, vrr.real, vri.real, vii.real]
        )
    else:
        mean_r, mean_i, run_rr, run_ri, run_ii = self._running
        mu = ComplexTensor(mean_r, mean_i)
        xc = ct.sub(x, mu)
        vrr = ComplexTensor(run_rr)
        vii = ComplexTensor(run_ii)
        vri = ComplexTensor(run_ri)

    # analytic inverse square root of [[a, b], [b, c]] + eps*I
    a = shift(vrr, self.eps)
    c = shift(vii, self.eps)
    b = vri
    delta = ct.sub(mul_split(a, c), mul_split(b, b))
    s = ct.pow_re(delta, 0.5)
    t = ct.pow_re(ct.add(ct.add(a, c), ct.scale(s, 2.0)), 0.5)
    inv = ct.pow_re(mul_split(s, t), -1.0)
    w_rr = mul_split(ct.add(c, s), inv)
    w_ii = mul_split(ct.add(a, s), inv)
    w_ri = mul_split(neg(b), inv)

    wd = make_complex(w_rr, w_ii)
    wo = make_complex(w_ri, w_ri)
    white = ct.add(mul_split(wd, xc), mul_split(wo, _swap_parts(xc)))

    scaled = ct.add(
        mul_split(self.gamma_d, white),
        mul_split(self.gamma_o, _swap_parts(white)),
    )
    return ct.add(scaled, self.beta)


class TestComplexBatchNorm:
    def _identity_gamma(self, bn):
        bn.gamma_d.real[:] = 1.0
        bn.gamma_d.imag[:] = 1.0
        bn.gamma_o.real[:] = 0.0
        bn.gamma_o.imag[:] = 0.0

    def test_whitening_fixed_point(self):
        rng = np.random.default_rng(40)
        bn = ly.ComplexBatchNorm(3)
        bn.eps = 1e-9
        self._identity_gamma(bn)
        # build an input with exactly zero mean and identity 2x2 covariance
        raw = rng.standard_normal((64, 4, 4, 3)) + 1j * rng.standard_normal((64, 4, 4, 3))
        flat = raw.reshape(-1, 3)
        flat = flat - flat.mean(axis=0)
        for c in range(3):
            v = np.stack([flat[:, c].real, flat[:, c].imag])
            cov = v @ v.T / v.shape[1]
            l = np.linalg.cholesky(cov)
            white = np.linalg.inv(l) @ v
            flat[:, c] = white[0] + 1j * white[1]
        x = from_complex(flat.reshape(raw.shape))
        out = bn(x, training=True)
        np.testing.assert_allclose(out.real, x.real, atol=1e-6)
        np.testing.assert_allclose(out.imag, x.imag, atol=1e-6)

    def test_constant_input_maps_to_shift(self):
        bn = ly.ComplexBatchNorm(2)
        bn.beta.real[:] = [0.5, -1.0]
        bn.beta.imag[:] = [0.25, 2.0]
        x = ComplexTensor(np.full((4, 3, 3, 2), 7.0), np.full((4, 3, 3, 2), -3.0))
        out = bn(x, training=True)
        np.testing.assert_allclose(out.real, np.broadcast_to(bn.beta.real, out.shape), atol=1e-12)
        np.testing.assert_allclose(out.imag, np.broadcast_to(bn.beta.imag, out.shape), atol=1e-12)

    def test_output_covariance_is_identity(self):
        rng = np.random.default_rng(41)
        bn = ly.ComplexBatchNorm(2)
        bn.eps = 1e-9
        self._identity_gamma(bn)
        # correlated parts so the whitening actually has work to do
        r = rng.standard_normal((256, 2, 2, 2))
        i = 0.8 * r + 0.3 * rng.standard_normal((256, 2, 2, 2))
        out = bn(ComplexTensor(3.0 * r + 1.0, 2.0 * i - 0.5), training=True)
        flat_r = out.real.reshape(-1, 2)
        flat_i = out.imag.reshape(-1, 2)
        for c in range(2):
            v = np.stack([flat_r[:, c], flat_i[:, c]])
            cov = v @ v.T / v.shape[1]
            np.testing.assert_allclose(cov, np.eye(2), atol=1e-6)

    def test_training_mean_equals_beta(self):
        rng = np.random.default_rng(42)
        bn = ly.ComplexBatchNorm(3)
        bn.beta.real[:] = [1.0, 2.0, 3.0]
        bn.beta.imag[:] = [-1.0, 0.0, 1.0]
        x = rand_ct(rng, 8, 5, 4, 3)
        out = bn(x, training=True)
        np.testing.assert_allclose(out.real.mean(axis=(0, 1, 2)), bn.beta.real, atol=1e-8)
        np.testing.assert_allclose(out.imag.mean(axis=(0, 1, 2)), bn.beta.imag, atol=1e-8)

    def test_degenerate_batch_rejected(self):
        bn = ly.ComplexBatchNorm(2)
        x = ComplexTensor(np.zeros((1, 1, 1, 2)), np.zeros((1, 1, 1, 2)))
        with pytest.raises(ContractError):
            bn(x, training=True)

    @pytest.mark.parametrize("training", [True, False])
    def test_wrong_channel_count_leaves_running_stats(self, training):
        # the map is checked before the running stats move: a rejected
        # training call leaves them as they were
        rng = np.random.default_rng(45)
        bn = ly.ComplexBatchNorm(3)
        before = bn._running.copy()
        with pytest.raises(ShapeError, match="channel"):
            bn(rand_ct(rng, 2, 3, 4, 2), training)
        assert bn._running.tobytes() == before.tobytes()

    def test_inference_uses_running_stats(self):
        rng = np.random.default_rng(43)
        bn = ly.ComplexBatchNorm(2)
        x = rand_ct(rng, 16, 3, 3, 2)
        before = bn(x, training=False).to_complex()
        for _ in range(5):
            bn(rand_ct(rng, 16, 3, 3, 2), training=True)
        after = bn(x, training=False).to_complex()
        assert not np.allclose(before, after)

    def test_gradients(self):
        rng = np.random.default_rng(44)
        bn = ly.ComplexBatchNorm(2)
        x = rand_ct(rng, 3, 2, 2, 2)
        params = [x, bn.gamma_d, bn.gamma_o, bn.beta]

        def build():
            return ct.sum_abs2(ct.crelu(bn(x, training=True)))

        assert check_gradients(build, params) < 1e-4

    # the desk model's batchnorm inputs (B=4, 64 frames): the eight blocks'
    # five distinct shapes
    DESK_SHAPES = [(4, 64, 33, 2), (4, 64, 17, 4), (4, 64, 9, 8), (4, 64, 5, 16), (4, 64, 65, 2)]

    @staticmethod
    def _oracle_case(seed, shape, dtype, training, flat_spread=None):
        """A layer with moved parameters (and, for eval, moved running stats),
        its copy for the oracle, an input shaped like a conv output (both parts
        strided views of one [.., 2C] buffer) and a probe for the loss."""
        rng = np.random.default_rng(seed)
        c = shape[-1]
        bn = ly.ComplexBatchNorm(c, dtype=dtype)
        for p in (bn.gamma_d, bn.gamma_o, bn.beta):
            p.real += (0.3 * rng.standard_normal(c)).astype(dtype)
            p.imag += (0.3 * rng.standard_normal(c)).astype(dtype)
        if not training:
            for _ in range(3):
                bn(rand_typed(rng, shape, dtype), training=True)
        buf = (2.0 * rng.standard_normal(shape[:-1] + (2 * c,)) + 0.5).astype(dtype)
        if flat_spread is not None:
            buf[..., 0] = 1.5 + flat_spread * rng.standard_normal(shape[:-1])
            buf[..., c] = -0.25 + flat_spread * rng.standard_normal(shape[:-1])
        x = ComplexTensor(buf[..., :c], buf[..., c:])
        probe = rand_typed(rng, shape, dtype)
        return bn, copy.deepcopy(bn), x, probe

    def _assert_bit_identical(self, shape, dtype, training, flat_spread=None):
        bn, ref, x, probe = self._oracle_case(60, shape, dtype, training, flat_spread)
        params = [x, bn.gamma_d, bn.gamma_o, bn.beta]
        ref_params = [x, ref.gamma_d, ref.gamma_o, ref.beta]

        def run(call, ps):
            # crelu's mask gives the output gradient exact zeros of both signs
            loss = lambda: sum_all(real_part(ct.cmul(ct.crelu(call(x, training)), probe)))
            return call(x, training), ct.gradients(loss, ps)[1]

        fused = run(bn, params)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ct, "_unbroadcast", unbroadcast64)
            chain = run(lambda t, m: taped_batchnorm(ref, t, m), ref_params)
        outs, grads = zip(fused, chain)
        assert outs[0].dtype == outs[1].dtype == dtype
        np.testing.assert_array_equal(outs[0].real, outs[1].real)
        np.testing.assert_array_equal(outs[0].imag, outs[1].imag)
        np.testing.assert_array_equal(bn._running, ref._running)
        for (gr, gi), (wr, wi) in zip(*grads):
            assert gr.dtype == wr.dtype == dtype
            np.testing.assert_array_equal(gr, wr)
            np.testing.assert_array_equal(gi, wi)

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", DESK_SHAPES)
    def test_bit_identical_to_taped_chain(self, shape, dtype, training):
        # the fused node forms every product and sum of the chain in its
        # order: outputs, running stats and all four gradients round alike
        self._assert_bit_identical(shape, dtype, training)

    @pytest.mark.parametrize("spread", [0.0, 1e-6])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bit_identical_on_constant_channel(self, dtype, spread):
        # a channel whose variance is far below eps leaves delta about
        # eps^2 = 1e-10, under the GRAD_EPS floor of d sqrt(delta); a small
        # spread keeps a gradient flowing through the floored factor
        self._assert_bit_identical((2, 5, 4, 3), dtype, True, flat_spread=spread)

    def test_float32_statistics_follow_float64(self):
        # a paper-scale count of samples per channel, parts correlated to 1e-2
        # and means far from zero, so delta = a*c - b*b cancels.  Relative L2
        # error of float32 against float64, statistics summed in float32:
        # 1.3e-2 (output) and 1.9e-2 (input gradient); summed in float64:
        # 1.0e-4 and 1.5e-4
        shape = (1, 256, 129, 2)
        rng = np.random.default_rng(70)
        r = rng.standard_normal(shape)
        parts = (3.0 + r, 6.0 + r + 1e-2 * rng.standard_normal(shape))
        probe = rng.standard_normal((2,) + shape)
        got = []
        for dtype in (np.float64, np.float32):
            bn = ly.ComplexBatchNorm(2, dtype=dtype)
            x, pb = (ComplexTensor(*(p.astype(dtype) for p in ps)) for ps in (parts, probe))
            out = []

            def loss():
                out.append(bn(x, training=True))
                return sum_all(real_part(ct.cmul(out[0], pb)))

            (dxr, dxi), = ct.gradients(loss, [x])[1]
            got.append((out[0].to_complex(), dxr + 1j * dxi))
        for want, have in zip(*got):
            assert np.linalg.norm(have - want) / np.linalg.norm(want) < 1e-3

    @pytest.mark.parametrize("training", [True, False])
    def test_call_is_one_tape_node(self, training):
        bn, _, x, _ = self._oracle_case(62, (2, 3, 4, 2), np.float64, training)
        tape = ct.GradTape()
        for t in (x, bn.gamma_d, bn.gamma_o, bn.beta):
            tape.watch(t)
        before = len(tape)
        out = bn(x, training)
        assert len(tape) == before + 1 and tape.nodes[out.node_id].op == "batchnorm"

    def test_tape_holds_centred_parts_not_whitened_map(self):
        # until backward, a training-mode node holds the centred parts xr, xi
        # (two maps) and per-channel rows; its vjp re-forms the whitened map.
        # On this desk-shaped map 1.06 MB were held beside the output while the
        # node kept the whitened parts too, 535 kB now, against a bound of 655 kB
        rng = np.random.default_rng(63)
        bn, x = ly.ComplexBatchNorm(8), rand_ct(rng, 4, 64, 16, 8)
        tape = ct.GradTape()
        tape.watch(x)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y = bn(x, training=True)
            held = tracemalloc.get_traced_memory()[0] - before - 2 * y.real.nbytes
        finally:
            tracemalloc.stop()
        assert held < 2.5 * x.real.nbytes


def taped_gru_run(cell, x_seq):
    """Reference recurrence: the GRU as a chain of per-step tape ops.

    Each step slices the batched input projections with ``index_axis`` and
    records the gate products, nonlinearities and gating as separate nodes;
    the split sigmoid 1 / (1 + exp(-a)) is one node per gate.
    """
    batch, steps, d = x_seq.shape
    h_cc = cell.hidden_cc

    def sigmoid_split(a):
        sr, si = (1.0 / (1.0 + np.exp(-p)) for p in (a.real, a.imag))
        vjp = lambda gr, gi: (gr * sr * (1.0 - sr), gi * si * (1.0 - si))
        return ct._emit("sigmoid_split", sr, si, [(a, vjp)])

    flat = ct.reshape(x_seq, (batch * steps, d))
    px = {
        gate: ct.reshape(ct.matmul(flat, w), (batch, steps, h_cc))
        for gate, w in (("z", cell.w_z), ("r", cell.w_r), ("h", cell.w_h))
    }
    h = ComplexTensor(*(np.zeros((batch, h_cc), dtype=x_seq.dtype) for _ in range(2)))
    outs = []
    for t in range(steps):
        z = sigmoid_split(
            ct.add(ct.add(index_axis(px["z"], 1, t), ct.matmul(h, cell.u_z)), cell.b_z)
        )
        r = sigmoid_split(
            ct.add(ct.add(index_axis(px["r"], 1, t), ct.matmul(h, cell.u_r)), cell.b_r)
        )
        cand = ct.tanh_split(
            ct.add(
                ct.add(index_axis(px["h"], 1, t), ct.matmul(mul_split(r, h), cell.u_h)),
                cell.b_h,
            )
        )
        h = ct.add(mul_split(shift(neg(z), 1 + 1j), h), mul_split(z, cand))
        outs.append(h)
    return stack(outs, axis=1)


class TestComplexGru:
    def test_zero_weights_halve_hidden(self):
        # zero weights: z = r = 1/2, candidate tanh(b_h), so each step halves
        # the gap between the hidden state and the candidate
        rng = np.random.default_rng(45)
        cell = ly.ComplexGruCell(3, 3, rng=rng)
        for _, p in cell.parameters():
            p.real[:] = 0.0
            p.imag[:] = 0.0
        cell.b_h.real[:] = rng.standard_normal(3)
        cell.b_h.imag[:] = rng.standard_normal(3)
        cand = np.tanh(cell.b_h.real) + 1j * np.tanh(cell.b_h.imag)
        out = cell.run(rand_ct(rng, 2, 4, 3)).to_complex()
        for t in range(4):
            want = np.broadcast_to((1 - 0.5 ** (t + 1)) * cand, out[:, t].shape)
            np.testing.assert_allclose(out[:, t], want, atol=1e-14)

    def test_all_zero_inputs_give_zero(self):
        rng = np.random.default_rng(46)
        cell = ly.ComplexGruCell(2, 4, rng=rng)
        for name, p in cell.parameters():
            if name.startswith("b_"):
                p.real[:] = 0.0
                p.imag[:] = 0.0
        out = cell.run(ComplexTensor(np.zeros((1, 3, 2)), np.zeros((1, 3, 2))))
        np.testing.assert_array_equal(out.real, 0.0)
        np.testing.assert_array_equal(out.imag, 0.0)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(47)
        cell = ly.ComplexGruCell(3, 3, rng=rng)
        for _, p in cell.parameters():
            p.real[:] = rng.standard_normal(p.shape)
            p.imag[:] = rng.standard_normal(p.shape)
        x = rand_ct(rng, 2, 3, 3)
        got = cell.run(x).to_complex()

        def split_sigmoid(z):
            return 1 / (1 + np.exp(-z.real)) + 1j / (1 + np.exp(-z.imag))

        def split_tanh(z):
            return np.tanh(z.real) + 1j * np.tanh(z.imag)

        w = {name: p.to_complex() for name, p in cell.parameters()}
        hc = np.zeros((2, 3), dtype=np.complex128)
        for t, xc in enumerate(np.moveaxis(x.to_complex(), 1, 0)):
            z = split_sigmoid(xc @ w["w_z"] + hc @ w["u_z"] + w["b_z"])
            r = split_sigmoid(xc @ w["w_r"] + hc @ w["u_r"] + w["b_r"])
            rh = r.real * hc.real + 1j * (r.imag * hc.imag)
            cand = split_tanh(xc @ w["w_h"] + rh @ w["u_h"] + w["b_h"])
            hc = (1 - z.real) * hc.real + z.real * cand.real + 1j * (
                (1 - z.imag) * hc.imag + z.imag * cand.imag
            )
            np.testing.assert_allclose(got[:, t], hc, atol=1e-12)

    def test_sequence_run_shape_and_state(self):
        rng = np.random.default_rng(48)
        cell = ly.ComplexGruCell(2, 5, rng=rng)
        seq = rand_ct(rng, 3, 7, 2)
        out = cell.run(seq)
        assert out.shape == (3, 7, 5)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(49)
        cell = ly.ComplexGruCell(3, 4, rng=rng)
        with pytest.raises(ShapeError):
            cell.run(rand_ct(rng, 1, 2, 5))
        with pytest.raises(ShapeError):
            cell.run(rand_ct(rng, 2, 3))

    def test_gradients(self):
        rng = np.random.default_rng(50)
        cell = ly.ComplexGruCell(2, 3, rng=rng)
        x = rand_ct(rng, 2, 3, 2)
        params = [x] + [p for _, p in cell.parameters()]

        def build():
            return ct.sum_abs2(cell.run(x))

        assert check_gradients(build, params) < 1e-4

    # desk bottleneck shape, a ragged one with D != H, and a batch of one,
    # where numpy forms h @ U as a vector-matrix product rather than a GEMM
    ORACLE_SHAPES = [(4, 64, 64, 16), (3, 5, 7, 4), (1, 9, 6, 4)]

    def _oracle_case(self, seed, shape, dtype=np.float64):
        batch, steps, d, h = shape
        rng = np.random.default_rng(seed)
        cell = ly.ComplexGruCell(d, h, rng=rng, dtype=dtype)
        for _, p in cell.parameters():
            p.real += 0.1 * rng.standard_normal(p.shape)
            p.imag += 0.1 * rng.standard_normal(p.shape)
        x, w = rand_ct(rng, batch, steps, d), rand_ct(rng, batch, steps, h)
        cast = lambda t: ComplexTensor(t.real.astype(dtype), t.imag.astype(dtype))
        return cell, cast(x), cast(w)

    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_run_matches_taped_recurrence(self, shape):
        cell, x, _ = self._oracle_case(55, shape)
        got, want = cell.run(x), taped_gru_run(cell, x)
        assert got.shape == want.shape == shape[:2] + (shape[3],)
        np.testing.assert_allclose(got.real, want.real, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.imag, want.imag, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("taped", ["all", "u_only"])
    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_gradients_match_taped_recurrence(self, shape, taped):
        # "u_only" leaves x and all but u_* off the tape, so the node's vjp
        # memo serves a subset of its inputs
        cell, x, w = self._oracle_case(56, shape)
        named = [("x", x)] + cell.parameters()
        params = [p for name, p in named if taped == "all" or name.startswith("u_")]

        def loss(run):
            return lambda: sum_all(real_part(ct.cmul(run(x), w)))

        got = ct.gradients(loss(cell.run), params)[1]
        want = ct.gradients(loss(lambda s: taped_gru_run(cell, s)), params)[1]
        assert len(got) == len(params) == (10 if taped == "all" else 3)
        for (gr, gi), (wr, wi) in zip(got, want):
            scale = max(np.abs(wr).max(), np.abs(wi).max())
            assert scale > 0
            np.testing.assert_allclose(gr, wr, rtol=0, atol=1e-12 * scale)
            np.testing.assert_allclose(gi, wi, rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_bit_identical_to_taped_recurrence(self, shape, dtype):
        # the fused op forms every product and sum of the per-step chain in its
        # order, so a training run rounds exactly as it did with the chain
        cell, x, w = self._oracle_case(58, shape, dtype)
        params = [x] + [p for _, p in cell.parameters()]
        outs, grads = [], []
        for run in (cell.run, lambda s: taped_gru_run(cell, s)):
            outs.append(run(x))
            grads.append(
                ct.gradients(lambda: sum_all(real_part(ct.cmul(run(x), w))), params)[1]
            )
        assert outs[0].dtype == outs[1].dtype == dtype
        np.testing.assert_array_equal(outs[0].real, outs[1].real)
        np.testing.assert_array_equal(outs[0].imag, outs[1].imag)
        for (gr, gi), (wr, wi) in zip(*grads):
            np.testing.assert_array_equal(gr, wr)
            np.testing.assert_array_equal(gi, wi)

    def test_run_is_one_tape_node(self):
        cell, x, _ = self._oracle_case(57, (2, 6, 3, 2))
        tape = ct.GradTape()
        tape.watch(x)
        before = len(tape)
        out = cell.run(x)
        assert len(tape) == before + 1 and tape.nodes[out.node_id].op == "gru_run"


class TestUnitaryInit:
    def test_single_element_has_unit_modulus(self):
        rng = np.random.default_rng(51)
        w = ly.unitary_init((1, 1, 1, 1), rng)
        assert abs(np.hypot(w.real, w.imag).item() - 1.0) < 1e-12

    def test_square_matrix_is_unitary(self):
        rng = np.random.default_rng(52)
        w = ly.unitary_init((6, 6), rng).to_complex()
        np.testing.assert_allclose(w @ w.conj().T, np.eye(6), atol=1e-8)

    def test_wide_kernel_rows_orthonormal(self):
        rng = np.random.default_rng(53)
        w = ly.unitary_init((3, 2, 3, 3), rng).to_complex().reshape(3, -1)
        np.testing.assert_allclose(w @ w.conj().T, np.eye(3), atol=1e-8)

    def test_tall_matrix_columns_orthonormal(self):
        rng = np.random.default_rng(54)
        w = ly.unitary_init((8, 3), rng).to_complex()
        np.testing.assert_allclose(w.conj().T @ w, np.eye(3), atol=1e-8)

    def test_deterministic_per_seed(self):
        a = ly.unitary_init((4, 4), np.random.default_rng(99))
        b = ly.unitary_init((4, 4), np.random.default_rng(99))
        assert a.real.tobytes() == b.real.tobytes()
        assert a.imag.tobytes() == b.imag.tobytes()
