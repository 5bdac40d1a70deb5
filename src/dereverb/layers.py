"""Complex-valued neural layers built on the autodiff tape.

Layout conventions:
  * feature maps are channels-last batches [B, T, F, C], where C counts
    COMPLEX channels (the stacked real/imag channel count is 2C);
  * conv kernels store the complex weight as a ComplexTensor of shape
    [C_out, C_in, K_t, K_f]; its ``.real``/``.imag`` arrays are the two real
    kernels of the complex product
        y = (A*x_r - B*x_i) + j(A*x_i + B*x_r)
    with ``*`` a strided, padded 2-D cross-correlation.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ctensor import ComplexTensor, _cmm, _cmm_vjp_a, _cmm_vjp_b, _emit, _pow_grad
from .errors import ContractError, ShapeError


def _pair(v):
    if isinstance(v, (tuple, list)):
        if len(v) != 2:
            raise ShapeError(f"expected a scalar or pair, got {v!r}")
        return int(v[0]), int(v[1])
    return int(v), int(v)


# ---------------------------------------------------------------------------
# initializers
# ---------------------------------------------------------------------------


def unitary_init(shape, rng, dtype=np.float64):
    """Semi-unitary complex initialization: W reshaped to a matrix has
    orthonormal complex rows (or columns, when rows outnumber columns).

    ``shape`` is either (rows, cols) or a conv-kernel shape
    (c_out, c_in, k_t, k_f), which is flattened to (c_out, c_in*k_t*k_f).
    Deterministic for a fixed generator state; with ``rng`` None, zeros.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) == 2:
        m, n = shape
    elif len(shape) == 4:
        m, n = shape[0], shape[1] * shape[2] * shape[3]
    else:
        raise ShapeError(f"unitary_init expects rank 2 or 4, got {shape}")
    if rng is None:
        return ComplexTensor(np.zeros(shape, dtype=dtype))
    w = _semi_unitary(m, n, rng, complex_valued=True).reshape(shape)
    return ComplexTensor(*(np.ascontiguousarray(part, dtype=dtype) for part in (w.real, w.imag)))


def orthogonal_pair_init(shape, rng, dtype=np.float64):
    """Two independent real (semi-)orthogonal matrices, packed as one tensor.

    Used for per-part weights (packed-pair layers) where the real and imag
    arrays act on the real and imaginary branches independently.  With
    ``rng`` None, zeros.
    """
    if rng is None:
        return ComplexTensor(np.zeros(shape, dtype=dtype))
    return ComplexTensor(*(
        np.ascontiguousarray(_semi_unitary(*shape, rng, complex_valued=False), dtype=dtype)
        for _ in range(2)
    ))


def _semi_unitary(m, n, rng, complex_valued):
    """An [m, n] matrix with orthonormal columns (rows, when m < n): the Q of
    a Gaussian draw's QR with R's diagonal turned positive, so the draw alone
    fixes it.  A complex draw takes its real part from ``rng`` first."""
    rows, cols = (m, n) if m >= n else (n, m)
    g = rng.standard_normal((rows, cols))
    if complex_valued:
        g = g + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    q = q * np.where(d == 0, 1.0, d / np.abs(d)).conj()
    return q if m >= n else q.T


# ---------------------------------------------------------------------------
# complex correlation kernels: the one implementation behind conv and its
# transpose.  Maps are [B, T, F, C] part pairs; a pass stacks both parts into
# one real map [x_r | x_i] of 2C channels and multiplies its im2col by the
# real block form of the kernel, so every pass is one im2col and one GEMM.
# ---------------------------------------------------------------------------


def _conv_out_dim(n, k, s, p):
    return (n + 2 * p - k) // s + 1


def _padded(xr, xi, lo, step, size):
    """The zero map [B, *size, 2C] holding [xr | xi] of two [B, T, F, C] parts:
    per spatial axis, input row i sits on map row lo + step*i, and rows outside
    [0, size) are dropped, so a negative ``lo`` crops."""
    c = xr.shape[-1]
    m = np.zeros((xr.shape[0], *size, 2 * c), dtype=xr.dtype)
    src, dst = [slice(None)], [slice(None)]
    for n, l, st, sz in zip(xr.shape[1:3], lo, step, size):
        first = max(0, -(l // st))
        last = max(first, min(n, (sz - 1 - l) // st + 1))
        src.append(slice(first, last))
        dst.append(slice(l + st * first, l + st * last, st))
    m[(*dst, slice(None, c))] = xr[tuple(src)]
    m[(*dst, slice(c, None))] = xi[tuple(src)]
    return m


def _windows(m, k, s):
    """Patch matrix [B*To*Fo, kt*kf*2C] of the map ``m`` at stride s, and
    (B, To, Fo).  Columns run (kt, kf, 2C), channels fastest, so a patch copies
    whole channel runs; they match :func:`_block`'s rows."""
    v = sliding_window_view(m, k, axis=(1, 2))[:, :: s[0], :: s[1]]
    b, to, fo = v.shape[:3]
    return np.ascontiguousarray(v.transpose(0, 1, 2, 4, 5, 3)).reshape(b * to * fo, -1), (b, to, fo)


def _block(a, b):
    """Real block form [kt, kf, 2C, 2O] of the kernel A + jB [O, C, kt, kf]:
    per tap [[A^T, B^T], [-B^T, A^T]], mapping [x_r | x_i] rows to [y_r | y_i]."""
    a, b = a.transpose(2, 3, 1, 0), b.transpose(2, 3, 1, 0)
    return np.concatenate([np.concatenate([a, b], 3), np.concatenate([-b, a], 3)], 2)


def _parts(rows, shape):
    """Split stacked [..., 2C] rows into (real, imag) parts of ``shape``."""
    c = rows.shape[-1] // 2
    return rows[..., :c].reshape(shape), rows[..., c:].reshape(shape)


def _input_adjoint(gr, gi, blk, s, p, n):
    """Input gradient rows [B*n_t*n_f, 2C] of the conv by ``blk``, given its output
    gradient parts: the gradient, dilated by the stride and padded by k-1-p (cropped
    where negative), correlated at stride 1 with the flipped, channel-transposed
    block, with the flip taken on the map and the result instead of the block."""
    k = blk.shape[:2]
    size = [nn + kk - 1 for nn, kk in zip(n, k)]
    # the mirror image of row k-1-p + s*i of the padded map holds mirrored row i
    lo = [sz - kk + pp - ss * (g - 1) for sz, kk, pp, ss, g in zip(size, k, p, s, gr.shape[1:3])]
    cols, dims = _windows(_padded(gr[:, ::-1, ::-1], gi[:, ::-1, ::-1], lo, s, size), k, (1, 1))
    rows = (cols @ blk.transpose(0, 1, 3, 2).reshape(cols.shape[1], -1)).reshape(dims + (-1,))
    return rows[:, ::-1, ::-1].reshape(len(cols), -1)


def _kernel_grad(cols, gr, gi, k):
    """Gradient wrt (A, B) of ``cols`` times the block, given the output
    gradient parts: cols^T @ [g_r | g_i], folded back out of the block."""
    g = cols.T @ np.concatenate([gr, gi], -1).reshape(len(cols), -1)
    g = g.reshape(k[0], k[1], 2, -1, 2, gr.shape[-1])
    ga, gb = g[:, :, 0, :, 0] + g[:, :, 1, :, 1], g[:, :, 0, :, 1] - g[:, :, 1, :, 0]
    return ga.transpose(3, 2, 0, 1), gb.transpose(3, 2, 0, 1)


def _batch_parts(x, channels, what):
    """The parts of a [B, T, F, C] map, checked for the layer ``what``, whose
    complex channel count is ``channels`` (None: a layer that holds none)."""
    if x.ndim != 4:
        raise ShapeError(f"{what} input must be a [B, T, F, C] batch, got {x.shape}")
    if channels is not None and x.shape[-1] != channels:
        raise ShapeError(f"{what} expects {channels} complex channels, got {x.shape}")
    return x.real, x.imag


# ---------------------------------------------------------------------------
# complex convolution ops
# ---------------------------------------------------------------------------


def complex_conv2d(x, w, stride=1, padding=0):
    """Complex 2-D convolution of a [B, T, F, C_in] batch by [C_out, C_in, kt, kf].

    Output spatial dims follow the standard (n + 2p - k)//s + 1 rule.
    """
    s, p = _pair(stride), _pair(padding)
    xr, xi = _batch_parts(x, w.shape[1], "conv")
    c_out, k = w.shape[0], w.shape[2:]
    t_in, f_in = x.shape[1:3]
    if t_in + 2 * p[0] < k[0] or f_in + 2 * p[1] < k[1]:
        raise ShapeError(
            f"spatial dims {t_in}x{f_in} (pad {p[0]},{p[1]}) smaller than kernel "
            f"{k[0]}x{k[1]}"
        )

    blk = _block(w.real, w.imag)
    m = _padded(xr, xi, p, (1, 1), (t_in + 2 * p[0], f_in + 2 * p[1]))
    cols, dims = _windows(m, k, s)
    yr, yi = _parts(cols @ blk.reshape(cols.shape[1], -1), dims + (c_out,))
    # the tape keeps the padded map (about 1.1x the input), not the patch matrix
    # (kt*kf/stride times it): vjp_w copies the same windows out of the map again
    in_shape = x.shape

    def vjp_x(gr, gi):
        rows = _input_adjoint(gr, gi, blk, s, p, (t_in, f_in))
        return _parts(rows, in_shape)

    def vjp_w(gr, gi):
        return _kernel_grad(_windows(m, k, s)[0], gr, gi, k)

    return _emit("complex_conv2d", yr, yi, [(x, vjp_x), (w, vjp_w)])


def complex_conv_transpose2d(x, w, stride, padding, output_spatial):
    """Adjoint (transposed) complex convolution, used for decoder upsampling.

    ``w`` has shape [C_in, C_out, kt, kf]; ``output_spatial`` fixes the
    (T_out, F_out) of the result, resolving the usual stride ambiguity.
    The op is exactly the input adjoint of :func:`complex_conv2d` by the
    conjugate kernel, so its vjps are that conv's forward and kernel gradient.
    """
    s, p = _pair(stride), _pair(padding)
    t_out, f_out = int(output_spatial[0]), int(output_spatial[1])
    xr, xi = _batch_parts(x, w.shape[0], "conv-transpose")
    c_out, k = w.shape[1], w.shape[2:]
    t_in, f_in = x.shape[1:3]
    fits = [_conv_out_dim(n, kk, ss, pp) for n, kk, ss, pp in zip((t_out, f_out), k, s, p)]
    if fits != [t_in, f_in]:
        raise ShapeError(
            f"output spatial {t_out}x{f_out} inconsistent with input "
            f"{t_in}x{f_in} under k=({k[0]},{k[1]}) s=({s[0]},{s[1]}) p=({p[0]},{p[1]})"
        )

    blk = _block(w.real, -w.imag)
    rows = _input_adjoint(xr, xi, blk, s, p, (t_out, f_out))
    yr, yi = _parts(rows, (x.shape[0], t_out, f_out, c_out))
    in_shape, padded = x.shape, (t_out + 2 * p[0], f_out + 2 * p[1])

    def grads(gr, gi):
        """Gradients of x and w from one im2col of the output gradient."""
        cols = _windows(_padded(gr, gi, p, (1, 1), padded), k, s)[0]
        ga, gb_conj = _kernel_grad(cols, xr, xi, k)
        return [_parts(cols @ blk.reshape(cols.shape[1], -1), in_shape), (ga, -gb_conj)]

    srcs = list(zip((x, w), _shared_vjps(grads, 2)))
    return _emit("complex_conv_transpose2d", yr, yi, srcs)


# ---------------------------------------------------------------------------
# fused tape nodes
# ---------------------------------------------------------------------------


def _shared_vjps(grads, count):
    """Vjps for the ``count`` inputs of a fused node whose ``grads(gr, gi)``
    returns all their gradients at once.  GradTape.backward calls every
    input's vjp with the same output gradient: the first call runs ``grads``
    once, and each takes its own entry."""
    memo = []

    def vjp(k):
        def take(gr, gi):
            if not memo:
                memo.append(grads(gr, gi))
            grad, memo[0][k] = memo[0][k], None
            return grad

        return take

    return [vjp(k) for k in range(count)]


# ---------------------------------------------------------------------------
# complex batch normalization
# ---------------------------------------------------------------------------


# running-stat rows of ComplexBatchNorm and their initial values: unit
# complex power split evenly across the parts
_RUNNING_STATS = (
    ("run_mean_r", 0.0), ("run_mean_i", 0.0), ("run_vrr", 0.5), ("run_vri", 0.0), ("run_vii", 0.5)
)


class ComplexBatchNorm:
    """Whitening batchnorm over the joint real/imag distribution per channel.

    Training mode centers the batch and multiplies by the inverse square
    root of the per-channel 2x2 covariance of (real, imag), then applies a
    learned 2x2 scale and a complex shift.  Inference uses running stats.

    Parameter packing: ``gamma_d`` holds (g_rr, g_ii), ``gamma_o`` holds
    (g_ri, g_ir); ``beta`` is the complex shift.
    """

    momentum = 0.1  # weight of the batch statistics in each running-stat update
    eps = 1e-5  # added to the covariance's diagonal before its inverse square root

    def __init__(self, channels_cc, dtype=np.float64):
        c = self.channels_cc = int(channels_cc)
        half = dtype(np.sqrt(0.5))
        self.gamma_d = ComplexTensor(np.full(c, half, dtype=dtype), np.full(c, half, dtype=dtype))
        self.gamma_o = ComplexTensor(np.zeros(c, dtype=dtype))
        self.beta = ComplexTensor(np.zeros(c, dtype=dtype))
        self._running = np.tile(
            np.array([init for _, init in _RUNNING_STATS], dtype=dtype)[:, None], (1, c)
        )

    def parameters(self):
        return [("gamma_d", self.gamma_d), ("gamma_o", self.gamma_o), ("beta", self.beta)]

    def buffers(self):
        """Running stats as (name, [C] view into ``_running``); writes restore them."""
        return [(name, row) for (name, _), row in zip(_RUNNING_STATS, self._running)]

    def __call__(self, x, training):
        """Whiten ``x`` per channel and apply the learned scale and shift, as
        one tape node with a hand-written vjp.

        Forward and vjp evaluate every product and sum of the whitening
        written as generic tape ops (statistics, the analytic inverse square
        root of [[a, b], [b, c]] + eps*I, the 2x2 products) in that chain's
        order, so outputs and gradients equal it bit for bit.  Only the exact
        zeros that chain's part splits added are left out, which can flip the
        sign of an input gradient entry that is zero.
        """
        parts = _batch_parts(x, self.channels_cc, "batchnorm")
        shape, axes = x.shape, (0, 1, 2)
        n = math.prod(shape[:-1])
        # the statistics accumulate in float64 and round once to the map's dtype:
        # a float32 sum over n rows loses the small variances that whitening divides by
        mean = lambda v: v.mean(axis=axes, dtype=np.float64).astype(v.dtype)
        total = lambda v: v.reshape(shape).sum(axis=axes, dtype=np.float64).astype(v.dtype)
        # elementwise passes view the maps as [-1, F*C] rows and tile each
        # per-channel operand along a row, so numpy's inner loops run a row
        # long, not C: the same products in the same order
        rows = lambda v: v.reshape(-1, shape[2] * shape[3])
        tile = lambda v: np.tile(v, shape[2])

        if training:
            if n < 2:
                raise ContractError(
                    f"batchnorm needs >= 2 samples per channel in training mode, got {n}"
                )
            mu = mean(parts[0]), mean(parts[1])
            xr, xi = parts[0] - mu[0], parts[1] - mu[1]
            vrr, vii, vri = (mean(u * v) for u, v in ((xr, xr), (xi, xi), (xr, xi)))
            self._running *= 1 - self.momentum
            self._running += self.momentum * np.stack([mu[0], mu[1], vrr, vri, vii])
        else:
            mean_r, mean_i, vrr, vri, vii = self._running
            xr, xi = parts[0] - mean_r, parts[1] - mean_i
        xr, xi = rows(xr), rows(xi)

        # analytic inverse square root of [[a, b], [b, c]] + eps*I
        eps = vrr.dtype.type(self.eps)
        a, c, b = vrr + eps, vii + eps, vri
        delta = a * c - b * b
        s = np.power(delta, 0.5)
        q = (a + c) + 2 * s
        t = np.power(q, 0.5)
        st = s * t
        inv = np.power(st, -1.0)
        c_s, a_s, neg_b = c + s, a + s, -b
        w_rr, w_ii, w_ri = (tile(v * inv) for v in (c_s, a_s, neg_b))
        # the whitened map, formed again by the vjp: the node holds xr, xi, not it
        white = lambda: (w_rr * xr + w_ri * xi, w_ii * xi + w_ri * xr)
        white_r, white_i = white()

        gd, go, beta = self.gamma_d, self.gamma_o, self.beta
        out_r = (tile(gd.real) * white_r + tile(go.real) * white_i) + tile(beta.real)
        out_i = (tile(gd.imag) * white_i + tile(go.imag) * white_r) + tile(beta.imag)

        def grads(gr, gi):
            """Gradients of x, gamma_d, gamma_o and beta: each input's terms
            added in the order the chain's tape walk adds them.  ``d_<v>`` is
            the gradient of forward value ``v``; dwr, dwi that of white."""
            # gr and gi can be strided views of a conv's gradient rows: they
            # keep the map's shape, as a copy would add a map per call
            wr, wi = (p.reshape(shape) for p in white())
            g_gd = total(gr * wr), total(gi * wi)
            g_go = total(gr * wi), total(gi * wr)
            del wr, wi
            g_beta = total(gr), total(gi)
            dwr, dwi = rows(gi * go.imag + gr * gd.real), rows(gr * go.real + gi * gd.imag)
            dxr, dxi = dwi * w_ri + dwr * w_rr, dwr * w_ri + dwi * w_ii
            if training:
                d_rr, d_ii = total(dwr * xr), total(dwi * xi)
                d_ri = total(dwr * xi) + total(dwi * xr)
                d_inv = (d_ri * neg_b + d_ii * a_s) + d_rr * c_s
                d_st = d_inv * _pow_grad(st, -1.0)
                d_q = d_st * s * _pow_grad(q, 0.5)
                d_a_s, d_c_s = d_ii * inv, d_rr * inv
                d_delta = (((d_a_s + d_c_s) + d_st * t) + 2 * d_q) * _pow_grad(delta, 0.5)
                # the mean's gradient rows for a, c and b, spread over the samples
                d_a = ((d_a_s + d_q) + d_delta * c) * (1.0 / n)
                d_c = ((d_c_s + d_q) + d_delta * a) * (1.0 / n)
                d_b = tile(((-(d_ri * inv) + -d_delta * b) + -d_delta * b) * (1.0 / n))
                for dx, own, cross, d_own in ((dxr, xr, xi, d_a), (dxi, xi, xr, d_c)):
                    dx += d_b * cross
                    term = tile(d_own) * own  # the variance's square adds it twice
                    dx += term
                    dx += term
                    dx += tile(-total(dx) * (1.0 / n))  # through the mean
            return [(dxr.reshape(shape), dxi.reshape(shape)), g_gd, g_go, g_beta]

        srcs = list(zip((x, gd, go, beta), _shared_vjps(grads, 4)))
        return _emit("batchnorm", out_r.reshape(shape), out_i.reshape(shape), srcs)


# ---------------------------------------------------------------------------
# split-complex GRU
# ---------------------------------------------------------------------------


def _acc(total, term):
    """``total + term`` per part, starting from None: the tape's running sum."""
    return term if total is None else [t + u for t, u in zip(total, term)]


class ComplexGruCell:
    """GRU cell with complex matrix products and per-part gate nonlinearities.

    Gates: z = sigma(x W_z + h U_z + b_z), r likewise; candidate
    h~ = tanh(x W_h + (r .* h) U_h + b_h); update h' = (1-z) .* h + z .* h~,
    where sigma/tanh and ``.*`` act on real and imaginary parts independently
    and all matrix products follow the complex product rule.
    """

    def __init__(self, input_cc, hidden_cc, *, rng, dtype=np.float64):
        d, h = int(input_cc), int(hidden_cc)
        self.input_cc = d
        self.hidden_cc = h

        self.w_z, self.w_r, self.w_h = (unitary_init((d, h), rng, dtype=dtype) for _ in range(3))
        self.u_z, self.u_r, self.u_h = (unitary_init((h, h), rng, dtype=dtype) for _ in range(3))
        zeros = lambda: ComplexTensor(np.zeros(h, dtype=dtype))
        self.b_z, self.b_r, self.b_h = zeros(), zeros(), zeros()

    def parameters(self):
        return [
            ("w_z", self.w_z), ("w_r", self.w_r), ("w_h", self.w_h),
            ("u_z", self.u_z), ("u_r", self.u_r), ("u_h", self.u_h),
            ("b_z", self.b_z), ("b_r", self.b_r), ("b_h", self.b_h),
        ]

    def run(self, x_seq):
        """Run over a [B, T, D] sequence from a zero state; returns the hidden
        states [B, T, H] as one tape node with a hand-written BPTT vjp.

        The input projections of all three gates are batched over all steps;
        the recurrent half runs step by step on arrays that stack the real and
        imaginary parts, and the z and r gates, on leading axes: one batched
        product forms the eight real products of h U_z and h U_r, one the four
        of (r .* h) U_h, and each gate and gradient expression runs once on the
        stack.  Each item of a batched product is the 2-D product's BLAS call,
        and every sum keeps the association and order of the recurrence written
        as per-step tape ops, so outputs and gradients equal that chain's bit
        for bit.
        """
        if x_seq.ndim != 3 or x_seq.shape[-1] != self.input_cc:
            raise ShapeError(
                f"GRU input {x_seq.shape} is not [B, T, D] with D={self.input_cc}"
            )
        batch, steps, d = x_seq.shape
        n = self.hidden_cc
        xs = (x_seq.real.reshape(batch * steps, d), x_seq.imag.reshape(batch * steps, d))
        ws = [(p.real, p.imag) for p in (self.w_z, self.w_r, self.w_h)]
        px = np.stack([_cmm(xs, w) for w in ws]).reshape(3, 2, batch, steps, n)
        bs = np.stack([(p.real, p.imag) for p in (self.b_z, self.b_r, self.b_h)])[:, :, None]
        # right operands of a complex product's four real ones, [real, imag] x
        # [from a_r, from a_i]: a_r U_r + a_i (-U_i) is a_r U_r - a_i U_i bit for bit
        us = np.stack([((u.real, -u.imag), (u.imag, u.real))
                       for u in (self.u_z, self.u_r, self.u_h)])
        pairs = lambda p: p[..., 0, :, :] + p[..., 1, :, :]  # sum over [from a_r, from a_i]

        h = np.zeros((2, batch, n), dtype=x_seq.dtype)
        out = np.empty((2, batch, steps, n), dtype=x_seq.dtype)
        saved = []  # per step: h_{t-1}, the z and r gates, r .* h_{t-1}, candidate
        for t in range(steps):
            zr = 1.0 / (1.0 + np.exp(-((px[:2, :, :, t] + pairs(h @ us[:2])) + bs[:2])))
            rh = zr[1] * h
            c = np.tanh((px[2, :, :, t] + pairs(rh @ us[2])) + bs[2])
            saved.append((h, zr, rh, c))
            h = (1.0 - zr[0]) * h + zr[0] * c
            out[:, :, t] = h

        def bptt(gr, gi):
            """Gradients of x and of the parameters, in :meth:`parameters` order."""
            # right operands of g U^H and, per step, left ones of a^H g (a: h_{t-1} for
            # U_z and U_r, r .* h_{t-1} for U_h), [real, imag] x [with g_r, with g_i]
            gs, ut = np.stack((gr, gi)), us.transpose(0, 2, 1, 4, 3)
            a = np.stack([(hp, hp, rh) for hp, _, rh, _ in saved])
            at = np.stack((a, np.stack((-a[:, :, 1], a[:, :, 0]), 2)), 2).swapaxes(-1, -2)
            dpx = np.empty_like(px)
            du = db = None
            dh = gs[:, :, -1]
            for t in range(steps - 1, -1, -1):
                hp, zr, rh, c = saved[t]
                dah = dh * zr[0] * (1.0 - c * c)
                drh = pairs(dah @ ut[2])
                dzr = np.stack((dh * c - dh * hp, drh * hp)) * zr * (1.0 - zr)
                dpre = np.concatenate((dzr, dah[None]))
                dpx[:, :, :, t] = dpre
                du_t, db_t = pairs(at[t] @ dpre[:, None]), dpre.sum(axis=2)
                du, db = (du_t, db_t) if du is None else (du + du_t, db + db_t)
                if t:  # h_{t-1} feeds output t-1 and, in this step, the gating,
                    # r .* h, h U_r and h U_z: the tape walk adds them in that order
                    via_u = pairs(dzr[:, None] @ ut[:2])
                    dh = ((gs[:, :, t - 1] + dh * (1.0 - zr[0])) + drh * zr[1]) + via_u[1]
                    dh = dh + via_u[0]
            dx = None
            for k in (2, 1, 0):  # the tape walk meets the projections last-made first
                dx = _acc(dx, _cmm_vjp_a([g.reshape(batch * steps, n) for g in dpx[k]], ws[k]))
            dw = [_cmm_vjp_b(xs, [g.reshape(batch * steps, n) for g in dpx[k]]) for k in range(3)]
            return [[g.reshape(x_seq.shape) for g in dx]] + dw + list(du) + list(db)

        srcs = list(zip([x_seq] + [p for _, p in self.parameters()], _shared_vjps(bptt, 10)))
        return _emit("gru_run", out[0], out[1], srcs)
