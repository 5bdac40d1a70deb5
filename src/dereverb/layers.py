"""Complex-valued neural layers built on the autodiff tape.

Layout conventions:
  * feature maps are channels-last, [T, F, C] or [B, T, F, C], where C counts
    COMPLEX channels (the stacked real/imag channel count is 2C);
  * conv kernels store the complex weight as a ComplexTensor of shape
    [C_out, C_in, K_t, K_f]; its ``.real``/``.imag`` arrays are the two real
    kernels of the complex product
        y = (A*x_r - B*x_i) + j(A*x_i + B*x_r)
    with ``*`` a strided, padded 2-D cross-correlation.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import ctensor as ct
from .ctensor import ComplexTensor, _emit
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
    Deterministic for a fixed generator state.  Returns (real, imag).
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) == 2:
        m, n = shape
    elif len(shape) == 4:
        m, n = shape[0], shape[1] * shape[2] * shape[3]
    else:
        raise ShapeError(f"unitary_init expects rank 2 or 4, got {shape}")

    rows, cols = (m, n) if m >= n else (n, m)
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    q = q * np.where(d == 0, 1.0, d / np.abs(d)).conj()
    w = q if m >= n else q.T
    w = w.reshape(shape)
    return (
        np.ascontiguousarray(w.real, dtype=dtype),
        np.ascontiguousarray(w.imag, dtype=dtype),
    )


def orthogonal_pair_init(shape, rng, dtype=np.float64):
    """Two independent real (semi-)orthogonal matrices, packed as a pair.

    Used for per-part weights (packed-pair layers) where the real and imag
    arrays act on the real and imaginary branches independently.
    """
    parts = []
    for _ in range(2):
        m, n = shape
        rows, cols = (m, n) if m >= n else (n, m)
        g = rng.standard_normal((rows, cols))
        q, r = np.linalg.qr(g)
        q = q * np.sign(np.where(np.diagonal(r) == 0, 1.0, np.diagonal(r)))
        w = q if m >= n else q.T
        parts.append(np.ascontiguousarray(w, dtype=dtype))
    return parts[0], parts[1]


# ---------------------------------------------------------------------------
# complex correlation kernels: the one implementation behind conv and its
# transpose.  A kernel [C_out, C_in, kt, kf] enters as the real matrices
# A + jB of shape [C_out, C_in*kt*kf]; maps are [B, T, F, C] and products
# run on [positions, channels] row matrices.
# ---------------------------------------------------------------------------


def _conv_out_dim(n, k, s, p):
    return (n + 2 * p - k) // s + 1


def _im2col(x, k, s, p):
    """Patch matrix of a zero-padded [B,T,F,C] map: ([B*To*Fo, C*kt*kf], (B,To,Fo)).

    Column layout is (C, kt, kf) fastest-last, matching kernel.reshape(O, -1).
    """
    if p != (0, 0):
        x = np.pad(x, ((0, 0), (p[0], p[0]), (p[1], p[1]), (0, 0)))
    v = sliding_window_view(x, k, axis=(1, 2))[:, :: s[0], :: s[1]]
    b, to, fo = v.shape[:3]
    return np.ascontiguousarray(v).reshape(b * to * fo, -1), (b, to, fo)


def _col2im(gcols, dims, k, s, p, in_shape):
    """Adjoint of :func:`_im2col`: scatter-add columns into a [B,T,F,C] map."""
    b, to, fo = dims
    _, t, f, c = in_shape
    g6 = gcols.reshape(b, to, fo, c, k[0], k[1])
    gx = np.zeros((b, t + 2 * p[0], f + 2 * p[1], c), dtype=gcols.dtype)
    for a in range(k[0]):
        for bb in range(k[1]):
            gx[:, a : a + s[0] * to : s[0], bb : bb + s[1] * fo : s[1], :] += g6[..., a, bb]
    return gx[:, p[0] : p[0] + t, p[1] : p[1] + f, :]


def _patches(xr, xi, k, s, p):
    """:func:`_im2col` of both parts of a map."""
    cols_r, dims = _im2col(xr, k, s, p)
    cols_i, _ = _im2col(xi, k, s, p)
    return cols_r, cols_i, dims


def _conv_product(cols_r, cols_i, a_mat, b_mat):
    """Forward GEMMs: each patch row times (A + jB)^T."""
    return cols_r @ a_mat.T - cols_i @ b_mat.T, cols_i @ a_mat.T + cols_r @ b_mat.T


def _conv_input_adjoint(gr, gi, a_mat, b_mat, dims, k, s, p, in_shape):
    """Adjoint of patches-then-product: rows [M, C_out] -> map ``in_shape``."""
    gc_r = gr @ a_mat + gi @ b_mat
    gc_i = -gr @ b_mat + gi @ a_mat
    return _col2im(gc_r, dims, k, s, p, in_shape), _col2im(gc_i, dims, k, s, p, in_shape)


def _conv_kernel_grad(cols_r, cols_i, gr, gi, w_shape):
    """Gradient of the product wrt (A, B), given the output gradient rows."""
    ga = (cols_r.T @ gr + cols_i.T @ gi).T.reshape(w_shape)
    gb = (-cols_i.T @ gr + cols_r.T @ gi).T.reshape(w_shape)
    return ga, gb


def _as_batch(a):
    return a.reshape((-1,) + a.shape[-3:])


def _batch_parts(x, channels, what):
    """The parts of a checked rank-3/4 map as [B,T,F,C] views (rank 3 gets B=1)."""
    if x.ndim not in (3, 4):
        raise ShapeError(f"{what} input must be rank 3 or 4, got {x.shape}")
    if x.shape[-1] != channels:
        raise ShapeError(
            f"channel mismatch: input has {x.shape[-1]} complex channels, "
            f"kernel expects {channels}"
        )
    return _as_batch(x.real), _as_batch(x.imag)


# ---------------------------------------------------------------------------
# complex convolution ops
# ---------------------------------------------------------------------------


def complex_conv2d(x, w, stride=1, padding=0):
    """Complex 2-D convolution of a [.., T, F, C_in] map by [C_out, C_in, kt, kf].

    Accepts rank-3 (single map) or rank-4 (batched) input; output spatial
    dims follow the standard (n + 2p - k)//s + 1 rule.
    """
    s, p = _pair(stride), _pair(padding)
    xr, xi = _batch_parts(x, w.shape[1], "conv")
    c_out, k = w.shape[0], w.shape[2:]
    t_in, f_in = x.shape[-3], x.shape[-2]
    if t_in + 2 * p[0] < k[0] or f_in + 2 * p[1] < k[1]:
        raise ShapeError(
            f"spatial dims {t_in}x{f_in} (pad {p[0]},{p[1]}) smaller than kernel "
            f"{k[0]}x{k[1]}"
        )

    a_mat, b_mat = w.real.reshape(c_out, -1), w.imag.reshape(c_out, -1)
    cols_r, cols_i, dims = _patches(xr, xi, k, s, p)
    yr, yi = _conv_product(cols_r, cols_i, a_mat, b_mat)
    out_shape = x.shape[:-3] + dims[1:] + (c_out,)
    # the vjps hold shapes only: keeping x alive until backward costs memory
    in_shape, batch_shape = x.shape, xr.shape

    def vjp_x(gr, gi):
        gxr, gxi = _conv_input_adjoint(
            gr.reshape(-1, c_out), gi.reshape(-1, c_out), a_mat, b_mat, dims, k, s, p,
            batch_shape,
        )
        return gxr.reshape(in_shape), gxi.reshape(in_shape)

    def vjp_w(gr, gi):
        return _conv_kernel_grad(
            cols_r, cols_i, gr.reshape(-1, c_out), gi.reshape(-1, c_out), w.shape
        )

    return _emit(
        "complex_conv2d", yr.reshape(out_shape), yi.reshape(out_shape),
        [(x, vjp_x), (w, vjp_w)],
    )


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
    (c_in, c_out), k = w.shape[:2], w.shape[2:]
    t_in, f_in = x.shape[-3], x.shape[-2]
    fits = [_conv_out_dim(n, kk, ss, pp) for n, kk, ss, pp in zip((t_out, f_out), k, s, p)]
    if fits != [t_in, f_in]:
        raise ShapeError(
            f"output spatial {t_out}x{f_out} inconsistent with input "
            f"{t_in}x{f_in} under k=({k[0]},{k[1]}) s=({s[0]},{s[1]}) p=({p[0]},{p[1]})"
        )

    a_mat, b_conj = w.real.reshape(c_in, -1), -w.imag.reshape(c_in, -1)
    xr_rows, xi_rows = xr.reshape(-1, c_in), xi.reshape(-1, c_in)
    out_batch = (xr.shape[0], t_out, f_out, c_out)
    yr, yi = _conv_input_adjoint(xr_rows, xi_rows, a_mat, b_conj, xr.shape[:3], k, s, p, out_batch)
    in_shape, out_shape = x.shape, x.shape[:-3] + out_batch[1:]

    def vjp_x(gr, gi):
        cols_r, cols_i, _ = _patches(_as_batch(gr), _as_batch(gi), k, s, p)
        gxr, gxi = _conv_product(cols_r, cols_i, a_mat, b_conj)
        return gxr.reshape(in_shape), gxi.reshape(in_shape)

    def vjp_w(gr, gi):
        cols_r, cols_i, _ = _patches(_as_batch(gr), _as_batch(gi), k, s, p)
        ga, gb_conj = _conv_kernel_grad(cols_r, cols_i, xr_rows, xi_rows, w.shape)
        return ga, -gb_conj

    return _emit(
        "complex_conv_transpose2d", yr.reshape(out_shape), yi.reshape(out_shape),
        [(x, vjp_x), (w, vjp_w)],
    )


class ComplexConv2d:
    """Complex conv layer owning a unitary-initialized kernel (no bias)."""

    def __init__(self, in_cc, out_cc, kernel, stride=1, padding=0, *, rng, dtype=np.float64):
        kt, kf = _pair(kernel)
        wr, wi = unitary_init((out_cc, in_cc, kt, kf), rng, dtype=dtype)
        self.weight = ComplexTensor(wr, wi)
        self.stride = _pair(stride)
        self.padding = _pair(padding)

    def __call__(self, x):
        return complex_conv2d(x, self.weight, self.stride, self.padding)

    def parameters(self):
        return [("w", self.weight)]


class ComplexConvTranspose2d:
    """Transposed complex conv layer; output spatial dims fixed at build time."""

    def __init__(
        self, in_cc, out_cc, kernel, stride, padding, output_spatial, *, rng, dtype=np.float64
    ):
        kt, kf = _pair(kernel)
        wr, wi = unitary_init((in_cc, out_cc, kt, kf), rng, dtype=dtype)
        self.weight = ComplexTensor(wr, wi)
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        self.output_spatial = (int(output_spatial[0]), int(output_spatial[1]))

    def __call__(self, x):
        return complex_conv_transpose2d(
            x, self.weight, self.stride, self.padding, self.output_spatial
        )

    def parameters(self):
        return [("w", self.weight)]


# ---------------------------------------------------------------------------
# complex batch normalization
# ---------------------------------------------------------------------------


def _swap_parts(x):
    return ct.make_complex(ct.imag_part(x), ct.real_part(x))


def _one_minus_split(z):
    # per-part 1 - z for gating
    return ct.shift(ct.neg(z), 1 + 1j)


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

    def __init__(self, channels_cc, eps=1e-5, momentum=0.1, dtype=np.float64):
        c = int(channels_cc)
        self.eps = float(eps)
        self.momentum = float(momentum)
        half = dtype(np.sqrt(0.5))
        self.gamma_d = ComplexTensor(np.full(c, half, dtype=dtype), np.full(c, half, dtype=dtype))
        self.gamma_o = ComplexTensor(np.zeros(c, dtype=dtype), np.zeros(c, dtype=dtype))
        self.beta = ComplexTensor(np.zeros(c, dtype=dtype), np.zeros(c, dtype=dtype))
        self._running = np.tile(
            np.array([init for _, init in _RUNNING_STATS], dtype=dtype)[:, None], (1, c)
        )

    def parameters(self):
        return [("gamma_d", self.gamma_d), ("gamma_o", self.gamma_o), ("beta", self.beta)]

    def buffers(self):
        """Running stats as (name, [C] view into ``_running``); writes restore them."""
        return [(name, row) for (name, _), row in zip(_RUNNING_STATS, self._running)]

    def __call__(self, x, training):
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
            mu = ct.mean_axes(x, axes)
            xc = ct.sub(x, mu)
            vd = ct.mean_axes(ct.mul_split(xc, xc), axes)  # (E r^2, E i^2)
            vcross = ct.mean_axes(ct.mul_split(xc, _swap_parts(xc)), axes)
            vrr = ct.real_part(vd)
            vii = ct.imag_part(vd)
            vri = ct.real_part(vcross)
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
        a = ct.shift(vrr, self.eps)
        c = ct.shift(vii, self.eps)
        b = vri
        delta = ct.sub(ct.mul_split(a, c), ct.mul_split(b, b))
        s = ct.pow_re(delta, 0.5)
        t = ct.pow_re(ct.add(ct.add(a, c), ct.scale(s, 2.0)), 0.5)
        inv = ct.pow_re(ct.mul_split(s, t), -1.0)
        w_rr = ct.mul_split(ct.add(c, s), inv)
        w_ii = ct.mul_split(ct.add(a, s), inv)
        w_ri = ct.mul_split(ct.neg(b), inv)

        wd = ct.make_complex(w_rr, w_ii)
        wo = ct.make_complex(w_ri, w_ri)
        white = ct.add(ct.mul_split(wd, xc), ct.mul_split(wo, _swap_parts(xc)))

        scaled = ct.add(
            ct.mul_split(self.gamma_d, white),
            ct.mul_split(self.gamma_o, _swap_parts(white)),
        )
        return ct.add(scaled, self.beta)


# ---------------------------------------------------------------------------
# split-complex GRU
# ---------------------------------------------------------------------------


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

        def mat(rows, cols):
            wr, wi = unitary_init((rows, cols), rng, dtype=dtype)
            return ComplexTensor(wr, wi)

        self.w_z, self.w_r, self.w_h = mat(d, h), mat(d, h), mat(d, h)
        self.u_z, self.u_r, self.u_h = mat(h, h), mat(h, h), mat(h, h)
        zeros = lambda: ComplexTensor(np.zeros(h, dtype=dtype), np.zeros(h, dtype=dtype))
        self.b_z, self.b_r, self.b_h = zeros(), zeros(), zeros()

    def parameters(self):
        return [
            ("w_z", self.w_z), ("w_r", self.w_r), ("w_h", self.w_h),
            ("u_z", self.u_z), ("u_r", self.u_r), ("u_h", self.u_h),
            ("b_z", self.b_z), ("b_r", self.b_r), ("b_h", self.b_h),
        ]

    def run(self, x_seq):
        """Run over a [B, T, D] sequence; returns hidden states [B, T, H].

        The input-side gate projections are batched over all timesteps up
        front; only the recurrent half runs step by step.
        """
        if x_seq.ndim != 3 or x_seq.shape[-1] != self.input_cc:
            raise ShapeError(
                f"GRU input {x_seq.shape} is not [B, T, D] with D={self.input_cc}"
            )
        batch, steps, d = x_seq.shape
        h_cc = self.hidden_cc
        flat = ct.reshape(x_seq, (batch * steps, d))
        px = {
            gate: ct.reshape(ct.matmul(flat, w), (batch, steps, h_cc))
            for gate, w in (("z", self.w_z), ("r", self.w_r), ("h", self.w_h))
        }
        h = ComplexTensor(
            np.zeros((batch, h_cc), dtype=x_seq.dtype),
            np.zeros((batch, h_cc), dtype=x_seq.dtype),
        )
        outs = []
        for t in range(steps):
            z = ct.sigmoid_split(
                ct.add(ct.add(ct.index_axis(px["z"], 1, t), ct.matmul(h, self.u_z)), self.b_z)
            )
            r = ct.sigmoid_split(
                ct.add(ct.add(ct.index_axis(px["r"], 1, t), ct.matmul(h, self.u_r)), self.b_r)
            )
            cand = ct.tanh_split(
                ct.add(
                    ct.add(
                        ct.index_axis(px["h"], 1, t),
                        ct.matmul(ct.mul_split(r, h), self.u_h),
                    ),
                    self.b_h,
                )
            )
            h = ct.add(ct.mul_split(_one_minus_split(z), h), ct.mul_split(z, cand))
            outs.append(h)
        return ct.stack(outs, axis=1)
