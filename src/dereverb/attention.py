"""Time-frequency self-attention mechanisms, interchangeable behind one block.

Three mechanisms operate on a [B, T, F, C] batch of complex feature maps
along a chosen axis ("time" or "frequency"):

  * Sdab           -- fixed-size fully-connected reweighting per part; the
                      learned weights are not softmax-normalized.
  * ConventionalSA -- softmax attention computed independently on the real
                      and imaginary parts (per-part Q/K/V projections).
  * ComplexTFSA    -- fully complex attention: Corr = Q K^H, one real
                      attention map softmax(|Corr|) applied to both parts.

``TFAttentionBlock`` runs a mechanism along time and frequency in parallel
and merges as x + (branch_time + branch_freq)/2.

Per-part weights are packed into single ComplexTensors whose ``.real`` acts
on the real branch and ``.imag`` on the imaginary branch, so every stored
value is trainable and parameter counts are directly comparable.
"""

from __future__ import annotations

import numpy as np

from . import ctensor as ct
from .ctensor import ComplexTensor, _cmm, _cmm_vjp_a, _cmm_vjp_b, _emit, _reduce_to
from .ctensor import _softmax, _softmax_vjp
from .errors import ConfigError, ContractError
from .layers import _batch_parts, _shared_vjps, orthogonal_pair_init, unitary_init

AXES = ("time", "frequency")


def _check_axis(axis):
    if axis not in AXES:
        raise ConfigError(f"axis must be one of {AXES}, got {axis!r}")


def _rows(p, axis):
    """A [B, T, F, C] part as rows [B, L, D], L the chosen axis; frequency rows are a copy."""
    b, t, f, c = p.shape
    if axis == "time":
        return p.reshape(b, t, f * c)
    return np.ascontiguousarray(p.transpose(0, 2, 1, 3)).reshape(b, f, t * c)


def _from_rows(p, shape, axis):
    """Rows [B, L, D] as a [B, T, F, C] part of ``shape``: the inverse of :func:`_rows`,
    a strided view for frequency rows."""
    b, t, f, c = shape
    if axis == "time":
        return p.reshape(shape)
    return p.reshape(b, f, t, c).transpose(0, 2, 1, 3)


# per-part products (a_r @ b_r, a_i @ b_i) of (real, imag) part pairs and their vjps
def _split_mm(a, b):
    return a[0] @ b[0], a[1] @ b[1]


def _split_vjp_a(g, b):
    return g[0] @ b[0].swapaxes(-1, -2), g[1] @ b[1].swapaxes(-1, -2)


def _split_vjp_b(a, g):
    return a[0].swapaxes(-1, -2) @ g[0], a[1].swapaxes(-1, -2) @ g[1]


# Each branch is one tape node with a hand-written vjp.  Forward and vjp run the
# numpy expressions of the branch written as generic tape ops (reshape, permute,
# matmul or matmul_split, transpose, softmax) on the same operand layouts, and x
# is listed once per use in the order the tape walk met those uses, so outputs
# and gradients equal that chain's bit for bit (the oracle `taped_branch` in
# tests/taped_ops.py).  A map's vjp runs once: it takes the saved arrays and
# drops each after its last use, so backward reuses their memory.  Held to the
# end of the vjp, they made a desk step's attention vjps fault in fresh pages,
# and the fused backward ran slower than the chain's.


class _ProjectedSA:
    """Attention over Q/K/V projections of the channels, one set per axis.

    Subclasses set ``_init``, the weight init; ``_product`` with its vjps
    ``_product_vjp_a`` / ``_product_vjp_b``, the projection of the channels;
    ``_attend(q, k, v, collect)``, which forms the map from the Q and K rows,
    fills ``collect``, and returns the map applied to the V rows and a vjp
    that returns the gradients of q, k and v; and ``op``, the node's name.
    """

    def __init__(self, channels_cc, *, rng, dtype=np.float64):
        self.channels_cc = int(channels_cc)
        shape = (self.channels_cc, self.channels_cc)
        self.proj = {
            (axis, name): self._init(shape, rng, dtype=dtype)
            for axis in AXES
            for name in ("q", "k", "v")
        }

    def parameters(self):
        return [
            (f"{axis[0]}.w{name}", self.proj[(axis, name)])
            for axis in AXES
            for name in ("q", "k", "v")
        ]

    def branch(self, x, axis, collect=None):
        """Attention along ``axis`` of a [B, T, F, C] batch, one tape node.

        ``collect`` receives the attention maps, [B, L, L].  The node saves
        the input parts, the Q, K^T (or K^H) and V rows and what the map's
        vjp reads.
        """
        _check_axis(axis)
        parts = _batch_parts(x, self.channels_cc, type(self).__name__)
        shape = x.shape
        flat = [p.reshape(shape[0], -1, self.channels_cc) for p in parts]
        ws = [self.proj[(axis, name)] for name in ("q", "k", "v")]
        q, k, v = (
            [_rows(p.reshape(shape), axis) for p in self._product(flat, (w.real, w.imag))]
            for w in ws
        )
        a, attend_vjp = self._attend(q, k, v, collect)
        out = [np.ascontiguousarray(_from_rows(p, shape, axis)) for p in a]

        def grads(gr, gi):
            """Gradients of x from V, K and Q, the order in which the tape walk
            meets the projections, then of W_v, W_k and W_q."""
            gx, gw = [], []
            for g, w in zip(attend_vjp(_rows(gr, axis), _rows(gi, axis))[::-1], ws[::-1]):
                g = [_from_rows(p, shape, axis).reshape(flat[0].shape) for p in g]
                gx.append([p.reshape(shape) for p in self._product_vjp_a(g, (w.real, w.imag))])
                gw.append([_reduce_to(p, w.shape) for p in self._product_vjp_b(flat, g)])
            return gx + gw

        return _emit(self.op, *out, list(zip([x] * 3 + ws[::-1], _shared_vjps(grads, 6))))

    __call__ = branch


class ConventionalSA(_ProjectedSA):
    """Softmax attention applied to real and imaginary parts independently."""

    op = "conventional_branch"
    _init = staticmethod(orthogonal_pair_init)
    _product = staticmethod(_split_mm)
    _product_vjp_a = staticmethod(_split_vjp_a)
    _product_vjp_b = staticmethod(_split_vjp_b)

    @staticmethod
    def _attend(q, k, v, collect):
        kt = k[0].swapaxes(-1, -2).copy(), k[1].swapaxes(-1, -2).copy()
        w = [_softmax(p) for p in _split_mm(q, kt)]
        if collect is not None:
            collect["weights_real"] = w[0].copy()
            collect["weights_imag"] = w[1].copy()

        saved = [q, kt, v, w]

        def vjp(gr, gi):
            q, kt, v, w = saved
            saved.clear()
            ga = gr, gi
            gw, gv = _split_vjp_a(ga, v), _split_vjp_b(w, ga)
            gl = [_softmax_vjp(g, p) for g, p in zip(gw, w)]
            del v, w, gw
            gkt = _split_vjp_b(q, gl)
            del q
            return _split_vjp_a(gl, kt), [p.swapaxes(-1, -2) for p in gkt], gv

        return _split_mm(w, v), vjp


class ComplexTFSA(_ProjectedSA):
    """Fully complex attention: one attention map from |Q K^H| for both parts.

    The map is real: its product with V and the two vjps of that product skip
    the real products with its zero imaginary part (two of four each).  That
    drops an exact zero from each sum, which can flip the sign of an entry
    that is zero.
    """

    op = "complex_branch"
    _init = staticmethod(unitary_init)
    _product = staticmethod(_cmm)
    _product_vjp_a = staticmethod(_cmm_vjp_a)
    _product_vjp_b = staticmethod(_cmm_vjp_b)

    @staticmethod
    def _attend(q, k, v, collect):
        kh = k[0].swapaxes(-1, -2).copy(), -k[1].swapaxes(-1, -2)
        corr = _cmm(q, kh)
        m = np.hypot(*corr)
        safe = np.where(m == 0.0, 1.0, m)
        w = _softmax(m)
        if collect is not None:
            collect["corr"] = corr[0] + 1j * corr[1]
            collect["weights"] = w.copy()

        saved = [q, kh, v, w, corr, safe]

        def vjp(gr, gi):
            q, kh, (vr, vi), w, (cr, ci), safe = saved
            saved.clear()
            # the map's gradient: its real part only, as its imaginary part is 0
            gw = gr @ vr.swapaxes(-1, -2) + gi @ vi.swapaxes(-1, -2)
            gv = w.swapaxes(-1, -2) @ gr, w.swapaxes(-1, -2) @ gi
            gm = _softmax_vjp(gw, w)
            del vr, vi, w, gw
            gc = gm * cr / safe, gm * ci / safe
            del gm, cr, ci, safe
            gkh = _cmm_vjp_b(q, gc)
            del q
            return _cmm_vjp_a(gc, kh), (gkh[0].swapaxes(-1, -2), -gkh[1].swapaxes(-1, -2)), gv

        return (w @ v[0], w @ v[1]), vjp


class Sdab:
    """Sample-independent dual attention: learned LxL reweighting per part.

    The fully-connected sizes are fixed at construction; inputs must arrive
    at exactly the configured (T, F).
    """

    def __init__(self, t_dim, f_dim, *, rng, dtype=np.float64):
        self.t_dim = int(t_dim)
        self.f_dim = int(f_dim)
        self.fc = {}
        self.bias = {}
        for axis, dim in (("time", self.t_dim), ("frequency", self.f_dim)):
            self.fc[axis] = orthogonal_pair_init((dim, dim), rng, dtype=dtype)
            self.bias[axis] = ComplexTensor(np.zeros((dim, 1), dtype=dtype))

    def parameters(self):
        out = []
        for axis in AXES:
            out.append((f"{axis[0]}.w", self.fc[axis]))
            out.append((f"{axis[0]}.b", self.bias[axis]))
        return out

    def branch(self, x, axis, collect=None):
        """Reweighting along ``axis`` of a [B, T, F, C] batch, one tape node
        that saves the input parts, not their rows."""
        _check_axis(axis)
        parts = _batch_parts(x, None, "Sdab")
        t, f = x.shape[1:3]
        if (t, f) != (self.t_dim, self.f_dim):
            raise ContractError(
                f"SDAB configured for {self.t_dim}x{self.f_dim} input, got {t}x{f}"
            )
        fc, bias, shape = self.fc[axis], self.bias[axis], x.shape
        w = fc.real, fc.imag
        mm = _split_mm(w, [_rows(p, axis) for p in parts])
        out = [np.ascontiguousarray(_from_rows(p, shape, axis))
               for p in (mm[0] + bias.real, mm[1] + bias.imag)]
        if collect is not None:
            collect["weights_real"] = fc.real.copy()
            collect["weights_imag"] = fc.imag.copy()

        def grads(gr, gi):
            """Gradients of x, the weights and the bias."""
            g = _rows(gr, axis), _rows(gi, axis)
            g_bias = [_reduce_to(p, bias.shape) for p in g]
            rows = [_rows(p, axis) for p in parts]
            g_fc = [_reduce_to(p, fc.shape) for p in _split_vjp_a(g, rows)]
            gx = [_from_rows(p, shape, axis) for p in _split_vjp_b(w, g)]
            return [gx, g_fc, g_bias]

        return _emit("sdab_branch", *out, list(zip((x, fc, bias), _shared_vjps(grads, 3))))

    __call__ = branch


MECHANISMS = {
    "sdab": Sdab,
    "conventional": ConventionalSA,
    "complex": ComplexTFSA,
}


class TFAttentionBlock:
    """Parallel time/frequency branches with a residual-average merge.

    output = x + (branch_time(x) + branch_frequency(x)) / 2
    """

    def __init__(self, variant, channels_cc, t_dim, f_dim, *, rng, dtype=np.float64):
        if variant not in MECHANISMS:
            raise ConfigError(
                f"unknown attention variant {variant!r}; expected one of "
                f"{sorted(MECHANISMS)} or 'none'"
            )
        self.variant = variant
        if variant == "sdab":
            self.mechanism = Sdab(t_dim, f_dim, rng=rng, dtype=dtype)
        else:
            self.mechanism = MECHANISMS[variant](channels_cc, rng=rng, dtype=dtype)

    def parameters(self):
        return self.mechanism.parameters()

    def __call__(self, x):
        """The block on a [B, T, F, C] batch."""
        bt = self.mechanism.branch(x, "time")
        bf = self.mechanism.branch(x, "frequency")
        return ct.add(x, ct.scale(ct.add(bt, bf), 0.5))


def count_parameters(named_params):
    """Total trainable scalar count over (name, tensor) pairs (both parts)."""
    return int(sum(p.real.size + p.imag.size for _, p in named_params))
