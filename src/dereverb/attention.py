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
from .ctensor import ComplexTensor
from .errors import ConfigError, ContractError, ShapeError
from .layers import orthogonal_pair_init, unitary_init

AXES = ("time", "frequency")


def _check_input(x, axis):
    if axis not in AXES:
        raise ConfigError(f"axis must be one of {AXES}, got {axis!r}")
    if x.ndim != 4:
        raise ShapeError(f"attention input must be a [B, T, F, C] batch, got {x.shape}")


def _to_rows(x, axis):
    """[B, T, F, C] -> (rows [B, L, D], undo) where L is the chosen axis."""
    b, t, f, c = x.shape
    if axis == "time":
        rows = ct.reshape(x, (b, t, f * c))
        undo = lambda m: ct.reshape(m, x.shape)
    else:
        swap = (0, 2, 1, 3)
        perm = ct.permute(x, swap)
        rows = ct.reshape(perm, (b, f, t * c))
        undo = lambda m: ct.permute(ct.reshape(m, perm.shape), swap)
    return rows, undo


class _ProjectedSA:
    """Attention over Q/K/V projections of the channels, one set per axis.

    Subclasses set ``_init``, the weight init; ``_product``, the op that
    applies the projections and the attention map; and ``_weights``, which
    forms the map from the Q and K rows and fills ``collect``.
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

    def _project(self, x, axis, name):
        flat = ct.reshape(x, (x.shape[0], -1, self.channels_cc))
        return ct.reshape(self._product(flat, self.proj[(axis, name)]), x.shape)

    def branch(self, x, axis, collect=None):
        """Attention along ``axis`` of a [B, T, F, C] batch.

        ``collect`` receives the attention maps, [B, L, L].
        """
        _check_input(x, axis)
        q, _ = _to_rows(self._project(x, axis, "q"), axis)
        k, _ = _to_rows(self._project(x, axis, "k"), axis)
        v, undo = _to_rows(self._project(x, axis, "v"), axis)
        w = self._weights(q, k, collect)
        return undo(self._product(w, v))

    __call__ = branch


class ConventionalSA(_ProjectedSA):
    """Softmax attention applied to real and imaginary parts independently."""

    _init = staticmethod(orthogonal_pair_init)
    _product = staticmethod(ct.matmul_split)

    @staticmethod
    def _weights(q, k, collect):
        w = ct.softmax_rows_split(ct.matmul_split(q, ct.transpose(k)))
        if collect is not None:
            collect["weights_real"] = w.real.copy()
            collect["weights_imag"] = w.imag.copy()
        return w


class ComplexTFSA(_ProjectedSA):
    """Fully complex attention: one attention map from |Q K^H| for both parts."""

    _init = staticmethod(unitary_init)
    _product = staticmethod(ct.matmul)

    @staticmethod
    def _weights(q, k, collect):
        corr = ct.matmul(q, ct.hermitian_transpose(k))
        w = ct.softmax_rows(ct.magnitude(corr))
        if collect is not None:
            collect["corr"] = corr.to_complex()
            collect["weights"] = w.real.copy()
        return w


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
        """Reweighting along ``axis`` of a [B, T, F, C] batch."""
        _check_input(x, axis)
        t, f = x.shape[-3:-1]
        if (t, f) != (self.t_dim, self.f_dim):
            raise ContractError(
                f"SDAB configured for {self.t_dim}x{self.f_dim} input, got {t}x{f}"
            )
        rows, undo = _to_rows(x, axis)
        out = ct.add(ct.matmul_split(self.fc[axis], rows), self.bias[axis])
        if collect is not None:
            collect["weights_real"] = self.fc[axis].real.copy()
            collect["weights_imag"] = self.fc[axis].imag.copy()
        return undo(out)

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
