"""Tape ops that only the reference chains in the tests use, one node each
as they were in ``dereverb.ctensor``."""

import numpy as np

from dereverb import ctensor as ct


def index_axis(a, axis, i):
    """Select index ``i`` along ``axis`` (the axis is dropped)."""
    sl, shape = (slice(None),) * axis + (i,), a.shape

    def vjp(gr, gi):
        zr, zi = np.zeros(shape, dtype=gr.dtype), np.zeros(shape, dtype=gi.dtype)
        zr[sl], zi[sl] = gr, gi
        return zr, zi

    parts = (np.ascontiguousarray(p[sl]) for p in (a.real, a.imag))
    return ct._emit("index_axis", *parts, [(a, vjp)])


def stack(tensors, axis):
    """Join ``tensors`` along a new ``axis``."""
    parts = (np.stack([getattr(t, p) for t in tensors], axis=axis) for p in ("real", "imag"))
    pick = lambda sl: (lambda gr, gi: (gr[sl], gi[sl]))
    srcs = [(t, pick((slice(None),) * axis + (k,))) for k, t in enumerate(tensors)]
    return ct._emit("stack", *parts, srcs)
