"""Tape ops that only the tests use, one node each
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


def conj(a):
    """Complex conjugate."""
    return ct._emit("conj", a.real, -a.imag, [(a, lambda gr, gi: (gr, -gi))])


def sum_all(a):
    """Sum of all elements (complex scalar, rank-0)."""
    shape = a.shape

    def vjp(gr, gi):
        return (np.broadcast_to(gr, shape).copy(), np.broadcast_to(gi, shape).copy())

    return ct._emit("sum_all", np.asarray(a.real.sum()), np.asarray(a.imag.sum()), [(a, vjp)])
