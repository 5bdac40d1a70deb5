"""Tape ops that only the tests use, one node each
as they were in ``dereverb.ctensor``, and the attention branch built from them."""

import numpy as np

from dereverb import ctensor as ct
from dereverb.attention import ComplexTFSA, Sdab
from dereverb.errors import ShapeError


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


def matmul_split(a, b):
    """Per-part matrix product (a_r @ b_r, a_i @ b_i), batched like ``ct.matmul``."""
    ct._check_matmul("matmul_split", a, b)
    out_r = a.real @ b.real
    out_i = a.imag @ b.imag

    def vjp_a(gr, gi):
        return (gr @ b.real.swapaxes(-1, -2), gi @ b.imag.swapaxes(-1, -2))

    def vjp_b(gr, gi):
        return (a.real.swapaxes(-1, -2) @ gr, a.imag.swapaxes(-1, -2) @ gi)

    return ct._emit(
        "matmul_split", out_r, out_i, [(a, ct._reduced(vjp_a, a)), (b, ct._reduced(vjp_b, b))]
    )


def _check_matrices(op, a):
    if a.ndim not in (2, 3):
        raise ShapeError(f"{op} needs a matrix or a batch of them, got shape {a.shape}")


def hermitian_transpose(a):
    """Conjugate transpose of the last two axes of a rank-2 or rank-3 tensor."""
    _check_matrices("hermitian_transpose", a)
    return ct._emit(
        "hermitian_transpose",
        a.real.swapaxes(-1, -2).copy(),
        -a.imag.swapaxes(-1, -2),
        [(a, lambda gr, gi: (gr.swapaxes(-1, -2), -gi.swapaxes(-1, -2)))],
    )


def transpose(a):
    """Plain (non-conjugating) transpose of the last two axes, like
    :func:`hermitian_transpose`."""
    _check_matrices("transpose", a)
    return ct._emit(
        "transpose",
        a.real.swapaxes(-1, -2).copy(),
        a.imag.swapaxes(-1, -2).copy(),
        [(a, lambda gr, gi: (gr.swapaxes(-1, -2), gi.swapaxes(-1, -2)))],
    )


def softmax_rows(a):
    """Row-softmax of the real part along the last axis; imag output is zero."""
    s = ct._softmax(a.real)
    vjp = lambda gr, gi: (ct._softmax_vjp(gr, s), np.zeros_like(s))
    return ct._emit("softmax_rows", s, np.zeros_like(s), [(a, vjp)])


def softmax_rows_split(a):
    """Row-softmax applied to real and imaginary parts independently."""
    sr, si = ct._softmax(a.real), ct._softmax(a.imag)
    vjp = lambda gr, gi: (ct._softmax_vjp(gr, sr), ct._softmax_vjp(gi, si))
    return ct._emit("softmax_rows_split", sr, si, [(a, vjp)])


def permute(a, axes):
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return ct._emit(
        "permute",
        np.ascontiguousarray(a.real.transpose(axes)),
        np.ascontiguousarray(a.imag.transpose(axes)),
        [(a, lambda gr, gi: (gr.transpose(inv), gi.transpose(inv)))],
    )


# ---------------------------------------------------------------------------
# an attention branch as generic tape ops, 18-22 nodes: the oracle that each
# fused branch node of dereverb.attention equals bit for bit
# ---------------------------------------------------------------------------


def _to_rows(x, axis):
    """[B, T, F, C] -> (rows [B, L, D], undo) where L is the chosen axis."""
    b, t, f, c = x.shape
    if axis == "time":
        rows = ct.reshape(x, (b, t, f * c))
        undo = lambda m: ct.reshape(m, x.shape)
    else:
        swap = (0, 2, 1, 3)
        perm = permute(x, swap)
        rows = ct.reshape(perm, (b, f, t * c))
        undo = lambda m: permute(ct.reshape(m, perm.shape), swap)
    return rows, undo


def taped_project(mechanism, x, axis, name):
    """The ``name`` ("q", "k" or "v") projection of a ConventionalSA or ComplexTFSA
    along ``axis``, as a [B, T, F, C] batch."""
    product = ct.matmul if isinstance(mechanism, ComplexTFSA) else matmul_split
    flat = ct.reshape(x, (x.shape[0], -1, mechanism.channels_cc))
    return ct.reshape(product(flat, mechanism.proj[(axis, name)]), x.shape)


def taped_branch(mechanism, x, axis, collect=None):
    """``mechanism.branch(x, axis, collect)`` as generic tape ops."""
    if isinstance(mechanism, Sdab):
        rows, undo = _to_rows(x, axis)
        out = ct.add(matmul_split(mechanism.fc[axis], rows), mechanism.bias[axis])
        if collect is not None:
            collect["weights_real"] = mechanism.fc[axis].real.copy()
            collect["weights_imag"] = mechanism.fc[axis].imag.copy()
        return undo(out)
    q, _ = _to_rows(taped_project(mechanism, x, axis, "q"), axis)
    k, _ = _to_rows(taped_project(mechanism, x, axis, "k"), axis)
    v, undo = _to_rows(taped_project(mechanism, x, axis, "v"), axis)
    if isinstance(mechanism, ComplexTFSA):
        corr = ct.matmul(q, hermitian_transpose(k))
        w = softmax_rows(ct.magnitude(corr))
        if collect is not None:
            collect["corr"] = corr.to_complex()
            collect["weights"] = w.real.copy()
        return undo(ct.matmul(w, v))
    w = softmax_rows_split(matmul_split(q, transpose(k)))
    if collect is not None:
        collect["weights_real"] = w.real.copy()
        collect["weights_imag"] = w.imag.copy()
    return undo(matmul_split(w, v))


def taped_block(block, x):
    """``TFAttentionBlock.__call__`` with both branches as generic tape ops."""
    bt = taped_branch(block.mechanism, x, "time")
    bf = taped_branch(block.mechanism, x, "frequency")
    return ct.add(x, ct.scale(ct.add(bt, bf), 0.5))
