"""Complex tensors with reverse-mode automatic differentiation.

A ComplexTensor stores its real and imaginary parts as two real ndarrays of
identical shape.  Differentiation treats the two parts as independent real
variables, so every gradient is again a (real, imag) pair of real arrays.
Operations record onto a GradTape eagerly whenever at least one operand is
attached to a live tape; tensors never attached to a tape (constants, frozen
parameters) cost nothing extra.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError

# Floor used in gradient denominators of magnitude-like ops.  Forward values
# are always computed without it; it only tames d|x|^p/dx for p < 1 near 0.
GRAD_EPS = 1e-8


class ComplexTensor:
    """Dense complex array stored as paired real/imaginary ndarrays."""

    __slots__ = ("real", "imag", "tape", "node_id")

    def __init__(self, real, imag=None):
        if not isinstance(real, np.ndarray):
            real = np.asarray(real)
        if real.dtype.kind != "f":
            real = real.astype(np.float64)
        if imag is None:
            imag = np.zeros_like(real)
        else:
            if not isinstance(imag, np.ndarray):
                imag = np.asarray(imag)
            if imag.dtype.kind != "f":
                imag = imag.astype(real.dtype)
        if real.shape != imag.shape:
            raise ShapeError(
                f"real/imag shapes differ: {real.shape} vs {imag.shape}"
            )
        self.real = real
        self.imag = imag
        self.tape = None
        self.node_id = None

    def to_complex(self):
        return self.real + 1j * self.imag

    @property
    def shape(self):
        return self.real.shape

    @property
    def ndim(self):
        return self.real.ndim

    @property
    def size(self):
        return self.real.size

    @property
    def dtype(self):
        return self.real.dtype

    def __repr__(self):
        tag = "" if self.node_id is None else f", node={self.node_id}"
        return f"ComplexTensor(shape={self.shape}{tag})"


class TapeNode:
    __slots__ = ("op", "inputs", "vjps")

    def __init__(self, op, inputs, vjps):
        self.op = op
        self.inputs = inputs
        self.vjps = vjps


class GradTape:
    """Append-only record of operations for one backward pass.

    Nodes are stored in execution order, which is a topological order by
    construction (eager recording).  ``backward`` walks the record once in
    reverse and returns a map from leaf node id to the (real, imag) gradient
    pair.  :func:`gradients` runs the whole lifecycle: watch, forward,
    backward, detach.
    """

    def __init__(self):
        self.nodes = []
        self._consumed = False

    def __len__(self):
        return len(self.nodes)

    def record(self, op, inputs, vjps):
        if self._consumed:
            raise ContractError("tape already consumed by backward()")
        self.nodes.append(TapeNode(op, tuple(inputs), tuple(vjps)))
        return len(self.nodes) - 1

    def watch(self, tensor):
        """Attach ``tensor`` to this tape as a leaf (trainable) node."""
        tensor.tape = self
        tensor.node_id = self.record("leaf", (), ())
        return tensor

    def backward(self, loss):
        """Accumulate d(loss)/d(leaf) for every watched leaf reachable from ``loss``.

        ``loss`` must be a real scalar recorded on this tape.  Returns a dict
        mapping a leaf's node id to an ``(grad_real, grad_imag)`` pair with
        the same shapes as that leaf's parts; an intermediate node's gradient
        is dropped once its vjps have run.  The tape is consumed: each node
        is released once walked, and the tape is empty afterwards.
        """
        if loss.tape is not self or loss.node_id is None:
            raise ContractError("loss is not a node on this tape")
        if loss.size != 1:
            raise ContractError(f"loss must be scalar, got shape {loss.shape}")
        if np.any(loss.imag != 0.0):
            raise ContractError("loss must be real (imaginary part is nonzero)")
        self._consumed = True

        # third slot marks whether the arrays are owned (safe to += into);
        # vjp outputs may alias upstream buffers, so ownership is taken
        # lazily on the first accumulation instead of copying every pair
        grads = {
            loss.node_id: [np.ones_like(loss.real), np.zeros_like(loss.imag), True]
        }
        # a node's vjps hold its saved forward arrays and tensors that point
        # back at this tape: left in place, that cycle keeps the whole step
        # alive until the cyclic GC happens to run
        nodes, self.nodes = self.nodes, []
        for nid in range(loss.node_id, -1, -1):
            node, nodes[nid] = nodes[nid], None
            if not node.inputs:
                continue  # a leaf: its gradient is handed back
            entry = grads.pop(nid, None)
            if entry is None:
                continue
            for inp_id, vjp in zip(node.inputs, node.vjps):
                gr, gi = vjp(entry[0], entry[1])
                acc = grads.get(inp_id)
                if acc is None:
                    grads[inp_id] = [gr, gi, False]
                elif acc[2]:
                    acc[0] += gr
                    acc[1] += gi
                else:
                    acc[0] = acc[0] + gr
                    acc[1] = acc[1] + gi
                    acc[2] = True
        return {nid: (g[0], g[1]) for nid, g in grads.items()}


def gradients(build_loss, tensors):
    """``(loss, grads)`` of one reverse-mode pass, ``grads`` aligned with ``tensors``.

    The tensors are watched on a fresh tape while ``build_loss()`` returns the
    real scalar loss; a tensor the loss does not reach gets zeros.  Every
    tensor is detached afterwards, also when ``build_loss`` raises (backward
    then does not run).
    """
    tape = GradTape()
    try:
        for t in tensors:
            tape.watch(t)
        loss = build_loss()
        grads = tape.backward(loss)
        zeros = lambda t: (np.zeros_like(t.real), np.zeros_like(t.imag))
        return loss, [grads.get(t.node_id) or zeros(t) for t in tensors]
    finally:
        for t in tensors:
            t.tape = t.node_id = None


# ---------------------------------------------------------------------------
# recording helpers
# ---------------------------------------------------------------------------


def _live_tape(tensors):
    tape = None
    for t in tensors:
        if isinstance(t, ComplexTensor) and t.tape is not None and t.node_id is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise ContractError("operands belong to different tapes")
    return tape


def _emit(op, out_r, out_i, srcs):
    """Build the output tensor, recording a node if any source is taped.

    ``srcs`` is a list of ``(tensor, vjp)`` pairs; vjps for untaped sources
    are dropped (those operands are constants for this tape).
    """
    tape = _live_tape([t for t, _ in srcs])
    out = ComplexTensor(out_r, out_i)
    if tape is not None:
        ids, vjps = [], []
        for t, vjp in srcs:
            if t.tape is tape and t.node_id is not None:
                ids.append(t.node_id)
                vjps.append(vjp)
        out.tape = tape
        out.node_id = tape.record(op, ids, vjps)
    return out


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (reverses numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _reduce_to(grad, shape):
    """Sum ``grad`` down to an operand's ``shape``.

    A rank-2 operand broadcast over the batch axis of a rank-3 result is
    reduced item by item, and the items are summed last to first: the order
    in which a tape walk adds up the gradients of one node per item, so a
    batched op gives that operand the same gradient bit for bit.  Every other
    broadcast is :func:`_unbroadcast`.
    """
    if grad.ndim != 3 or len(shape) != 2:
        return _unbroadcast(grad, shape)
    acc = _unbroadcast(grad[-1], shape)
    for item in grad[-2::-1]:
        acc = acc + _unbroadcast(item, shape)
    return acc


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------


def add(a, b):
    """Elementwise a + b with numpy broadcasting."""
    sa, sb = a.shape, b.shape  # the vjps keep the shapes, not the operands
    return _emit(
        "add",
        a.real + b.real,
        a.imag + b.imag,
        [
            (a, lambda gr, gi: (_reduce_to(gr, sa), _reduce_to(gi, sa))),
            (b, lambda gr, gi: (_reduce_to(gr, sb), _reduce_to(gi, sb))),
        ],
    )


def sub(a, b):
    sa, sb = a.shape, b.shape
    return _emit(
        "sub",
        a.real - b.real,
        a.imag - b.imag,
        [
            (a, lambda gr, gi: (_unbroadcast(gr, sa), _unbroadcast(gi, sa))),
            (b, lambda gr, gi: (_unbroadcast(-gr, sb), _unbroadcast(-gi, sb))),
        ],
    )


def scale(a, c):
    """Multiply by a real python scalar."""
    c = a.real.dtype.type(c)
    return _emit("scale", c * a.real, c * a.imag, [(a, lambda gr, gi: (c * gr, c * gi))])


def cmul(a, b):
    """Elementwise complex product, with broadcasting."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    out_r = ar * br - ai * bi
    out_i = ar * bi + ai * br

    def vjp_a(gr, gi):
        return (
            _unbroadcast(gr * br + gi * bi, a.shape),
            _unbroadcast(-gr * bi + gi * br, a.shape),
        )

    def vjp_b(gr, gi):
        return (
            _unbroadcast(gr * ar + gi * ai, b.shape),
            _unbroadcast(-gr * ai + gi * ar, b.shape),
        )

    return _emit("cmul", out_r, out_i, [(a, vjp_a), (b, vjp_b)])


def crelu(a):
    """Rectify real and imaginary parts independently: max(0, .)."""
    mr = a.real > 0
    mi = a.imag > 0
    out_r = np.where(mr, a.real, 0.0)
    out_i = np.where(mi, a.imag, 0.0)
    return _emit(
        "crelu", out_r, out_i, [(a, lambda gr, gi: (gr * mr, gi * mi))]
    )


def tanh_split(a):
    tr = np.tanh(a.real)
    ti = np.tanh(a.imag)
    return _emit(
        "tanh_split",
        tr,
        ti,
        [(a, lambda gr, gi: (gr * (1.0 - tr * tr), gi * (1.0 - ti * ti)))],
    )


def magnitude(a):
    """Elementwise |a| as a real-valued tensor (imag part is zero)."""
    m = np.hypot(a.real, a.imag)
    safe = np.where(m == 0.0, 1.0, m)

    def vjp(gr, gi):
        return (gr * a.real / safe, gr * a.imag / safe)

    return _emit("magnitude", m, np.zeros_like(m), [(a, vjp)])


def pow_re(a, p):
    """Raise the real part to the power ``p`` (imag must be zero by use).

    Intended for nonnegative real-valued tensors (magnitudes, variances).
    For p < 1 the gradient denominator is floored at GRAD_EPS so exact zeros
    give a zero (sub)gradient instead of inf.
    """
    p = float(p)
    out = np.power(a.real, p)

    factor = p * np.power(a.real, p - 1.0) if p >= 1.0 else _pow_grad(a.real, p)
    vjp = lambda gr, gi: (gr * factor, np.zeros_like(gr))
    return _emit("pow_re", out, np.zeros_like(out), [(a, vjp)])


def _pow_grad(a, p):
    """d(a^p)/da for p < 1: 0 at a == 0, the denominator floored at GRAD_EPS."""
    return np.where(a == 0.0, 0.0, p * np.power(np.maximum(a, GRAD_EPS), p - 1.0))


def compress_mag(a, c):
    """Magnitude-compressed tensor |a|^c * exp(j*arg(a)); zero maps to zero.

    Equivalent to a * |a|^(c-1) with the 0/0 at the origin resolved to 0.
    """
    c = float(c)
    m = np.hypot(a.real, a.imag)
    safe = np.maximum(m, GRAD_EPS)
    f = np.where(m == 0.0, 0.0, np.power(np.where(m == 0.0, 1.0, m), c - 1.0))
    out_r = f * a.real
    out_i = f * a.imag
    # d|a|^(c-1)/d(part) = (c-1) m^(c-3) * part; floored denominators.
    k = np.where(m == 0.0, 0.0, (c - 1.0) * np.power(safe, c - 3.0))

    def vjp(gr, gi):
        kr = k * a.real
        ki = k * a.imag
        return (
            gr * (f + kr * a.real) + gi * ki * a.real,
            gr * kr * a.imag + gi * (f + ki * a.imag),
        )

    return _emit("compress_mag", out_r, out_i, [(a, vjp)])


# ---------------------------------------------------------------------------
# matrix ops
# ---------------------------------------------------------------------------


def _cmm(a, b):
    """Complex product of (real, imag) part pairs.  :func:`matmul`, the fused
    GRU's input projections and the complex attention branch form their products
    and vjps with these three; the GRU recurrence batches the same four real
    products, so all round alike."""
    (ar, ai), (br, bi) = a, b
    return ar @ br - ai @ bi, ar @ bi + ai @ br


def _cmm_vjp_a(g, b):
    (gr, gi), (br, bi) = g, b
    bt_r, bt_i = br.swapaxes(-1, -2), bi.swapaxes(-1, -2)
    return gr @ bt_r + gi @ bt_i, -gr @ bt_i + gi @ bt_r


def _cmm_vjp_b(a, g):
    (ar, ai), (gr, gi) = a, g
    at_r, at_i = ar.swapaxes(-1, -2), ai.swapaxes(-1, -2)
    return at_r @ gr + at_i @ gi, -at_i @ gr + at_r @ gi


def _check_matmul(op, a, b):
    """Matrix ops take [M, K] or [B, M, K] operands; a matrix is broadcast over B."""
    if a.ndim not in (2, 3) or b.ndim not in (2, 3):
        raise ShapeError(f"{op} needs rank-2 or rank-3 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    if a.ndim == b.ndim == 3 and a.shape[0] != b.shape[0]:
        raise ShapeError(f"batch sizes differ: {a.shape} @ {b.shape}")


def _reduced(vjp, operand):
    """``vjp`` with its gradient summed down to ``operand``'s shape."""
    shape = operand.shape
    return lambda gr, gi: tuple(_reduce_to(g, shape) for g in vjp(gr, gi))


def matmul(a, b):
    """Complex matrix product [M, K] @ [K, N], batched over a leading B axis."""
    _check_matmul("matmul", a, b)
    pa, pb = (a.real, a.imag), (b.real, b.imag)
    return _emit(
        "matmul",
        *_cmm(pa, pb),
        [
            (a, _reduced(lambda gr, gi: _cmm_vjp_a((gr, gi), pb), a)),
            (b, _reduced(lambda gr, gi: _cmm_vjp_b(pa, (gr, gi)), b)),
        ],
    )


def _flush(a):
    """Set the entries of ``a`` whose magnitude is below the smallest normal number of
    its dtype to 0, in place: arithmetic on subnormal numbers is slow on most processors."""
    a[np.abs(a) < np.finfo(a.dtype).smallest_normal] = 0
    return a


def _softmax(x):
    """Row-softmax of a real array along its last axis, with per-row max subtraction
    (analytically identical, overflow-safe); subnormal weights are flushed to 0."""
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return _flush(e / e.sum(axis=-1, keepdims=True))


def _softmax_vjp(g, s):
    inner = (g * s).sum(axis=-1, keepdims=True)
    return _flush(s * (g - inner))


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------


def reshape(a, shape):
    shape = tuple(shape)
    old = a.shape
    return _emit(
        "reshape",
        a.real.reshape(shape),
        a.imag.reshape(shape),
        [(a, lambda gr, gi: (gr.reshape(old), gi.reshape(old)))],
    )


def concat(tensors, axis):
    tensors = list(tensors)
    out_r = np.concatenate([t.real for t in tensors], axis=axis)
    out_i = np.concatenate([t.imag for t in tensors], axis=axis)
    srcs = []
    start = 0
    for t in tensors:
        n = t.shape[axis]
        sl = [slice(None)] * out_r.ndim
        sl[axis] = slice(start, start + n)
        sl = tuple(sl)
        srcs.append((t, lambda gr, gi, sl=sl: (gr[sl], gi[sl])))
        start += n
    return _emit("concat", out_r, out_i, srcs)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def sum_abs2(a):
    """Sum of squared moduli: sum(a_r^2 + a_i^2), a real scalar."""
    val = np.asarray((a.real * a.real).sum() + (a.imag * a.imag).sum())

    def vjp(gr, gi):
        return (2.0 * gr * a.real, 2.0 * gr * a.imag)

    return _emit("sum_abs2", val, np.zeros_like(val), [(a, vjp)])
