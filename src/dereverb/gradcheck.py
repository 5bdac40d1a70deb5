"""Finite-difference verification of analytic gradients.

:func:`check_gradients` re-runs a loss closure with each tensor element
perturbed by +/-:data:`EPS` (central differences) and compares against one
reverse-mode pass.  :func:`run_suite` runs the CLI ``gradcheck`` subcommand
over :data:`SCENARIOS`.  Each scenario factory draws a small random instance
and returns ``(loss_fn, tensors)``; instances are kept tiny so the whole
suite runs in seconds.  Inputs are drawn with magnitudes bounded away from
zero where a kink (CReLU) or a non-smooth magnitude sits on the forward path.
"""

from __future__ import annotations

import time

import numpy as np

from . import ctensor as ct
from .attention import TFAttentionBlock
from .ctensor import ComplexTensor
from .errors import ContractError
from .layers import ComplexBatchNorm, ComplexGruCell, complex_conv2d, complex_conv_transpose2d
from .model import complex_loss

EPS = 1e-5  # central-difference step
N_INSTANCES = 5  # seeded random instances per scenario
TOL = 1e-4  # largest max relative error a scenario passes with


def _finite_difference_gradients(loss_fn, tensors):
    """Central-difference gradients of the float ``loss_fn()`` w.r.t. each
    tensor, as ``(grad_real, grad_imag)`` pairs matching ``tensors``."""
    out = []
    for t in tensors:
        gr = np.zeros_like(t.real)
        gi = np.zeros_like(t.imag)
        for part, g in ((t.real, gr), (t.imag, gi)):
            for idx in np.ndindex(part.shape):
                saved = part[idx]
                part[idx] = saved + EPS
                lp = loss_fn()
                part[idx] = saved - EPS
                lm = loss_fn()
                part[idx] = saved
                g[idx] = (lp - lm) / (2.0 * EPS)
        out.append((gr, gi))
    return out


def _max_relative_error(analytic, numeric):
    """max_inf-norm error ratio over a list of gradient pairs.

    For each pair: ||a - n||_inf / max(||n||_inf, 1e-8), then the max over
    pairs.  Falls back to absolute error for vanishing true gradients.
    """
    worst = 0.0
    for (ar, ai), (nr, ni) in zip(analytic, numeric):
        a = np.concatenate([ar.ravel(), ai.ravel()])
        n = np.concatenate([nr.ravel(), ni.ravel()])
        denom = max(np.abs(n).max(initial=0.0), 1e-8)
        err = np.abs(a - n).max(initial=0.0) / denom
        worst = max(worst, err)
    return worst


def check_gradients(loss_fn, tensors):
    """Max relative error between the reverse-mode and the finite-difference
    gradients of ``loss_fn()`` w.r.t. ``tensors``.

    ``loss_fn`` must recompute the real scalar loss (a ComplexTensor) from
    the tensors' current values.
    """
    _, analytic = ct.gradients(loss_fn, tensors)
    numeric = _finite_difference_gradients(lambda: float(loss_fn().real), tensors)
    return _max_relative_error(analytic, numeric)


def _tame(rng, *shape):
    """Random values with |v| in [0.2, 1.2]: clear of the CReLU kink."""
    mag = rng.uniform(0.2, 1.2, shape)
    sign = rng.choice([-1.0, 1.0], shape)
    return mag * sign


def _tensor(rng, *shape):
    return ComplexTensor(_tame(rng, *shape), _tame(rng, *shape))


def conv2d_scenario(rng):
    x = _tensor(rng, 1, 4, 4, 2)
    w = _tensor(rng, 2, 2, 3, 3)

    def loss():
        return ct.sum_abs2(ct.crelu(complex_conv2d(x, w, stride=(1, 2), padding=1)))

    return loss, [x, w]


def conv_transpose2d_scenario(rng):
    x = _tensor(rng, 1, 3, 3, 2)
    w = _tensor(rng, 2, 2, 3, 3)

    def loss():
        return ct.sum_abs2(complex_conv_transpose2d(x, w, (2, 2), (1, 1), (6, 6)))

    return loss, [x, w]


def batchnorm_scenario(rng):
    bn = ComplexBatchNorm(3)
    x = _tensor(rng, 2, 3, 2, 3)

    def loss():
        return ct.sum_abs2(ct.crelu(bn(x, training=True)))

    return loss, [x, bn.gamma_d, bn.gamma_o, bn.beta]


def _moved_batchnorm_scenario(training, batch):
    """Batchnorm on a [B, T, F, C] batch with the scale, shift and running
    stats moved off their initial values."""

    def factory(rng):
        bn = ComplexBatchNorm(3)
        for p in (bn.gamma_d, bn.gamma_o, bn.beta):
            p.real[:], p.imag[:] = _tame(rng, 3), _tame(rng, 3)
        for _ in range(2):
            bn(_tensor(rng, batch, 3, 2, 3), training=True)
        x = _tensor(rng, batch, 3, 2, 3)

        def loss():
            return ct.sum_abs2(ct.crelu(bn(x, training=training)))

        return loss, [x, bn.gamma_d, bn.gamma_o, bn.beta]

    return factory


def gru_scenario(rng):
    cell = ComplexGruCell(2, 3, rng=rng)
    x = _tensor(rng, 2, 3, 2)

    def loss():
        return ct.sum_abs2(cell.run(x))

    return loss, [x] + [p for _, p in cell.parameters()]


def _attention_scenario(variant, batch):
    """A block on a [B, T, F, C] batch, as the model runs it."""

    def factory(rng):
        block = TFAttentionBlock(variant, 2, 3, 3, rng=rng)
        x = _tensor(rng, batch, 3, 3, 2)

        def loss():
            return ct.sum_abs2(block(x))

        return loss, [x] + [p for _, p in block.parameters()]

    return factory


def compressed_loss_scenario(rng):
    s = _tensor(rng, 3, 4)
    s_hat = _tensor(rng, 3, 4)

    def loss():
        return complex_loss(s, s_hat, 0.3, 0.3)

    return loss, [s_hat]


SCENARIOS = [
    ("complex_conv2d + crelu", conv2d_scenario),
    ("complex_conv_transpose2d", conv_transpose2d_scenario),
    ("complex_batchnorm (training)", batchnorm_scenario),
    ("complex_gru_run (3 steps)", gru_scenario),
    ("attention: sdab", _attention_scenario("sdab", batch=1)),
    ("attention: conventional", _attention_scenario("conventional", batch=1)),
    ("attention: complex", _attention_scenario("complex", batch=1)),
    ("compressed complex loss", compressed_loss_scenario),
    ("attention: complex, rank 4 (B=2)", _attention_scenario("complex", batch=2)),
    ("complex_batchnorm (eval)", _moved_batchnorm_scenario(False, batch=2)),
    ("complex_batchnorm (train, B=3)", _moved_batchnorm_scenario(True, batch=3)),
    ("attention: conventional, rank 4 (B=3)", _attention_scenario("conventional", batch=3)),
    ("attention: sdab, rank 4 (B=3)", _attention_scenario("sdab", batch=3)),
]


def run_suite(seed=0, report=None):
    """Run every scenario in :data:`SCENARIOS` on :data:`N_INSTANCES` seeded
    random instances; a scenario passes when its worst error is <= :data:`TOL`.

    Returns ``(all_passed, rows)`` where each row is
    ``(name, max_rel_err, elapsed_s, passed)``.  ``report`` may be a callable
    taking one formatted line at a time (e.g. ``print``).
    """
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    rows = []
    all_ok = True
    for idx, (name, factory) in enumerate(SCENARIOS):
        t0 = time.perf_counter()
        worst = 0.0
        for k in range(N_INSTANCES):
            rng = np.random.default_rng(np.random.SeedSequence([seed, idx, k]))
            worst = max(worst, check_gradients(*factory(rng)))
        elapsed = time.perf_counter() - t0
        ok = worst <= TOL
        all_ok = all_ok and ok
        rows.append((name, worst, elapsed, ok))
        if report is not None:
            status = "PASS" if ok else "FAIL"
            report(f"{status}  {name:<38s} max_rel_err={worst:.3e}  ({elapsed:.2f}s)")
    return all_ok, rows
