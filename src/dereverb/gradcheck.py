"""Finite-difference verification of analytic gradients.

The checker re-runs a forward closure with each parameter element perturbed
by +/-eps (central differences) and compares against one reverse-mode pass.
:func:`run_suite` runs the CLI ``gradcheck`` subcommand over the scenarios
registered in :mod:`dereverb.gradcheck_scenarios`.
"""

from __future__ import annotations

import time

import numpy as np

from .ctensor import gradients
from .errors import ContractError


def finite_difference_gradients(loss_fn, tensors, eps=1e-5):
    """Central-difference gradients of ``loss_fn()`` w.r.t. each tensor.

    ``loss_fn`` must recompute the scalar loss from the tensors' current
    values (and must not record on any tape).  Returns a list of
    ``(grad_real, grad_imag)`` pairs matching ``tensors``.
    """
    out = []
    for t in tensors:
        gr = np.zeros_like(t.real)
        gi = np.zeros_like(t.imag)
        for part, g in ((t.real, gr), (t.imag, gi)):
            for idx in np.ndindex(part.shape):
                saved = part[idx]
                part[idx] = saved + eps
                lp = loss_fn()
                part[idx] = saved - eps
                lm = loss_fn()
                part[idx] = saved
                g[idx] = (lp - lm) / (2.0 * eps)
        out.append((gr, gi))
    return out


def max_relative_error(analytic, numeric):
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


def check_gradients(make_scenario, eps=1e-5):
    """Compare reverse-mode and finite-difference gradients for a scenario.

    ``make_scenario()`` must return ``(loss_fn, tensors)`` where ``loss_fn``
    recomputes the scalar loss (as a ComplexTensor) from current tensor
    values.  Returns the max relative error.
    """
    loss_fn, tensors = make_scenario()
    _, analytic = gradients(loss_fn, tensors)

    def numeric_loss():
        return float(loss_fn().real)

    numeric = finite_difference_gradients(numeric_loss, tensors, eps=eps)
    return max_relative_error(analytic, numeric)


def run_suite(seed=0, eps=1e-5, n_instances=5, tol=1e-4, report=None):
    """Run every registered gradcheck scenario on seeded random instances.

    Returns ``(all_passed, rows)`` where each row is
    ``(name, max_rel_err, elapsed_s, passed)``.  ``report`` may be a callable
    taking one formatted line at a time (e.g. ``print``).
    """
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    from . import gradcheck_scenarios  # deferred: needs the layer stack

    rows = []
    all_ok = True
    for idx, (name, factory) in enumerate(gradcheck_scenarios.SCENARIOS):
        t0 = time.perf_counter()
        worst = 0.0
        for k in range(n_instances):
            rng = np.random.default_rng(np.random.SeedSequence([seed, idx, k]))
            worst = max(worst, check_gradients(lambda: factory(rng), eps=eps))
        elapsed = time.perf_counter() - t0
        ok = worst <= tol
        all_ok = all_ok and ok
        rows.append((name, worst, elapsed, ok))
        if report is not None:
            status = "PASS" if ok else "FAIL"
            report(f"{status}  {name:<38s} max_rel_err={worst:.3e}  ({elapsed:.2f}s)")
    return all_ok, rows
