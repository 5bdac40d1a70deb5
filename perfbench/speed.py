"""The host's speed, measured beside the workload with a fixed kernel.

The benchmark runs on a small shared VM whose speed drifts with the load of
other tenants: over 90 s, a Python loop, a BLAS GEMM and a memory stream all
slowed and sped up together by up to a third, within tens of seconds.  Raw
run-to-run spreads of the benchmark's timings reached 10-40% in busy hours.

So the benchmark times a fixed kernel, which uses no dereverb code, between
operations, and scales each operation's times by ``REFERENCE_MS / kernel
ms`` (the mean of the kernel samples just before and just after it).  A
scaled time reads in milliseconds at the reference speed; a change to the
program moves it in the same proportion as the raw time.  Raw times are
printed beside the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's median time on the machine the benchmark was defined on
# (2-core Xeon VM, numpy 2.4, one BLAS thread).  Only a scale: changing it
# moves every scaled metric by the same factor.
REFERENCE_MS = 12.0
REPEATS = 3  # runs of each kernel part per sample; the fastest counts


class _Node:
    __slots__ = ("op", "inputs", "out")

    def __init__(self, op, inputs, out):
        self.op, self.inputs, self.out = op, inputs, out


_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((4, 8, 8, 4))
_GEMM_A = _RNG.standard_normal((256, 576))
_GEMM_B = _RNG.standard_normal((576, 64))
_STREAM = _RNG.standard_normal(1 << 20)


def _interpreter():
    tape, names = [], {}
    for i in range(6000):
        node = _Node(i & 7, (i, i + 1), None)
        names[node.op] = names.get(node.op, 0) + 1
        tape.append(node)


def _small_arrays():
    x = _SMALL
    for _ in range(300):
        x = np.tanh(x * 0.5 + _SMALL)


def _gemm():
    for _ in range(6):
        _GEMM_A @ _GEMM_B


def _stream():
    z = _STREAM
    for _ in range(4):
        z = z * 0.999 + 0.001


# The kinds of work the program does: interpreter work (object creation,
# calls and dict traffic, as a tape records), small-array numpy ops (per-op
# overhead), GEMMs (convs at paper scale) and a memory stream (large
# elementwise ops).  On the reference machine they take about 3-5, 1-2, 2-3
# and 4-5 ms; in trials all four together tracked the program's training
# and eval times better than any single part.
KERNEL = (_interpreter, _small_arrays, _gemm, _stream)


def sample_ms():
    """The kernel's time now, in ms: each part's fastest of ``REPEATS`` runs, summed."""
    total = 0.0
    for part in KERNEL:
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            part()
            best = min(best, time.perf_counter() - start)
        total += best
    return total * 1e3


class Gauge:
    """Kernel samples taken between operations, and the scale of each one."""

    def __init__(self):
        self.samples = [sample_ms()]

    def after_op(self):
        """Sample after an operation; returns the scale for that operation."""
        before = self.samples[-1]
        self.samples.append(sample_ms())
        return REFERENCE_MS / (0.5 * (before + self.samples[-1]))
