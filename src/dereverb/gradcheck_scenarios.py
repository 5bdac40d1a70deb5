"""Registered finite-difference scenarios for the ``gradcheck`` subcommand.

Each factory draws a small random instance and returns ``(loss_fn, tensors)``
for :func:`dereverb.gradcheck.check_gradients`.  Instances are kept tiny so
the whole suite runs in seconds.  Inputs are drawn with magnitudes bounded
away from zero where a kink (CReLU) or a non-smooth magnitude sits on the
forward path.
"""

from __future__ import annotations

import numpy as np

from . import ctensor as ct
from .attention import TFAttentionBlock
from .ctensor import ComplexTensor
from .layers import (
    ComplexBatchNorm,
    ComplexGruCell,
    complex_conv2d,
    complex_conv_transpose2d,
)
from .model import complex_loss


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


def _attention_scenario(variant, batch=None):
    """A block on a [T, F, C] map, or on a [B, T, F, C] batch as the model runs it."""

    def factory(rng):
        block = TFAttentionBlock(variant, 2, 3, 3, rng=rng)
        x = _tensor(rng, *((batch,) if batch else ()), 3, 3, 2)

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
    ("attention: sdab", _attention_scenario("sdab")),
    ("attention: conventional", _attention_scenario("conventional")),
    ("attention: complex", _attention_scenario("complex")),
    ("compressed complex loss", compressed_loss_scenario),
    ("attention: complex, rank 4 (B=2)", _attention_scenario("complex", batch=2)),
    ("complex_batchnorm (eval)", _moved_batchnorm_scenario(False, batch=2)),
    ("complex_batchnorm (train, B=3)", _moved_batchnorm_scenario(True, batch=3)),
    ("attention: conventional, rank 4 (B=3)", _attention_scenario("conventional", batch=3)),
    ("attention: sdab, rank 4 (B=3)", _attention_scenario("sdab", batch=3)),
]
