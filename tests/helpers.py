"""Test helpers: building tensors from complex arrays, counting parameters,
and stand-ins for ``DccrnModel`` with a fixed mask."""

import numpy as np

from dereverb.ctensor import ComplexTensor


def from_complex(z):
    """A ComplexTensor holding the complex array ``z``."""
    z = np.asarray(z, dtype=np.complex128)
    return ComplexTensor(np.ascontiguousarray(z.real), np.ascontiguousarray(z.imag))


def count_parameters(named_params):
    """Total trainable scalar count over (name, tensor) pairs (both parts)."""
    return int(sum(p.real.size + p.imag.size for _, p in named_params))


class ConstantMask:
    """Stand-in for a ``DccrnModel`` of config ``cfg`` whose mask is the complex
    constant ``m`` on every bin; ``m = 1`` leaves the input spectrum as it is."""

    def __init__(self, cfg, m=1.0):
        self.cfg, self.m = cfg, complex(m)

    def forward(self, x, training=False):
        ones = np.ones(x.shape, dtype=self.cfg.np_dtype)
        return ComplexTensor(self.m.real * ones, self.m.imag * ones)
