"""A complex reference for the nilpotent calculus: every series is evaluated
by plain Horner in complex128 on the dense argument, with no power stack, no
blocking, no factor route and no gather.  `complex_calculus` swaps it in for
`mat_apply_series` wherever deform and hopf call it, so the whole pipeline
can be rerun in complex arithmetic and held against the package's float64
results."""

import contextlib

import numpy as np

from elliptic_sl2 import deform, hopf
from elliptic_sl2.liealg import KronSum, WeightedShift


def complex_horner(s, mat):
    """sum c_i M**i in complex128, cut at M**(dim-1); s is one series or a
    sequence of them, as for mat_apply_series."""
    if isinstance(s, (list, tuple)):
        return [complex_horner(t, mat) for t in s]
    m = np.array(mat.dense() if isinstance(mat, (KronSum, WeightedShift)) else mat, dtype=complex)
    eye = np.eye(m.shape[0], dtype=complex)
    c = np.asarray(s.coeffs, dtype=complex)[: m.shape[0]]
    acc = c[-1] * eye
    for ci in c[-2::-1]:
        acc = acc @ m + ci * eye
    return acc


@contextlib.contextmanager
def complex_calculus(monkeypatch):
    """Within the block, deform and hopf evaluate every series by
    complex_horner."""
    with monkeypatch.context() as patch:
        for module in (deform, hopf):
            patch.setattr(module, "mat_apply_series", complex_horner)
        yield
