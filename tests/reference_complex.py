"""A complex reference for the nilpotent calculus: every series is evaluated
by plain Horner in complex128 on the dense argument, with no power stack and
no blocking.  At an element x of the raising algebra the dense argument is
x's multiplication matrix, x at unit weights, and the result's coefficients
are the first row of the series there.  `complex_calculus` swaps it in for
`apply_table` where deform calls it, for itself and for hopf, so the whole
pipeline can be rerun in complex arithmetic and held against the package's
float64 results."""

import contextlib

import numpy as np

from elliptic_sl2 import deform
from elliptic_sl2.liealg import RaisingPoly
from elliptic_sl2.series import TruncatedSeries


def complex_horner(s, mat):
    """sum c_i M**i in complex128, cut at M**(dim-1); s is one series or a
    sequence of them, as for mat_apply_series."""
    if isinstance(s, (list, tuple)):
        return [complex_horner(t, mat) for t in s]
    if isinstance(mat, RaisingPoly):
        unit = RaisingPoly(mat.coeffs, tuple(np.ones(w.size) for w in mat.w))
        first_row = complex_horner(s, unit.dense())[0]
        return RaisingPoly(first_row.reshape(mat.coeffs.shape), mat.w)
    m = np.array(mat, dtype=complex)
    eye = np.eye(m.shape[0], dtype=complex)
    c = np.asarray(s.coeffs, dtype=complex)[: m.shape[0]]
    acc = c[-1] * eye
    for ci in c[-2::-1]:
        acc = acc @ m + ci * eye
    return acc


def complex_table(table, mat):
    """complex_horner on each coefficient row of table, as apply_table."""
    return [complex_horner(TruncatedSeries(c), mat) for c in table]


@contextlib.contextmanager
def complex_calculus(monkeypatch):
    """Within the block, every series deform and hopf evaluate goes through
    complex_horner."""
    with monkeypatch.context() as patch:
        patch.setattr(deform, "apply_table", complex_table)
        yield
