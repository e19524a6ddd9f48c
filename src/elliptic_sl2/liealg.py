"""Finite-dimensional sl(2) machinery: spin matrices and nilpotent calculus.

Basis order is m = j, j-1, ..., -j, so the raising operator is strictly
upper triangular and every power series applied to it is a finite sum.

The functional calculus (`mat_apply_series`) accepts only strictly
upper-triangular matrices: the raising generator of a spin module, its
tensor-product sums and anything built from them by series without constant
term.  For such an M of dimension d, M**d = 0, so a series is cut at order
d - 1 without error and evaluated baby-step/giant-step (Paterson and
Stockmeyer, SIAM J. Comput. 2(1), 1973) in about 2 sqrt(n) matmuls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "SpinRep",
    "build_spin",
    "commutator",
    "mat_apply_series",
    "kron",
    "coproduct_classical",
    "matrix_to_json",
    "matrix_from_json",
    "frobenius",
    "worst",
]


@dataclass(frozen=True)
class SpinRep:
    """Spin-j generator triple on the (2j+1)-dimensional module."""

    j: float
    dim: int
    Jp: np.ndarray
    Jm: np.ndarray
    J0: np.ndarray


def build_spin(j):
    """Spin-j matrices with [J0, J+-] = +-J+-, [J+, J-] = 2 J0."""
    two_j = 2 * float(j)
    if not (two_j >= 0 and two_j.is_integer()):
        raise DomainError(f"spin must be a non-negative half-integer, got {j}")
    two_j = int(two_j)
    j = two_j / 2.0
    dim = two_j + 1
    m = j - np.arange(dim)  # descending magnetic quantum numbers
    Jp = np.zeros((dim, dim), dtype=complex)
    for col in range(1, dim):
        # raising coefficient sqrt((j-m)(j+m+1)) acting on column m = j-col
        Jp[col - 1, col] = np.sqrt((j - m[col]) * (j + m[col] + 1.0))
    Jm = Jp.T.copy()
    J0 = np.diag(m.astype(complex))
    return SpinRep(j=j, dim=dim, Jp=Jp, Jm=Jm, J0=J0)


def commutator(a, b):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("commutator needs two square matrices of equal dimension")
    return a @ b - b @ a


def mat_apply_series(s, mat):
    """sum c_i M**i for a strictly upper-triangular (hence nilpotent) M.

    The order is clipped to n = min(s.order, dim - 1), which is exact since
    M**dim = 0; so every order >= dim - 1 gives the same bits.  With
    step = isqrt(n + 1), the baby steps I, M, ..., M**(step-1) are stacked
    once, every block sum_r c_(b*step+r) M**r comes out of one product with
    the coefficient table, and Horner in M**step runs over the blocks.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DomainError("series application needs a square matrix")
    if np.tril(mat).any():
        raise DomainError("series application needs a strictly upper-triangular matrix")
    dim = mat.shape[0]
    n = min(s.order, dim - 1)
    step = math.isqrt(n + 1)
    nblk = -(-(n + 1) // step)
    table = np.zeros(nblk * step, dtype=complex)
    table[: n + 1] = s.coeffs[: n + 1]
    powers = np.empty((step, dim, dim), dtype=complex)
    powers[0] = np.eye(dim, dtype=complex)
    if step > 1:
        powers[1] = mat
    for r in range(2, step):
        powers[r] = powers[r - 1] @ mat
    blocks = (table.reshape(nblk, step) @ powers.reshape(step, dim * dim)).reshape(nblk, dim, dim)
    acc = blocks[-1]
    if nblk > 1:
        giant = powers[-1] @ mat
        for b in range(nblk - 2, -1, -1):
            acc = acc @ giant + blocks[b]
    return acc


def kron(a, b):
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def coproduct_classical(r1, r2):
    """Primitive tensor generators J_i x 1 + 1 x J_i on the product module."""
    e1 = np.eye(r1.dim, dtype=complex)
    e2 = np.eye(r2.dim, dtype=complex)
    djp = kron(r1.Jp, e2) + kron(e1, r2.Jp)
    djm = kron(r1.Jm, e2) + kron(e1, r2.Jm)
    dj0 = kron(r1.J0, e2) + kron(e1, r2.J0)
    return djp, djm, dj0


def frobenius(a):
    return float(np.linalg.norm(np.asarray(a), "fro"))


def worst(values):
    """The largest of some residuals, where a NaN outranks every number: a
    non-finite residual is always the worst and never passes a tolerance.
    The worst of no residuals is 0.0."""
    return max(map(float, values), key=lambda v: (v != v, v), default=0.0)


def matrix_to_json(mat):
    mat = np.asarray(mat, dtype=complex)
    return {
        "dim": mat.shape[0],
        "entries": [[float(z.real), float(z.imag)] for z in mat.reshape(-1)],
    }


def matrix_from_json(obj):
    dim = obj["dim"]
    entries = [complex(re, im) for re, im in obj["entries"]]
    if len(entries) != dim * dim:
        raise DomainError("matrix JSON entry count disagrees with dim")
    return np.array(entries, dtype=complex).reshape(dim, dim)
