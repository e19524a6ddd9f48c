"""Finite-dimensional sl(2) machinery: spin matrices and nilpotent calculus.

Basis order is m = j, j-1, ..., -j, so the raising operator is strictly
upper triangular and every power series applied to it is a finite sum.

The functional calculus (`mat_apply_series`) accepts only strictly
upper-triangular arguments, and takes one of two routes by the argument's
type:

- a matrix M of dimension d: M**d = 0, so the series is cut at order d - 1
  without error and evaluated baby-step/giant-step (Paterson and Stockmeyer,
  SIAM J. Comput. 2(1), 1973) in about 2 sqrt(n) matmuls of size d;
- a `KronSum` A x 1 + 1 x B: the two terms commute, so the binomial theorem
  writes the series as a weighted sum of A**a x B**b with a + b <= d1 + d2 - 2
  (Higham, Functions of Matrices, SIAM 2008, ch. 1).  Only factor powers
  are multiplied, at sizes d1 and d2, and one product with the weight table
  gives every entry of the (d1 d2)-square result.

Callers pass a `KronSum` only where the argument really is one (the
coproduct layer builds them); everything else, and in particular every
relation check on coproduct images, stays on the dense route, which is
therefore an independent cross-check of the factor route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "SpinRep",
    "KronSum",
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


@dataclass(frozen=True)
class KronSum:
    """The Kronecker sum A x 1 + 1 x B on the product module, kept as its two
    factors so that a series of it is formed from factor powers alone."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=complex))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=complex))

    def __rmul__(self, c):
        return KronSum(c * self.a, c * self.b)

    def dense(self):
        return (kron(self.a, np.eye(self.b.shape[0], dtype=complex))
                + kron(np.eye(self.a.shape[0], dtype=complex), self.b))


def _strictly_upper(mat):
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DomainError("series application needs a square matrix")
    if np.tril(mat).any():
        raise DomainError("series application needs a strictly upper-triangular matrix")
    return mat


def _power_stack(mat, count):
    """I, M, ..., M**(count-1) stacked along the first axis."""
    powers = np.empty((count,) + mat.shape, dtype=complex)
    powers[0] = np.eye(mat.shape[0], dtype=complex)
    if count > 1:
        powers[1] = mat
    for r in range(2, count):
        powers[r] = powers[r - 1] @ mat
    return powers


def mat_apply_series(s, mat):
    """sum c_i M**i for a strictly upper-triangular (hence nilpotent) M, given
    as a matrix or as a KronSum of two such factors.

    The order is clipped to n = min(s.order, dim - 1), which is exact since
    M**dim = 0; so every order >= dim - 1 gives the same bits.  With
    step = isqrt(n + 1), the baby steps I, M, ..., M**(step-1) are stacked
    once, every block sum_r c_(b*step+r) M**r comes out of one product with
    the coefficient table, and Horner in M**step runs over the blocks.
    """
    if isinstance(mat, KronSum):
        return _kron_sum_apply(s, mat)
    mat = _strictly_upper(mat)
    dim = mat.shape[0]
    n = min(s.order, dim - 1)
    step = math.isqrt(n + 1)
    nblk = -(-(n + 1) // step)
    table = np.zeros(nblk * step, dtype=complex)
    table[: n + 1] = s.coeffs[: n + 1]
    powers = _power_stack(mat, step)
    blocks = (table.reshape(nblk, step) @ powers.reshape(step, dim * dim)).reshape(nblk, dim, dim)
    acc = blocks[-1]
    if nblk > 1:
        giant = powers[-1] @ mat
        for b in range(nblk - 2, -1, -1):
            acc = acc @ giant + blocks[b]
    return acc


def _kron_sum_apply(s, ks):
    """sum c_i (A x 1 + 1 x B)**i
         = sum_{a < d1, b < d2, a + b <= n} C(a+b, a) c_(a+b) A**a x B**b,

    since the two terms commute; n = min(s.order, d1 + d2 - 2) is exact, as
    A**d1 = B**d2 = 0.  With Pa, Pb the stacked factor powers and W the
    weight table, the entries are the one product Pa^T W Pb, reindexed."""
    a, b = _strictly_upper(ks.a), _strictly_upper(ks.b)
    d1, d2 = a.shape[0], b.shape[0]
    n = min(s.order, d1 + d2 - 2)
    p, q = min(d1 - 1, n) + 1, min(d2 - 1, n) + 1
    binom = np.ones((p, q))  # binom[a, b] = C(a+b, a), exact below 2**53
    for r in range(1, p):
        binom[r] = np.cumsum(binom[r - 1])
    c = np.zeros(p + q - 1, dtype=complex)
    c[: n + 1] = s.coeffs[: n + 1]
    w = binom * c[np.add.outer(np.arange(p), np.arange(q))]
    pa = _power_stack(a, p).reshape(p, d1 * d1)
    pb = _power_stack(b, q).reshape(q, d2 * d2)
    out = (pa.T @ w @ pb).reshape(d1, d1, d2, d2)
    return out.transpose(0, 2, 1, 3).reshape(d1 * d2, d1 * d2)


def kron(a, b):
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def coproduct_classical(r1, r2):
    """Primitive tensor generators J_i x 1 + 1 x J_i on the product module."""
    return tuple(KronSum(a, b).dense()
                 for a, b in ((r1.Jp, r2.Jp), (r1.Jm, r2.Jm), (r1.J0, r2.J0)))


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
