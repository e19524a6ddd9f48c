"""The dense reference for the nilpotent calculus: a series of a strictly
upper-triangular matrix M of dimension d, cut at order d - 1 without error
(M**d = 0) and evaluated baby-step/giant-step (Paterson and Stockmeyer,
SIAM J. Comput. 2(1), 1973) in about 2 sqrt(n) matmuls of size d.

The package takes every such series on an element of the raising algebra
(`liealg.RaisingPoly`) and refuses a matrix; this module is the independent
route it is held against, with the former generator maps built on it:
`deform_generators` and `lift_generators` apply the nonlinear map and the
lift to an abstract (raising, lowering) pair of matrices."""

import math

import numpy as np

from elliptic_sl2.deform import (_asn, _g_of_v, _half_h_powers, lift_series)
from elliptic_sl2.errors import DomainError
from elliptic_sl2.liealg import real_if_exact


def strictly_upper(mat):
    """mat as validated for the dense route: square and strictly upper
    triangular, with non-finite entries named as an overflow."""
    mat = real_if_exact(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DomainError("series application needs a square matrix")
    if np.tril(mat).any():
        if not np.isfinite(mat).all():
            raise DomainError("series application got a matrix with non-finite entries: "
                              "an earlier step overflowed double precision")
        raise DomainError("series application needs a strictly upper-triangular matrix")
    return mat


def power_stack(mat, count):
    """I, M, ..., M**(count-1) stacked along the first axis."""
    powers = np.empty((count,) + mat.shape, dtype=mat.dtype)
    powers[0] = np.eye(mat.shape[0])
    if count > 1:
        powers[1] = mat
    for r in range(2, count):
        powers[r] = powers[r - 1] @ mat
    return powers


def blocked_horner(c, powers, step):
    """sum c_i M**i from the stack I, M, ..., M**step: one product of the
    coefficient table with the baby steps gives every block, and Horner in
    M**step runs over them."""
    c = real_if_exact(c)
    n = c.size - 1
    dim = powers.shape[1]
    nblk = -(-(n + 1) // step)
    table = np.zeros(nblk * step, dtype=c.dtype)
    table[: n + 1] = c
    blocks = (table.reshape(nblk, step) @ powers[:step].reshape(step, dim * dim)).reshape(nblk, dim, dim)
    acc = blocks[-1]
    for b in range(nblk - 2, -1, -1):
        acc = acc @ powers[step] + blocks[b]
    return acc


def apply_table(table, mat):
    """sum c_i M**i for each coefficient row c of table, as a list: M is
    validated once and one power stack serves every row, each clipped to
    order dim - 1 with step = isqrt(its length)."""
    mat = strictly_upper(mat)
    rows = [c[: mat.shape[0]] for c in table]
    steps = [math.isqrt(c.size) for c in rows]
    powers = power_stack(mat, max(steps, default=0) + 1)
    return [blocked_horner(c, powers, step) for c, step in zip(rows, steps)]


def mat_apply_series(s, mat):
    """One series, or a list of them, at a strictly upper-triangular matrix."""
    batch = isinstance(s, (list, tuple))
    out = apply_table([t.coeffs for t in (s if batch else [s])], mat)
    return out if batch else out[0]


def at_half_h(mat, h, *terms):
    """(h/2)**-p F((h/2) M) for each (F, p) in terms, from the coefficient
    scaling `deform._at_half_h` uses, at a matrix."""
    n = min(mat.shape[0] - 1, max(s.order for s, _ in terms))
    powers = _half_h_powers(h, n)
    rows = []
    for s, p in terms:
        m = min(s.order, n)
        row = np.zeros(m + 1, dtype=complex)
        row[p:] = s.coeffs[p: m + 1] * powers[: m + 1 - p]
        rows.append(row)
    return apply_table(rows, mat)


def deform_generators(Jp, Jm, params, order):
    """The nonlinear map applied to an abstract (raising, lowering) pair."""
    xhat, g = at_half_h(Jp, params.h, (_asn(params.k, order), 1), (_g_of_v(params.k, order), 0))
    return xhat, g @ Jm @ g


def lift_generators(X, Y, params, order):
    """A hyperbolic pair (X, Y) lifted to the elliptic one at modulus k."""
    through, q = lift_series(params.k, order)
    xhat, qx = at_half_h(X, params.h, (through, 1), (q, 0))
    return xhat, qx @ Y @ qx
