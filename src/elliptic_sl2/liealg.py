"""Finite-dimensional sl(2) machinery: spin matrices and nilpotent calculus.

Basis order is m = j, j-1, ..., -j, so the raising operator is strictly
upper triangular and every power series applied to it is a finite sum.

The functional calculus (`mat_apply_series`) takes its argument in the
commutative algebra

    A = C[S_1, ..., S_m] / (S_1**d_1, ..., S_m**d_m)

of the raising operators S_i (superdiagonal w_i) of m spin-module factors,
as a `RaisingPoly` that is a sum a_1(S_1) + ... + a_m(S_m) of one-factor
parts: J+ (`SpinRep.raising`), a triplet's Xhat less its offset, or every
coproduct's base.  Every function of a nilpotent generator is taken this
way, and a matrix argument is refused: a series of an element is an
element, evaluated on coefficient arrays, each part's powers the rows of
its `series.power_table`, the table every composition is made from.  One
gather (`_matrices`) makes the matrices of elements (`densify`) and of
normal forms over A: S**a has entry prod_i prod(w_i[r_i : r_i + a_i]) at
row r and column r + a, so a term is its coefficients by offset c - r times
those products (the Toeplitz form of a Jordan block, Higham, Functions of
Matrices, SIAM 2008, ch. 1), with one 2**e rescale (`_weights`) past double
range.

Several series at one argument are one call: the argument is validated once
and each part's power table is built once, and each series gives the same
bits as it would alone.  `apply_table` takes the series as a table of
coefficient rows, which `deform` writes directly.

The dtype follows the inputs.  `real_if_exact` is the one place that
decides it, for every matrix, coefficient array and superdiagonal that
enters the calculus and `commutator`: an operand with no nonzero
imaginary part is float64, anything else is complex128, and numpy runs the
same code on either.  Spin matrices are real, so at real h and real k every
generator image, coproduct image and structure-function matrix is float64;
a complex h, a complex k or a complex shift offset makes them complex128.
A NaN or inf imaginary part counts as nonzero, so the demotion is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .series import power_table

__all__ = [
    "SpinRep",
    "RaisingPoly",
    "build_spin",
    "commutator",
    "mat_apply_series",
    "apply_table",
    "densify",
    "nilpotency_bound",
    "frobenius",
    "worst",
]


# The largest module build_spin makes: dimension 401, j = 200.  A cold
# `deform verify --h 0.8 --k 0.6` peaked at 38 MB at j = 80, and at 52 MB at
# j = 200, where it stops on the unitary basis's overflow (2-vCPU VM).  Every
# function of Xhat is taken on coefficient arrays of length dim; what grows as
# dim**2 is the generators, their gathered functions and the relation
# products, float64 at real h and k and complex128 otherwise; at j = 5000 a
# single real matrix would take 0.8 GB.
MAX_SPIN_DIM = 401


@dataclass(frozen=True)
class SpinRep:
    """Spin-j generator triple on the (2j+1)-dimensional module."""

    j: float
    dim: int
    Jp: np.ndarray
    Jm: np.ndarray
    J0: np.ndarray

    @property
    def raising(self):
        """J+ as the generator S of the one-factor algebra (`RaisingPoly`)."""
        coeffs = np.zeros(self.dim)
        coeffs[1:2] = 1.0
        return RaisingPoly(coeffs, (np.diagonal(self.Jp, 1),))


def build_spin(j):
    """Spin-j matrices with [J0, J+-] = +-J+-, [J+, J-] = 2 J0."""
    two_j = 2 * float(j)
    if not (two_j >= 0 and two_j.is_integer()):
        raise DomainError(f"spin must be a non-negative half-integer, got {j}")
    two_j = int(two_j)
    j = two_j / 2.0
    dim = two_j + 1
    if dim > MAX_SPIN_DIM:
        raise DomainError(f"spin {j:g} has dimension {dim}, over the cap of {MAX_SPIN_DIM} "
                          f"(j <= {(MAX_SPIN_DIM - 1) / 2:g})")
    m = j - np.arange(dim)  # descending magnetic quantum numbers
    # raising coefficients sqrt((j-m)(j+m+1)) acting on columns m = j-1, ..., -j
    Jp = np.diag(np.sqrt((j - m[1:]) * (j + m[1:] + 1.0)), 1)
    Jm = Jp.T.copy()
    J0 = np.diag(m)
    return SpinRep(j=j, dim=dim, Jp=Jp, Jm=Jm, J0=J0)


def real_if_exact(a):
    """a as a float64 array when no entry has a nonzero imaginary part, and
    as complex128 otherwise.  The real part is taken only when every
    imaginary part is exactly zero (a NaN or inf one is nonzero), so the
    demotion never drops information."""
    a = np.asarray(a)
    if a.dtype.kind != "c":
        return a.astype(float, copy=False)
    if a.imag.any():
        return a.astype(complex, copy=False)
    return np.ascontiguousarray(a.real)


def commutator(a, b):
    a, b = real_if_exact(a), real_if_exact(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("commutator needs two square matrices of equal dimension")
    return a @ b - b @ a


def nilpotency_bound(x):
    """The highest power of an element x of A that can be nonzero, the highest
    total degree of A, sum(d_i - 1).  Every series is exact when cut there."""
    return sum(x.coeffs.shape) - x.coeffs.ndim


def mat_apply_series(s, x):
    """sum c_i x**i for an element x of A without constant term (hence
    nilpotent), as elements on x's factors (`densify` makes them matrices).

    s is one series, or a sequence of series at the same argument, which
    gives a list, from one `apply_table` call on their coefficients.
    """
    batch = isinstance(s, (list, tuple))
    out = apply_table([t.coeffs for t in (s if batch else [s])], x)
    return out if batch else out[0]


class RaisingPoly:
    """An element of A: coeffs[a_1, ..., a_m] is the coefficient of
    S_1**a_1 ... S_m**a_m, and w[i] the superdiagonal of S_i, on the
    Kronecker product of the factors in their order.  Both are read-only."""

    __slots__ = ("coeffs", "w")

    def __init__(self, coeffs, w):
        self.coeffs = real_if_exact(coeffs)
        self.w = tuple(map(real_if_exact, w))
        if self.coeffs.shape != tuple(x.size + 1 for x in self.w):
            raise DomainError(f"coefficients of shape {self.coeffs.shape} do not fit factors of "
                              f"dimensions {tuple(x.size + 1 for x in self.w)}")

    @classmethod
    def _on(cls, coeffs, w):
        """An element on the factors w of an existing one, unchecked."""
        x = object.__new__(cls)
        x.coeffs, x.w = coeffs, w
        return x

    def __neg__(self):
        return RaisingPoly._on(-self.coeffs, self.w)

    def tensor_sum(self, other):
        """self x 1 + 1 x other, on the factors of self followed by those of
        other."""
        coeffs = np.zeros(self.coeffs.shape + other.coeffs.shape,
                          dtype=np.result_type(self.coeffs, other.coeffs))
        coeffs[(...,) + (0,) * other.coeffs.ndim] = self.coeffs
        coeffs[(0,) * self.coeffs.ndim] += other.coeffs
        return RaisingPoly._on(coeffs, self.w + other.w)

    def dense(self):
        return densify([self])[0]


def apply_table(table, x):
    """sum c_i x**i in A for each row c of table, coefficient vectors of any
    lengths (a list of them, or the rows of a 2-D array), as a list of
    elements on x's factors.

    x must be a_1 + ... + a_m, a_i a polynomial in S_i alone; the a_i
    commute, so the result is c_|k| multinomial(k) contracted with each
    a_i's powers (none at a_i = S_i), on d_i-square tables, one per part,
    built once for every row; each row gives the same bits as alone, and
    is clipped to the nilpotency bound of x, so every order past it gives
    the same bits.  Any other x, whose powers would need its D x D
    multiplication matrix, and any matrix, are refused."""
    if not isinstance(x, RaisingPoly):
        raise DomainError("series application takes an element of the raising algebra "
                          "(a RaisingPoly), not a matrix")
    arg = real_if_exact(x.coeffs)
    if arg.flat[0] != 0:
        raise DomainError("series application needs a strictly upper-triangular argument, "
                          "an element of A without constant term")
    shape, m = arg.shape, arg.ndim
    rows, table = table, np.zeros((len(table), sum(shape) - m + 1), dtype=complex)
    for row, c in zip(table, rows):
        c = c[: len(row)]
        row[: c.size] = c
    real = ~table.imag.any(axis=1)      # a real series keeps float64 beside a complex one
    table = table.real if real.all() else table
    if m == 1:      # x is its one part, and every multinomial is 1
        if _is_generator(arg):     # x = S: the coefficients themselves
            return [RaisingPoly._on(row.real if r else row, x.w) for row, r in zip(table, real)]
        powers, coeffs = [power_table(arg)], table
    else:
        parts = [arg[(0,) * i + (slice(None),) + (0,) * (m - i - 1)] for i in range(m)]
        if np.count_nonzero(arg) > sum(map(np.count_nonzero, parts)):
            raise DomainError("series application needs a sum of one-factor parts in A")
        powers = [None if _is_generator(a) else power_table(a) for a in parts]
        weights, degree = _multinomials(shape)
        coeffs = weights * table[:, degree]
    out = [None] * len(table)
    for rows in (np.flatnonzero(real), np.flatnonzero(~real)):     # float64, then complex
        if not rows.size:
            continue
        c = coeffs[rows].real if real[rows[0]] else coeffs[rows]
        for p in powers if any(p is not None for p in powers) else ():
            # contract the first axis of each with the factor's powers, appended last
            rest = c.shape[2:]
            c = c.reshape(len(c), c.shape[1], -1).transpose(0, 2, 1)
            c = (c if p is None else c @ p).reshape(len(c), *rest, -1)
        for i, e in zip(rows, c):
            out[i] = RaisingPoly._on(e, x.w)
    return out


def _is_generator(a):
    """Whether the one-factor coefficient vector a is S itself."""
    return a.size > 1 and a[1] == 1 and not a[2:].any()


@lru_cache(maxsize=8)
def _multinomials(dims):
    """|a|! / prod_i a_i! and |a| on the grid of shape dims, as products of
    correctly rounded binomials C(s + t, t); read-only, made once per shape."""
    weights, degree = np.ones(dims[0]), np.arange(dims[0])
    for d in dims[1:]:
        binom = np.array([[math.comb(s + t, t) for t in range(d)]
                          for s in range(degree[(-1,) * degree.ndim] + 1)], dtype=float)
        weights = weights[..., None] * binom[degree[..., None], np.arange(d)]
        degree = degree[..., None] + np.arange(d)
    weights.flags.writeable = degree.flags.writeable = False
    return weights, degree


def densify(elements):
    """The matrices of elements of A on the same factors, normal forms of one
    term each, from the one gather (`_matrices`) and its one 2**e rescale
    (`_weights`)."""
    w, coeffs = elements[0].w, [x.coeffs for x in elements]
    out = _matrices(np.array(coeffs)[:, None], np.zeros((len(w), 1, 2), dtype=int),
                    *((p[None], e) for p, e in map(_weights, w)))
    if out.dtype.kind != "c" or any(x.dtype.kind == "c" for x in w):
        return list(out)
    # at real w, a real element keeps its float64 matrix beside a complex one
    return [f if c.dtype.kind == "c" else np.ascontiguousarray(f.real) for f, c in zip(out, coeffs)]


# -- the gather: normal forms over A to entries and matrices --------------------


def _weights(w):
    """S**a's weights P[r, c] = prod(w[r : c]) on and above the diagonal, 0
    below, for superdiagonal w, and the exponent e of the one rescale: where
    a product leaves double range (at spin 100, prod(w) reaches 200!), P is
    taken at w / 2**e, 2**e at most the geometric mean of |w|, and each
    coefficient of S**a times 2**(e a) (`_scaled`), both exactly.  A module's
    table is made once, by its superdiagonal's bytes, and is read-only."""
    return _weights_of(w.tobytes(), w.dtype.str)


@lru_cache(maxsize=16)
def _weights_of(data, dtype):
    w = np.frombuffer(data, dtype=dtype)
    row, lower, e = np.empty(w.size + 1, dtype=w.dtype), np.tri(w.size + 1, dtype=bool), 0
    row[0], row[1:] = 1, w
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.where(lower, 1, row).cumprod(axis=1)
        if not np.isfinite(p).all():
            e = int(np.frexp(abs(w))[1].sum()) // max(w.size, 1) - 1
            row[1:] = _ldexp(w, -e)
            p = np.where(lower, 1, row).cumprod(axis=1)
    p = np.where(lower.T, p, 0)
    p.flags.writeable = False
    return p, e


def _scaled(c, grids):
    """Coefficient arrays c[..., a_1, ..., a_m] times 2**(sum_i e_i a_i)."""
    if not any(e for _, e in grids):
        return c
    return _ldexp(c, sum(np.ix_(*(e * np.arange(d) for (_, e), d in
                                  zip(grids, c.shape[-len(grids):])))))


def _on_grid(tables, s):
    """Tables [t, r, c] on the (offset, row) grid [t, o, r], c - r = o - s, 0
    past the module."""
    k, d, _ = tables.shape
    pad = np.zeros((k, d, 2 * d + s), dtype=tables.dtype)
    pad[:, :, s:s + d] = tables
    st, sr, sc = pad.strides     # [t, o, r] = pad[t, r, r + o], at o + r (2d + s + 1) in pad[t]
    return np.ndarray((k, d + s, d), pad.dtype, pad, 0, (st, sc, sr + sc)).copy()


def _weighted(nfs, kinds, grids, factors):
    """The nonzero terms (b, kind) of normal forms sum_kind nfs[n, kind] X_kind
    over A, X_kind one diagonal or lowering operator per factor (with one
    kind, each normal form's one term), and their scaled coefficients on the
    offset grids, one longer where a kind lowers, times the first `factors`
    factors' weights in turn, taken to [r_i, c_i]: part[term, r_1, c_1, ...,
    o_m].  Grid i is (tables, e), tables[t, r, c] the entry of S**a times the
    t-th operator, table 0 S**a's (`_weights`); kinds[i, kind] is (the kind's
    table, 1 where it lowers).  Offsets past a grid wrap round to weights 0.
    The caller ignores overflow: a product past double range is inf or NaN,
    which the gather names (`_finite`)."""
    count, nkinds, *dims = nfs.shape
    b, kind, lift = slice(None), 0, [0] * len(dims)     # an element of A: one term
    part = _scaled(nfs, grids)
    if nkinds > 1:
        b, kind = np.nonzero(nfs.reshape(count, nkinds, -1).any(axis=2))
        lift = kinds[:, :, 1].max(axis=1).tolist()
        placed = np.zeros((count, nkinds, *map(sum, zip(dims, lift))), dtype=part.dtype)
        for k, low in enumerate(kinds[:, :nkinds, 1].T.tolist()):
            placed[(slice(None), k) + tuple(slice(s - x, s - x + d) for s, x, d in
                                             zip(lift, low, dims))] = part[:, k]
        part = placed
    part = part[b, kind]
    for i, ((t, _), d, s) in enumerate(zip(grids[:factors], dims, lift)):
        at = np.arange(s, s + d) - np.arange(d)[:, None]     # [r_i, c_i] -> o_i
        part = part.take(at, axis=2 * i + 1) * t[kinds[i, kind, 0]].reshape(
            (-1,) + (1,) * 2 * i + (d, d) + (1,) * (len(dims) - i - 1))
    return b, kind, part


def _entries(nfs, kinds, *grids):
    """The entries of normal forms nfs[n] of several kinds, one at a time, as
    E[o_m, r_m, r_1, c_1, ..., r_(m-1), c_(m-1)]: the terms weighted on the
    first m - 1 factors (`_weighted`) and contracted with the last factor's
    weights on its (offset, row) grid, one matmul per normal form, each into
    the one buffer the first made: a yielded array holds until the next."""
    with np.errstate(over="ignore", invalid="ignore"):
        b, kind, part = _weighted(nfs, kinds, grids, len(grids) - 1)
    last = _on_grid(grids[-1][0], kinds[-1, :, 1].max())[kinds[-1, kind, 0]].transpose(1, 2, 0)
    # [o_m, term, ...]; with no nonzero term, each matmul sums nothing and gives zeros
    part = part.reshape(len(part), math.prod(part.shape[1:-1]), last.shape[0]).transpose(2, 0, 1)
    ends = np.searchsorted(b, np.arange(len(nfs) + 1))     # b is sorted: each nfs[n] a slice
    entries = None
    for lo, hi in zip(ends[:-1], ends[1:]):
        with np.errstate(over="ignore", invalid="ignore"):
            entries = np.matmul(last[..., lo:hi], part[:, lo:hi], out=entries)
        yield entries


def _matrices(nfs, kinds, *grids):
    """The matrices of normal forms nfs[n] in Kronecker order: with one kind,
    elements of A, their terms weighted on every factor (`_weighted`; a
    matmul over one term would make -0.0 +0.0); with several, each normal
    form's entries (`_entries`), [r_m, c_m] from [o_m, r_m], written before
    the next is made.  Overflow is named once, on the matrices."""
    count, nkinds, *dims = nfs.shape
    m, d, size = len(dims), dims[-1], math.prod(dims)
    with np.errstate(over="ignore", invalid="ignore"):
        if nkinds == 1:
            e = _weighted(nfs, kinds, grids, m)[2]                          # [n, r_1, c_1, ...]
            order = (0, *range(1, 2 * m, 2), *range(2, 2 * m + 1, 2))
            return _finite(e.transpose(order).reshape(count, size, size))
        steps, s = np.arange(d), kinds[-1, :, 1].max()
        rows = (steps - steps[:, None] + s) * d + steps[:, None]
        pairs = [x for x in dims[:-1] for _ in (0, 1)]
        order = (*range(2, 2 * m, 2), 0, *range(3, 2 * m, 2), 1)   # from [r_m, c_m, r_1, c_1, ...]
        out = np.empty((count, *dims, *dims), dtype=np.result_type(nfs, *(t for t, _ in grids)))
        for matrix, e in zip(out, _entries(nfs, kinds, *grids)):
            matrix[...] = e.reshape((d + s) * d, *pairs)[rows].transpose(order)
    return _finite(out.reshape(count, size, size))


def _finite(e):
    """e, where every entry is finite; a DomainError otherwise."""
    if not np.isfinite(e).all():
        raise DomainError("series application at a raising operator: a power or a "
                          "coefficient overflowed double precision")
    return e


def _norms(elements, *grids):
    """The Frobenius norms of elements of A: sum_a |c[a]|**2 prod_i
    |S_i**a_i|**2, each |S**a| the norm of a row of S**a's weights."""
    weights = 1.0
    for tables, _ in grids:     # scaled by each row's largest entry, so no square overflows
        p = np.abs(_on_grid(tables[:1], 0)[0])                         # [a, r]
        top = p.max(axis=1, keepdims=True)
        weights = np.multiply.outer(weights, top[:, 0] * np.sqrt(np.sum((p / top) ** 2, axis=1)))
    return [frobenius(c) for c in _scaled(np.array(elements), grids) * weights]


def _ldexp(a, exponents):
    """a * 2**exponents, exactly (barring over- and underflow), for real or
    complex a."""
    if a.dtype.kind != "c":
        return np.ldexp(a, exponents)
    out = np.empty(np.broadcast(a, exponents).shape, dtype=complex)
    out.real = np.ldexp(a.real, exponents)
    out.imag = np.ldexp(a.imag, exponents)
    return out


def frobenius(a):
    """The Frobenius norm, from one dot product; NaN and inf propagate.  Where
    the squares overflow (entries above about 1e154) or all underflow (below
    about 1e-162), the entries are first scaled by the largest part."""
    a = np.asarray(a)
    norm = math.sqrt(np.vdot(a, a).real)
    if (norm == 0 and a.any()) or (not math.isfinite(norm) and np.isfinite(a).all()):
        scale = max(np.abs(a.real).max(), np.abs(a.imag).max())
        scaled = a / scale
        return float(scale) * math.sqrt(np.vdot(scaled, scaled).real)
    return norm


def worst(values):
    """The largest of some residuals, where a NaN outranks every number: a
    non-finite residual is always the worst and never passes a tolerance.
    The worst of no residuals is 0.0."""
    return max(map(float, values), key=lambda v: (v != v, v), default=0.0)
