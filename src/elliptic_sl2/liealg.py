"""Finite-dimensional sl(2) machinery: spin matrices and nilpotent calculus.

Basis order is m = j, j-1, ..., -j, so the raising operator is strictly
upper triangular and every power series applied to it is a finite sum.

The functional calculus (`mat_apply_series`) accepts only strictly
upper-triangular arguments, and takes one of four routes by the argument's
type:

- a matrix M of dimension d: M**d = 0, so the series is cut at order d - 1
  without error and evaluated baby-step/giant-step (Paterson and Stockmeyer,
  SIAM J. Comput. 2(1), 1973) in about 2 sqrt(n) matmuls of size d;
- a `KronSum` A x 1 + 1 x B: the two terms commute, so the binomial theorem
  writes the series as a weighted sum of A**a x B**b with a + b <= d1 + d2 - 2
  (Higham, Functions of Matrices, SIAM 2008, ch. 1).  Only factor powers
  are multiplied, at sizes d1 and d2, and one product with the weight table
  gives every entry of the (d1 d2)-square result;
- a `WeightedShift`, the matrix with superdiagonal w and zeros elsewhere
  (a spin module's raising operator, `SpinRep.raising`): its powers are
  w's running products on the superdiagonals, so a series of it is the
  upper-triangular Toeplitz matrix of its coefficients (the Jordan-block
  formula, Higham, ch. 1) times those products entrywise,

      F(S)[r, r+i] = c_i prod(w[r : r+i]),

  one gather with no matmul, and each entry is the product of c_i with
  one running product.  Both factors are carried scaled by exact powers of
  two, so the bits are those of the plain products and only a result out of
  double range overflows; a power or coefficient that does is a DomainError;
- an `OddOperator`, a matrix that maps each class of a two-class grading to
  the other: in the classes' order it is M = [[0, B], [C, 0]], so
  M**2 = diag(BC, CB), and a series S(x) = E(x**2) + x O(x**2) is

      S(M) = [[E(BC), B O(CB)], [C O(BC), E(CB)]],

  Paterson-Stockmeyer on two blocks of about half the dimension at half
  the order; the result is dense, in the original order.

Several series at one argument are one call: the argument is validated
once and its power stack (the two factor stacks of a `KronSum`, the running
products of a `WeightedShift`, the stacks of BC and CB of an `OddOperator`)
is built once, and each series gives the same bits as it would alone.

Callers pass a `KronSum`, a `WeightedShift` or an `OddOperator` only where
the argument really is one: the coproduct layer builds the sums, the
deformation map and the algebraic structure function take J+ itself, and
`hopf.verify_coproduct` takes G and F at a coproduct image DX split by the
weight parity of the product module.  Everything else, in particular every
function of a spin module's Xhat, stays on the dense route, which is the
reference the other three are tested against.

The dtype follows the inputs.  `real_if_exact` is the one place that
decides it, for every matrix and coefficient vector that enters the
calculus, `commutator`, `kron`, `KronSum` and `WeightedShift`: an operand
with no nonzero imaginary part is float64, anything else is complex128, and
numpy runs the same code on either.  Spin matrices are real, so at real h and real k every
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

__all__ = [
    "SpinRep",
    "KronSum",
    "WeightedShift",
    "OddOperator",
    "build_spin",
    "commutator",
    "mat_apply_series",
    "nilpotency_bound",
    "kron",
    "frobenius",
    "worst",
]


# The largest module build_spin makes: dimension 401, j = 200.  A cold
# `deform verify --h 0.8 --k 0.6` there peaked at 93 MB before it stopped on
# the unitary basis's overflow (44 MB at j = 80).  The dense calculus holds
# about 2 sqrt(dim) matrices of dim**2 entries, float64 at real h and k and
# complex128 otherwise; at j = 5000 a single real matrix would take 0.8 GB.
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
        """J+ as the weighted shift of its superdiagonal, for the gather route
        of `mat_apply_series`."""
        return WeightedShift(np.diagonal(self.Jp, 1))


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


@dataclass(frozen=True)
class KronSum:
    """The Kronecker sum A x 1 + 1 x B on the product module, kept as its two
    factors so that a series of it is formed from factor powers alone."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", real_if_exact(self.a))
        object.__setattr__(self, "b", real_if_exact(self.b))

    def __rmul__(self, c):
        return KronSum(c * self.a, c * self.b)

    def dense(self):
        return kron(self.a, np.eye(self.b.shape[0])) + kron(np.eye(self.a.shape[0]), self.b)


@dataclass(frozen=True)
class OddOperator:
    """A matrix that is odd under a two-class grading, kept as its two
    off-diagonal blocks: in the order (even, odd) of the index sets it is
    [[0, b], [c, 0]], so that a series of it is a pair of series of the
    half-size blocks b c and c b."""

    b: np.ndarray
    c: np.ndarray
    even: np.ndarray
    odd: np.ndarray

    def __post_init__(self):
        for name in ("b", "c"):
            object.__setattr__(self, name, real_if_exact(getattr(self, name)))
        for name in ("even", "odd"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.intp))
        shape = (self.even.size, self.odd.size)
        if self.b.shape != shape or self.c.shape != shape[::-1]:
            raise DomainError(f"odd operator blocks of shapes {self.b.shape} and "
                              f"{self.c.shape} do not fit index sets of sizes {shape}")

    @classmethod
    def split(cls, mat, odd):
        """The off-diagonal blocks of a square matrix under the grading whose
        odd class is the boolean mask odd, as an OddOperator, and the
        Frobenius norm of the two diagonal blocks that leaves out."""
        mat = real_if_exact(mat)
        even, odd = np.flatnonzero(~odd), np.flatnonzero(odd)
        from_even, from_odd = mat.take(even, 0), mat.take(odd, 0)
        dropped = math.hypot(frobenius(from_even.take(even, 1)), frobenius(from_odd.take(odd, 1)))
        return cls(from_even.take(odd, 1), from_odd.take(even, 1), even, odd), dropped

    def dense(self):
        return _from_blocks(self, None, self.b, self.c, None,
                            np.result_type(self.b, self.c))


@dataclass(frozen=True)
class WeightedShift:
    """The matrix with superdiagonal w and zeros elsewhere, kept as w so that
    a series of it is one gather of w's running products."""

    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", real_if_exact(self.w))

    def dense(self):
        d = self.w.size + 1
        mat = np.zeros((d, d), dtype=self.w.dtype)
        mat[:-1, 1:][np.diag_indices(d - 1)] = self.w
        return mat


def _strictly_upper(mat):
    mat = real_if_exact(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DomainError("series application needs a square matrix")
    if mat[_lower_mask(mat.shape[0])].any():
        if not np.isfinite(mat).all():
            raise DomainError("series application got a matrix with non-finite entries: "
                              "an earlier step overflowed double precision")
        raise DomainError("series application needs a strictly upper-triangular matrix")
    return mat


@lru_cache(maxsize=8)
def _lower_mask(dim):
    """The diagonal and everything below it; indexing with it costs about a
    third of np.tril."""
    return np.tri(dim, dtype=bool)


def nilpotency_bound(mat):
    """The highest power of a strictly upper-triangular argument that can be
    nonzero: dim - 1 for a matrix or a WeightedShift, d1 + d2 - 2 for a
    KronSum of factors of dimensions d1 and d2.  Every series is exact when
    cut there."""
    if isinstance(mat, KronSum):
        return mat.a.shape[0] + mat.b.shape[0] - 2
    if isinstance(mat, WeightedShift):
        return mat.w.size
    if isinstance(mat, OddOperator):
        return mat.even.size + mat.odd.size - 1
    return np.shape(mat)[0] - 1


def _power_stack(mat, count):
    """I, M, ..., M**(count-1) stacked along the first axis."""
    powers = np.empty((count,) + mat.shape, dtype=mat.dtype)
    powers[0] = np.eye(mat.shape[0])
    if count > 1:
        powers[1] = mat
    for r in range(2, count):
        powers[r] = powers[r - 1] @ mat
    return powers


def mat_apply_series(s, mat):
    """sum c_i M**i for a strictly upper-triangular (hence nilpotent) M, given
    as a matrix, as a KronSum of two such factors, as a WeightedShift or as
    an OddOperator.

    s is one series, or a sequence of series at the same argument, which
    gives a list.  A sequence validates M once and builds one power stack
    (one per factor for a KronSum, one per diagonal block of an
    OddOperator's square); each series then costs only its table product
    and its Horner loop, and gives the same bits as alone.

    The order is clipped to n = min(s.order, nilpotency_bound(M)), which is
    exact; so every order past the bound gives the same bits.  With
    step = isqrt(n + 1), the baby steps I, M, ..., M**(step-1) are stacked
    once, every block sum_r c_(b*step+r) M**r comes out of one product with
    the coefficient table, and Horner in M**step runs over the blocks.
    """
    batch = isinstance(s, (list, tuple))
    series = list(s) if batch else [s]
    if isinstance(mat, KronSum):
        out = _kron_sum_apply(series, mat)
    elif isinstance(mat, WeightedShift):
        out = _shift_apply(series, mat)
    elif isinstance(mat, OddOperator):
        out = _odd_apply(series, mat)
    else:
        mat = _strictly_upper(mat)
        bound = nilpotency_bound(mat)
        orders = [min(t.order, bound) for t in series]
        steps = [math.isqrt(n + 1) for n in orders]
        # the baby steps of every series, and the giant step of the largest
        powers = _power_stack(mat, max(steps, default=0) + 1)
        out = [_blocked_horner(t.coeffs[: n + 1], powers, step)
               for t, n, step in zip(series, orders, steps)]
    return out if batch else out[0]


def _blocked_horner(c, powers, step):
    """sum c_i M**i from the stack I, M, ..., M**step: one product of the
    coefficient table with the baby steps gives every block, and Horner in
    M**step runs over them.  Only this call's block table is alive."""
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


def _odd_apply(series, op):
    """S(M) = E(M**2) + M O(M**2) for the odd M = [[0, B], [C, 0]], E and O
    the series of S's even and odd coefficients, is

        S(M) = [[E(BC), B O(CB)], [C O(BC), E(CB)]]

    since M**2 = diag(BC, CB); C O(BC) = O(CB) C, so the odd half is one
    evaluation, at CB.  (BC)**i is the even block of M**(2i), so each half
    is cut at n = min(s.order, nilpotency_bound(M)) without error, and BC
    and CB are strictly upper triangular when M is and each index set is
    increasing.  One power stack per block serves every series, each half
    runs blocked Horner at its own step, and a half with no nonzero
    coefficient contributes zero blocks without a product."""
    bc, cb = _strictly_upper(op.b @ op.c), _strictly_upper(op.c @ op.b)
    bound = nilpotency_bound(op)
    halves = []
    for s in series:
        c = real_if_exact(s.coeffs[: min(s.order, bound) + 1])
        even, odd = (h if h.any() else None for h in (c[0::2], c[1::2]))
        halves.append((even, odd, c.dtype))
    count = max((math.isqrt(h.size) for even, odd, _ in halves for h in (even, odd)
                 if h is not None), default=0)
    pbc, pcb = _power_stack(bc, count + 1), _power_stack(cb, count + 1)
    out = []
    for even, odd, dtype in halves:
        ee = eo = oe = oo = None
        if even is not None:
            step = math.isqrt(even.size)
            ee, oo = _blocked_horner(even, pbc, step), _blocked_horner(even, pcb, step)
        if odd is not None:
            at_cb = _blocked_horner(odd, pcb, math.isqrt(odd.size))
            eo, oe = op.b @ at_cb, at_cb @ op.c
        out.append(_from_blocks(op, ee, eo, oe, oo, np.result_type(dtype, op.b, op.c)))
    return out


def _from_blocks(op, ee, eo, oe, oo, dtype):
    """The matrix with blocks [[ee, eo], [oe, oo]] in op's parity order, in
    the original order; a block given as None is zero."""
    d = op.even.size + op.odd.size
    mat = np.zeros((d, d), dtype=dtype)
    for block, rows, cols in ((ee, op.even, op.even), (eo, op.even, op.odd),
                              (oe, op.odd, op.even), (oo, op.odd, op.odd)):
        if block is not None:
            mat[rows[:, None], cols] = block
    return mat


def _kron_sum_apply(series, ks):
    """sum c_i (A x 1 + 1 x B)**i
         = sum_{a < d1, b < d2, a + b <= n} C(a+b, a) c_(a+b) A**a x B**b

    for each series, since the two terms commute; n = min(s.order, d1 + d2 - 2)
    is exact, as A**d1 = B**d2 = 0.  With Pa, Pb the stacked factor powers,
    built once for the whole list, and W a series' weight table, its entries
    are the one product Pa^T W Pb, reindexed."""
    a, b = _strictly_upper(ks.a), _strictly_upper(ks.b)
    d1, d2 = a.shape[0], b.shape[0]
    bound = nilpotency_bound(ks)
    orders = [min(s.order, bound) for s in series]
    top = max(orders, default=0)
    pa = _power_stack(a, min(d1 - 1, top) + 1).reshape(-1, d1 * d1)
    pb = _power_stack(b, min(d2 - 1, top) + 1).reshape(-1, d2 * d2)
    binom = np.ones((len(pa), len(pb)))  # binom[a, b] = C(a+b, a), exact below 2**53
    for r in range(1, len(pa)):
        binom[r] = np.cumsum(binom[r - 1])
    out = []
    for s, n in zip(series, orders):
        p, q = min(d1 - 1, n) + 1, min(d2 - 1, n) + 1
        coeffs = real_if_exact(s.coeffs[: n + 1])
        c = np.zeros(p + q - 1, dtype=coeffs.dtype)
        c[: n + 1] = coeffs
        w = binom[:p, :q] * c[np.add.outer(np.arange(p), np.arange(q))]
        entries = (pa[:p].T @ w @ pb[:q]).reshape(d1, d1, d2, d2)
        out.append(entries.transpose(0, 2, 1, 3).reshape(d1 * d2, d1 * d2))
        del entries  # one factor-product table alive at a time
    return out


def _shift_apply(series, op):
    """sum c_i S**i for the weighted shift S with superdiagonal w:

        S**i[r, r+i] = prod(w[r : r+i]),   so   F(S)[r, r+i] = c_i prod(w[r : r+i]).

    One running product along the rows of a table holding w above the
    diagonal gives every power at once; the coefficients of all the series,
    gathered by offset col - r (upper-triangular Toeplitz matrices), are
    then multiplied by that table in one product.

    When a product leaves double range although the entry need not (at spin
    100, prod(w) alone reaches 200!), the products are run again on w / 2**e
    with the coefficients taken times 2**(e i), 2**e at most the geometric
    mean of |w|.  Both scalings are exact, so every entry keeps the bits of
    c_i prod(w[r : r+i]), and a factor leaves double range only when the
    entry itself does; that is a DomainError."""
    w = op.w
    d = w.size + 1
    orders = [min(s.order, d - 1) for s in series]
    top = max(orders, default=0)
    steps = np.arange(d)
    offsets = steps - steps[:, None]                             # [r, col] = col - r
    unit = _lower_mask(d) if top == d - 1 else _lower_mask(d) | (offsets > top)
    table = np.zeros((len(series), 2 * d - 1), dtype=complex)    # negative offsets: the zero tail
    for i, (s, n) in enumerate(zip(series, orders)):
        table[i, : n + 1] = s.coeffs[: n + 1]
    imag = table.imag.any(axis=1)
    if not imag.any():
        table = np.ascontiguousarray(table.real)
    row = np.empty(d, dtype=w.dtype)
    row[0] = 1
    row[1:] = w
    for scaled in (False, True):
        with np.errstate(over="ignore", invalid="ignore"):       # non-finite is refused below
            if scaled:
                e = int(np.frexp(abs(w))[1].sum()) // max(w.size, 1) - 1
                row[1:] = _ldexp(w, -e)
                table = _ldexp(table, e * np.arange(2 * d - 1))
            # [r, col] = prod(w[r:col]) / 2**(e (col - r)) through every order, 1 elsewhere
            powers = np.where(unit, 1, row).cumprod(axis=1)
            out = np.take(table, offsets, axis=1) * powers   # each out[i] C-contiguous
        if np.isfinite(out).all():
            # at a real w, a real series keeps its float64 result beside a complex one
            demote = ~imag if w.dtype.kind != "c" else np.zeros_like(imag)
            return [np.ascontiguousarray(f.real) if real and f.dtype.kind == "c" else f
                    for f, real in zip(out, demote)]
    raise DomainError("series application at a raising operator: a power or a "
                      "coefficient overflowed double precision")


def _ldexp(a, exponents):
    """a * 2**exponents, exactly (barring over- and underflow), for real or
    complex a."""
    if a.dtype.kind != "c":
        return np.ldexp(a, exponents)
    out = np.empty(np.broadcast(a, exponents).shape, dtype=complex)
    out.real = np.ldexp(a.real, exponents)
    out.imag = np.ldexp(a.imag, exponents)
    return out


def kron(a, b):
    """The Kronecker product of two matrices, as one broadcast outer product:
    the same products as np.kron, without its reshaping overhead."""
    a, b = real_if_exact(a), real_if_exact(b)
    (r1, c1), (r2, c2) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(r1 * r2, c1 * c2)


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
