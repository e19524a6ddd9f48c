"""Two coproducts induced on the deformed generators, in normal form.

The first transports the primitive (cocommutative) coproduct of the
undeformed generators through the nonlinear map: build J_i x 1 + 1 x J_i on
the product module and deform that.  The second transports the twisted
coproduct of the hyperbolic algebra,

    DX  = X x 1 + 1 x X,
    DY  = Y x e^{hX} + e^{-hX} x Y,
    DJ0 = J0 x e^{hX} + e^{-hX} x J0,

through the tanh -> arcsn change of coordinates, from each factor's (X, Y)
at k = 1, where (h/2) X = arctanh(v) at v = (h/2) J+, so the twist factors
e^{+-hX} = (1 +- v)/(1 -+ v) are series at J+ too.  `coproduct` builds any
of the three by name; the twisted images come from `_twisted` alone.

Coassociativity is the one-variable identity each coproduct rests on,
checked on coefficients through the nilpotency bound of S1 + S2 + S3:
delta1 is coassociative exactly when the map inverts, and the twisted
coproduct, whose DX is primitive, exactly when e^{+-hX} is group-like.

Series orders are 2(j1+j2)+1, so each application is exact.  Every function
here is a polynomial in the factors' commuting raising operators S_i,
computed in the algebra A of `liealg.RaisingPoly` at a sum of one-factor
parts.  An image keeps DX = (2/h) outer((h/2) base) as base and outer, both
odd, so G and F at DX are G o outer and F o outer at base.

Every image is carried as a normal form over A: a sum of terms
c J0_1**a1 J0_2**a2 L, c in A (a d1 x d2 coefficient array) and L at most
one factor's lowering operator.  DX is an element x, DJ0 = z_1 J0_1 + z_2 J0_2
(z = 1 for delta1, the twist factors otherwise), and DY is sum_i p_i L_i q_i
(d L_i d for delta1, the factors' Y and twists otherwise), reordered by the
identities `rewrite.py` uses,

    J0_i a = a J0_i + E_i a,      [a, L_i] = 2 (d_i a) J0_i + S_i d_i**2 a,

with E_i the degree in S_i and d_i = d/dS_i.  A product in A is a truncated
2-D convolution.  So each relation residual is a short normal form, with no
matrix product: eq13 is the element z_1 E_1 x + z_2 E_2 x - G of A, and eq12
and eq14 have J0 and L terms.  A term's entry at row r and offset a - e_L is
c[a] times factor-wise weights: the superdiagonal products of S**a, the J0
eigenvalues at column r + a and L's weight there.  So every norm is one
contraction over the terms on each factor's (offset, row) grid, and the norm
of an element of A comes from the weights sum_r prod(w[r : r + a])**2 alone.
The residuals, and the norms of the images they are relative to, read the
normal forms alone.

The matrices DX, DY and DJ0 are eager.  delta1's are gathered from the
normal forms, in one gather.  delta_uh's are Kronecker forms of the
factors' matrices, each entry one product of two factor entries, so they
keep the Jordanian triplets' bits; delta2 takes DJ0 and DY_uh from them and
gathers DX and the lift's part DY - DY_uh.  Only the tests check the matrices against their normal
forms, and hold the normal-form residuals against
`deform.relations_on_generators` on the matrices, the dense reference.

Dtypes follow `liealg.real_if_exact`: at real h and real k every coproduct
image, exponential factor and structure function is float64, and a complex h
or k makes them complex128.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .deform import (
    DeformParams,
    lift_series,
    _F_series,
    _G_series,
    _asn,
    _g_inv_of_u,
    _g_of_v,
    _at_half_h,
    _relative,
    _sncndn,
)
from .errors import DomainError
from .liealg import (
    RaisingPoly,
    SpinRep,
    densify,
    frobenius,
    kron,
    mat_apply_series,
    real_if_exact,
    worst,
    _ldexp,
)
from .series import TruncatedSeries, exp_series

__all__ = [
    "CoproductTriple",
    "coproduct",
    "delta1",
    "delta_uh",
    "delta2",
    "verify_coproduct",
    "cocommutativity_gap",
    "coassociativity_uh",
    "coassociativity_delta1",
]


# The largest product module the coproduct layer builds on: dimension 2048,
# which admits j1 = j2 = 22 (dimension 2025).  The images are dense, dim**2
# entries per matrix, float64 at real h and k, and so are the entries the
# relation norms sum.  A cold `hopf verify --which 1|2|uh --h 0.8 --k 0.6`
# took 0.22-0.25 s and 114-124 MB at dimension 1089, 0.32-0.39 s and
# 227-229 MB at 1681, and 0.39-0.47 s and 316-346 MB at 2025, on a 2-vCPU
# VM with one BLAS thread.  Complex h or k doubles the storage.
MAX_PRODUCT_DIM = 2048


def _check_product_dim(*reps):
    dim = math.prod(r.dim for r in reps)
    if dim > MAX_PRODUCT_DIM:
        raise DomainError(f"product module of dimension {dim} is over the cap of "
                          f"{MAX_PRODUCT_DIM}")


@dataclass(frozen=True)
class CoproductTriple:
    """Coproduct images of the generator triple on a two-factor module: the
    matrices DX, DY, DJ0 and their normal forms NX (an element of A), NY
    and NJ0."""

    DX: np.ndarray
    DY: np.ndarray
    DJ0: np.ndarray
    params: DeformParams
    r1: SpinRep
    r2: SpinRep
    source: str  # "delta1" | "delta_uh" | "delta2"
    base: RaisingPoly                # DX = (2/h) outer((h/2) base), a sum in A,
    outer: TruncatedSeries | None    # or DX = base where outer is None (delta_uh)
    NX: np.ndarray                   # DX's element of A, coefficients c[a1, a2]
    NY: np.ndarray                   # normal forms c[kind] (see _KINDS)
    NJ0: np.ndarray


def _pair_order(r1, r2):
    return r1.dim + r2.dim - 1


# -- normal forms ---------------------------------------------------------------
#
# A normal form is a stack c[kind] of coefficient arrays of A on the two
# factors: the operator sum_kind c[kind] J0_1**a1 J0_2**a2 L over the kinds
# (a1, a2, L) of _KINDS, L the factor (0 or 1) of a lowering operator or
# None.  An image has the first five kinds; the products of two J0 arise in
# eq14.

_KINDS = ((0, 0, None), (1, 0, None), (0, 1, None), (0, 0, 0), (0, 0, 1),
          (2, 0, None), (1, 1, None), (0, 2, None))
_A, _J0, _LOW, _J0J0 = 0, (1, 2), (3, 4), ((5, 6), (6, 7))
_IMAGE = 5


def _deriv(c, i):
    """d/dS_i of coefficient arrays c[..., a1, a2]: (a_i + 1) c[a + e_i] at a."""
    out = np.zeros_like(c)
    if i == 0:
        out[..., :-1, :] = c[..., 1:, :] * np.arange(1, c.shape[-2])[:, None]
    else:
        out[..., :-1] = c[..., 1:] * np.arange(1, c.shape[-1])
    return out


def _euler(c, i):
    """E_i c: a_i c[a], the degree in S_i."""
    return c * (np.arange(c.shape[-2])[:, None] if i == 0 else np.arange(c.shape[-1]))


def _is_one(c):
    return c.flat[0] == 1 and not c.ravel()[1:].any()


def _products(p, q):
    """p[n] q[n] in A for two stacks of d1 x d2 coefficient arrays, as
    truncated 2-D convolutions: (p q)[a] = sum_b q[a - b] p[b] is one matrix
    product of a table of q, shifted along S_1 by b1, with a table of p,
    shifted along S_2 by b2.  Both tables are strided views of zero-padded
    copies, b1 and b2 counted down from the end so that every stride is
    positive."""
    p, q = real_if_exact(p), real_if_exact(q)
    (n, d1, d2), dtype = p.shape, np.result_type(p, q)
    pad = np.zeros((n, d1, 2 * d2 - 1), dtype=dtype)
    pad[..., d2 - 1:] = p[:, ::-1]
    s0, s1, s2 = pad.strides     # [n, (d1-1-b1, d2-1-t), s] = p[n, b1, s - t]
    ps = np.ndarray((n, d1, d2, d2), dtype, pad, 0, (s0, s1, s2, s2)).reshape(n, d1 * d2, d2)
    pad = np.zeros((n, 2 * d1 - 1, d2), dtype=dtype)
    pad[:, d1 - 1:] = q[..., ::-1]
    s0, s1, s2 = pad.strides     # [n, a1, (d1-1-b1, d2-1-t)] = q[n, a1 - b1, t]
    return np.ndarray((n, d1, d1 * d2), dtype, pad, 0, (s0, s1, s2)) @ ps


def _sandwich(p, q):
    """The normal form of p[0] L_1 q[0] + p[1] L_2 q[1]: each p L_i q is
    p q L_i - 2 p (d_i q) J0_i - p E_i d_i q, as [q, L_i] = 2 (d_i q) J0_i +
    S_i d_i**2 q and S_i d_i**2 = E_i d_i."""
    dq = np.array([_deriv(q[0], 0), _deriv(q[1], 1)])
    pq, pdq, pedq = _products(np.concatenate([p, p, p]), np.concatenate(
        [q, dq, [_euler(dq[0], 0), _euler(dq[1], 1)]])).reshape(3, 2, *q.shape[1:])
    out = np.empty((_IMAGE,) + q.shape[1:], dtype=pq.dtype)
    out[_A], out[list(_J0)], out[list(_LOW)] = -(pedq[0] + pedq[1]), -2.0 * pdq, pq
    return out


def _residuals(x, ny, nj0, g, f):
    """The normal forms of eq12 [DX, DY] - 2 DJ0, eq13 [DJ0, DX] - G and eq14
    [DJ0, DY] + (F DY + DY F)/2, as one stack [eq, kind], for DX = x,
    DY = sum_i u_i L_i + v_i J0_i + w, DJ0 = sum_k z_k J0_k and G, F in A.
    With [y, L_i] = 2 (d_i y) J0_i + E_i d_i y and [y, J0_i] = -E_i y for y
    in A, and [J0_k, c L_i] = (E_k c - delta_ik c) L_i:

        eq12 = [x, DY] - 2 DJ0,
        eq13 = sum_k z_k E_k x - G,
        eq14 = sum_k (z_k [J0_k, DY] + [z_k, DY] J0_k) + F DY - [F, DY]/2,

    every product of A in one batch, none with an operand that is 0 or 1."""
    out = np.zeros((3, len(_KINDS)) + x.shape, dtype=np.result_type(x, ny, nj0, g, f))
    z = [nj0[j] for j in _J0]
    unit = [_is_one(c) for c in z]
    # the left factors, by index: u_i (0, 1), v_i (2, 3), F (4), z_k (5, 6)
    pool = np.array([ny[_LOW[0]], ny[_LOW[1]], ny[_J0[0]], ny[_J0[1]], f, z[0], z[1]])
    # each [y, DY]: its eq, scale, and the J0_k on its right (None for none)
    brackets = [(0, 1.0, None), (2, -0.5, None)] + [(2, 1.0, k) for k in (0, 1) if not unit[k]]
    y = np.array([x, f] + [z[k] for k in (0, 1) if not unit[k]])
    left, right, at = [], [], []          # at: (eq, kind, scale) of each product
    for i in (0, 1):
        dy = _deriv(y, i)
        left += [i] * (2 * len(y)) + [2 + i] * len(y)
        right += [dy, _euler(dy, i), _euler(y, i)]
        at += [(eq, _J0[i] if k is None else _J0J0[i][k], 2.0 * s) for eq, s, k in brackets]
        at += [(eq, _A if k is None else _J0[k], s) for eq, s, k in brackets]
        at += [(eq, _A if k is None else _J0[k], -s) for eq, s, k in brackets]
    left += [4] * _IMAGE                  # F DY
    right.append(ny)
    at += [(2, kind, 1.0) for kind in range(_IMAGE)]
    out[1, _A] -= g
    for k in (0, 1):
        out[0, _J0[k]] -= 2.0 * z[k]
        j0_dy = _euler(ny, k)
        j0_dy[_LOW[k]] -= ny[_LOW[k]]        # [J0_k, DY]
        if unit[k]:
            out[2, :_IMAGE] += j0_dy
            out[1, _A] += _euler(x, k)
        else:
            left += [5 + k] * (_IMAGE + 1)
            right += [j0_dy, _euler(x, k)[None]]
            at += [(2, kind, 1.0) for kind in range(_IMAGE)] + [(1, _A, 1.0)]
    p, q = pool[left], np.concatenate(right)
    live = np.flatnonzero(p.reshape(len(p), -1).any(axis=1) & q.reshape(len(q), -1).any(axis=1))
    eq, kind, scale = (np.array(column)[live] for column in zip(*at))
    into = np.zeros((out[..., 0, 0].size, len(live)))       # [(eq, kind), product]: its scale
    into[eq * len(_KINDS) + kind, np.arange(len(live))] = scale
    out += (into @ _products(p[live], q[live]).reshape(len(live), -1)).reshape(out.shape)
    return out


# -- entries on the (offset, row) grid -------------------------------------------


class _Grid(NamedTuple):
    """A factor's part of the entries of each kind of term on its (offset,
    row) grid, tables[t, o, r]: the offset is o - 1, that is a - 1 for c[a] L
    and a without, and the entry is p[a, r] = prod(w[r : r + a]) (the weight
    of S**a at [r, r + a], 0 past the module) times, by t, 1, J0's eigenvalue
    m at column r + a, its square, or L's weight l at [r + a, r + a - 1].
    Where the products of w leave double range they are taken at w / 2**e,
    and each coefficient of S**a carries 2**(e a), both exact, as in
    `liealg.densify`."""

    tables: np.ndarray
    e: int


# the table of each kind in each factor: the kind's J0 power there, or 3 for its L
_TABLE = np.array([[3 if kind[2] == f else kind[f] for kind in _KINDS] for f in (0, 1)])
_LOWER = np.array([-1 if kind[2] is None else kind[2] for kind in _KINDS])


def _grid(rep):
    d = rep.dim
    ext = np.zeros((3, 2 * d), dtype=np.result_type(rep.Jp, rep.J0, rep.Jm))
    ext[0, 1:d], ext[1, :d], ext[2, 1:d] = (m.ravel()[n::d + 1][:d - (n != 0)] for m, n in
                                            ((rep.Jp, 1), (rep.J0, 0), (rep.Jm, d)))
    w, m, l = np.ndarray((3, d, d), ext.dtype, ext, 0, (ext.strides[0],) + ext.strides[1:] * 2)
    e = 0
    with np.errstate(over="ignore", invalid="ignore"):
        p = _cumulative(w)
        if not np.isfinite(p).all():
            e = int(np.frexp(abs(ext[0, 1:d]))[1].sum()) // max(d - 1, 1) - 1
            p = _cumulative(_ldexp(w, -e))
    tables = np.zeros((4, d + 1, d), dtype=p.dtype)
    tables[:3, 1:] = p * np.array([np.ones_like(m), m, m * m])
    tables[3, :d] = p * l
    return _Grid(tables, e)


def _cumulative(w):
    """p[a, r] = prod(w[r : r + a]) from the grid's [a, r] = w[r + a - 1]."""
    p = w.copy()
    p[0] = 1
    return np.cumprod(p, axis=0, out=p)


def _grids(r1, r2):
    """The grids of both factors; build_spin is deterministic in j, so equal
    factors share one."""
    g1 = _grid(r1)
    return g1, g1 if r2.j == r1.j else _grid(r2)


def _scaled(c, g1, g2):
    """c with each coefficient of S1**a1 S2**a2 times 2**(e1 a1 + e2 a2)."""
    if not (g1.e or g2.e):
        return c
    return _ldexp(c, np.add.outer(g1.e * np.arange(c.shape[-2]), g2.e * np.arange(c.shape[-1])))


def _placed(nfs, g1, g2):
    """The (b, kind) that occur in normal forms nfs[b, kind], and their
    coefficients on the grid of offsets o = (o1, o2), one past the offset:
    c[a] at a + 1, but at a for L's factor, as L lowers by one."""
    count, kinds, d1, d2 = nfs.shape
    b, kind = np.nonzero(nfs.reshape(count, kinds, -1).any(axis=2))
    c = np.zeros((len(b), d1 + 1, d2 + 1), dtype=nfs.dtype)
    coeffs, lower = _scaled(nfs[b, kind], g1, g2), _LOWER[kind]
    for n, at in ((-1, np.s_[1:, 1:]), (0, np.s_[:-1, 1:]), (1, np.s_[1:, :-1])):
        c[(lower == n,) + at] = coeffs[lower == n]
    return b, kind, c


def _norms(elements, g1, g2):
    """The Frobenius norms of elements of A: sum_a |c[a]|**2 |S1**a1|**2
    |S2**a2|**2, each |S**a| the norm of a row of p."""
    weights = []
    for g in (g1, g2):      # scaled by each row's largest entry, so no square overflows
        p = np.abs(g.tables[0, 1:])
        top = p.max(axis=1, keepdims=True)
        weights.append(top[:, 0] * np.sqrt(np.sum((p / top) ** 2, axis=1)))
    return [frobenius(c) for c in _scaled(np.array(elements), g1, g2) * np.multiply.outer(*weights)]


def _entries(nfs, g1, g2):
    """The entries of normal forms nfs[b, kind] as E[b, o2, r2, r1, c1]:
    factor 1's at [r1, c1] (offset c1 - r1), factor 2's at row r2 and offset
    o2 - 1, each normal form's (kind)s summed in one contraction.  An offset
    past factor 1's grid wraps round to where its weights are 0."""
    b, kind, c = _placed(nfs, g1, g2)
    d1, d2 = g1.tables.shape[2], g2.tables.shape[2]
    steps = np.arange(d1)
    at = (steps - steps[:, None] + 1) % (d1 + 1)                        # [r1, c1]
    with np.errstate(over="ignore", invalid="ignore"):
        part = c[:, at] * g1.tables[_TABLE[0, kind]][:, at, steps[:, None]][..., None]
        part = part.reshape(len(b), d1 * d1, d2 + 1).transpose(2, 0, 1)     # [o2, term, (r1, c1)]
        second = g2.tables[_TABLE[1, kind]].transpose(1, 2, 0)             # [o2, r2, term]
        e = np.empty((len(nfs), d2 + 1, d2, d1 * d1), dtype=np.result_type(part, second))
        ends = np.searchsorted(b, np.arange(len(nfs) + 1))     # b is sorted: each nfs[n] a slice
        for n, (lo, hi) in enumerate(zip(ends[:-1], ends[1:])):
            np.matmul(second[..., lo:hi], part[:, lo:hi], out=e[n])
    return e.reshape(len(nfs), d2 + 1, d2, d1, d1)


def _gather(nfs, g1, g2):
    """The matrices of normal forms nfs[b]: row (c2 - r2 + 1, r2) of their
    entries for [r2, c2], an offset past factor 2's grid wrapping round to
    where its weights are 0."""
    e = _entries(nfs, g1, g2)
    if not np.isfinite(e).all():
        raise DomainError("series application at a raising operator: a power or a "
                          "coefficient overflowed double precision")
    count, d1, d2 = len(nfs), g1.tables.shape[2], g2.tables.shape[2]
    steps = np.arange(d2)
    rows = (steps - steps[:, None] + 1) % (d2 + 1) * d2 + steps[:, None]    # [r2, c2]
    out = e.reshape(count, (d2 + 1) * d2, d1, d1)[:, rows]                # [b, r2, c2, r1, c1]
    return out.transpose(0, 3, 1, 4, 2).reshape(count, d1 * d2, d1 * d2)


# -- the coproducts ---------------------------------------------------------------


def _triple(source, params, r1, r2, base, outer, x, ny, nj0, matrices):
    dx, dy, dj0 = (real_if_exact(m) for m in matrices)
    return CoproductTriple(DX=dx, DY=dy, DJ0=dj0, params=params, r1=r1, r2=r2, source=source,
                           base=base, outer=outer, NX=x, NY=ny, NJ0=nj0)


def _image(x):
    """An element x of A as a normal form."""
    nf = np.zeros((_IMAGE,) + x.shape, dtype=x.dtype)
    nf[_A] = x
    return nf


def _unit(shape):
    one = np.zeros(shape)
    one.flat[0] = 1.0
    return one


def coproduct(source, params, r1, r2):
    """The coproduct images named by source ("delta1", "delta_uh" or
    "delta2"); delta_uh reads h alone from params."""
    if source == "delta1":
        return delta1(params, r1, r2)
    if source == "delta_uh":
        return delta_uh(params.h, r1, r2)
    if source == "delta2":
        return delta2(params, r1, r2)
    raise DomainError(f"unknown coproduct source {source!r}")


def delta1(params, r1, r2):
    """Deform the primitive coproduct of the undeformed generators: DX and the
    dressing d at base = S1 + S2, DY = d L_1 d + d L_2 d, DJ0 = J0_1 + J0_2."""
    _check_product_dim(r1, r2)
    k, order = params.k, _pair_order(r1, r2)
    base, outer = r1.raising.tensor_sum(r2.raising), _asn(k, order)
    x, d = (e.coeffs for e in _at_half_h(base, params.h, (outer, 1), (_g_of_v(k, order), 0)))
    nj0 = np.zeros((_IMAGE,) + d.shape)
    nj0[list(_J0)] = _unit(d.shape)
    ny = _sandwich(np.array([d, d]), np.array([d, d]))
    return _triple("delta1", params, r1, r2, base, outer, x, ny, nj0,
                   _gather(np.array([_image(x), ny, nj0]), *_grids(r1, r2)))


def _twist_series(sign, order):
    """e^(sign h X) at k = 1 as a series in v = (h/2) J+: hX = 2 arctanh(v),
    so it is (1 + sign v)/(1 - sign v) = 1 + 2 sum_(i>0) (sign v)**i."""
    coeffs = 2.0 * float(sign) ** np.arange(order + 1)
    coeffs[0] = 1.0
    return TruncatedSeries(coeffs)


def _uh_factor(rep, h):
    """(X, dressing, e^(hX), e^(-hX)) of the k = 1 map on one factor, as
    elements of its algebra from one call at J+, and the matrices of X,
    Y = d J- d, e^(hX) and e^(-hX), from one gather."""
    order = rep.dim
    elements = _at_half_h(rep.raising, complex(h), (_asn(1.0, order), 1),
                          (_g_of_v(1.0, order), 0), (_twist_series(1, order), 0),
                          (_twist_series(-1, order), 0))
    x, d, ep, em = densify(elements)
    return elements, (x, d @ rep.Jm @ d, ep, em)


def _twisted(r1, r2, h):
    """The twisted coproduct's DX as the tensor sum of the factors' X; DY as
    the terms p L_i q of Y x e^(hX) + e^(-hX) x Y, Y = d L d, stacked as
    (p, q); DJ0 = e^(hX) J0_1 + e^(-hX) J0_2 in normal form; and the factors'
    X matrices, with DY and DJ0 as Kronecker products of the factors'
    matrices, each entry one product of two factor entries, the Jordanian
    triplets' bits."""
    f1 = _uh_factor(r1, h)
    f2 = f1 if r2.j == r1.j else _uh_factor(r2, h)
    ((x1, d1, _, em1), (mx1, y1, _, mem1)), ((x2, d2, ep2, _), (mx2, y2, mep2, _)) = f1, f2
    d1, em1, d2, ep2 = (e.coeffs for e in (d1, em1, d2, ep2))
    one1, one2 = _unit(r1.dim), _unit(r2.dim)
    outer = np.multiply.outer
    p, q = np.array([outer(d1, ep2), outer(em1, d2)]), np.array([outer(d1, one2), outer(one1, d2)])
    nj0 = np.zeros((_IMAGE,) + q.shape[1:], dtype=p.dtype)
    nj0[_J0[0]], nj0[_J0[1]] = outer(one1, ep2), outer(em1, one2)
    dy, dj0 = kron(y1, mep2) + kron(mem1, y2), kron(r1.J0, mep2) + kron(mem1, r2.J0)
    return x1.tensor_sum(x2), (p, q), nj0, ((mx1, mx2), dy, dj0)


def delta_uh(h, r1, r2):
    """Twisted coproduct of the hyperbolic (k**2 = 1) algebra; DX is the
    Kronecker sum of the factors' X."""
    _check_product_dim(r1, r2)
    params = DeformParams(h=h, k=1.0)
    base, (p, q), nj0, ((mx1, mx2), dy, dj0) = _twisted(r1, r2, params.h)
    dx = kron(mx1, np.eye(r2.dim)) + kron(np.eye(r1.dim), mx2)
    return _triple("delta_uh", params, r1, r2, base, None, base.coeffs, _sandwich(p, q), nj0,
                   (dx, dy, dj0))


def delta2(params, r1, r2):
    """Lift the twisted hyperbolic coproduct to modulus k: DX and the dressing
    q at the twisted DX, DY = q DY_uh q, and DJ0 = DJ0_uh.  DX is gathered
    from x, and DY is DY_uh plus the lift's part DY - DY_uh, gathered from
    its normal form; so at k**2 = 1, where the map is exactly x and q
    exactly 1, the matrices are delta_uh's bits."""
    _check_product_dim(r1, r2)
    base, (p, q), nj0, (_, dy, dj0) = _twisted(r1, r2, params.h)
    outer, dress = lift_series(params.k, _pair_order(r1, r2))
    x, dress = (e.coeffs for e in _at_half_h(base, params.h, (outer, 1), (dress, 0)))
    dressed = _products(np.array([dress, dress, *q]), np.array([*p, dress, dress]))
    ny = _sandwich(dressed[:2], dressed[2:])
    dx, lift = _gather(np.array([_image(x), ny - _sandwich(p, q)]), *_grids(r1, r2))
    return _triple("delta2", params, r1, r2, base, outer, x, ny, nj0, (dx, dy + lift, dj0))


# -- re-expressed raising images ----------------------------------------------


def _x_from_factor_sn(ct):
    """The raising image of delta1 or delta2 computed the long way round:
    each factor's Xhat at k, a per-factor series (sn for delta1, the pullback
    arcsn(sn(.), 1) for delta2), the primitive sum, and ct's outer series
    back (arcsn at k for delta1, the lift's map for delta2), all in A."""
    k, h = ct.params.k, ct.params.h

    def factor(rep):
        t_x, = _at_half_h(rep.raising, h, (_asn(k, rep.dim), 1))
        sn = _sncndn(k, rep.dim)[0]
        series = sn if ct.source == "delta1" else _asn(1.0, rep.dim).compose(sn)
        return _at_half_h(t_x, h, (series, 1))[0]

    first = factor(ct.r1)       # equal factors give equal bits: build_spin is deterministic
    second = first if ct.r2.j == ct.r1.j else factor(ct.r2)
    return _at_half_h(first.tensor_sum(second), h, (ct.outer, 1))[0]


# -- verification ---------------------------------------------------------------


def _swap_factors(a, d1, d2):
    """tau a tau^-1 for the factor swap tau: V1 x V2 -> V2 x V1, as an index
    permutation of a (d1 d2)-square matrix."""
    return a.reshape(d1, d2, d1, d2).transpose(1, 0, 3, 2).reshape(d1 * d2, d1 * d2)


def cocommutativity_gap(ct):
    """|tau Delta(x) tau - Delta(x)| / max(1, |Delta(x)|) per generator x, tau
    the factor swap, relative like every other residual."""
    d1, d2 = ct.r1.dim, ct.r2.dim
    # build_spin is deterministic in j, so equal factors rebuild ct itself
    swapped = ct if ct.r1.j == ct.r2.j else coproduct(ct.source, ct.params, ct.r2, ct.r1)
    gaps = {}
    for name, a, b in (("X", ct.DX, swapped.DX), ("Y", ct.DY, swapped.DY),
                       ("J0", ct.DJ0, swapped.DJ0)):
        gaps[name] = frobenius(_swap_factors(a, d1, d2) - b) / max(1.0, frobenius(a))
    gaps["max"] = worst(gaps.values())
    return gaps


def verify_coproduct(ct):
    """Residuals of the defining relations for the coproduct images in normal
    form (G and F at DX as G o outer and F o outer at base, elements of A),
    the re-expressed raising-image check, and the cocommutativity gap (a
    residual for delta1, informational otherwise).  Each residual is the
    Frobenius norm of its normal form over max(1, the norms of its terms)."""
    k, h = ct.params.k, ct.params.h
    g, f = (s(k, _pair_order(ct.r1, ct.r2)) for s in (_G_series, _F_series))
    alt = []
    if ct.outer is not None:     # both compositions from one call, in one variable
        unit = RaisingPoly(ct.outer.coeffs, (np.ones(ct.outer.order),))
        g, f = (TruncatedSeries(x.coeffs) for x in mat_apply_series([g, f], unit))
        alt = [_x_from_factor_sn(ct)]
    g, f, *alt = (e.coeffs for e in _at_half_h(ct.base, h, (g, 1), (f, 0)) + alt)
    grids, x = _grids(ct.r1, ct.r2), ct.NX
    eq12, eq13, eq14 = _residuals(x, ct.NY, ct.NJ0, g, f)
    nx, n13, ng, nf, *n_alt = _norms([x, eq13[_A], g, f] + [c - x for c in alt], *grids)
    images = np.zeros((2,) + eq12.shape, dtype=np.result_type(ct.NY, ct.NJ0))
    images[:, :_IMAGE] = ct.NY, ct.NJ0
    n12, n14, ny, nj0 = (frobenius(e) for e in _entries(np.array([eq12, eq14, *images]), *grids))
    norms = (n12, n13, n14, ny, nj0, ng, nf)
    out = _relative(norms, nx, ct.params.ksq == 1)
    if alt:
        label = "eq48_vs_eq39" if ct.source == "delta1" else "eq49_vs_eq45"
        out[label] = n_alt[0] / max(1.0, nx)
    out["cocommutativity_gap"] = cocommutativity_gap(ct)["max"]
    return out


def _term_sizes(outer, inner, factor=None):
    """outer(inner) (times factor) at the coefficients' absolute values: what
    each coefficient gap of a composition is relative to."""
    size = lambda s: TruncatedSeries(np.abs(s.coeffs))
    terms = size(outer).compose(size(inner))
    return terms if factor is None else terms * size(factor)


def _composition_gap(target, got, terms):
    """The largest coefficient gap of got from target, each over max(1, the
    matching coefficient of terms)."""
    gap = np.abs(got.coeffs - target.coeffs[:got.order + 1]) / np.maximum(1.0, terms.coeffs.real)
    return float(np.max(gap))


def coassociativity_uh(h, r1, r2, r3):
    """The twisted coproduct's coassociativity on r1 x r2 x r3 at every h:
    the group-like gap of (1 +- v)/(1 -+ v) from exp(+-2 arctanh v), the
    larger of the two; +-2 arctanh have the same absolute coefficients, so
    the term sizes are composed once."""
    _check_product_dim(r1, r2, r3)
    n = max(1, r1.dim + r2.dim + r3.dim - 3)     # the bound of S1 + S2 + S3
    exp, inner = exp_series(n), 2.0 * _asn(1.0, n)
    terms = _term_sizes(exp, inner)
    gap = worst(_composition_gap(_twist_series(sign, n), exp.compose(sign * inner), terms)
                for sign in (1, -1))
    return {"group_like": gap, "max": gap}


def coassociativity_delta1(params, r1, r2, r3):
    """delta1's coassociativity on r1 x r2 x r3 at every h: the map's inverse
    at modulus k, sn(arcsn v) = v (X) and g(sn u) (cn dn)**(-1/2)(u) = 1 (Y)."""
    _check_product_dim(r1, r2, r3)
    k, n = params.k, max(1, r1.dim + r2.dim + r3.dim - 3)
    sn, asn, g, g_inv = _sncndn(k, n)[0], _asn(k, n), _g_of_v(k, n), _g_inv_of_u(k, n)
    x = _composition_gap(TruncatedSeries.identity(n), sn.compose(asn), _term_sizes(sn, asn))
    y = _composition_gap(TruncatedSeries.constant(1.0, n), g.compose(sn) * g_inv,
                         _term_sizes(g, sn, g_inv))
    return {"X": x, "Y": y, "max": worst((x, y))}
