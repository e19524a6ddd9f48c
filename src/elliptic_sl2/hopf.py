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
of the three by name, the one build path: a source computes only its normal
forms (`_forms`), the twisted ones from `_twisted` alone.

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
and eq14 have J0 and L terms.

A term's entry at row r and offset a - e_L is c[a] times one weight per
factor (`_grid`): the superdiagonal products of S**a, the J0 eigenvalues
at column r + a and L's weight there.  `liealg`'s one gather, that of the
elements of A too, contracts them over the terms on the last factor's
(offset, row) grid, so each norm is one contraction, and an element's needs
only the weights sum_r prod(w[r : r + a])**2.  The residuals and the norms
they are relative to read the normal forms alone, and so does the
cocommutativity gap: the factor swap transposes each coefficient array and
swaps J0_1 <-> J0_2 and L_1 <-> L_2 (`_TAU`).  The eager matrices DX, DY
and DJ0 of every source are one gather of NX, NY and NJ0.  Only the tests
check the residuals against `deform.relations_on_generators` on them.

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
    frobenius,
    real_if_exact,
    worst,
    _entries,
    _matrices,
    _norms,
    _weights,
)
from .series import TruncatedSeries, exp_series, power_table

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
# took 0.19-0.22 s and 81-83 MB at dimension 1089, 0.24-0.28 s and
# 145-146 MB at 1681, and 0.29-0.38 s and 195 MB at 2025, on a 2-vCPU VM
# with one BLAS thread.  Complex h or k doubles the storage.
MAX_PRODUCT_DIM = 2048


def _check_product_dim(*reps):
    dim = math.prod(r.dim for r in reps)
    if dim > MAX_PRODUCT_DIM:
        raise DomainError(f"product module of dimension {dim} is over the cap of "
                          f"{MAX_PRODUCT_DIM}")


@dataclass(frozen=True)
class CoproductTriple:
    """Coproduct images of the generator triple on a two-factor module: the
    normal forms NX (an element of A), NY and NJ0, their matrices DX, DY and
    DJ0, and the factors' grids, which gathered them and give the norms."""

    DX: np.ndarray
    DY: np.ndarray
    DJ0: np.ndarray
    params: DeformParams
    r1: SpinRep
    r2: SpinRep
    source: str  # "delta1" | "delta_uh" | "delta2"
    base: RaisingPoly                # DX = (2/h) outer((h/2) base), a sum in A, or
                                     # DX = base where series.outer is None (delta_uh)
    NX: np.ndarray                   # DX's element of A, coefficients c[a1, a2]
    NY: np.ndarray                   # normal forms c[kind] (see _KINDS)
    NJ0: np.ndarray
    grids: tuple                     # each factor's gather tables (`_grid`)
    series: FormSeries               # what the forms were made from (`_series`)


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


# -- the gather -----------------------------------------------------------------


# each kind's (table, 1 where its L lowers) in each factor: its J0 power there, or 3 for its L
_AT = np.array([[(3, 1) if kind[2] == f else (kind[f], 0) for kind in _KINDS] for f in (0, 1)])


def _grid(rep):
    """A factor's tables [t, r, c] and their rescale: S**a's weights P[r, c]
    (`liealg._weights`) times 1, J0's eigenvalue m at column c or its square,
    and, as L lowers by one, P[r, c + 1] times L's weight at [c + 1, c]."""
    p, e = _weights(np.diagonal(rep.Jp, 1))
    m = np.diagonal(rep.J0)
    tables = np.zeros((4, *p.shape), dtype=p.dtype)
    tables[:3] = p * np.array([np.ones_like(m), m, m * m])[:, None] + 0.0   # no -0 where m < 0
    tables[3, :, :-1] = p[:, 1:] * np.diagonal(rep.Jm, -1)
    return tables, e


def _grids(r1, r2):
    """The grids of both factors; build_spin is deterministic in j, so equal
    factors share one."""
    g1 = _grid(r1)
    return g1, g1 if r2.j == r1.j else _grid(r2)


def _gather(nfs, g1, g2):
    """The matrices of normal forms nfs[b] (`liealg._matrices`)."""
    return _matrices(nfs, _AT, g1, g2)


# -- the coproducts ---------------------------------------------------------------


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
    "delta2"): the source's normal forms, and their matrices from one gather;
    delta_uh reads h alone from params."""
    if source not in ("delta1", "delta_uh", "delta2"):
        raise DomainError(f"unknown coproduct source {source!r}")
    _check_product_dim(r1, r2)
    if source == "delta_uh":
        params = DeformParams(h=params.h, k=1.0)
    series = _series(source, params, r1, r2)
    base, x, ny, nj0 = _forms(source, params, r1, r2, series)
    grids = _grids(r1, r2)
    dx, dy, dj0 = (real_if_exact(m) for m in _gather(np.array([_image(x), ny, nj0]), *grids))
    return CoproductTriple(DX=dx, DY=dy, DJ0=dj0, params=params, r1=r1, r2=r2, source=source,
                           base=base, NX=x, NY=ny, NJ0=nj0, grids=grids, series=series)


def delta1(params, r1, r2):
    """Deform the primitive coproduct of the undeformed generators."""
    return coproduct("delta1", params, r1, r2)


def delta_uh(h, r1, r2):
    """Twisted coproduct of the hyperbolic (k**2 = 1) algebra."""
    return coproduct("delta_uh", DeformParams(h=h, k=1.0), r1, r2)


def delta2(params, r1, r2):
    """Lift the twisted hyperbolic coproduct to modulus k."""
    return coproduct("delta2", params, r1, r2)


class FormSeries(NamedTuple):
    """What a source's forms are made from (`_series`): each factor's
    `_uh_factor`, none for delta1, and the outer map and dressing at the
    pair order, delta1's or delta2's lift, none for delta_uh.  The forms on
    the swapped factors take the factors reversed."""
    factors: tuple
    outer: TruncatedSeries | None
    dress: TruncatedSeries | None


def _series(source, params, r1, r2):
    """The series a source's forms are made from, each deterministic in its
    arguments: delta1's map and dressing at the pair order; the twisted
    coproduct's per-factor (X, dressing, e^(hX), e^(-hX)) (`_uh_factor`,
    one call for equal factors, as build_spin is deterministic in j); and
    for delta2 besides, the lift's map and dressing (`lift_series`)."""
    order = _pair_order(r1, r2)
    if source == "delta1":
        return FormSeries((), _asn(params.k, order), _g_of_v(params.k, order))
    f1 = _uh_factor(r1, params.h)
    f2 = f1 if r2.j == r1.j else _uh_factor(r2, params.h)
    lift = lift_series(params.k, order) if source == "delta2" else (None, None)
    return FormSeries((f1, f2), *lift)


def _forms(source, params, r1, r2, series):
    """The normal forms (base, NX, NY, NJ0) of a source from its `_series`,
    all that it computes.  delta1: DX and the dressing d at base = S1 + S2,
    DY = d L_1 d + d L_2 d and DJ0 = J0_1 + J0_2.  delta_uh: the twisted
    coproduct (`_twisted`), DX its base.  delta2: DX and the dressing q at
    the twisted DX, DY = q DY_uh q and DJ0 = DJ0_uh; at k**2 = 1 the lift's
    map is exactly x and q exactly 1, so these are delta_uh's bits."""
    if source == "delta1":
        base = r1.raising.tensor_sum(r2.raising)
        x, d = (e.coeffs for e in _at_half_h(base, params.h, (series.outer, 1), (series.dress, 0)))
        nj0 = np.zeros((_IMAGE,) + d.shape)
        nj0[list(_J0)] = _unit(d.shape)
        return base, x, _sandwich(np.array([d, d]), np.array([d, d])), nj0
    base, (p, q), nj0 = _twisted(*series.factors)
    if source == "delta_uh":
        return base, base.coeffs, _sandwich(p, q), nj0
    x, dress = (e.coeffs for e in _at_half_h(base, params.h, (series.outer, 1), (series.dress, 0)))
    dressed = _products(np.array([dress, dress, *q]), np.array([*p, dress, dress]))
    return base, x, _sandwich(dressed[:2], dressed[2:]), nj0


def _twist_series(sign, order):
    """e^(sign h X) at k = 1 as a series in v = (h/2) J+: hX = 2 arctanh(v),
    so it is (1 + sign v)/(1 - sign v) = 1 + 2 sum_(i>0) (sign v)**i."""
    coeffs = 2.0 * float(sign) ** np.arange(order + 1)
    coeffs[0] = 1.0
    return TruncatedSeries(coeffs)


def _uh_factor(rep, h):
    """(X, dressing, e^(hX), e^(-hX)) of the k = 1 map on one factor, as
    elements of its algebra from one call at J+."""
    order = rep.dim
    return _at_half_h(rep.raising, complex(h), (_asn(1.0, order), 1), (_g_of_v(1.0, order), 0),
                      (_twist_series(1, order), 0), (_twist_series(-1, order), 0))


def _twisted(f1, f2):
    """The twisted coproduct from its factors' `_uh_factor`: DX as the tensor
    sum of the factors' X; DY as the terms p L_i q of Y x e^(hX) +
    e^(-hX) x Y, Y = d L d, stacked as (p, q); and DJ0 = e^(hX) J0_1 +
    e^(-hX) J0_2 in normal form."""
    (x1, d1, _, em1), (x2, d2, ep2, _) = f1, f2
    d1, em1, d2, ep2 = (e.coeffs for e in (d1, em1, d2, ep2))
    one1, one2 = _unit(d1.size), _unit(d2.size)
    outer = np.multiply.outer
    p, q = np.array([outer(d1, ep2), outer(em1, d2)]), np.array([outer(d1, one2), outer(one1, d2)])
    nj0 = np.zeros((_IMAGE,) + q.shape[1:], dtype=p.dtype)
    nj0[_J0[0]], nj0[_J0[1]] = outer(one1, ep2), outer(em1, one2)
    return x1.tensor_sum(x2), (p, q), nj0


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
    return _at_half_h(first.tensor_sum(second), h, (ct.series.outer, 1))[0]


# -- verification ---------------------------------------------------------------


# tau, the factor swap, on the kinds of an image: J0_1 <-> J0_2 and L_1 <-> L_2
_TAU = [_KINDS.index((a2, a1, None if low is None else 1 - low)) for a1, a2, low in _KINDS[:_IMAGE]]


def _swap_gaps(ct):
    """Delta(x) - tau Delta'(x) tau^-1 on ct's factors for x = X, Y, J0,
    Delta' ct's coproduct on the swapped factors, whose forms the swap tau
    takes to ct's (_TAU).  Equal factors reuse ct's own forms (build_spin is
    deterministic in j); unequal ones build the swapped forms, no gather,
    from ct's series with the factors reversed."""
    if ct.r1.j == ct.r2.j:
        x, ny, nj0 = ct.NX, ct.NY, ct.NJ0
    else:
        series = ct.series._replace(factors=ct.series.factors[::-1])
        _, x, ny, nj0 = _forms(ct.source, ct.params, ct.r2, ct.r1, series)
    return ct.NX - x.T, ct.NY - ny[_TAU].swapaxes(1, 2), ct.NJ0 - nj0[_TAU].swapaxes(1, 2)


def _cocommutativity(norms, gaps):
    """Each generator's swap gap over max(1, its image's norm), and the max."""
    out = {name: gap / max(1.0, norm) for name, norm, gap in zip(("X", "Y", "J0"), norms, gaps)}
    out["max"] = worst(out.values())
    return out


def cocommutativity_gap(ct):
    """|Delta(x) - tau Delta(x) tau^-1| / max(1, |Delta(x)|) per generator x,
    tau the factor swap, relative like every other residual and taken on the
    normal forms (`_swap_gaps`)."""
    gx, gy, gj0 = _swap_gaps(ct)
    nx, ngx = _norms([ct.NX, gx], *ct.grids)
    ny, nj0, ngy, ngj0 = (frobenius(e) for e in _entries(np.array([ct.NY, ct.NJ0, gy, gj0]), _AT,
                                                         *ct.grids))
    return _cocommutativity((nx, ny, nj0), (ngx, ngy, ngj0))


def verify_coproduct(ct):
    """Residuals of the defining relations for the coproduct images in normal
    form (G and F at DX as G o outer and F o outer at base, elements of A),
    the re-expressed raising-image check, and the cocommutativity gap (a
    residual for delta1, informational otherwise).  Each residual is the
    Frobenius norm of its normal form over max(1, the norms of its terms),
    all from one `_norms` and one `_entries` call on ct's grids."""
    k, h = ct.params.k, ct.params.h
    g, f = (s(k, _pair_order(ct.r1, ct.r2)) for s in (_G_series, _F_series))
    alt = []
    outer = ct.series.outer
    if outer is not None:     # both compositions from one power table of outer
        powers = power_table(outer.coeffs)
        g, f = (TruncatedSeries(s.coeffs @ powers) for s in (g, f))
        alt = [_x_from_factor_sn(ct)]
    g, f, *alt = (e.coeffs for e in _at_half_h(ct.base, h, (g, 1), (f, 0)) + alt)
    x = ct.NX
    eq12, eq13, eq14 = _residuals(x, ct.NY, ct.NJ0, g, f)
    gx, gy, gj0 = _swap_gaps(ct)
    nx, n13, ng, nf, ngx, *n_alt = _norms([x, eq13[_A], g, f, gx] + [c - x for c in alt],
                                          *ct.grids)
    images = np.zeros((4,) + eq12.shape, dtype=np.result_type(ct.NY, ct.NJ0))
    images[:, :_IMAGE] = ct.NY, ct.NJ0, gy, gj0
    n12, n14, ny, nj0, ngy, ngj0 = (frobenius(e) for e in _entries(np.array([eq12, eq14, *images]),
                                                                   _AT, *ct.grids))
    norms = (n12, n13, n14, ny, nj0, ng, nf)
    out = _relative(norms, nx, ct.params.ksq == 1)
    if alt:
        label = "eq48_vs_eq39" if ct.source == "delta1" else "eq49_vs_eq45"
        out[label] = n_alt[0] / max(1.0, nx)
    out["cocommutativity_gap"] = _cocommutativity((nx, ny, nj0), (ngx, ngy, ngj0))["max"]
    return out


def _term_sizes(outer, inner, factor=None):
    """outer(inner) (times factor) at the coefficients' absolute values: what
    each coefficient gap of a composition is relative to."""
    terms = np.abs(outer.coeffs) @ power_table(np.abs(inner.coeffs))
    return terms if factor is None else np.convolve(terms, np.abs(factor.coeffs))[:terms.size]


def _composition_gap(target, got, terms):
    """The largest coefficient gap of got from target, each over max(1, the
    matching coefficient of terms)."""
    gap = np.abs(got.coeffs - target.coeffs[:got.order + 1]) / np.maximum(1.0, terms)
    return float(np.max(gap))


def coassociativity_uh(h, r1, r2, r3):
    """The twisted coproduct's coassociativity on r1 x r2 x r3 at every h:
    the group-like gap of (1 +- v)/(1 -+ v) from exp(+-2 arctanh v), the
    larger of the two.  The powers of -2 arctanh are those of 2 arctanh times
    (-1)**r, exactly, and the two have the same absolute coefficients, so one
    power table gives both compositions and one the term sizes."""
    _check_product_dim(r1, r2, r3)
    n = max(1, r1.dim + r2.dim + r3.dim - 3)     # the bound of S1 + S2 + S3
    exp, inner = exp_series(n), 2.0 * _asn(1.0, n)
    powers, terms = power_table(inner.coeffs), _term_sizes(exp, inner)
    gap = worst(_composition_gap(_twist_series(sign, n), TruncatedSeries(c @ powers), terms)
                for sign, c in ((1, exp.coeffs), (-1, exp.coeffs * (-1.0) ** np.arange(n + 1))))
    return {"group_like": gap, "max": gap}


def coassociativity_delta1(params, r1, r2, r3):
    """delta1's coassociativity on r1 x r2 x r3 at every h: the map's inverse
    at modulus k, sn(arcsn v) = v (X) and g(sn u) (cn dn)**(-1/2)(u) = 1 (Y),
    one power table for each of arcsn, sn and their absolute values."""
    _check_product_dim(r1, r2, r3)
    k, n = params.k, max(1, r1.dim + r2.dim + r3.dim - 3)
    sn, asn, g, g_inv = _sncndn(k, n)[0], _asn(k, n), _g_of_v(k, n), _g_inv_of_u(k, n)
    x = _composition_gap(TruncatedSeries.identity(n), sn.compose(asn), _term_sizes(sn, asn))
    y = _composition_gap(TruncatedSeries.constant(1.0, n), g.compose(sn) * g_inv,
                         _term_sizes(g, sn, g_inv))
    return {"X": x, "Y": y, "max": worst((x, y))}
