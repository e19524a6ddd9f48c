"""Two coproducts induced on the deformed generators, as concrete matrices.

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
here is a polynomial in the factors' commuting raising operators, computed
in the algebra of `liealg.RaisingPoly` at a sum of one-factor parts, and
made dense, one gather per argument, only where it meets a lowering or J0
matrix or a report.  An image keeps DX = (2/h) outer((h/2) base) as base
and outer, both odd, so G and F at DX are G o outer and F o outer at base.
The relation checks stay dense, so an error in the algebra shows in them.

Dtypes follow `liealg.real_if_exact`: at real h and real k every coproduct
image, exponential factor and structure-function matrix is float64, and a
complex h or k makes them complex128.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deform import (
    DeformParams,
    lift_series,
    relations_on_generators,
    _F_series,
    _G_series,
    _asn,
    _g_inv_of_u,
    _g_of_v,
    _at_half_h,
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
    worst,
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
# which admits j1 = j2 = 22 (dimension 2025).  The images and the relation
# checks on them are dense, dim**2 entries per matrix, float64 at real h and
# k.  A cold `hopf verify --which 1|2 --h 0.8 --k 0.6` took 145 MB and 0.8 s
# at dimension 1089, 296 MB and 2.1 s at 1681, and 414 MB and 3.6 s at 2025.
# Complex h or k doubles the storage.
MAX_PRODUCT_DIM = 2048


def _check_product_dim(*reps):
    dim = math.prod(r.dim for r in reps)
    if dim > MAX_PRODUCT_DIM:
        raise DomainError(f"product module of dimension {dim} is over the cap of "
                          f"{MAX_PRODUCT_DIM}")


@dataclass(frozen=True)
class CoproductTriple:
    """Coproduct images of the generator triple on a two-factor module."""

    DX: np.ndarray
    DY: np.ndarray
    DJ0: np.ndarray
    params: DeformParams
    r1: SpinRep
    r2: SpinRep
    source: str  # "delta1" | "delta_uh" | "delta2"
    base: RaisingPoly                # DX = (2/h) outer((h/2) base), a sum in A,
    outer: TruncatedSeries | None    # or DX = base where outer is None (delta_uh)


def _pair_order(r1, r2):
    return r1.dim + r2.dim - 1


def _kron_sum(a, b):
    """The dense Kronecker sum a x 1 + 1 x b."""
    return kron(a, np.eye(b.shape[0])) + kron(np.eye(a.shape[0]), b)


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


def _mapped(x, lowering, h, raising, dressing):
    """The matrices of (2/h) raising((h/2) x) for an element x and of
    d lowering d at d = dressing((h/2) x); one gather."""
    matrix, d = densify(_at_half_h(x, h, (raising, 1), (dressing, 0)))
    return matrix, d @ lowering @ d


def delta1(params, r1, r2):
    """Deform the primitive coproduct of the undeformed generators."""
    _check_product_dim(r1, r2)
    k, order = params.k, _pair_order(r1, r2)
    base, outer = r1.raising.tensor_sum(r2.raising), _asn(k, order)
    dx, dy = _mapped(base, _kron_sum(r1.Jm, r2.Jm), params.h, outer, _g_of_v(k, order))
    return CoproductTriple(DX=dx, DY=dy, DJ0=_kron_sum(r1.J0, r2.J0), params=params,
                           r1=r1, r2=r2, source="delta1", base=base, outer=outer)


def _twist_series(sign, order):
    """e^(sign h X) at k = 1 as a series in v = (h/2) J+: hX = 2 arctanh(v),
    so it is (1 + sign v)/(1 - sign v) = 1 + 2 sum_(i>0) (sign v)**i."""
    coeffs = 2.0 * float(sign) ** np.arange(order + 1)
    coeffs[0] = 1.0
    return TruncatedSeries(coeffs)


def _uh_factor(rep, h):
    """(X, its matrix, Y, J0, e^(hX), e^(-hX)) of the k = 1 map on one
    factor, X also as an element of A; one gather of series at J+."""
    h, order = complex(h), rep.dim
    x, d, ep, em = _at_half_h(rep.raising, h, (_asn(1.0, order), 1), (_g_of_v(1.0, order), 0),
                              (_twist_series(1, order), 0), (_twist_series(-1, order), 0))
    matrix, d, ep, em = densify([x, d, ep, em])
    return x, matrix, d @ rep.Jm @ d, rep.J0, ep, em


def _twisted(f1, f2):
    """(DX, DY, DJ0) on the product of two factors as `_uh_factor` gives
    them, DX the tensor sum of the factors' X."""
    (x1, _, y1, j1, _, em1), (x2, _, y2, j2, ep2, _) = f1, f2
    return x1.tensor_sum(x2), kron(y1, ep2) + kron(em1, y2), kron(j1, ep2) + kron(em1, j2)


def delta_uh(h, r1, r2):
    """Twisted coproduct of the hyperbolic (k**2 = 1) algebra."""
    _check_product_dim(r1, r2)
    params = DeformParams(h=h, k=1.0)
    f1, f2 = (_uh_factor(r, params.h) for r in (r1, r2))
    base, dy, dj0 = _twisted(f1, f2)
    return CoproductTriple(DX=_kron_sum(f1[1], f2[1]), DY=dy, DJ0=dj0, params=params,
                           r1=r1, r2=r2, source="delta_uh", base=base, outer=None)


def delta2(params, r1, r2):
    """Lift the twisted hyperbolic coproduct to modulus k."""
    _check_product_dim(r1, r2)
    base, dy, dj0 = _twisted(*(_uh_factor(r, params.h) for r in (r1, r2)))
    outer, q = lift_series(params.k, _pair_order(r1, r2))
    dx, dy = _mapped(base, dy, params.h, outer, q)
    return CoproductTriple(DX=dx, DY=dy, DJ0=dj0, params=params,
                           r1=r1, r2=r2, source="delta2", base=base, outer=outer)


# -- re-expressed raising images ----------------------------------------------


def _x_from_factor_sn(ct):
    """The raising image of delta1 or delta2 computed the long way round:
    each factor's Xhat at k, a per-factor series (sn for delta1, the pullback
    arcsn(sn(.), 1) for delta2), the primitive sum, and ct's outer series
    back (arcsn at k for delta1, the lift's map for delta2), all in A."""
    k, h = ct.params.k, ct.params.h
    per_factor = []
    for rep in (ct.r1, ct.r2):
        t_x, = _at_half_h(rep.raising, h, (_asn(k, rep.dim), 1))
        sn = _sncndn(k, rep.dim)[0]
        series = sn if ct.source == "delta1" else _asn(1.0, rep.dim).compose(sn)
        per_factor.extend(_at_half_h(t_x, h, (series, 1)))
    return _at_half_h(per_factor[0].tensor_sum(per_factor[1]), h, (ct.outer, 1))[0]


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
    """Residuals of the defining relations for the coproduct images (G and F
    at DX as G o outer and F o outer at base), the re-expressed raising-image
    check, and the cocommutativity gap (a residual for delta1, informational
    otherwise)."""
    k, h = ct.params.k, ct.params.h
    g, f = (s(k, _pair_order(ct.r1, ct.r2)) for s in (_G_series, _F_series))
    alt = []
    if ct.outer is not None:     # both compositions from one call, in one variable
        unit = RaisingPoly(ct.outer.coeffs, (np.ones(ct.outer.order),))
        g, f = (TruncatedSeries(x.coeffs) for x in mat_apply_series([g, f], unit))
        alt = [_x_from_factor_sn(ct)]
    g, f, *alt = densify(_at_half_h(ct.base, h, (g, 1), (f, 0)) + alt)
    out = relations_on_generators(ct.DX, ct.DY, ct.DJ0, g, f, ct.params.ksq == 1)
    if alt:
        label = "eq48_vs_eq39" if ct.source == "delta1" else "eq49_vs_eq45"
        out[label] = frobenius(alt[0] - ct.DX) / max(1.0, frobenius(ct.DX))
    out["cocommutativity_gap"] = cocommutativity_gap(ct)["max"]
    return out


def _composition_gap(target, outer, inner, factor=None):
    """The largest coefficient gap of outer(inner) (times factor) from target,
    each over max(1, the same product at the coefficients' absolute values)."""
    size = lambda s: TruncatedSeries(np.abs(s.coeffs))
    got, terms = outer.compose(inner), size(outer).compose(size(inner))
    if factor is not None:
        got, terms = got * factor, terms * size(factor)
    gap = np.abs(got.coeffs - target.coeffs[:got.order + 1]) / np.maximum(1.0, terms.coeffs.real)
    return float(np.max(gap))


def coassociativity_uh(h, r1, r2, r3):
    """The twisted coproduct's coassociativity on r1 x r2 x r3 at every h:
    the group-like gap of (1 +- v)/(1 -+ v) from exp(+-2 arctanh v), the
    larger of the two."""
    _check_product_dim(r1, r2, r3)
    n = max(1, r1.dim + r2.dim + r3.dim - 3)     # the bound of S1 + S2 + S3
    gap = worst(_composition_gap(_twist_series(sign, n), exp_series(n), 2.0 * sign * _asn(1.0, n))
                for sign in (1, -1))
    return {"group_like": gap, "max": gap}


def coassociativity_delta1(params, r1, r2, r3):
    """delta1's coassociativity on r1 x r2 x r3 at every h: the map's inverse
    at modulus k, sn(arcsn v) = v (X) and g(sn u) (cn dn)**(-1/2)(u) = 1 (Y)."""
    _check_product_dim(r1, r2, r3)
    k, n = params.k, max(1, r1.dim + r2.dim + r3.dim - 3)
    sn = _sncndn(k, n)[0]
    x = _composition_gap(TruncatedSeries.identity(n), sn, _asn(k, n))
    y = _composition_gap(TruncatedSeries.constant(1.0, n), _g_of_v(k, n), sn, _g_inv_of_u(k, n))
    return {"X": x, "Y": y, "max": worst((x, y))}
