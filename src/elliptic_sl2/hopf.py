"""Two coproducts induced on the deformed generators, as concrete matrices.

The first transports the primitive (cocommutative) coproduct of the
undeformed generators through the nonlinear map: build J_i x 1 + 1 x J_i on
the product module and deform that.  The second transports the twisted
coproduct of the hyperbolic algebra,

    DX  = X x 1 + 1 x X,
    DY  = Y x e^{hX} + e^{-hX} x Y,
    DJ0 = J0 x e^{hX} + e^{-hX} x J0,

through the tanh -> arcsn change of coordinates, from each factor's (X, Y)
at k = 1.  All exponentials are finite polynomials because X is nilpotent
on every spin module.  `coproduct` builds any of the three by name; the
twisted images come from `_twisted` alone, nested for coassociativity_uh.

Everything is a matrix on the tensor-product module; series orders are set
to 2(j1+j2)+1 so each application is exact, never truncated.

Series whose argument is a primitive sum A x 1 + 1 x B take the factor
route of `liealg.mat_apply_series`, on a `KronSum`: arcsn and the dressing g
at delta1's DJ+, the lift series at delta_uh's DX inside delta2, the outer
series of both re-expressed raising images, the threefold sums of
coassociativity_delta1 and exp(-+h DX) of a two-factor image inside
coassociativity_uh.  The coproduct images themselves are dense, so an
error on the factor route shows up in the relation residuals.

`verify_coproduct` evaluates the structure functions G and F at DX through
its weight parity: basis vector i1 d2 + i2 of the product module has parity
(i1 + i2) mod 2, and DX, an odd series in a raising operator, maps each
parity class to the other.  So DX is split once into a `liealg.OddOperator`
[[0, B], [C, 0]] and G and F are Paterson-Stockmeyer on the half-size
blocks BC and CB.  The size of DX's even blocks, exactly zero for every
coproduct built here, is the report's dx_parity residual, so a stray even
component fails the verdict instead of being dropped.  The relation checks
stay dense commutators on DX, DY and DJ0.

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
    deform_generators,
    lift_generators,
    lift_series,
    relations_on_generators,
    _F_series,
    _G_series,
    _asn,
    _at_half_h,
    _sncndn,
)
from .errors import DomainError
from .liealg import (
    KronSum,
    OddOperator,
    SpinRep,
    frobenius,
    kron,
    mat_apply_series,
    nilpotency_bound,
    worst,
)
from .series import exp_series

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
# k; G and F at DX hold about 2 sqrt(order) matrices of a quarter of that,
# its weight-parity blocks.  A cold `hopf verify --which 1|2 --h 0.8 --k 0.6`
# peaked at 151 MB at dimension 1089 and 313 MB at 1681, and `--which 2` at
# 422 MB at 2025.  Complex h or k doubles the storage.
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


def _pair_order(r1, r2):
    return r1.dim + r2.dim - 1


def _exp_nilpotent(mat):
    """exp(M) for a nilpotent M, exact: the series is cut at M's nilpotency bound."""
    return mat_apply_series(exp_series(nilpotency_bound(mat)), mat)


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
    """Deform the primitive coproduct of the undeformed generators."""
    _check_product_dim(r1, r2)
    order = _pair_order(r1, r2)
    dx, dy = deform_generators(KronSum(r1.Jp, r2.Jp), KronSum(r1.Jm, r2.Jm).dense(), params,
                               order)
    return CoproductTriple(DX=dx, DY=dy, DJ0=KronSum(r1.J0, r2.J0).dense(), params=params,
                           r1=r1, r2=r2, source="delta1")


def _uh_factor(rep, h):
    """(X, Y, J0) of the k = 1 map on one factor, from a gather of its two
    series alone."""
    x, y = deform_generators(rep.raising, rep.Jm, DeformParams(h=h, k=1.0), rep.dim)
    return x, y, rep.J0


def _twisted(h, f1, f2):
    """The twisted images on the product of two factors (X, Y, J0), with DX
    kept as the KronSum of the factor Xs.  A factor's X may itself be such a
    KronSum, an image one level down: the primitive sum takes its dense form
    and the exponential its factor route."""
    (x1, y1, j1), (x2, y2, j2) = f1, f2
    ep2 = _exp_nilpotent(h * x2)
    em1 = _exp_nilpotent(-h * x1)
    dx = KronSum(*(x.dense() if isinstance(x, KronSum) else x for x in (x1, x2)))
    return dx, kron(y1, ep2) + kron(em1, y2), kron(j1, ep2) + kron(em1, j2)


def delta_uh(h, r1, r2):
    """Twisted coproduct of the hyperbolic (k**2 = 1) algebra."""
    _check_product_dim(r1, r2)
    params = DeformParams(h=h, k=1.0)
    dx, dy, dj0 = _twisted(params.h, *(_uh_factor(r, params.h) for r in (r1, r2)))
    return CoproductTriple(DX=dx.dense(), DY=dy, DJ0=dj0, params=params,
                           r1=r1, r2=r2, source="delta_uh")


def delta2(params, r1, r2):
    """Lift the twisted hyperbolic coproduct to modulus k."""
    _check_product_dim(r1, r2)
    dx, dy, dj0 = _twisted(params.h, *(_uh_factor(r, params.h) for r in (r1, r2)))
    dx, dy = lift_generators(dx, dy, params, _pair_order(r1, r2))
    return CoproductTriple(DX=dx, DY=dy, DJ0=dj0, params=params,
                           r1=r1, r2=r2, source="delta2")


# -- re-expressed raising images ----------------------------------------------


def _x_from_factor_sn(source, params, r1, r2):
    """The raising image of delta1 or delta2 computed the long way round:
    each factor's Xhat at k, a per-factor series (sn for delta1, the pullback
    arcsn(sn(.), 1) for delta2), the primitive sum, and an outer series back
    (arcsn at k for delta1, the lift's map for delta2)."""
    k, h = params.k, params.h
    per_factor = []
    for rep in (r1, r2):
        t_x, = _at_half_h(rep.raising, h, (_asn(k, rep.dim), 1))
        sn = _sncndn(k, rep.dim)[0]
        series = sn if source == "delta1" else _asn(1.0, rep.dim).compose(sn)
        per_factor.extend(_at_half_h(t_x, h, (series, 1)))
    order = _pair_order(r1, r2)
    outer = _asn(k, order) if source == "delta1" else lift_series(k, order)[0]
    return _at_half_h(KronSum(*per_factor), h, (outer, 1))[0]


# -- verification ---------------------------------------------------------------


def _swap_factors(a, d1, d2):
    """tau a tau^-1 for the factor swap tau: V1 x V2 -> V2 x V1, as an index
    permutation of a (d1 d2)-square matrix."""
    return a.reshape(d1, d2, d1, d2).transpose(1, 0, 3, 2).reshape(d1 * d2, d1 * d2)


def cocommutativity_gap(ct):
    """Norm of Delta - tau(Delta) per generator, tau the factor swap."""
    d1, d2 = ct.r1.dim, ct.r2.dim
    # build_spin is deterministic in j, so equal factors rebuild ct itself
    swapped = ct if ct.r1.j == ct.r2.j else coproduct(ct.source, ct.params, ct.r2, ct.r1)
    gaps = {}
    for name, a, b in (("X", ct.DX, swapped.DX), ("Y", ct.DY, swapped.DY),
                       ("J0", ct.DJ0, swapped.DJ0)):
        gaps[name] = frobenius(_swap_factors(a, d1, d2) - b)
    gaps["max"] = worst(gaps.values())
    return gaps


def _weight_parity_split(ct):
    """DX as an OddOperator in the weight parity (i1 + i2) mod 2 of the
    product basis vector i1 d2 + i2, and the relative Frobenius norm of the
    even blocks it drops.  DX is a series in odd powers of a raising operator,
    so a coproduct that preserves weight leaves those blocks exactly zero."""
    odd = np.add.outer(np.arange(ct.r1.dim), np.arange(ct.r2.dim)).ravel() % 2 == 1
    op, stray = OddOperator.split(ct.DX, odd)
    return op, stray / max(1.0, frobenius(ct.DX))


def verify_coproduct(ct):
    """Residuals of the defining relations for the coproduct images, the
    relative size of DX's even blocks under the weight parity (dx_parity),
    the re-expressed raising-image consistency check, and the
    cocommutativity gap (a residual for delta1, informational for the
    twisted coproducts)."""
    k, h = ct.params.k, ct.params.h
    order = _pair_order(ct.r1, ct.r2)
    dx, stray = _weight_parity_split(ct)
    g, f = _at_half_h(dx, h, (_G_series(k, order), 1), (_F_series(k, order), 0))
    out = relations_on_generators(ct.DX, ct.DY, ct.DJ0, g, f, ct.params.ksq == 1)
    out["dx_parity"] = stray
    label = {"delta1": "eq48_vs_eq39", "delta2": "eq49_vs_eq45"}.get(ct.source)
    if label:
        alt = _x_from_factor_sn(ct.source, ct.params, ct.r1, ct.r2)
        out[label] = frobenius(alt - ct.DX) / max(1.0, frobenius(ct.DX))
    out["cocommutativity_gap"] = cocommutativity_gap(ct)["max"]
    return out


def coassociativity_uh(h, r1, r2, r3):
    """Gap between (Delta x id) Delta and (id x Delta) Delta for the twisted
    coproduct, per generator, on a three-factor module."""
    _check_product_dim(r1, r2, r3)
    h = complex(h)
    f1, f2, f3 = (_uh_factor(r, h) for r in (r1, r2, r3))
    left = _twisted(h, _twisted(h, f1, f2), f3)     # expand the first slot of Delta
    right = _twisted(h, f1, _twisted(h, f2, f3))    # expand the second slot
    left, right = ({"X": dx.dense(), "Y": dy, "J0": dj0} for dx, dy, dj0 in (left, right))
    gaps = {name: frobenius(left[name] - right[name]) /
            max(1.0, frobenius(left[name])) for name in ("X", "Y", "J0")}
    gaps["max"] = worst(gaps.values())
    return gaps


def coassociativity_delta1(params, r1, r2, r3):
    """Same gap for the deformed primitive coproduct: both association orders
    are functions of the threefold primitive sums, computed independently."""
    _check_product_dim(r1, r2, r3)
    order = r1.dim + r2.dim + r3.dim - 2
    djp12, djm12 = (KronSum(a, b).dense() for a, b in ((r1.Jp, r2.Jp), (r1.Jm, r2.Jm)))
    djp23, djm23 = (KronSum(a, b).dense() for a, b in ((r2.Jp, r3.Jp), (r2.Jm, r3.Jm)))
    lx, ly = deform_generators(KronSum(djp12, r3.Jp), KronSum(djm12, r3.Jm).dense(),
                               params, order)
    rx, ry = deform_generators(KronSum(r1.Jp, djp23), KronSum(r1.Jm, djm23).dense(),
                               params, order)
    gaps = {
        "X": frobenius(lx - rx) / max(1.0, frobenius(lx)),
        "Y": frobenius(ly - ry) / max(1.0, frobenius(ly)),
    }
    gaps["max"] = worst(gaps.values())
    return gaps
