"""Two coproducts induced on the deformed generators, as concrete matrices.

The first transports the primitive (cocommutative) coproduct of the
undeformed generators through the nonlinear map: build J_i x 1 + 1 x J_i on
the product module and deform that.  The second transports the twisted
coproduct of the hyperbolic algebra,

    DX  = X x 1 + 1 x X,
    DY  = Y x e^{hX} + e^{-hX} x Y,
    DJ0 = J0 x e^{hX} + e^{-hX} x J0,

through the tanh -> arcsn change of coordinates.  All exponentials are
finite polynomials because X is nilpotent on every spin module.

Everything is a matrix on the tensor-product module; series orders are set
to 2(j1+j2)+1 so each application is exact, never truncated.

Series whose argument is a primitive sum A x 1 + 1 x B take the factor
route of `liealg.mat_apply_series`, on a `KronSum`: arcsn and the dressing g
at delta1's DJ+, the lift series at delta_uh's DX inside delta2, the outer
series of both re-expressed raising images, the threefold sums of
coassociativity_delta1 and exp(-+h DX) in coassociativity_uh.  The coproduct
images themselves are dense, and `verify_coproduct` evaluates the structure
functions at them with dense Paterson-Stockmeyer, so an error on the factor
route shows up in the relation residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .deform import (
    DeformParams,
    build_jordanian_triplet,
    deform_generators,
    lift_generators,
    relations_on_generators,
    _asn,
    _odd_rescaled,
    _sncndn,
)
from .errors import DomainError
from .liealg import (
    KronSum,
    SpinRep,
    coproduct_classical,
    frobenius,
    kron,
    mat_apply_series,
    worst,
)
from .series import arctanh_series, exp_series, tanh_series

__all__ = [
    "CoproductTriple",
    "delta1",
    "delta_uh",
    "delta2",
    "verify_coproduct",
    "cocommutativity_gap",
    "coassociativity_uh",
    "coassociativity_delta1",
]


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

    @property
    def order(self):
        return self.r1.dim + self.r2.dim - 1


def _pair_order(r1, r2):
    return r1.dim + r2.dim - 1


def _exp_nilpotent(mat, order):
    return mat_apply_series(exp_series(order), mat)


def delta1(params, r1, r2):
    """Deform the primitive coproduct of the undeformed generators."""
    _, djm, dj0 = coproduct_classical(r1, r2)
    order = _pair_order(r1, r2)
    dx, dy = deform_generators(KronSum(r1.Jp, r2.Jp), djm, params, order)
    return CoproductTriple(DX=dx, DY=dy, DJ0=dj0, params=params,
                           r1=r1, r2=r2, source="delta1")


def _twisted(t1, t2):
    """The twisted images on the product of two Jordanian triplets, with DX
    kept as the KronSum of the factor Xhats."""
    h = t1.params.h
    ep2 = _exp_nilpotent(h * t2.Xhat, t2.rep.dim)
    em1 = _exp_nilpotent(-h * t1.Xhat, t1.rep.dim)
    dx = KronSum(t1.Xhat, t2.Xhat)
    dy = kron(t1.Yhat, ep2) + kron(em1, t2.Yhat)
    dj0 = kron(t1.J0, ep2) + kron(em1, t2.J0)
    return dx, dy, dj0


def delta_uh(h, r1, r2):
    """Twisted coproduct of the hyperbolic (k**2 = 1) algebra."""
    dx, dy, dj0 = _twisted(*(build_jordanian_triplet(r, h) for r in (r1, r2)))
    return CoproductTriple(DX=dx.dense(), DY=dy, DJ0=dj0, params=DeformParams(h=h, k=1.0),
                           r1=r1, r2=r2, source="delta_uh")


def delta2(params, r1, r2):
    """Lift the twisted hyperbolic coproduct to modulus k."""
    dx, dy, dj0 = _twisted(*(build_jordanian_triplet(r, params.h) for r in (r1, r2)))
    dx, dy = lift_generators(dx, dy, params, _pair_order(r1, r2))
    return CoproductTriple(DX=dx, DY=dy, DJ0=dj0, params=params,
                           r1=r1, r2=r2, source="delta2")


# -- re-expressed raising images ----------------------------------------------


def delta1_x_from_factor_sn(params, r1, r2):
    """The delta1 raising image computed the long way round: apply sn on each
    factor, add primitively, and send the sum back through arcsn."""
    order = _pair_order(r1, r2)
    k, h = params.k, params.h
    per_factor = []
    for rep in (r1, r2):
        t_x, _ = deform_generators(rep.Jp, rep.Jm, params, rep.dim)
        sn, _, _ = _sncndn(k, rep.dim)
        per_factor.append(_odd_rescaled(sn, t_x, h))
    return _odd_rescaled(_asn(k, order), KronSum(*per_factor), h)


def delta2_x_from_factor_sn(params, r1, r2):
    """The delta2 raising image via per-factor arctanh(sn(.)) pullbacks."""
    order = _pair_order(r1, r2)
    k, h = params.k, params.h
    per_factor = []
    for rep in (r1, r2):
        t_x, _ = deform_generators(rep.Jp, rep.Jm, params, rep.dim)
        sn, _, _ = _sncndn(k, rep.dim)
        pulled = arctanh_series(rep.dim).compose(sn)
        per_factor.append(_odd_rescaled(pulled, t_x, h))
    through = _asn(k, order).compose(tanh_series(order))
    return _odd_rescaled(through, KronSum(*per_factor), h)


# -- verification ---------------------------------------------------------------


def _swap_factors(a, d1, d2):
    """tau a tau^-1 for the factor swap tau: V1 x V2 -> V2 x V1, as an index
    permutation of a (d1 d2)-square matrix."""
    return a.reshape(d1, d2, d1, d2).transpose(1, 0, 3, 2).reshape(d1 * d2, d1 * d2)


def _rebuild(ct, r1, r2):
    if ct.source == "delta1":
        return delta1(ct.params, r1, r2)
    if ct.source == "delta_uh":
        return delta_uh(ct.params.h, r1, r2)
    if ct.source == "delta2":
        return delta2(ct.params, r1, r2)
    raise DomainError(f"unknown coproduct source {ct.source!r}")


def cocommutativity_gap(ct):
    """Norm of Delta - tau(Delta) per generator, tau the factor swap."""
    d1, d2 = ct.r1.dim, ct.r2.dim
    # build_spin is deterministic in j, so equal factors rebuild ct itself
    swapped = ct if ct.r1.j == ct.r2.j else _rebuild(ct, ct.r2, ct.r1)
    gaps = {}
    for name, a, b in (("X", ct.DX, swapped.DX), ("Y", ct.DY, swapped.DY),
                       ("J0", ct.DJ0, swapped.DJ0)):
        gaps[name] = frobenius(_swap_factors(a, d1, d2) - b)
    gaps["max"] = worst(gaps.values())
    return gaps


def verify_coproduct(ct):
    """Residuals of the defining relations for the coproduct images, the
    re-expressed raising-image consistency check, and the cocommutativity
    gap (a residual for delta1, informational for the twisted coproducts)."""
    out = relations_on_generators(ct.DX, ct.DY, ct.DJ0, ct.params, ct.order)
    if ct.source == "delta1":
        alt = delta1_x_from_factor_sn(ct.params, ct.r1, ct.r2)
        out["eq48_vs_eq39"] = frobenius(alt - ct.DX) / max(1.0, frobenius(ct.DX))
    elif ct.source == "delta2":
        alt = delta2_x_from_factor_sn(ct.params, ct.r1, ct.r2)
        out["eq49_vs_eq45"] = frobenius(alt - ct.DX) / max(1.0, frobenius(ct.DX))
    out["cocommutativity_gap"] = cocommutativity_gap(ct)["max"]
    return out


def coassociativity_uh(h, r1, r2, r3):
    """Gap between (Delta x id) Delta and (id x Delta) Delta for the twisted
    coproduct, per generator, on a three-factor module."""
    h = complex(h)
    t = [build_jordanian_triplet(r, h) for r in (r1, r2, r3)]
    dx12, dy12, dj012 = _twisted(t[0], t[1])
    dx23, dy23, dj023 = _twisted(t[1], t[2])

    # left association: expand the first slot of Delta
    ep3 = _exp_nilpotent(h * t[2].Xhat, r3.dim)
    em12 = _exp_nilpotent(-h * dx12, _pair_order(r1, r2))
    left = {
        "X": KronSum(dx12.dense(), t[2].Xhat).dense(),
        "Y": kron(dy12, ep3) + kron(em12, t[2].Yhat),
        "J0": kron(dj012, ep3) + kron(em12, r3.J0),
    }
    # right association: expand the second slot
    ep23 = _exp_nilpotent(h * dx23, _pair_order(r2, r3))
    em1 = _exp_nilpotent(-h * t[0].Xhat, r1.dim)
    right = {
        "X": KronSum(t[0].Xhat, dx23.dense()).dense(),
        "Y": kron(t[0].Yhat, ep23) + kron(em1, dy23),
        "J0": kron(r1.J0, ep23) + kron(em1, dj023),
    }
    gaps = {name: frobenius(left[name] - right[name]) /
            max(1.0, frobenius(left[name])) for name in ("X", "Y", "J0")}
    gaps["max"] = worst(gaps.values())
    return gaps


def coassociativity_delta1(params, r1, r2, r3):
    """Same gap for the deformed primitive coproduct: both association orders
    are functions of the threefold primitive sums, computed independently."""
    order = r1.dim + r2.dim + r3.dim - 2
    djp12, djm12, _ = coproduct_classical(r1, r2)
    djp23, djm23, _ = coproduct_classical(r2, r3)
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
