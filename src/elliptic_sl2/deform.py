"""The two-parameter deformation of sl(2) on finite spin modules.

The raising generator is fed through the inverse sine amplitude,

    (h/2) Xhat = arcsn((h/2) J+, k),      Yhat = g(J+) J- g(J+),
    g(v) = ((1 - v**2)(1 - k**2 v**2)) ** (1/4)  at  v = (h/2) J+,

and everything downstream (defining relations, Casimir forms, the Jordanian
k**2 = 1 reduction and its lift) is built and machine-checked on matrices.

Every map of the shape (2/h) F((h/2) M) with F odd is realized as

    sum_i  c_{2i+1} (h/2)**(2i) M**(2i+1),

so h = 0 is an ordinary point of every formula, never a division.

Triplets produced by the period-shift automorphisms carry their offset as
exact integer bookkeeping (multiples of i*pi/(h) for the hyperbolic family,
integer combinations of K and i*K' scaled by 2/h for the elliptic family).
Relation checks on shifted triplets use the half-period parity of the
structure functions instead of evaluating anything at a shifted matrix
argument, so no pole is ever approached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .elliptic import asn_series, complete_K, complete_Kprime, sn_cn_dn_series
from .errors import DomainError
from .liealg import KronSum, SpinRep, commutator, frobenius, mat_apply_series
from .series import (
    TruncatedSeries,
    arctanh_series,
    cosh_series,
    sinh_series,
    tanh_series,
)

__all__ = [
    "DeformParams",
    "DeformedTriplet",
    "build_elliptic_triplet",
    "build_jordanian_triplet",
    "lift_uh_to_elliptic",
    "invert_map",
    "G_of",
    "f_of",
    "f_matrices",
    "casimir",
    "relation_residuals",
    "deform_generators",
    "lift_generators",
    "relations_on_generators",
    "dressing_quartic_crosscheck",
]


@dataclass(frozen=True)
class DeformParams:
    """Deformation scale h and elliptic modulus k (both may be complex)."""

    h: complex
    k: complex

    def __post_init__(self):
        object.__setattr__(self, "h", complex(self.h))
        object.__setattr__(self, "k", complex(self.k))

    @property
    def ksq(self):
        return self.k * self.k


@dataclass(frozen=True)
class DeformedTriplet:
    """Deformed generators on one spin module, plus shift bookkeeping.

    shift_q counts accumulated u-offsets of i*pi/2 (hyperbolic half shifts);
    (shift_a, shift_b) count u-offsets a*K + b*i*K' (elliptic shifts).  The
    stored Xhat already contains the offset times the identity.
    """

    Xhat: np.ndarray
    Yhat: np.ndarray
    J0: np.ndarray
    params: DeformParams
    rep: SpinRep
    provenance: str  # "direct" | "uh" | "lifted" | "auto"
    shift_q: int = 0
    shift_a: int = 0
    shift_b: int = 0

    @property
    def order(self):
        return self.rep.dim

    def is_shifted(self):
        return bool(self.shift_q or self.shift_a or self.shift_b)


# -- series plumbing ---------------------------------------------------------


@lru_cache(maxsize=None)
def _sncndn(k, order):
    return sn_cn_dn_series(k, order)


@lru_cache(maxsize=None)
def _asn(k, order):
    return asn_series(k, order)


@lru_cache(maxsize=None)
def _g_of_v(k, order):
    """g(v) = ((1-v^2)(1-k^2 v^2))**(1/4) as a series in v."""
    u = TruncatedSeries.identity(order)
    prod = (1.0 - u * u) * (1.0 - (u * u) * (k * k))
    return prod.pow_rational(0.25)


@lru_cache(maxsize=None)
def _g_inv_of_u(k, order):
    """(cn dn)**(-1/2) as a series in u; dresses Yhat back down to J-."""
    _, cn, dn = _sncndn(k, order)
    return (cn * dn).pow_rational(-0.5)


@lru_cache(maxsize=None)
def _G_series(k, order):
    """sn/(cn dn): the structure function of [J0, Xhat] before rescaling."""
    sn, cn, dn = _sncndn(k, order)
    return sn * (cn * dn).pow_rational(-1)


@lru_cache(maxsize=None)
def _F_series(k, order):
    """(1 - k^2 sn^4)/(cn dn)^2: the anticommutator structure function."""
    sn, cn, dn = _sncndn(k, order)
    sn2 = sn * sn
    return (1.0 - (sn2 * sn2) * (k * k)) * ((cn * dn) * (cn * dn)).pow_rational(-1)


@lru_cache(maxsize=None)
def _F_doubled_series(k, order):
    """The same structure function written as 2 (sn/(cn dn))(u) / sn(2u);
    the result carries the requested order."""
    sn, _, _ = _sncndn(k, order + 1)
    S = _G_series(k, order + 1)
    sn2u = sn.compose(TruncatedSeries.identity(order + 1) * 2.0)
    half_sn2u_over_u = TruncatedSeries(sn2u.coeffs[1:] * 0.5)  # c0 = 1
    S_over_u = TruncatedSeries(S.coeffs[1:])                   # c0 = 1
    return S_over_u * half_sn2u_over_u.pow_rational(-1)


@lru_cache(maxsize=None)
def _F_of_v_series(k, order):
    """(1 - k^2 v^4)/((1-v^2)(1-k^2 v^2)): same function of the raising
    generator itself rather than of Xhat."""
    v = TruncatedSeries.identity(order)
    v2 = v * v
    den = (1.0 - v2) * (1.0 - v2 * (k * k))
    return (1.0 - (v2 * v2) * (k * k)) * den.pow_rational(-1)


def _half_h_powers(h, n):
    """(h/2)**i for i = 0..n; a domain error when one of them overflows."""
    half = complex(h) / 2.0
    try:
        powers = np.array([half ** i for i in range(n + 1)], dtype=complex)
        # complex ** int may raise on overflow, or return NaN parts
        if np.isfinite(powers).all():
            return powers
    except OverflowError:
        pass
    raise DomainError(f"(h/2)**i for i <= {n} overflows at h = {h}")


def _odd_rescaled(s, mat, h):
    """(2/h) F((h/2) M) for an odd series F, written without the division."""
    if s.coeffs[0] != 0:
        raise DomainError("rescaled application needs a series with zero constant term")
    d = np.zeros_like(s.coeffs)
    d[1:] = s.coeffs[1:] * _half_h_powers(h, s.order - 1)
    return mat_apply_series(TruncatedSeries(d), mat)


def _at_half_h(s, mat, h):
    """F((h/2) M) for a plain series F; a KronSum M is scaled factorwise."""
    if not isinstance(mat, KronSum):
        mat = np.asarray(mat, dtype=complex)
    return mat_apply_series(s, (complex(h) / 2.0) * mat)


def _x_offset(t):
    """The exact scalar sitting on the diagonal of a shifted Xhat."""
    h = t.params.h
    if t.shift_q:
        return t.shift_q * 1j * math.pi / h
    if t.shift_a or t.shift_b:
        k = t.params.k
        if k.imag != 0 or not 0.0 < k.real < 1.0:
            raise DomainError("elliptic shift bookkeeping needs real 0 < k < 1")
        K = complete_K(k.real)
        Kp = complete_Kprime(k.real)
        return (2.0 / h) * (t.shift_a * K + 1j * t.shift_b * Kp)
    return 0j


def _x_nilpotent(t):
    off = _x_offset(t)
    if off == 0:
        return t.Xhat
    return t.Xhat - off * np.eye(t.rep.dim, dtype=complex)


def _parity_sign(t):
    """Sign picked up by the structure functions under the stored offset.

    Both structure functions flip sign per half period: per i*K' step of the
    elliptic offset, and per i*pi/2 step of the hyperbolic offset (where they
    degenerate to sinh(h X)/h and cosh(h X))."""
    if t.shift_q:
        return -1.0 if t.shift_q % 2 else 1.0
    if t.shift_b % 2:
        return -1.0
    return 1.0


# -- construction -------------------------------------------------------------


def deform_generators(Jp, Jm, params, order):
    """Apply the nonlinear map to an abstract (raising, lowering) pair."""
    xhat = _odd_rescaled(_asn(params.k, order), Jp, params.h)
    g = _at_half_h(_g_of_v(params.k, order), Jp, params.h)
    yhat = g @ np.asarray(Jm, dtype=complex) @ g
    return xhat, yhat


def build_elliptic_triplet(rep, params):
    """Deformed triplet (Xhat, Yhat, J0) on the spin-j module."""
    xhat, yhat = deform_generators(rep.Jp, rep.Jm, params, rep.dim)
    return DeformedTriplet(Xhat=xhat, Yhat=yhat, J0=rep.J0.copy(), params=params,
                           rep=rep, provenance="direct")


def build_jordanian_triplet(rep, h):
    """The k**2 = 1 triplet: (h/2) X = arctanh((h/2) J+), hyperbolic dressing."""
    order = rep.dim
    x = _odd_rescaled(arctanh_series(order), rep.Jp, h)
    u = TruncatedSeries.identity(order)
    dress = _at_half_h((1.0 - u * u).pow_rational(0.5), rep.Jp, h)
    y = dress @ rep.Jm @ dress
    return DeformedTriplet(Xhat=x, Yhat=y, J0=rep.J0.copy(),
                           params=DeformParams(h=h, k=1.0), rep=rep, provenance="uh")


def lift_generators(X, Y, params, order):
    """Lift a hyperbolic pair (X, Y) to the elliptic one at modulus k."""
    k, h = params.k, params.h
    tanh = tanh_series(order)
    through = _asn(k, order).compose(tanh)
    xhat = _odd_rescaled(through, X, h)
    t2 = tanh * tanh
    q = (1.0 - t2 * (k * k)).pow_rational(0.25) * (1.0 - t2).pow_rational(-0.25)
    qx = _at_half_h(q, X, h)
    yhat = qx @ np.asarray(Y, dtype=complex) @ qx
    return xhat, yhat


def lift_uh_to_elliptic(t, k):
    """Change coordinates from the k**2 = 1 triplet to modulus k."""
    if t.provenance != "uh" or t.is_shifted():
        raise DomainError("lift needs an unshifted triplet of hyperbolic provenance")
    params = DeformParams(h=t.params.h, k=k)
    xhat, yhat = lift_generators(t.Xhat, t.Yhat, params, t.rep.dim)
    return DeformedTriplet(Xhat=xhat, Yhat=yhat, J0=t.J0.copy(), params=params,
                           rep=t.rep, provenance="lifted")


def invert_map(t):
    """Recover (J+, J-) from a triplet: J+ = (2/h) sn((h/2) Xhat, k) and
    J- = (cn dn)**(-1/2) Yhat (cn dn)**(-1/2), both at (h/2) Xhat.

    Shifted triplets are invertible only when the shift acts trivially on
    the elliptic functions (an even number of hyperbolic half shifts); a
    lone half shift sends the raising generator to an inverse power, which
    has no finite-matrix meaning.
    """
    if t.shift_a or t.shift_b:
        raise DomainError("inverse map undefined on elliptic-shifted triplets")
    if t.shift_q % 2:
        raise DomainError("inverse map undefined after an odd number of half shifts")
    k, h = t.params.k, t.params.h
    order = t.rep.dim
    x = _x_nilpotent(t)
    sn, _, _ = _sncndn(k, order)
    jp = _odd_rescaled(sn, x, h)
    m = _at_half_h(_g_inv_of_u(k, order), x, h)
    jm = m @ t.Yhat @ m
    return jp, jm


# -- structure functions and relations ----------------------------------------


def G_of(t):
    """[J0, Xhat] as a function of Xhat, honoring any stored shift parity."""
    return _parity_sign(t) * _odd_rescaled(
        _G_series(t.params.k, t.rep.dim), _x_nilpotent(t), t.params.h)


def f_of(t):
    """The anticommutator structure function of [J0, Yhat], shift-aware."""
    return _parity_sign(t) * _at_half_h(
        _F_series(t.params.k, t.rep.dim), _x_nilpotent(t), t.params.h)


def f_matrices(t):
    """The same structure function along three routes: the primary form at
    Xhat, the doubled-argument form at Xhat, and the algebraic form at J+."""
    k, h = t.params.k, t.params.h
    order = t.rep.dim
    x = _x_nilpotent(t)
    return {
        "primary": _at_half_h(_F_series(k, order), x, h),
        "doubled": _at_half_h(_F_doubled_series(k, order), x, h),
        "algebraic": _at_half_h(_F_of_v_series(k, order), t.rep.Jp, h),
    }


def _scale(*mats):
    return max(1.0, *(frobenius(m) for m in mats))


def relations_on_generators(X, Y, J0, params, order, g_mat=None, f_mat=None):
    """Residuals of the three defining relations for arbitrary generator
    matrices.  g_mat/f_mat override the structure-function matrices (used by
    shift verification, which supplies parity-corrected ones)."""
    k, h = params.k, params.h
    if g_mat is None:
        g_mat = _odd_rescaled(_G_series(k, order), X, h)
    if f_mat is None:
        f_mat = _at_half_h(_F_series(k, order), X, h)
    uh = params.ksq == 1
    l_comm, l_x, l_y = ("eq22", "eq23", "eq24") if uh else ("eq12", "eq13", "eq14")
    r_comm = commutator(X, Y) - 2.0 * J0
    r_x = commutator(J0, X) - g_mat
    r_y = commutator(J0, Y) + 0.5 * (f_mat @ Y + Y @ f_mat)
    return {
        l_comm: frobenius(r_comm) / _scale(X, Y, J0),
        l_x: frobenius(r_x) / _scale(X, J0, g_mat),
        l_y: frobenius(r_y) / _scale(Y, J0, f_mat),
    }


def _f_vs_dG_gap(k, h, order):
    """Max coefficient gap between the f-series and d/dXhat of the G-series,
    both written in the rescaled Xhat variable."""
    powers = _half_h_powers(h, order)
    G = _G_series(k, order)
    F = _F_series(k, order)
    g_resc = np.zeros(order + 1, dtype=complex)
    g_resc[1:] = G.coeffs[1:] * powers[:-1]
    dg = TruncatedSeries(g_resc).deriv()
    f_resc = F.coeffs * powers
    n = dg.order
    return float(np.max(np.abs(dg.coeffs - f_resc[: n + 1])))


def relation_residuals(t):
    """Frobenius residuals of the defining relations, plus the consistency
    checks tying the structure functions together.  Keys are the relation
    labels used throughout the residual reports."""
    k, h = t.params.k, t.params.h
    order = t.rep.dim
    fm = f_matrices(t)  # its primary form is f_of(t) up to the shift parity
    out = relations_on_generators(t.Xhat, t.Yhat, t.J0, t.params, order,
                                  g_mat=G_of(t), f_mat=_parity_sign(t) * fm["primary"])
    out["f_vs_dG"] = _f_vs_dG_gap(k, h, order)
    out["f_eq15_vs_eq16"] = frobenius(fm["primary"] - fm["doubled"]) / _scale(fm["primary"])
    out["f_eq15_vs_eq17"] = frobenius(fm["primary"] - fm["algebraic"]) / _scale(fm["primary"])
    return out


# -- Casimir -------------------------------------------------------------------


def casimir(t, form):
    """One of the three equivalent Casimir expressions as a matrix.

    "classical" uses the undeformed generators, "jordanian" the hyperbolic
    pair (rebuilt at the triplet's h when the triplet itself is elliptic),
    "elliptic" the triplet's own deformed pair.  All must equal j(j+1) I.
    """
    if t.is_shifted():
        raise DomainError("casimir forms are defined for unshifted triplets")
    rep = t.rep
    h = t.params.h
    j0 = rep.J0
    quad = j0 @ j0 + j0
    if form == "classical":
        return rep.Jm @ rep.Jp + quad
    if form == "jordanian":
        tt = t if t.provenance == "uh" else build_jordanian_triplet(rep, h)
        x, y = tt.Xhat, tt.Yhat
        cosh_x = _at_half_h(cosh_series(rep.dim), x, h)
        sinh_resc = _odd_rescaled(sinh_series(rep.dim), x, h)
        return cosh_x @ y @ sinh_resc + quad
    if form == "elliptic":
        jp, jm = invert_map(t)
        return jm @ jp + quad
    raise DomainError(f"unknown casimir form {form!r}")


# -- printed-form bookkeeping --------------------------------------------------


def dressing_quartic_crosscheck(k):
    """Compare the derived quartic coefficient of the dressing g(v) with the
    printed one.  The expansion of ((1-v^2)(1-k^2 v^2))**(1/4) has quartic
    coefficient -(3 - 2 k^2 + 3 k^4)/32; the source text prints -(3 + k^2)/32,
    which agrees only at k^2 in {0, 1}.  The derivation is what ships; this
    report records the comparison."""
    k = complex(k)
    g = _g_of_v(k, 5)
    derived = complex(g.coeffs[4]) * -32.0
    derived_form = 3.0 - 2.0 * k ** 2 + 3.0 * k ** 4
    printed = 3.0 + k ** 2
    return {
        "k": [k.real, k.imag],
        "derived_times_minus32": [derived.real, derived.imag],
        "derived_closed_form": [derived_form.real, derived_form.imag],
        "printed_times_minus32": [printed.real, printed.imag],
        "matches_printed": bool(abs(derived - printed) <= 1e-12 * max(1.0, abs(derived))),
    }
