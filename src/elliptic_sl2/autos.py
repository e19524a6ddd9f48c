"""Discrete symmetries of the deformed algebra.

Three families act on a deformed triplet:

  * the sign involution (X, Y, J0) -> (-X, -Y, J0), exact on matrices;
  * the two elliptic period shifts, X by (2/h) i K' or (2/h)(2K + i K'),
    with (Y, J0) -> (-Y, -J0), at real 0 < k < 1;
  * at k**2 = 1, where K' = pi/2, the hyperbolic half shift X -> X + i pi/h,
    one i K' step, whose square restores the raising/lowering pair exactly.

Shift offsets are stored as exact integer counts of K and i K' on the
triplet (never as accumulated floating point).  Relation checks on shifted
triplets ride on the half-period parity of the structure functions rather
than on any evaluation at the shifted argument.  An image shares what its
base has computed, or computes later, so no image evaluates a series or
forms a relation product, whichever of it and its base asks first; the
sign table in the `deform` module docstring gives what each image reads and
why those are the bits of its own evaluation.

The induced action on the raising and lowering generators themselves
involves an inverse power of J+, which has no finite-matrix realization;
that net effect is delegated to the exact rewrite engine on the localized
algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .deform import (_image_of, _offset, _sign_image_scope, _x_nilpotent, relation_residuals,
                     x_offset)
from .elliptic import complete_K, complete_Kprime, jacobi_numeric
from .errors import DomainError

__all__ = [
    "ShiftSpec",
    "UH_HALF",
    "ELL_IKP",
    "ELL_2K_IKP",
    "sign_involution",
    "half_period_shift_uh",
    "period_shift_elliptic",
    "scalar_shift_identities",
    "highest_weight_shift_error",
    "inversion_symbolic_report",
]


@dataclass(frozen=True)
class ShiftSpec:
    """One period-shift step: which family, and the exact offset increment.

    (du_a, du_b) count K and i*K' steps of the argument u = (h/2) X; at
    k**2 = 1, K' = pi/2, so the hyperbolic half shift is one i*K' step.
    epsilon is the sign tied to the induced action on the localized
    generators; it is 0 for the hyperbolic family where the induced action
    needs no branch choice.
    """

    kind: str
    du_a: int
    du_b: int
    epsilon: int


UH_HALF = ShiftSpec(kind="uh-half", du_a=0, du_b=1, epsilon=0)
ELL_IKP = ShiftSpec(kind="ell-iKp", du_a=0, du_b=1, epsilon=+1)
ELL_2K_IKP = ShiftSpec(kind="ell-2KiKp", du_a=2, du_b=1, epsilon=-1)


def sign_involution(t):
    """(X, Y, J0) -> (-X, -Y, J0); applying it twice is the identity.  The
    image holds t's batch at Xhat with the odd G and sn negated, and t's
    relation norms."""
    if t.is_shifted():
        raise DomainError("sign involution is defined on unshifted triplets")
    return _image_of(t, _sign_image_scope(t), Xhat=-t.Xhat, Yhat=-t.Yhat, provenance="auto")


def _shifted(t, spec):
    """The image one spec step on, with (Y, J0) flipped: Xhat is the
    nilpotent part of t's plus the offset of the new counts."""
    a, b = t.shift_a + spec.du_a, t.shift_b + spec.du_b
    off = _offset(t.params, a, b) * np.eye(t.rep.dim, dtype=complex)
    return _image_of(t, Xhat=_x_nilpotent(t) + off, Yhat=-t.Yhat, J0=-t.J0, provenance="auto",
                     shift_a=a, shift_b=b)


def half_period_shift_uh(t):
    """Shift X by i pi/h and flip (Y, J0); triplets at k**2 = 1 only."""
    if t.params.h == 0:
        raise DomainError("the half-period shift degenerates at h = 0")
    if t.params.ksq != 1:
        raise DomainError("the hyperbolic half shift needs k**2 = 1")
    return _shifted(t, UH_HALF)


def period_shift_elliptic(t, spec):
    """Apply one elliptic period shift; returns the image triplet and its
    residual report (relations re-checked through half-period parity)."""
    if spec.kind not in ("ell-iKp", "ell-2KiKp"):
        raise DomainError(f"not an elliptic shift spec: {spec.kind!r}")
    h, k = t.params.h, t.params.k
    if h == 0:
        raise DomainError("period shifts degenerate at h = 0")
    if k.imag != 0 or not 0.0 < k.real < 1.0:
        raise DomainError("elliptic period shifts need real 0 < k < 1")
    image = _shifted(t, spec)
    report = relation_residuals(image)
    report["epsilon"] = spec.epsilon
    report["kind"] = spec.kind
    return image, report


def highest_weight_shift_error(t):
    """|X e0 - offset e0| on the highest-weight vector: the nilpotent part
    annihilates e0, so a shifted X has the offset as exact eigenvalue there."""
    e0 = np.zeros(t.rep.dim, dtype=complex)
    e0[0] = 1.0
    return float(np.linalg.norm(t.Xhat @ e0 - x_offset(t) * e0))


def scalar_shift_identities(k, n_samples=50, seed=20260818):
    """Numeric confirmation of the half- and full-period facts behind the
    shift verification, sampled away from poles and zeros.

    Checks, for u in a pole-avoiding rectangle:
      sn(u + iK') = 1/(k sn u)            cn(u + iK') = -i dn u/(k sn u)
      dn(u + iK') = -i cn u/sn u          sn(u + 2K + iK') = -1/(k sn u)
    plus the primitive periods of sn, cn, dn.
    """
    k = float(k)
    if not 0.0 < k < 1.0:
        raise DomainError("scalar shift identities need real 0 < k < 1")
    K = complete_K(k)
    Kp = complete_Kprime(k)
    x, y = np.random.default_rng(seed).uniform((0.2, 0.1), (0.8, 0.4), size=(n_samples, 2)).T
    u = x * K + 1j * (y * Kp)
    # Every shifted argument set in one evaluation.  The imaginary periods
    # are straddled by rows 1 and 5, u + iK' and u - iK', which sit on either
    # side of the real axis at heights near K', where double precision keeps
    # its digits: sn(u + iK') = sn(u - iK'), cn(u + 2K + iK') = cn(u - iK'),
    # and dn(u + iK') = -dn(u - iK'), the anti-period that gives dn its
    # period 4iK'.  A point near height 2K' against one near the real axis
    # loses digits at small k, and points at +-2iK' lose them too.
    sn, cn, dn = jacobi_numeric(np.stack([
        u, u + 1j * Kp, u + 2 * K + 1j * Kp, u + 4 * K, u + 2 * K, u - 1j * Kp,
    ]), k)

    def gap(lhs, rhs):
        return float(np.max(abs(lhs - rhs) / np.maximum(1.0, np.maximum(abs(lhs), abs(rhs))),
                            initial=0.0))

    gaps = {
        "sn_shift_iKp": gap(sn[1], 1.0 / (k * sn[0])),
        "cn_shift_iKp": gap(cn[1], -1j * dn[0] / (k * sn[0])),
        "dn_shift_iKp": gap(dn[1], -1j * cn[0] / sn[0]),
        "sn_shift_2K_iKp": gap(sn[2], -1.0 / (k * sn[0])),
        "sn_period_4K": gap(sn[3], sn[0]),
        "sn_period_2iKp": gap(sn[1], sn[5]),
        "cn_period_4K": gap(cn[3], cn[0]),
        "cn_period_2K_2iKp": gap(cn[2], cn[5]),
        "dn_period_2K": gap(dn[4], dn[0]),
        "dn_period_4iKp": gap(dn[1], -dn[5]),
    }

    return {
        "k": k,
        "samples": n_samples,
        "max_gaps": gaps,
        "epsilon_branches": {"ell-iKp": +1, "ell-2KiKp": -1},
    }


_EXTRA_RATIONAL_SAMPLES = (
    (Fraction(2, 5), Fraction(1, 3)),
    (Fraction(3, 7), Fraction(5, 8)),
)


def inversion_symbolic_report(h, k, eps):
    """Exact check, on the localized algebra, that the induced generator map

        J+ -> eps (1/k)(2/h)^2 J+^{-1},  J- -> eps k (h/2)^2 J+ J- J+,
        J0 -> -J0

    is a relation-preserving involution.  Runs at the given (h, k) made
    exact plus extra rational samples; every residual must vanish
    identically, not to a tolerance.
    """
    from .rewrite import inversion_map, verify_automorphism, verify_involution

    h_r = h if isinstance(h, Fraction) else Fraction(float(h)).limit_denominator(10 ** 12)
    k_r = k if isinstance(k, Fraction) else Fraction(float(k)).limit_denominator(10 ** 12)
    samples = [(h_r, k_r), *_EXTRA_RATIONAL_SAMPLES]
    rows = []
    all_pass = True
    for hs, ks in samples:
        if hs == 0 or ks == 0:
            raise DomainError("rational samples need nonzero h and k")
        m = inversion_map(hs, ks, eps)
        auto = verify_automorphism(m)
        invo = verify_involution(m)
        ok = auto["all_zero"] and invo["all_zero"]
        all_pass = all_pass and ok
        rows.append({"h": str(hs), "k": str(ks), "epsilon": eps,
                     "automorphism": auto["all_zero"], "involution": invo["all_zero"]})
    return {"samples": rows, "all_zero": all_pass}
