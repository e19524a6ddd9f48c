"""The two-parameter deformation of sl(2) on finite spin modules.

The raising generator is fed through the inverse sine amplitude,

    (h/2) Xhat = arcsn((h/2) J+, k),      Yhat = g(J+) J- g(J+),
    g(v) = ((1 - v**2)(1 - k**2 v**2)) ** (1/4)  at  v = (h/2) J+,

and everything downstream (defining relations, Casimir forms, the Jordanian
k**2 = 1 reduction and its lift) is built and machine-checked on matrices.
The Jordanian algebra U_h(sl(2)) is the point k = 1 of the family, where
arcsn is arctanh and g(v) = (1 - v**2)**(1/2): `build_jordanian_triplet` is
the elliptic builder there, and its shifts are counted like the elliptic
ones.

Every map F((h/2) M), and every map of the shape (2/h) F((h/2) M) with F
odd, is realized by scaling coefficients rather than the matrix,

    sum_i  c_i (h/2)**i M**i,      sum_i  c_{2i+1} (h/2)**(2i) M**(2i+1),

with one (h/2)**i table cut at the nilpotency bound of M, so h = 0 is an
ordinary point of every formula, never a division.  The series taken at one
argument go to one call of `liealg.apply_table`: at J+ (`SpinRep.raising`)
they are coefficient vectors made matrices by one `densify` gather, and at
Xhat they share one power stack.

f = dG/du and the doubled form of f are identities between series, checked
on coefficients through order dim - 1 and never on matrices: series that agree
there give the same function of every nilpotent matrix of index dim (Higham,
Functions of Matrices, ch. 1), and a matrix adds only its basis's rounding.

A triplet computes each of its matrix functions once and keeps it in a
private memo, `DeformedTriplet._memo`, which is not an __init__ field, so
`dataclasses.replace` starts an empty one.  So one triplet, its sign image
and its period-shift images together make one gather at J+, build one
power stack and form the relation products once.  The memo has three
scopes, by what its values depend on:

- "module": (rep, h, k) alone: every function of J+ the triplet needs
  besides its map (`_raising_terms`: F at J+, the algebraic route, and the
  factors of the Jordanian Casimir form) and the series gaps.  The builder
  fills it from the gather that makes Xhat; a lifted triplet, whose map is
  not a series of J+, makes that one gather on first use.  Every image
  shares it.
- "nilpotent": what is taken at the nilpotent part N of Xhat.  First G, F,
  sn and (cn dn)**(-1/2) at N, from one `apply_table` call; each
  series has order dim, so it has the bits it would have alone.  Then the
  relation norms (`_relation_norms`): the Frobenius norms of the residual
  matrices [N, Y] - 2 J0, [J0, N] - s G and [J0, Y] + (s F Y + Y s F)/2,
  s the shift parity, with |Y|, |J0|, |G| and |F|, and the gap between
  the two routes to F.  The relations are taken at N because o I commutes
  with everything, o the offset, so no rounding of o enters them, and N is
  Xhat when unshifted; only |Xhat| is the triplet's own, and
  `relation_residuals` divides by it.
  A period-shift image shares this scope: its Xhat is N plus o I, and its
  nilpotent part is that minus o I: x + 0 - 0 = x off the diagonal and
  0 + o - o = 0 on it, so it is N bit for bit (a zero may change sign).
  The sign image's nilpotent part is -N, and it holds its own scope, its
  base's with G and sn negated: G and sn are odd, F and (cn dn)**(-1/2)
  even, and negation is exact in every power, block product and Horner
  step of the dense calculus, so -G(N), F(N), -sn(N) and
  (cn dn)**(-1/2)(N) are the bits an evaluation at -N gives.  Negation is
  exact in every product and sum of the relations too, so with R12, R13
  and R14 the base's residual matrices, each image's are +-R bit for bit
  and their norms are the base's:

      image               N    Y    J0   s G   s F    R12  R13  R14
      sign               -N   -Y    J0   -G     F      +    -    -
      odd i K' count      N   -Y   -J0   -G    -F      -    -    +
      even i K' count     N    Y    J0    G     F      +    +    +

  (every shift step flips Y and J0 and adds one i K' step, so the parity
  of the i K' count is the parity of the flips).
- "own": invert_map's (J+, J-), which need Yhat.  Never shared.

The memoised arrays are read-only, since every holder of the triplet sees
them.

Triplets produced by the period-shift automorphisms carry their offset as
exact integer bookkeeping: integer combinations a K + b i K' scaled by 2/h.
At k**2 = 1, K' = pi/2, so the hyperbolic half shift i pi/h is b = 1 (and
K is infinite, so a stays 0).
Relation checks on shifted triplets use the half-period parity of the
structure functions instead of evaluating anything at a shifted matrix
argument, so no pole is ever approached.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .elliptic import (asn_series, complete_K, complete_Kprime, sd_cd_nd_series,
                       sn_cn_dn_series)
from .errors import DomainError
from .liealg import (SpinRep, apply_table, commutator, densify, frobenius, nilpotency_bound,
                     real_if_exact)
from .series import TruncatedSeries, pow_coeffs

__all__ = [
    "DeformParams",
    "DeformedTriplet",
    "build_elliptic_triplet",
    "build_jordanian_triplet",
    "lift_uh_to_elliptic",
    "invert_map",
    "x_offset",
    "structure_matrices",
    "casimir",
    "relation_residuals",
    "deform_generators",
    "lift_generators",
    "lift_series",
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
        if not cmath.isfinite(self.ksq):
            raise DomainError(f"k**2 is not finite at modulus k = {self.k}")

    @property
    def ksq(self):
        return self.k * self.k


@dataclass(frozen=True)
class DeformedTriplet:
    """Deformed generators on one spin module, plus shift bookkeeping.

    (shift_a, shift_b) count u-offsets a*K + b*i*K'; at k**2 = 1, where
    K' = pi/2, a hyperbolic half shift is one i*K' step.  The stored Xhat
    already contains the offset times the identity.  Values computed from
    the arrays are memoised on the triplet (see the module docstring), so
    the arrays must not be written to.
    """

    Xhat: np.ndarray
    Yhat: np.ndarray
    J0: np.ndarray
    params: DeformParams
    rep: SpinRep
    provenance: str  # "direct" | "uh" | "lifted" | "auto"
    shift_a: int = 0
    shift_b: int = 0
    # Values computed from this triplet, by scope (see the module docstring);
    # never passed to __init__, so dataclasses.replace starts an empty one.
    _memo: dict = field(default_factory=lambda: {"module": {}, "nilpotent": {}, "own": {}},
                        init=False, repr=False, compare=False)

    def is_shifted(self):
        return bool(self.shift_a or self.shift_b)


def _remember(t, scope, key, compute):
    """t's memoised value under key, computed on first use; its arrays are
    made read-only, as every holder of t shares them."""
    store = t._memo[scope]
    if key not in store:
        value = compute()
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                a.setflags(write=False)
        store[key] = value
    return store[key]


def _image_of(t, nilpotent=None, **changes):
    """replace(t, **changes), sharing t's "module" scope and, unless
    nilpotent is the image's own "nilpotent" scope, t's (computed already or
    later, by either triplet).  Only for images at the same (rep, h, k) that
    the sign table in the module docstring covers, and without nilpotent,
    whose nilpotent part is t's."""
    image = replace(t, **changes)
    image._memo["module"] = t._memo["module"]
    if nilpotent is None:
        image._memo["nilpotent"] = t._memo["nilpotent"]
    else:
        for key, value in nilpotent.items():
            _remember(image, "nilpotent", key, lambda value=value: value)
    return image


# -- series plumbing ---------------------------------------------------------


@lru_cache(maxsize=None)
def _sncndn(k, order):
    return sn_cn_dn_series(k, order)


@lru_cache(maxsize=None)
def _asn(k, order):
    return asn_series(k, order)


@lru_cache(maxsize=None)
def _g_of_v(k, order):
    """g(v) = ((1-v^2)(1-k^2 v^2))**(1/4) as a series in v: one Miller power
    of arcsn's radicand (see `asn_series`)."""
    k2 = complex(k) * complex(k)
    radicand = ([1, 0, -1 - k2, 0, k2] + [0] * order)[:order + 1]
    return TruncatedSeries(pow_coeffs(radicand, 0.25))


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
    """The same structure function written as 2 (sn/(cn dn))(u) / sn(2u), with
    1/sn(2u) = nd(2u)/sd(2u), which keeps its digits near k = 1 (see
    `sd_cd_nd_coeffs`); the result carries the requested order."""
    twos = 2.0 ** np.arange(order + 2)
    sd2u, _, nd2u = (s.coeffs * twos for s in sd_cd_nd_series(k, order + 1))  # exact
    half_sd2u_over_u = TruncatedSeries(sd2u[1:] * 0.5)               # c0 = 1
    S_over_u = TruncatedSeries(_G_series(k, order + 1).coeffs[1:])   # c0 = 1
    return S_over_u * TruncatedSeries(nd2u[:-1]) * half_sd2u_over_u.pow_rational(-1)


@lru_cache(maxsize=None)
def _F_of_v_series(k, order):
    """(1 - k^2 v^4)/((1-v^2)(1-k^2 v^2)): same function of the raising
    generator itself rather than of Xhat."""
    v = TruncatedSeries.identity(order)
    v2 = v * v
    den = (1.0 - v2) * (1.0 - v2 * (k * k))
    return (1.0 - (v2 * v2) * (k * k)) * den.pow_rational(-1)


def _jordanian_factors(order):
    """cosh(arctanh v) = (1 - v**2)**(-1/2), the Jordanian dressing, which
    is the map's own g at k = 1, and sinh(arctanh v) = v (1 - v**2)**(-1/2):
    the factors of the Jordanian Casimir form as series of v = (h/2) J+."""
    one_minus_v2 = ([1.0, 0.0, -1.0] + [0.0] * order)[:order + 1]
    cosh = TruncatedSeries(pow_coeffs(one_minus_v2, -0.5))
    sinh = TruncatedSeries(np.concatenate(([0.0], cosh.coeffs[:-1])))
    return cosh, _g_of_v(1.0, order), sinh


def _raising_terms(k, order):
    """Every function of J+ a triplet needs besides its map, as `_at_half_h`
    terms in the order `_at_raising` returns them: F at J+ (the algebraic
    route) and the Jordanian Casimir's cosh, dressing and rescaled sinh."""
    cosh, dress, sinh = _jordanian_factors(order)
    return (_F_of_v_series(k, order), 0), (cosh, 0), (dress, 0), (sinh, 1)


def _half_h_powers(h, n):
    """(h/2)**i for i = 0..n, real at real h; a domain error when one of them
    overflows."""
    half = complex(h) / 2.0
    try:
        powers = np.array([half ** i for i in range(n + 1)], dtype=complex)
        # complex ** int may raise on overflow, or return NaN parts
        if np.isfinite(powers).all():
            return real_if_exact(powers)
    except OverflowError:
        pass
    raise DomainError(f"(h/2)**i for i <= {n} overflows at h = {h}")


def _at_half_h(mat, h, *terms):
    """(h/2)**-p F((h/2) M) for each (F, p) in terms, as a list.

    p = 0 is the plain map F((h/2) M); p = 1 is the odd map (2/h) F((h/2) M),
    written without the division, so F must have zero constant term.  Each
    coefficient c_i is scaled by (h/2)**(i-p) from one table cut at the
    nilpotency bound of M (a matrix or an element of A), straight into the
    coefficient rows of one `apply_table` call."""
    n = min(nilpotency_bound(mat), max(s.order for s, _ in terms))
    powers = _half_h_powers(h, n)
    rows = []
    for s, p in terms:
        if p and s.coeffs[0] != 0:
            raise DomainError("rescaled application needs a series with zero constant term")
        m = min(s.order, n)
        row = np.zeros(m + 1, dtype=complex)
        row[p:] = s.coeffs[p: m + 1] * powers[: m + 1 - p]
        rows.append(row)
    return apply_table(rows, mat)


def x_offset(t):
    """The scalar on the diagonal of a shifted Xhat, (2/h)(a K + b i K'),
    from the triplet's exact shift counts."""
    return _offset(t.params, t.shift_a, t.shift_b)


def _offset(params, a, b):
    """(2/h)(a K + b i K'); K and K' depend on k**2 alone, and at k**2 = 1,
    K' = pi/2 and a is 0."""
    if not (a or b):
        return 0j
    k = params.k
    if k.imag != 0 or not 0.0 < abs(k.real) <= 1.0:
        raise DomainError("shift bookkeeping needs a real modulus with 0 < |k| <= 1")
    K = complete_K(abs(k.real)) if a else 0.0
    return (2.0 / params.h) * (a * K + 1j * b * complete_Kprime(abs(k.real)))


def _x_nilpotent(t):
    off = x_offset(t)
    if off == 0:
        return t.Xhat
    return t.Xhat - off * np.eye(t.rep.dim, dtype=complex)


def _at_raising(t):
    """F, cosh, dressing and rescaled sinh at J+ (see `_raising_terms`): the
    builder's gather made them, or one gather on first use."""
    return _remember(t, "module", "at J+", lambda: tuple(densify(_at_half_h(
        t.rep.raising, t.params.h, *_raising_terms(t.params.k, t.rep.dim)))))


def _at_nilpotent_part(t):
    """(G, F, sn, (cn dn)**(-1/2)) at the nilpotent part of Xhat, G and sn
    rescaled by 2/h, from one power stack."""
    k, h, order = t.params.k, t.params.h, t.rep.dim
    return _remember(t, "nilpotent", "G F sn m", lambda: tuple(_at_half_h(
        _x_nilpotent(t), h, (_G_series(k, order), 1), (_F_series(k, order), 0),
        (_sncndn(k, order)[0], 1), (_g_inv_of_u(k, order), 0))))


def _parity_sign(t):
    """Sign picked up by the structure functions under the stored offset:
    both flip sign per i*K' step (at k**2 = 1 an i*pi/2 step, where they
    degenerate to sinh(h X)/h and cosh(h X))."""
    return -1.0 if t.shift_b % 2 else 1.0


def _sign_image_scope(t):
    """The "nilpotent" scope of t's sign image, from t's own (made first if
    need be): G and sn negated, F, (cn dn)**(-1/2) and the relation norms as
    they are (see the sign table in the module docstring)."""
    g, f, sn, m = _at_nilpotent_part(t)
    return {"G F sn m": (-g, f, -sn, m), "relations": _relations_at_nilpotent_part(t)}


# -- construction -------------------------------------------------------------


def deform_generators(Jp, Jm, params, order):
    """Apply the nonlinear map to an abstract (raising, lowering) pair."""
    xhat, g = _at_half_h(Jp, params.h, (_asn(params.k, order), 1), (_g_of_v(params.k, order), 0))
    yhat = g @ Jm @ g
    return xhat, yhat


def build_elliptic_triplet(rep, params):
    """Deformed triplet (Xhat, Yhat, J0) on the spin-j module, from one gather
    at J+ that also fills the module scope (`_at_raising`)."""
    k, order = params.k, rep.dim
    xhat, d, *at_raising = densify(_at_half_h(rep.raising, params.h, (_asn(k, order), 1),
                                              (_g_of_v(k, order), 0), *_raising_terms(k, order)))
    t = DeformedTriplet(Xhat=xhat, Yhat=d @ rep.Jm @ d, J0=rep.J0.copy(), params=params,
                        rep=rep, provenance="direct")
    _remember(t, "module", "at J+", lambda: tuple(at_raising))
    return t


def build_jordanian_triplet(rep, h):
    """The elliptic triplet at k = 1, (h/2) X = arctanh((h/2) J+), under the
    Jordanian provenance "uh"."""
    return _image_of(build_elliptic_triplet(rep, DeformParams(h=h, k=1.0)), provenance="uh")


def lift_series(k, order):
    """The lift's two series in x, with t = tanh(x): the raising map
    arcsn(t, k), and the dressing q = (1 - k^2 t^2)**(1/4) (1 - t^2)**(-1/4).

    q**4 = 1 + (1 - k^2) sinh^2 x, with sinh^2 x = sum 2**(n-1) x**n / n! over
    even n > 0, and d/dx arcsn(tanh x, k) = q**-2, so each series is one
    Miller power of q**4 (the map its integral), and at k**2 = 1 they are
    exactly x and 1."""
    if order < 1:
        raise DomainError("lift series need order >= 1")
    sinh2 = np.cumprod(np.concatenate(([0.5], 2.0 / np.arange(1, order + 1))))
    c = ((1.0 - k * k) * sinh2).tolist()
    q4 = [1.0] + [0.0 if n % 2 else c[n] for n in range(1, order + 1)]
    return (TruncatedSeries(pow_coeffs(q4[:order], -0.5)).integral(),
            TruncatedSeries(pow_coeffs(q4, 0.25)))


def lift_generators(X, Y, params, order):
    """Lift a hyperbolic pair (X, Y) to the elliptic one at modulus k."""
    k, h = params.k, params.h
    through, q = lift_series(k, order)
    xhat, qx = _at_half_h(X, h, (through, 1), (q, 0))
    yhat = qx @ Y @ qx
    return xhat, yhat


def lift_uh_to_elliptic(t, k):
    """Change coordinates from a k**2 = 1 triplet to modulus k."""
    if t.params.ksq != 1 or t.is_shifted():
        raise DomainError("lift needs an unshifted triplet at k**2 = 1")
    params = DeformParams(h=t.params.h, k=k)
    xhat, yhat = lift_generators(t.Xhat, t.Yhat, params, t.rep.dim)
    return DeformedTriplet(Xhat=xhat, Yhat=yhat, J0=t.J0.copy(), params=params,
                           rep=t.rep, provenance="lifted")


def invert_map(t):
    """Recover (J+, J-) from a triplet: J+ = (2/h) sn((h/2) Xhat, k) and
    J- = (cn dn)**(-1/2) Yhat (cn dn)**(-1/2), both at (h/2) Xhat.

    A shifted triplet is invertible when its offset a K + b i K' is a period
    of sn (a = 0 mod 4 and b even, two half shifts at k**2 = 1 among them):
    then it is a period of cn dn too, and Yhat has been flipped an even
    number of times.  Any other shift sends the raising generator to an
    inverse power, which has no finite-matrix meaning.
    """
    if t.shift_a % 4 or t.shift_b % 2:
        raise DomainError("inverse map needs a shift by a period of sn "
                          "(a multiple of 4K plus an even multiple of i K')")
    return _remember(t, "own", "inverse", lambda: _inverse(t))


def _inverse(t):
    _, _, jp, m = _at_nilpotent_part(t)
    return jp, m @ t.Yhat @ m


# -- structure functions and relations ----------------------------------------


def structure_matrices(t):
    """(G, F routes, parity): G, the structure function of [J0, Xhat]; F, that
    of [J0, Yhat], along two routes (the primary form at Xhat, from one power
    stack of its nilpotent part with G, and the algebraic form at J+); and the
    sign the shift parity puts on the Xhat forms, which are returned without
    it.  The relations take parity * G and parity * F["primary"]."""
    g, primary, _, _ = _at_nilpotent_part(t)
    return g, {"primary": primary, "algebraic": _at_raising(t)[0]}, _parity_sign(t)


def _relation_norms(X, Y, J0, g, f):
    """Frobenius norms of the residual matrices of the three defining
    relations, [X, Y] - 2 J0, [J0, X] - g and [J0, Y] + (f Y + Y f)/2, then
    of Y, J0, g and f: everything the relative residuals need but |X|.  The
    one place the relation products are formed."""
    r_comm = commutator(X, Y) - 2.0 * J0
    r_x = commutator(J0, X) - g
    r_y = commutator(J0, Y) + 0.5 * (f @ Y + Y @ f)
    return tuple(frobenius(m) for m in (r_comm, r_x, r_y, Y, J0, g, f))


def _relative(norms, nx, uh):
    """The three relation residuals from `_relation_norms`'s norms and |X|,
    each relative to the largest of 1 and the norms of its terms."""
    r_comm, r_x, r_y, ny, n0, ng, nf = norms
    l_comm, l_x, l_y = ("eq22", "eq23", "eq24") if uh else ("eq12", "eq13", "eq14")
    return {
        l_comm: r_comm / max(1.0, nx, ny, n0),
        l_x: r_x / max(1.0, nx, n0, ng),
        l_y: r_y / max(1.0, ny, n0, nf),
    }


def relations_on_generators(X, Y, J0, g, f, uh):
    """Residuals of the three defining relations for generator matrices X, Y,
    J0 and the structure-function matrices g = G(X) and f = F(X); uh picks the
    labels of the k**2 = 1 reduction.  Each residual is the Frobenius norm of
    its residual matrix over max(1, the norms of its terms), formed afresh
    on every call; on gathered coproduct images it is the dense reference
    for `hopf.verify_coproduct`'s normal-form residuals."""
    return _relative(_relation_norms(X, Y, J0, g, f), frobenius(X), uh)


def _series_gaps(k, dim):
    """f = dG/du (f_vs_dG) and f against its doubled form (f_eq15_vs_eq16):
    the largest coefficient gap through order dim - 1, relative to the largest
    coefficient of f there (at least 1) like every other residual."""
    f = _F_series(k, dim).coeffs[:dim]
    scale = max(1.0, float(np.max(np.abs(f))))
    return {label: float(np.max(np.abs(f - other.coeffs[:dim]))) / scale
            for label, other in (("f_vs_dG", _G_series(k, dim).deriv()),
                                 ("f_eq15_vs_eq16", _F_doubled_series(k, dim)))}


def _relations_at_nilpotent_part(t):
    """The relation norms at the nilpotent part N of Xhat (`_relation_norms`
    with the parity on G and F) and f_eq15_vs_eq17, the relative gap between
    the two routes to F, memoised in the "nilpotent" scope."""
    def compute():
        g, fm, sign = structure_matrices(t)
        f = fm["primary"]
        return (_relation_norms(_x_nilpotent(t), t.Yhat, t.J0, sign * g, sign * f),
                frobenius(f - fm["algebraic"]) / max(1.0, frobenius(f)))
    return _remember(t, "nilpotent", "relations", compute)


def relation_residuals(t):
    """Frobenius residuals of the defining relations, plus the consistency
    checks tying the structure functions together.  Keys are the relation
    labels used throughout the residual reports.

    The relation products are formed once per triplet and its images, at the
    nilpotent part N of Xhat (`_relations_at_nilpotent_part`): o I commutes
    with everything, so [Xhat, Y] = [N, Y] and [J0, Xhat] = [J0, N] with no
    rounding of o, and an image reads its base's norms, which the sign table
    in the module docstring makes its own.  Each triplet divides them by its own
    max(1, |Xhat|, ...); the series gaps come from the module scope."""
    norms, f_routes = _relations_at_nilpotent_part(t)
    out = _relative(norms, frobenius(t.Xhat), t.params.ksq == 1)
    out.update(_remember(t, "module", "gaps", lambda: _series_gaps(t.params.k, t.rep.dim)))
    out["f_eq15_vs_eq17"] = f_routes
    return out


# -- Casimir -------------------------------------------------------------------


def casimir(t, form):
    """One of the three equivalent Casimir expressions as a matrix.

    "classical" is J- J+ + J0**2 + J0 on the undeformed generators;
    "elliptic" is the same on the triplet's inverse map, so it measures the
    round trip through its own Xhat and Yhat.  "jordanian" is
    cosh(hX/2) Y (2/h) sinh(hX/2) + J0**2 + J0 on the hyperbolic pair (X, Y)
    at the triplet's h, Y = d J- d with d = (1 - v**2)**(1/2), the map's g
    at k = 1.  Since (h/2) X = arctanh((h/2) J+), its cosh and sinh are
    closed-form functions of J+ (`_jordanian_factors`), so this form is
    C d J- d S + J0**2 + J0 from the module scope's gather at J+ and no
    matrix X is formed: it measures the Jordanian dressing against cosh and
    sinh of arctanh, C d = I and d S = J+, for every triplet alike.  All must
    equal j(j+1) I.
    """
    if t.is_shifted():
        raise DomainError("casimir forms are defined for unshifted triplets")
    rep = t.rep
    j0 = rep.J0
    quad = j0 @ j0 + j0
    if form == "classical":
        return rep.Jm @ rep.Jp + quad
    if form == "jordanian":
        _, cosh, dress, sinh = _at_raising(t)
        return cosh @ (dress @ rep.Jm @ dress) @ sinh + quad
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
