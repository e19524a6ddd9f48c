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
ordinary point of every formula, never a division.  Every such M is an
element of the one-factor raising algebra A (`liealg.RaisingPoly`): J+
(`SpinRep.raising`), or x, the nilpotent part of Xhat, which the builder
makes at J+ and the triplet keeps.  The series taken at one argument go to
one call of `liealg.apply_table`, and one `densify` gather makes their
matrices; at x they share one power table of x.

f = dG/du and the doubled form of f are identities between series, checked
on coefficients through order dim - 1 and never on matrices: series that agree
there give the same function of every nilpotent matrix of index dim (Higham,
Functions of Matrices, ch. 1), and a matrix adds only its basis's rounding.

A triplet computes each of its matrix functions once and keeps it in a
private memo, `DeformedTriplet._memo`: one dict, shared by every image the
automorphisms make of a build (`autos`), and not an __init__ field, so
`dataclasses.replace` starts an empty one.  A build and its images
together make one gather at J+, one power table and one gather at x, and
form the relation products once, whichever of them asks first.  The
memoised arrays are read-only, since every holder of the build sees them.

Each value is held at the build's orientation and read by one rule, with
s the image's sign (flipped by the sign involution alone) and p = (-1)**b,
b its i K' count:

    G   F   sn   (cn dn)**(-1/2)   inverse (J+, J-)   relation norms
    s   1   s    1                 s                  1

The relations take s p G and p F (`structure_matrices`' parity).

- The functions of J+ (`_raising_terms`: F at J+ by the algebraic route,
  and the factors of the Jordanian Casimir form) and the series gaps
  depend on (rep, h, k) alone.  The builder fills the first from the
  gather that makes Xhat; a lifted triplet, whose map is taken at the
  Jordanian triplet's x rather than at J+, makes that gather on first use.
- G, F, sn and (cn dn)**(-1/2) are taken at s x, the build's x, from one
  `apply_table` call and one gather; each series has order dim, so it has
  the bits it would have alone.  G and sn are odd, the others even, and
  negation is exact in the rows of the power table (those of -x are those
  of x times (-1)**r), in their contraction with a series' coefficients
  and in the gather, so the rule gives the bits of an evaluation at the
  image's own x, and for invert_map's (J+, J-) = (sn, m Yhat m),
  m = (cn dn)**(-1/2), too: it needs b even, where Yhat is s times the
  build's.
- The relation norms (`_relation_norms`) are those of the residual
  matrices R12 = [N, Y] - 2 J0, R13 = [J0, N] - s p G and
  R14 = [J0, Y] + p (F Y + Y F)/2, of Y, J0, G and F, and the gap between
  the two routes to F, at N, the nilpotent part of Xhat: the offset o I
  commutes with everything, so no rounding of o enters them.  An image's
  N, Y and J0 are s N, s p Y and p J0 of the build's (a shift image's N is
  its base's: a + 0 - 0 = a off the diagonal and 0 + o - o = 0 on it, a
  zero may change sign; every shift step flips Y and J0 and adds one
  i K' step).  Negation is exact in every product and sum, so its R12,
  R13 and R14 are p, s p and s times the build's, bit for bit, with the
  build's norms.  Only |Xhat| is the triplet's own, and
  `relation_residuals` divides by it.

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
from .liealg import (RaisingPoly, SpinRep, apply_table, commutator, densify, frobenius,
                     nilpotency_bound)
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
    already contains the offset times the identity; x is its nilpotent
    part, Xhat less the offset, as an element of the one-factor raising
    algebra (`liealg.RaisingPoly`), where every function of Xhat is taken.
    sign (+-1) is flipped by each sign involution; the build's x is
    sign * x.  Values computed from the arrays are memoised for the
    build (see the module docstring), so the arrays must not be written to.
    """

    Xhat: np.ndarray
    Yhat: np.ndarray
    J0: np.ndarray
    params: DeformParams
    rep: SpinRep
    provenance: str  # "direct" | "uh" | "lifted" | "auto"
    x: RaisingPoly
    shift_a: int = 0
    shift_b: int = 0
    sign: int = 1
    # Values computed from this triplet's build (see the module docstring);
    # never passed to __init__, so dataclasses.replace starts an empty one.
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def is_shifted(self):
        return bool(self.shift_a or self.shift_b)


def _remember(t, key, compute):
    """The build's memoised value under key, computed on first use; its
    arrays are made read-only, as every image of the build shares them."""
    if key not in t._memo:
        value = compute()
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                a.setflags(write=False)
        t._memo[key] = value
    return t._memo[key]


def _image_of(t, **changes):
    """replace(t, **changes), sharing t's memo (computed already or later, by
    either triplet).  Only for images of t's build under the read rule of
    the module docstring."""
    image = replace(t, **changes)
    object.__setattr__(image, "_memo", t._memo)
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
    overflows (complex ** int may raise, or return NaN parts)."""
    half = complex(h) / 2.0
    try:
        powers = [half ** i for i in range(n + 1)]
    except OverflowError:
        powers = [cmath.nan]
    if not all(map(cmath.isfinite, powers)):
        raise DomainError(f"(h/2)**i for i <= {n} overflows at h = {h}")
    return np.array(powers if any(p.imag for p in powers) else [p.real for p in powers])


def _at_half_h(mat, h, *terms):
    """(h/2)**-p F((h/2) M) for each (F, p) in terms, as a list.

    p = 0 is the plain map F((h/2) M); p = 1 is the odd map (2/h) F((h/2) M),
    written without the division, so F must have zero constant term.  Each
    coefficient c_i is scaled by (h/2)**(i-p) from one table cut at the
    nilpotency bound of M, an element of A, straight into the coefficient
    table of one `apply_table` call."""
    n = min(nilpotency_bound(mat), max(s.order for s, _ in terms))
    powers = _half_h_powers(h, n)
    table = np.zeros((len(terms), n + 1), dtype=complex)
    for row, (s, p) in zip(table, terms):
        if p and s.coeffs[0] != 0:
            raise DomainError("rescaled application needs a series with zero constant term")
        m = min(s.order, n)
        np.multiply(s.coeffs[p: m + 1], powers[: m + 1 - p], out=row[p: m + 1])
    return apply_table(table, mat)


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
    return _remember(t, "at J+", lambda: tuple(densify(_at_half_h(
        t.rep.raising, t.params.h, *_raising_terms(t.params.k, t.rep.dim)))))


def _at_nilpotent_part(t):
    """(G, F, sn, (cn dn)**(-1/2)) at the nilpotent part x of Xhat, G and sn
    rescaled by 2/h: the build's, from one power table of its x, sign * x,
    and one gather, with the odd G and sn times the sign."""
    k, h, order = t.params.k, t.params.h, t.rep.dim
    g, f, sn, m = _remember(t, "G F sn m", lambda: tuple(densify(_at_half_h(
        t.x if t.sign > 0 else -t.x, h, (_G_series(k, order), 1), (_F_series(k, order), 0),
        (_sncndn(k, order)[0], 1), (_g_inv_of_u(k, order), 0)))))
    return (g, f, sn, m) if t.sign > 0 else (-g, f, -sn, m)


def _parity_sign(t):
    """Sign picked up by the structure functions under the stored offset:
    both flip sign per i*K' step (at k**2 = 1 an i*pi/2 step, where they
    degenerate to sinh(h X)/h and cosh(h X))."""
    return -1.0 if t.shift_b % 2 else 1.0


# -- construction -------------------------------------------------------------


def build_elliptic_triplet(rep, params):
    """Deformed triplet (Xhat, Yhat, J0) on the spin-j module, from one gather
    at J+ that also gives every other function of J+ (`_at_raising`); the
    triplet keeps Xhat's element x."""
    k, order = params.k, rep.dim
    elements = _at_half_h(rep.raising, params.h, (_asn(k, order), 1), (_g_of_v(k, order), 0),
                          *_raising_terms(k, order))
    xhat, d, *at_raising = densify(elements)
    t = DeformedTriplet(Xhat=xhat, Yhat=d @ rep.Jm @ d, J0=rep.J0.copy(), params=params,
                        rep=rep, provenance="direct", x=elements[0])
    _remember(t, "at J+", lambda: tuple(at_raising))
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


def lift_uh_to_elliptic(t, k):
    """Change coordinates from a k**2 = 1 triplet to modulus k: the lift's
    map and dressing (`lift_series`) at its x, and one gather."""
    if t.params.ksq != 1 or t.is_shifted():
        raise DomainError("lift needs an unshifted triplet at k**2 = 1")
    params = DeformParams(h=t.params.h, k=k)
    through, q = lift_series(k, t.rep.dim)
    x, q = _at_half_h(t.x, params.h, (through, 1), (q, 0))
    xhat, qx = densify([x, q])
    return DeformedTriplet(Xhat=xhat, Yhat=qx @ t.Yhat @ qx, J0=t.J0.copy(), params=params,
                           rep=t.rep, provenance="lifted", x=x)


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
    jp, jm = _remember(t, "inverse", lambda: _build_inverse(t))
    return (jp, jm) if t.sign > 0 else (-jp, -jm)


def _build_inverse(t):
    """The build's (J+, J-): sign times t's."""
    _, _, jp, m = _at_nilpotent_part(t)
    return t.sign * jp, t.sign * (m @ t.Yhat @ m)


# -- structure functions and relations ----------------------------------------


def structure_matrices(t):
    """(G, F routes, parity): G, the structure function of [J0, Xhat]; F, that
    of [J0, Yhat], along two routes (the primary form at Xhat, taken with G
    at its nilpotent part x, and the algebraic form at J+); and the
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
    the two routes to F, the build's (see the module docstring)."""
    def compute():
        g, fm, parity = structure_matrices(t)
        f = fm["primary"]
        return (_relation_norms(_x_nilpotent(t), t.Yhat, t.J0, parity * g, parity * f),
                frobenius(f - fm["algebraic"]) / max(1.0, frobenius(f)))
    return _remember(t, "relations", compute)


def relation_residuals(t):
    """Frobenius residuals of the defining relations, plus the consistency
    checks tying the structure functions together.  Keys are the relation
    labels used throughout the residual reports.

    The relation products are formed once per triplet and its images, at the
    nilpotent part N of Xhat (`_relations_at_nilpotent_part`): o I commutes
    with everything, so [Xhat, Y] = [N, Y] and [J0, Xhat] = [J0, N] with no
    rounding of o, and an image reads its build's norms, which the read rule
    in the module docstring makes its own.  Each triplet divides them by its
    own max(1, |Xhat|, ...)."""
    norms, f_routes = _relations_at_nilpotent_part(t)
    out = _relative(norms, frobenius(t.Xhat), t.params.ksq == 1)
    out.update(_remember(t, "gaps", lambda: _series_gaps(t.params.k, t.rep.dim)))
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
    C d J- d S + J0**2 + J0 from the build's gather at J+ and no
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
