"""Exact normal ordering in the enveloping algebra localized at the raiser.

Elements are exact polynomials in the ordered basis

    Jm**a  J0**b  Jp**c        (a, b >= 0, c any integer),

with Jpinv a two-sided formal inverse of Jp.  All coefficients are exact
rationals; nothing in this module touches floating point except the spin
evaluation helpers used to cross-check against matrices.

An ``NCPoly`` holds its coefficients as integer numerators over one
positive denominator, in lowest terms.  Sums, scalings and products work on
those integers and divide out one gcd at the end; ``Fraction``s are built
only when ``terms`` is read.

Products are computed in closed form (``_monomial_product``).  Three
identities, valid for every integer power c of Jp, carry Jp**c past Jm**a
and J0-polynomials past both (Kassel, *Quantum Groups*, GTM 155, ch. V):

    f(J0) Jm     = Jm f(J0 - 1)
    Jp**c f(J0)  = f(J0 - c) Jp**c
    [Jp**c, Jm]  = c (2 J0 - c + 1) Jp**(c-1)

so the product of two ordered monomials is a finite sum with integer
structure coefficients, computed with no rewriting, recursion or memo.

``nf_word`` and ``nf`` are the independent rule-based reference.  They
replace one out-of-order adjacent pair at a time:

    J0 Jm    -> Jm J0 - Jm
    Jp Jm    -> Jm Jp + 2 J0
    Jp J0    -> J0 Jp - Jp
    Jpinv J0 -> J0 Jpinv + Jpinv
    Jpinv Jm -> Jm Jpinv - 2 J0 Jpinv Jpinv - 2 Jpinv Jpinv
    Jp Jpinv -> 1
    Jpinv Jp -> 1

Termination holds for any choice of redex (interpret the letters as the
strictly monotone maps Jm: x -> 5x+100, J0: x -> 2x+1, Jp, Jpinv: x -> 2x;
every rule strictly shrinks every replacement word pointwise), and the two
scan orders exposed here give a hook for testing order independence.

Caps keep every call bounded in time and memory; each raises ``DomainError``:

* ``MAX_DEGREE`` bounds the degree a + b + |c| of a product's result, and
  the exponent and the degree of a power; checked before any work;
* ``MAX_TERM_PAIRS`` bounds the cost of one product, its term pairs each
  weighted by the work of their closed form, checked before that product's
  work;
* ``MAX_REFERENCE_LETTERS`` bounds the length of a word given to the
  reference rewriter, and ``MAX_REFERENCE_WORDS`` the memo entries one call
  of it may add: its cost grows exponentially with the length.  A call that
  fails takes its entries back out of the memo.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm

import numpy as np

from .errors import DomainError

__all__ = [
    "NCPoly",
    "nf_word",
    "nf",
    "GeneratorMap",
    "apply_map",
    "verify_automorphism",
    "verify_involution",
    "sign_map",
    "inversion_map",
    "eval_word_on_spin",
    "eval_poly_on_spin",
    "parse_expression",
]

LETTERS = ("Jm", "J0", "Jp", "Jpinv")

_RULES = {
    ("J0", "Jm"): ((1, ("Jm", "J0")), (-1, ("Jm",))),
    ("Jp", "Jm"): ((1, ("Jm", "Jp")), (2, ("J0",))),
    ("Jp", "J0"): ((1, ("J0", "Jp")), (-1, ("Jp",))),
    ("Jpinv", "J0"): ((1, ("J0", "Jpinv")), (1, ("Jpinv",))),
    ("Jpinv", "Jm"): (
        (1, ("Jm", "Jpinv")),
        (-2, ("J0", "Jpinv", "Jpinv")),
        (-2, ("Jpinv", "Jpinv")),
    ),
    ("Jp", "Jpinv"): ((1, ()),),
    ("Jpinv", "Jp"): ((1, ()),),
}

STRATEGIES = ("leftmost", "rightmost")

# Largest degree a + b + |c| of a product or power, and largest exponent.
# (Jp + Jm + J0)**48, 20,824 terms, takes about 2.5 s on a 2-vCPU VM.
MAX_DEGREE = 48

# Largest cost of one product: its term pairs, each weighted by
# (top + 1)(b1 + 1)(b2 + 1), top = _commutations(a2, c1), which follows the
# work of _monomial_product (about 1 us per unit on a 2-vCPU VM).  The degree
# alone does not bound the work: (Jp + Jm + J0)**20 (Jp + Jm + J0)**20 is 3.1M
# pairs, and 316 x 316 degree-24 monomials with large J0 powers and large
# commuting parts cost 36M.  The largest step of (Jp + Jm + J0)**48 costs 1.23M.
MAX_TERM_PAIRS = 1_500_000

# Longest word the rule-based reference accepts, which bounds its recursion
# depth, and the most memo entries one call of it may add, which bounds its
# time and memory: the rightmost scan is exponential on Jpinv Jm**n.
MAX_REFERENCE_LETTERS = 24
MAX_REFERENCE_WORDS = 50_000


def _monomial_word(key):
    a, b, c = key
    tail = ("Jp",) * c if c >= 0 else ("Jpinv",) * (-c)
    return ("Jm",) * a + ("J0",) * b + tail


def _key_of_normal_word(word):
    a = sum(1 for w in word if w == "Jm")
    b = sum(1 for w in word if w == "J0")
    c = sum(1 for w in word if w == "Jp") - sum(1 for w in word if w == "Jpinv")
    return (a, b, c)


def _degree(key):
    a, b, c = key
    return a + b + abs(c)


def _commutations(a2, c1):
    """How many terms Jp**c1 Jm**a2 has: the falling factorial c1 (c1-1) ...
    vanishes past i = c1 when c1 >= 0."""
    return a2 if c1 < 0 else min(a2, c1)


def _check_product(keys1, keys2):
    """Refuse a product over the caps before any of its work.  Its cost is
    the sum over term pairs of (top + 1)(b1 + 1)(b2 + 1), at least 1 a pair;
    its exact degree is the largest over pairs, where term i of a pair has
    degree a1 + a2 + b1 + b2 + |c1 + c2 - i|, largest at an end of the range."""
    pairs = len(keys1) * len(keys2)
    right = [(a2, b2 + 1, a2 + b2, c2) for a2, b2, c2 in keys2]
    cost = degree = 0
    for a1, b1, c1 in keys1:
        w1, d1 = b1 + 1, a1 + b1
        for a2, w2, d2, c2 in right:
            top = _commutations(a2, c1)
            cost += (top + 1) * w1 * w2
            c = c1 + c2
            # max(|c|, |c - top|), as top >= 0
            d = d1 + d2 + (c if c >= top else top - c if c <= 0 else max(c, top - c))
            if d > degree:
                degree = d
        if max(pairs, cost) > MAX_TERM_PAIRS:  # every pair costs at least 1
            raise DomainError(f"product of {pairs} term pairs costs more than "
                              f"MAX_TERM_PAIRS = {MAX_TERM_PAIRS}")
    _check_degree(degree, "product")


def _check_degree(degree, what):
    if degree > MAX_DEGREE:
        raise DomainError(f"{what} of degree {degree} exceeds MAX_DEGREE = {MAX_DEGREE}")


def _power_degree(keys, n):
    """Bound on the degree of the n-th power: n times the largest term degree,
    plus one for every Jm that may commute past an inverse raiser power (a
    commutation trades a Jm for a J0 and lowers c by one)."""
    degree = max(map(_degree, keys), default=0)
    if any(c < 0 for _, _, c in keys):
        degree += max(a for a, _, _ in keys)
    return n * degree


def _times_2x_plus(p, const):
    """Coefficients, lowest first, of p(x) (2x + const)."""
    out = [const * p[0]]
    out.extend(const * p[k] + 2 * p[k - 1] for k in range(1, len(p)))
    out.append(2 * p[-1])
    return out


def _times_shifted_power(p, s, b):
    """Coefficients, lowest first, of p(x) (x + s)**b, for s != 0."""
    q = [comb(b, k) * s ** (b - k) for k in range(b + 1)]
    out = [0] * (len(p) + b)
    for i, u in enumerate(p):
        for k, v in enumerate(q, i):
            out[k] += u * v
    return out


def _monomial_product(k1, k2):
    """Jm**a1 J0**b1 Jp**c1 . Jm**a2 J0**b2 Jp**c2 in the ordered basis, as
    (key, integer coefficient) pairs.

    With x = J0, Jp**c Jm**a = sum_i C(a, i) c(c-1)...(c-i+1) Jm**(a-i)
    prod_{j=1..i} (2x - c - a + i + j) Jp**(c-i) for every integer c, and
    J0-polynomials move past Jm**(a2-i) and Jp**(c1-i) by shifts, so term i is

        C(a2, i) c1(c1-1)...(c1-i+1) Jm**(a1+a2-i) (x - a2 + i)**b1
        prod_j (2x - c1 - a2 + i + j) (x - c1 + i)**b2 Jp**(c1+c2-i).
    """
    a1, b1, c1 = k1
    a2, b2, c2 = k2
    top = _commutations(a2, c1)
    if not top and (not a2 or not b1) and (not c1 or not b2):
        return (((a1 + a2, b1 + b2, c1 + c2), 1),)
    out = []
    coeff = 1
    for i in range(top + 1):
        if i:
            coeff = coeff * (a2 - i + 1) * (c1 - i + 1) // i
        p = [coeff]
        for j in range(1, i + 1):
            p = _times_2x_plus(p, i + j - c1 - a2)
        low = 0     # a zero shift leaves a power of x, kept as an offset
        for s, b in ((i - a2, b1), (i - c1, b2)):
            if s and b:
                p = _times_shifted_power(p, s, b)
            else:
                low += b
        a, c = a1 + a2 - i, c1 + c2 - i
        out.extend(((a, low + k, c), n) for k, n in enumerate(p) if n)
    return out


class NCPoly:
    """Exact polynomial in the ordered basis Jm**a J0**b Jp**c.

    Immutable by convention: every operation returns a fresh instance.  Held
    as integer numerators over one positive denominator in lowest terms,
    ``_num`` (key -> nonzero int) over ``_den``, gcd(_den, *_num) = 1; the
    form is canonical, so equality and hashing read the two fields.
    ``terms``, the same coefficients as nonzero lowest-terms Fractions, is
    built when first read.  The constructor takes any dict of numbers.
    """

    __slots__ = ("_num", "_den", "_terms")

    def __init__(self, terms=None):
        clean = {}
        for key, coeff in (terms or {}).items():
            q = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            if q:
                clean[tuple(key)] = q
        # in lowest terms: each prime power of the lcm of reduced denominators
        # comes from a denominator whose numerator the prime does not divide
        d = lcm(*(q.denominator for q in clean.values()))
        self._num = {key: q.numerator * (d // q.denominator) for key, q in clean.items()}
        self._den = d
        self._terms = clean

    # -- constructors --

    @classmethod
    def _raw(cls, num, den):
        """Wrap nonzero integer numerators over a positive denominator that
        are already in lowest terms."""
        poly = object.__new__(cls)
        poly._num = num
        poly._den = den
        poly._terms = None
        return poly

    @classmethod
    def _reduced(cls, num, den):
        """Wrap nonzero integer numerators over a positive denominator,
        dividing out their common factor."""
        g = gcd(den, *num.values())
        if g != 1:
            num = {key: n // g for key, n in num.items()}
            den //= g
        return cls._raw(num, den)

    @classmethod
    def zero(cls):
        return cls._raw({}, 1)

    @classmethod
    def one(cls):
        return cls._raw({(0, 0, 0): 1}, 1)

    @classmethod
    def generator(cls, name):
        if name not in LETTERS:
            raise DomainError(f"unknown generator {name!r}")
        key = {"Jm": (1, 0, 0), "J0": (0, 1, 0), "Jp": (0, 0, 1), "Jpinv": (0, 0, -1)}[name]
        return cls._raw({key: 1}, 1)

    @classmethod
    def scalar(cls, value):
        return cls({(0, 0, 0): value})

    @property
    def terms(self):
        """{key: nonzero Fraction in lowest terms}, built on first read."""
        if self._terms is None:
            d = self._den
            self._terms = {key: Fraction(n, d) for key, n in self._num.items()}
        return self._terms

    # -- predicates --

    def is_zero(self):
        return not self._num

    def __bool__(self):
        return bool(self._num)

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self._den, frozenset(self._num.items())))

    # -- ring operations --

    def __add__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        dx, dy = self._den, other._den
        d = lcm(dx, dy)
        fx, fy = d // dx, d // dy
        out = {key: n * fx for key, n in self._num.items()}
        for key, n in other._num.items():
            out[key] = out.get(key, 0) + n * fy
        return NCPoly._reduced({key: n for key, n in out.items() if n}, d)

    def __neg__(self):
        return NCPoly._raw({key: -n for key, n in self._num.items()}, self._den)

    def __sub__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self + (-other)

    def scale(self, value):
        q = Fraction(value)
        if not q:
            return NCPoly.zero()
        p = q.numerator
        return NCPoly._reduced({key: p * n for key, n in self._num.items()},
                               self._den * q.denominator)

    def __mul__(self, other):
        """Closed-form product: integer structure coefficients from
        ``_monomial_product`` on the numerators, over the product of the
        denominators, reduced once."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, NCPoly):
            return NotImplemented
        _check_product(self._num, other._num)
        ys = other._num.items()
        acc = {}
        for k1, n1 in self._num.items():
            for k2, n2 in ys:
                n12 = n1 * n2
                for key, n in _monomial_product(k1, k2):
                    acc[key] = acc.get(key, 0) + n12 * n
        return NCPoly._reduced({key: n for key, n in acc.items() if n}, self._den * other._den)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def inverse(self):
        """Inverse of a monomial with no lowering or Cartan part."""
        if len(self._num) != 1:
            raise DomainError("only monomials are invertible here")
        (key, n), = self._num.items()
        a, b, c = key
        if a or b:
            raise DomainError("only pure raiser powers (times scalars) are invertible")
        # (n/d)**-1 = d/n, still in lowest terms once the sign is on top
        return NCPoly._raw({(0, 0, -c): self._den if n > 0 else -self._den}, abs(n))

    def __pow__(self, n):
        if not isinstance(n, int):
            raise DomainError("exponents must be integers")
        if n < 0:
            return self.inverse() ** (-n)
        if n > MAX_DEGREE:
            raise DomainError(f"exponent {n} exceeds MAX_DEGREE = {MAX_DEGREE}")
        _check_degree(_power_degree(self._num, n), "power")
        out = self if n else NCPoly.one()
        for _ in range(n - 1):
            out = out * self
        return out

    # -- serialization --

    def to_terms(self):
        terms = self.terms
        return [
            {"a": a, "b": b, "c": c, "coeff": str(terms[(a, b, c)])}
            for (a, b, c) in sorted(terms)
        ]

    def __repr__(self):
        terms = self.terms
        if not terms:
            return "NCPoly(0)"
        bits = []
        for key in sorted(terms):
            word = "*".join(_monomial_word(key)) or "1"
            bits.append(f"({terms[key]})*{word}")
        return "NCPoly(" + " + ".join(bits) + ")"


_NF_MEMO = {}


def nf_word(word, strategy="leftmost"):
    """Normal form of one word by the rewrite rules, as an NCPoly: the
    reference the closed-form product is tested against.  The strategy picks
    which out-of-order pair is rewritten first; all strategies agree on the
    result (exercised by the order-independence tests)."""
    if strategy not in STRATEGIES:
        raise DomainError(f"unknown strategy {strategy!r}")
    word = tuple(word)
    for w in word:
        if w not in LETTERS:
            raise DomainError(f"unknown letter {w!r}")
    if len(word) > MAX_REFERENCE_LETTERS:
        raise DomainError(f"the reference rewriter takes at most {MAX_REFERENCE_LETTERS} "
                          f"letters, got {len(word)}")
    start = len(_NF_MEMO)
    try:
        result = _rewrite(word, strategy, start + MAX_REFERENCE_WORDS)
    except BaseException:
        # A failed call keeps none of its entries; they are the memo's tail.
        while len(_NF_MEMO) > start:
            _NF_MEMO.popitem()
        raise
    return NCPoly._raw(result, 1)


def _rewrite(word, strategy, limit):
    """Rewrite the first redex in scan order and recurse on each branch,
    summing the branches in one dict.  Every rule has integer coefficients,
    so the result is {key: int}; memoised in ``_NF_MEMO``, which may grow to
    ``limit`` entries."""
    memo_key = (word, strategy)
    hit = _NF_MEMO.get(memo_key)
    if hit is not None:
        return hit
    if len(_NF_MEMO) >= limit:
        raise DomainError(f"the reference rewriter needs more than MAX_REFERENCE_WORDS = "
                          f"{MAX_REFERENCE_WORDS} words for this input")

    positions = range(len(word) - 1)
    if strategy == "rightmost":
        positions = reversed(positions)
    redex = None
    for i in positions:
        if (word[i], word[i + 1]) in _RULES:
            redex = i
            break

    if redex is None:
        result = {_key_of_normal_word(word): 1}
    else:
        acc = {}
        for coeff, repl in _RULES[(word[redex], word[redex + 1])]:
            rewritten = word[:redex] + repl + word[redex + 2:]
            for key, n in _rewrite(rewritten, strategy, limit).items():
                acc[key] = acc.get(key, 0) + coeff * n
        result = {key: n for key, n in acc.items() if n}

    _NF_MEMO[memo_key] = result
    return result


def nf(obj, strategy="leftmost"):
    """Normal form of an iterable of (coeff, word) pairs, the words
    normalised by the reference rewriter, summed on integers over the lcm of
    the coefficients' denominators."""
    pairs = [(Fraction(coeff), word) for coeff, word in obj]
    d = lcm(*(q.denominator for q, _ in pairs))
    acc = {}
    for q, word in pairs:
        m = q.numerator * (d // q.denominator)
        for key, n in nf_word(word, strategy)._num.items():
            acc[key] = acc.get(key, 0) + m * n
    return NCPoly._reduced({key: n for key, n in acc.items() if n}, d)


# -- generator maps ------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorMap:
    """Images of (Jp, Jm, J0) under an algebra endomorphism."""

    jp: NCPoly
    jm: NCPoly
    j0: NCPoly


def sign_map():
    """(Jp, Jm, J0) -> (-Jp, -Jm, J0); squares to the identity."""
    return GeneratorMap(jp=-NCPoly.generator("Jp"),
                        jm=-NCPoly.generator("Jm"),
                        j0=NCPoly.generator("J0"))


def inversion_map(h, k, eps):
    """Induced action of the shifted-argument symmetry on the localized
    generators:

        Jp -> eps (1/k)(2/h)**2 Jp**(-1)
        Jm -> eps k (h/2)**2 Jp Jm Jp
        J0 -> -J0

    h and k must be exact rationals; eps is +1 or -1.  Jp Jm Jp is written
    as its normal form Jm Jp**2 + 2 J0 Jp, by [Jp, Jm] = 2 J0.
    """
    h = Fraction(h)
    k = Fraction(k)
    if eps not in (1, -1):
        raise DomainError("eps must be +1 or -1")
    if h == 0 or k == 0:
        raise DomainError("inversion map needs nonzero h and k")
    jp = NCPoly({(0, 0, -1): eps * Fraction(4) / (k * h * h)})
    q = eps * k * h * h / 4
    jm = NCPoly({(1, 0, 2): q, (0, 1, 1): 2 * q})
    j0 = -NCPoly.generator("J0")
    return GeneratorMap(jp=jp, jm=jm, j0=j0)


def apply_map(m, poly):
    """Push an NCPoly through a generator map (ordered-monomial by monomial)."""
    acc = NCPoly.zero()
    for (a, b, c), coeff in poly.terms.items():
        img = None
        for image, n in ((m.jm, a), (m.j0, b), (m.jp, c)):
            if n:
                factor = image if n == 1 else image ** n
                img = factor if img is None else img * factor
        acc = acc + (NCPoly.one() if img is None else img).scale(coeff)
    return acc


def _bracket(x, y):
    return x * y - y * x


def verify_automorphism(m):
    """Exact residuals of the defining relations on the images of m."""
    r_plus = _bracket(m.j0, m.jp) - m.jp
    r_minus = _bracket(m.j0, m.jm) + m.jm
    r_comm = _bracket(m.jp, m.jm) - m.j0.scale(2)
    report = {
        "eq1_plus": r_plus.is_zero(),
        "eq1_minus": r_minus.is_zero(),
        "eq2": r_comm.is_zero(),
    }
    report["all_zero"] = all(report.values())
    report["residual_terms"] = {
        "eq1_plus": r_plus.to_terms(),
        "eq1_minus": r_minus.to_terms(),
        "eq2": r_comm.to_terms(),
    }
    return report


def verify_involution(m):
    """Exact check that m composed with itself fixes all three generators."""
    double = GeneratorMap(jp=apply_map(m, m.jp),
                          jm=apply_map(m, m.jm),
                          j0=apply_map(m, m.j0))
    report = {
        "jp": double.jp == NCPoly.generator("Jp"),
        "jm": double.jm == NCPoly.generator("Jm"),
        "j0": double.j0 == NCPoly.generator("J0"),
    }
    report["all_zero"] = all(report.values())
    return report


# -- spin-module evaluation ----------------------------------------------------


def eval_word_on_spin(word, rep):
    """Product of the letter matrices on a spin module (no inverse letters)."""
    mats = {"Jm": rep.Jm, "J0": rep.J0, "Jp": rep.Jp}
    out = np.eye(rep.dim, dtype=complex)
    for w in word:
        if w not in mats:
            raise DomainError(f"letter {w!r} has no matrix on a spin module")
        out = out @ mats[w]
    return out


def eval_poly_on_spin(poly, rep):
    """Matrix of an NCPoly with non-negative raiser powers on a spin module."""
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for (a, b, c), coeff in poly.terms.items():
        if c < 0:
            raise DomainError("inverse raiser powers have no matrix on a spin module")
        mat = (np.linalg.matrix_power(rep.Jm, a)
               @ np.linalg.matrix_power(rep.J0, b)
               @ np.linalg.matrix_power(rep.Jp, c))
        out = out + complex(coeff) * mat
    return out


# -- expression parser ---------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>Jpinv|Jp|Jm|J0)|(?P<number>\d+(?:/\d+)?)|(?P<op>[()\[\],*+^-]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            tail = text[pos:].lstrip()
            if not tail:
                break
            raise DomainError(f"unrecognized input at position {pos}: {tail[:12]!r}")
        if m.group("name"):
            tokens.append(("name", m.group("name"), m.start("name")))
        elif m.group("number"):
            tokens.append(("number", m.group("number"), m.start("number")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over +, -, *, ^, parentheses and [A, B] brackets.

    Multiplication may be written explicitly or by juxtaposition; exponents
    are integers, and negative exponents demand an invertible base.
    """

    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        kind, val, pos = self.next()
        if kind != "op" or val != value:
            raise DomainError(f"expected {value!r} at position {pos}, got {val!r}")

    def fail(self, msg):
        kind, val, pos = self.peek()
        shown = val if val else "end of input"
        raise DomainError(f"{msg} at position {pos}: {shown!r}")

    def parse(self):
        poly = self.expr()
        if self.peek()[0] != "end":
            self.fail("trailing input")
        return poly

    def expr(self):
        sign = 1
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            if self.next()[1] == "-":
                sign = -sign
        acc = self.term().scale(sign)
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.next()[1]
            t = self.term()
            acc = acc + (t if op == "+" else -t)
        return acc

    def term(self):
        acc = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                acc = acc * self.factor()
            elif kind in ("name", "number") or (kind == "op" and val in "(["):
                acc = acc * self.factor()
            else:
                return acc

    def factor(self):
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            base = base ** self.exponent()
        return base

    def exponent(self):
        sign = 1
        if self.peek()[:2] == ("op", "-"):
            self.next()
            sign = -1
        kind, val, pos = self.next()
        if kind != "number" or "/" in val:
            raise DomainError(f"exponent must be an integer at position {pos}")
        try:
            return sign * int(val)
        except ValueError:  # more digits than int() converts
            raise DomainError(f"exponent at position {pos} exceeds MAX_DEGREE = {MAX_DEGREE}") from None

    def atom(self):
        kind, val, pos = self.peek()
        if kind == "name":
            self.next()
            return NCPoly.generator(val)
        if kind == "number":
            self.next()
            try:
                return NCPoly.scalar(Fraction(val))
            except (ValueError, ZeroDivisionError) as exc:
                raise DomainError(f"bad number {val!r} at position {pos}: {exc}") from None
        if kind == "op" and val == "-":
            self.next()
            return -self.factor()
        if kind == "op" and val == "(":
            self.next()
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "op" and val == "[":
            self.next()
            left = self.expr()
            self.expect(",")
            right = self.expr()
            self.expect("]")
            return _bracket(left, right)
        self.fail("expected a generator, number, '(' or '['")


def parse_expression(text):
    """Parse an expression over Jp, Jm, J0, Jpinv into normal form."""
    if not text or not text.strip():
        raise DomainError("empty expression")
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise DomainError("expression nested too deeply") from None
