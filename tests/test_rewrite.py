"""Exact normal ordering: rule identities, matrix cross-checks, strategy
independence, localization consistency, generator maps, the parser."""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptic_sl2 import rewrite
from elliptic_sl2.errors import DomainError
from elliptic_sl2.liealg import build_spin
from elliptic_sl2.rewrite import (
    LETTERS,
    MAX_DEGREE,
    MAX_REFERENCE_LETTERS,
    GeneratorMap,
    NCPoly,
    apply_map,
    eval_poly_on_spin,
    eval_word_on_spin,
    inversion_map,
    nf,
    nf_word,
    parse_expression,
    sign_map,
    verify_automorphism,
    verify_involution,
)
from elliptic_sl2.rewrite import _monomial_word, _power_degree

Jp = NCPoly.generator("Jp")
Jm = NCPoly.generator("Jm")
J0 = NCPoly.generator("J0")
Jpinv = NCPoly.generator("Jpinv")


def test_basic_normal_forms():
    assert nf_word(("Jp", "Jm")) == Jm * Jp + J0.scale(2)
    assert nf_word(("J0", "Jm")) == Jm * J0 - Jm
    assert nf_word(("Jp", "J0")) == J0 * Jp - Jp
    assert nf_word(("Jp", "Jpinv")) == NCPoly.one()
    assert nf_word(("Jpinv", "Jp")) == NCPoly.one()
    assert nf_word(()) == NCPoly.one()


def test_sandwiched_lowering():
    got = nf_word(("Jp", "Jm", "Jp"))
    expect = Jm * Jp * Jp + (J0 * Jp).scale(2)
    assert got == expect


def test_multiply_back_oracles():
    # each inverse-letter rule, undone by multiplying the inverse away
    assert Jp * nf_word(("Jpinv", "Jm")) == Jm
    assert Jp * nf_word(("Jpinv", "J0")) == J0
    assert Jpinv * nf_word(("Jp", "Jm")) == nf_word(("Jpinv", "Jp", "Jm"))


@pytest.mark.parametrize("c", [1, 2, 3, 4, 5, -1, -2, -3])
def test_raiser_power_past_lowering_closed_form(c):
    # Jp^c Jm = Jm Jp^c + c (2 J0 - c + 1) Jp^(c-1), valid for every integer c
    word = (("Jp",) * c if c > 0 else ("Jpinv",) * (-c)) + ("Jm",)
    got = nf_word(word)
    correction = (J0.scale(2) - NCPoly.scalar(c - 1)).scale(c) * (Jp ** (c - 1))
    expect = Jm * (Jp ** c) + correction
    assert got == expect


def test_100_random_words_match_matrices():
    rng = random.Random(2026)
    reps = [build_spin(j) for j in (0.5, 1.0, 1.5, 2.0)]
    for _ in range(100):
        word = tuple(rng.choice(("Jm", "J0", "Jp")) for _ in range(rng.randint(1, 7)))
        poly = nf_word(word)
        for rep in reps:
            direct = eval_word_on_spin(word, rep)
            ordered = eval_poly_on_spin(poly, rep)
            scale = max(1.0, float(np.max(np.abs(direct))))
            assert np.max(np.abs(direct - ordered)) / scale < 1e-12


def test_200_trials_of_order_independence():
    rng = random.Random(515)
    for _ in range(200):
        word = tuple(rng.choice(LETTERS) for _ in range(rng.randint(1, 8)))
        assert nf_word(word, "leftmost") == nf_word(word, "rightmost")


def test_localization_consistency():
    rng = random.Random(99)
    for _ in range(60):
        word = tuple(rng.choice(("Jm", "J0", "Jp")) for _ in range(rng.randint(1, 6)))
        base = nf_word(word)
        assert Jp * (Jpinv * base) == base
        assert Jpinv * (Jp * base) == base


def test_ncpoly_ring_axioms_on_random_elements():
    rng = random.Random(4)

    def rand_poly():
        out = NCPoly.zero()
        for _ in range(rng.randint(1, 3)):
            key = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(-2, 2))
            out = out + NCPoly({key: Fraction(rng.randint(-3, 3), rng.randint(1, 4))})
        return out

    for _ in range(20):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def test_inverse_and_powers():
    m = NCPoly({(0, 0, 3): Fraction(2, 5)})
    inv = m.inverse()
    assert m * inv == NCPoly.one()
    assert inv * m == NCPoly.one()
    assert (Jp.scale(2)) ** -2 == NCPoly({(0, 0, -2): Fraction(1, 4)})
    with pytest.raises(DomainError):
        (Jp + Jm).inverse()
    with pytest.raises(DomainError):
        (Jm ** 2).inverse()
    with pytest.raises(DomainError):
        Jp ** 0.5


def test_strategy_argument_is_validated():
    with pytest.raises(DomainError):
        nf_word(("Jp",), "middle-out")
    with pytest.raises(DomainError):
        nf_word(("Jq",))


def test_nf_accepts_weighted_words():
    got = nf([(2, ("Jp", "Jm")), (-4, ("J0",))])
    assert got == (Jm * Jp).scale(2)


def test_identity_and_sign_maps():
    identity = GeneratorMap(*(NCPoly.generator(g) for g in ("Jp", "Jm", "J0")))
    assert verify_automorphism(identity)["all_zero"] is True
    s = sign_map()
    assert verify_automorphism(s)["all_zero"] is True
    assert verify_involution(s)["all_zero"] is True


def test_broken_map_is_rejected():
    bad = GeneratorMap(jp=Jp, jm=Jm, j0=J0 + NCPoly.one())
    report = verify_automorphism(bad)
    assert report["all_zero"] is False
    assert report["eq2"] is False
    assert report["residual_terms"]["eq2"]  # nonempty residual, reported exactly


@pytest.mark.parametrize("eps", [1, -1])
def test_inversion_map_exact(eps):
    m = inversion_map(Fraction(7, 10), Fraction(3, 5), eps)
    assert verify_automorphism(m)["all_zero"] is True
    assert verify_involution(m)["all_zero"] is True
    # the lowering image is the exact once-dressed sandwich
    expect = nf_word(("Jp", "Jm", "Jp")).scale(Fraction(eps) * Fraction(3, 5)
                                               * Fraction(7, 10) ** 2 / 4)
    assert m.jm == expect


@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("h, k", [(Fraction(7, 10), Fraction(3, 5)), (Fraction(-2, 9), Fraction(5, 4)),
                                  (Fraction(3), Fraction(-1, 12)), (Fraction(1, 10 ** 13), Fraction(8))])
def test_inversion_map_closed_form_is_the_sandwich_product(eps, h, k):
    assert inversion_map(h, k, eps).jm == (Jp * Jm * Jp).scale(eps * k * h * h / 4)


def _spy(monkeypatch, name):
    calls = []
    method = getattr(NCPoly, name)

    def spy(self, other):
        calls.append(other)
        return method(self, other)

    monkeypatch.setattr(NCPoly, name, spy)
    return calls


def test_inversion_map_makes_no_product(monkeypatch):
    products = _spy(monkeypatch, "__mul__")
    powers = _spy(monkeypatch, "__pow__")
    inversion_map(Fraction(7, 10), Fraction(3, 5), -1)
    assert products == [] and powers == []


def test_apply_map_takes_no_power_of_a_letter_at_power_one(monkeypatch):
    m = inversion_map(Fraction(1, 2), Fraction(2, 3), 1)
    ones = (Jm * J0 * Jp).scale(Fraction(-3, 4)) + Jm * Jp + NCPoly.scalar(2)
    squared = (Jm ** 2 * Jp).scale(5)
    expect = apply_map(m, ones), apply_map(m, squared)
    powers = _spy(monkeypatch, "__pow__")
    assert apply_map(m, ones) == expect[0]
    assert powers == []
    assert apply_map(m, squared) == expect[1] == (m.jm * m.jm * m.jp).scale(5)
    assert powers == [2]


# -- the integer representation --

def test_equal_polynomials_share_numerators_denominator_and_hash():
    base = NCPoly({(1, 0, 2): Fraction(3, 4), (0, 1, -1): Fraction(-5, 6)})
    for same in (NCPoly({(1, 0, 2): Fraction(9, 12), (0, 1, -1): Fraction(-10, 12)}),
                 NCPoly({(1, 0, 2): 0.75, (0, 1, -1): Fraction(-5, 6), (0, 0, 0): 0}),
                 NCPoly({(1, 0, 2): Fraction(9, 2), (0, 1, -1): -5}).scale(Fraction(1, 6)),
                 NCPoly({(1, 0, 2): 9, (0, 1, -1): -10}).scale(Fraction(2, 24))):
        assert same == base
        assert (same._num, same._den) == (base._num, base._den) == ({(1, 0, 2): 9, (0, 1, -1): -10}, 12)
        assert hash(same) == hash(base)


def test_a_sum_that_cancels_to_a_common_factor_comes_back_reduced():
    x = NCPoly({(0, 0, 1): Fraction(1, 6), (1, 0, 0): Fraction(1, 3)})
    y = NCPoly({(0, 0, 1): Fraction(1, 3), (1, 0, 0): Fraction(-1, 12), (0, 1, 0): Fraction(1, 12)})
    got = x + y   # 1/2 Jp + 1/4 Jm + 1/12 J0 over 12
    assert (got._num, got._den) == ({(0, 0, 1): 6, (1, 0, 0): 3, (0, 1, 0): 1}, 12)
    got = got - NCPoly({(0, 1, 0): Fraction(1, 12)})
    assert (got._num, got._den) == ({(0, 0, 1): 2, (1, 0, 0): 1}, 4)
    got = got - got
    assert (got._num, got._den) == ({}, 1) and got == NCPoly.zero()


def test_terms_hold_only_nonzero_lowest_terms_fractions():
    rng = random.Random(31)
    for _ in range(40):
        x = NCPoly({(rng.randint(0, 2), rng.randint(0, 2), rng.randint(-2, 2)):
                    Fraction(rng.randint(-6, 6), rng.randint(1, 9)) for _ in range(3)})
        for poly in (x * x, x + x.scale(Fraction(-1, 3)), apply_map(sign_map(), x)):
            assert poly.terms == {key: Fraction(n, poly._den) for key, n in poly._num.items()}
            for q in poly.terms.values():
                assert type(q) is Fraction and q != 0
            assert math.gcd(poly._den, *poly._num.values()) == 1 and poly._den > 0


def test_inversion_map_validates_input():
    with pytest.raises(DomainError):
        inversion_map(Fraction(1, 2), Fraction(1, 3), 2)
    with pytest.raises(DomainError):
        inversion_map(0, Fraction(1, 3), 1)


def test_apply_map_is_linear_and_multiplicative():
    m = inversion_map(Fraction(1, 2), Fraction(2, 3), -1)
    a = Jm * Jp + J0.scale(3)
    b = Jp ** 2
    assert apply_map(m, a + b) == apply_map(m, a) + apply_map(m, b)
    assert apply_map(m, a * b) == apply_map(m, a) * apply_map(m, b)


def test_eval_poly_rejects_inverse_powers():
    with pytest.raises(DomainError):
        eval_poly_on_spin(Jpinv, build_spin(1.0))
    with pytest.raises(DomainError):
        eval_word_on_spin(("Jpinv",), build_spin(1.0))


def test_terms_json_roundtrip():
    poly = nf_word(("Jp", "Jm", "J0")) - Jpinv.scale(Fraction(3, 7))
    rows = poly.to_terms()
    assert rows == sorted(rows, key=lambda r: (r["a"], r["b"], r["c"]))


# -- parser --


def test_parser_relation_identities():
    assert parse_expression("[Jp, Jm] - 2*J0").is_zero()
    assert parse_expression("[J0, Jp] - Jp").is_zero()
    assert parse_expression("[J0, Jm] + Jm").is_zero()


def test_parser_juxtaposition_and_rationals():
    got = parse_expression("3/4 Jm^2 J0 - 2 Jp")
    assert got == (Jm ** 2 * J0).scale(Fraction(3, 4)) - Jp.scale(2)


def test_parser_precedence_and_parentheses():
    assert parse_expression("2*Jp^2") == (Jp ** 2).scale(2)
    assert parse_expression("(Jm + Jp)^2") == (Jm + Jp) * (Jm + Jp)
    assert parse_expression("-Jp^2") == -(Jp ** 2)
    assert parse_expression("Jp^-1") == Jpinv
    assert parse_expression("(2 Jp)^-1") == Jpinv.scale(Fraction(1, 2))


def test_parser_nested_brackets():
    got = parse_expression("[Jp, [Jp, Jm]] + 2*Jp")
    assert got.is_zero()


def test_parser_normal_orders_its_output():
    got = parse_expression("Jp * Jm")
    assert got == Jm * Jp + J0.scale(2)


def test_parser_error_positions():
    with pytest.raises(DomainError, match="position"):
        parse_expression("Jp + * Jm")
    with pytest.raises(DomainError, match="position"):
        parse_expression("[Jp, Jm")
    with pytest.raises(DomainError):
        parse_expression("")
    with pytest.raises(DomainError):
        parse_expression("Jx + 1")
    with pytest.raises(DomainError, match="integer"):
        parse_expression("Jp^(1/2)")
    with pytest.raises(DomainError):
        parse_expression("(Jp + Jm)^-1")


def test_parser_malformed_numbers_and_nesting_are_domain_errors():
    with pytest.raises(DomainError, match="bad number"):
        parse_expression("1/0 Jp")
    with pytest.raises(DomainError, match="MAX_DEGREE"):
        parse_expression("Jp^" + "9" * 5000)
    with pytest.raises(DomainError, match="nested"):
        parse_expression("(" * 3000 + "Jp" + ")" * 3000)
    with pytest.raises(DomainError, match="nested"):
        parse_expression("Jp * " + "-" * 3000 + "Jp")


# -- closed-form products against the rule-based reference --

def _reference_product(x, y):
    """x * y by normalising the concatenated words of every term pair."""
    return nf([(q1 * q2, _monomial_word(k1) + _monomial_word(k2))
               for k1, q1 in x.terms.items() for k2, q2 in y.terms.items()])


_keys = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-4, 4))
_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=12).filter(bool)
_polys = st.dictionaries(_keys, _coeffs, min_size=1, max_size=3).map(NCPoly)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_polys, _polys)
def test_closed_form_product_matches_the_reference(x, y):
    assert x * y == _reference_product(x, y)


@pytest.mark.parametrize("c", range(-5, 6))
def test_raiser_power_past_lowering_power_matches_the_reference(c):
    for a in range(6):
        x = NCPoly({(0, 0, c): 1})
        y = NCPoly({(a, 0, 0): 1})
        assert x * y == nf_word(_monomial_word((0, 0, c)) + ("Jm",) * a)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_polys, _polys, _polys)
def test_closed_form_product_is_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


def test_closed_form_product_matches_matrices():
    rng = random.Random(11)
    reps = [build_spin(j) for j in (1.0, 2.5)]
    for _ in range(40):
        x, y = (NCPoly({(rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)):
                        Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(3)})
                for _ in range(2))
        for rep in reps:
            direct = eval_poly_on_spin(x, rep) @ eval_poly_on_spin(y, rep)
            got = eval_poly_on_spin(x * y, rep)
            assert np.max(np.abs(direct - got)) <= 1e-9 * max(1.0, float(np.max(np.abs(direct))))


def test_power_degree_bound_holds():
    rng = random.Random(5)
    for _ in range(60):
        x = NCPoly({(rng.randint(0, 2), rng.randint(0, 2), rng.randint(-2, 2)): 1
                    for _ in range(rng.randint(1, 3))})
        for n in range(1, 4):
            power = x ** n
            assert max(map(rewrite._degree, power.terms), default=0) <= _power_degree(x.terms, n)


def _exact_spin(j):
    """Spin-j matrices (integer j) in the basis where Jp is the plain shift and
    Jm has the integer entries (j + m)(j - m + 1): exact, as Python integers."""
    dim = 2 * j + 1
    jp, jm, j0 = (np.zeros((dim, dim), dtype=object) for _ in range(3))
    for i in range(dim):
        m = j - i
        j0[i, i] = m
        if i:
            jp[i - 1, i] = 1
        if i + 1 < dim:
            jm[i + 1, i] = (j + m) * (j - m + 1)
    return jp, jm, j0


def _exact_eval(poly, mats):
    jp, jm, j0 = mats
    out = np.zeros_like(jp)
    for (a, b, c), q in poly.terms.items():
        mat = np.identity(jp.shape[0], dtype=int).astype(object)
        for m, n in ((jm, a), (j0, b), (jp, c)):
            for _ in range(n):
                mat = mat @ m
        out = out + mat * q
    return out


def test_long_products_need_no_recursion_or_memo():
    rewrite._NF_MEMO.clear()
    got = parse_expression("(Jp Jm)^20")
    assert rewrite._NF_MEMO == {}
    mats = _exact_spin(2)
    direct = np.identity(5, dtype=int).astype(object)
    for _ in range(20):
        direct = direct @ mats[0] @ mats[1]
    assert (_exact_eval(got, mats) == direct).all()


# -- caps --

def test_degree_cap_is_checked_before_any_work():
    t0 = time.perf_counter()
    with pytest.raises(DomainError, match="MAX_DEGREE"):
        parse_expression("Jp^-1000000")
    with pytest.raises(DomainError, match="MAX_DEGREE"):
        parse_expression(f"2^{MAX_DEGREE + 1}")
    with pytest.raises(DomainError, match="MAX_DEGREE"):
        parse_expression(f"(Jp Jm)^{MAX_DEGREE // 2 + 1}")
    with pytest.raises(DomainError, match="MAX_DEGREE"):
        Jpinv ** (MAX_DEGREE // 2) * Jm ** (MAX_DEGREE // 2)
    assert time.perf_counter() - t0 < 1.0
    assert max(map(rewrite._degree, parse_expression(f"Jp^{MAX_DEGREE}").terms)) == MAX_DEGREE


def test_term_pair_cap():
    half = parse_expression("(Jp + Jm + J0)^20")
    with pytest.raises(DomainError, match="MAX_TERM_PAIRS"):
        half * half


def test_term_pair_cap_weighs_each_pair_by_its_cost(monkeypatch):
    # 316 x 316 degree-24 monomials, large J0 powers against large commuting
    # parts: 99,856 pairs whose product ran for 8 to 36 s before the cap
    # counted cost; it costs 36M and is refused before any work
    keys = [(a, b, 24 - a - b) for a in range(25) for b in range(25 - a)]
    left = sorted(keys, key=lambda k: -(k[1] + 1) * (k[2] + 1))[:316]
    right = sorted(keys, key=lambda k: -(k[1] + 1) * (k[0] + 1))[:316]
    x = NCPoly({key: Fraction(1, i + 2) for i, key in enumerate(left)})
    y = NCPoly({key: Fraction(i + 3, 7) for i, key in enumerate(right)})
    t0 = time.perf_counter()
    with pytest.raises(DomainError, match="MAX_TERM_PAIRS"):
        x * y
    assert time.perf_counter() - t0 < 1.0
    # (J0^2 Jp^3 + Jp)(Jm^2 J0 + Jm): (2+1)(2+1)(1+1) + (1+1)(2+1)(0+1)
    # + (1+1)(0+1)(1+1) + (1+1)(0+1)(0+1) = 18 + 6 + 4 + 2 = 30
    x = NCPoly({(0, 2, 3): 1, (0, 0, 1): 1})
    y = NCPoly({(2, 1, 0): 1, (1, 0, 0): 1})
    monkeypatch.setattr(rewrite, "MAX_TERM_PAIRS", 30)
    assert x * y == nf_word(("J0", "J0", "Jp", "Jp", "Jp", "Jm", "Jm", "J0")) + nf_word(
        ("J0", "J0", "Jp", "Jp", "Jp", "Jm")) + nf_word(("Jp", "Jm", "Jm", "J0")) + nf_word(("Jp", "Jm"))
    monkeypatch.setattr(rewrite, "MAX_TERM_PAIRS", 29)
    with pytest.raises(DomainError, match="MAX_TERM_PAIRS"):
        x * y


def test_reference_caps():
    with pytest.raises(DomainError, match="at most"):
        nf_word(("J0",) * 1200 + ("Jm",))
    with pytest.raises(DomainError, match="at most"):
        nf_word(("Jp",) * (MAX_REFERENCE_LETTERS + 1))
    assert nf_word(("J0",) * (MAX_REFERENCE_LETTERS - 1) + ("Jm",)) == J0 ** 23 * Jm


def test_reference_word_budget(monkeypatch):
    # the rightmost scan is exponential on Jpinv Jm**n; the budget stops it
    monkeypatch.setattr(rewrite, "MAX_REFERENCE_WORDS", 1000)
    rewrite._NF_MEMO.clear()
    word = ("Jpinv",) + ("Jm",) * 6
    with pytest.raises(DomainError, match="MAX_REFERENCE_WORDS"):
        nf_word(word, "rightmost")
    rewrite._NF_MEMO.clear()
    assert nf_word(word, "leftmost") == Jpinv * Jm ** 6


def test_a_failed_reference_call_leaves_the_memo_as_it_found_it(monkeypatch):
    monkeypatch.setattr(rewrite, "MAX_REFERENCE_WORDS", 1000)
    rewrite._NF_MEMO.clear()
    assert nf_word(("Jm", "Jp"), "rightmost") == Jm * Jp
    before = dict(rewrite._NF_MEMO)
    with pytest.raises(DomainError, match="MAX_REFERENCE_WORDS"):
        nf_word(("Jpinv",) + ("Jm",) * 6, "rightmost")
    assert rewrite._NF_MEMO == before
    assert list(rewrite._NF_MEMO) == list(before)
    rewrite._NF_MEMO.clear()
