"""Spin modules and matrix helpers."""

import functools
import math

import numpy as np
import pytest
import scipy.linalg

from elliptic_sl2 import liealg
from elliptic_sl2.errors import DomainError
from elliptic_sl2.elliptic import asn_series
from elliptic_sl2.liealg import (
    MAX_SPIN_DIM,
    RaisingPoly,
    build_spin,
    commutator,
    densify,
    frobenius,
    mat_apply_series,
    nilpotency_bound,
    worst,
)
from elliptic_sl2.series import TruncatedSeries, exp_series
from reference_dense import mat_apply_series as dense_apply


def test_spin_half_matrices_exact():
    r = build_spin(0.5)
    assert r.dim == 2
    assert np.array_equal(r.Jp, np.array([[0, 1], [0, 0]], dtype=complex))
    assert np.array_equal(r.Jm, np.array([[0, 0], [1, 0]], dtype=complex))
    assert np.array_equal(r.J0, np.diag([0.5, -0.5]).astype(complex))


def test_spin_matrices_match_the_loop_form_bit_for_bit():
    for two_j in range(401):
        j = two_j / 2.0
        dim = two_j + 1
        m = j - np.arange(dim)
        jp = np.zeros((dim, dim))
        for col in range(1, dim):
            jp[col - 1, col] = np.sqrt((j - m[col]) * (j + m[col] + 1.0))
        r = build_spin(j)
        assert r.Jp.dtype == jp.dtype and r.Jp.tobytes() == jp.tobytes(), two_j
        assert r.Jm.tobytes() == jp.T.copy().tobytes(), two_j


@pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5])
def test_commutation_relations(j):
    r = build_spin(j)
    assert frobenius(commutator(r.Jp, r.Jm) - 2 * r.J0) < 1e-13
    assert frobenius(commutator(r.J0, r.Jp) - r.Jp) < 1e-13
    assert frobenius(commutator(r.J0, r.Jm) + r.Jm) < 1e-13


@pytest.mark.parametrize("j", [0.5, 1.0, 2.5])
def test_classical_casimir(j):
    r = build_spin(j)
    c = r.Jm @ r.Jp + r.J0 @ r.J0 + r.J0
    assert frobenius(c - j * (j + 1) * np.eye(r.dim)) < 1e-13


def test_raising_is_strictly_upper_triangular_and_nilpotent():
    r = build_spin(2.0)
    assert np.all(np.tril(r.Jp) == 0.0)
    power = np.linalg.matrix_power(r.Jp, r.dim)
    assert np.array_equal(power, np.zeros_like(power))
    assert np.any(np.linalg.matrix_power(r.Jp, r.dim - 1) != 0.0)


def test_build_spin_rejects_bad_labels():
    with pytest.raises(DomainError):
        build_spin(0.3)
    with pytest.raises(DomainError):
        build_spin(-1.0)
    for label in (float("nan"), float("inf"), -1e308, 1e308):
        with pytest.raises(DomainError):
            build_spin(label)


def test_mat_apply_series_is_polynomial_evaluation():
    r = build_spin(1.0)
    s = TruncatedSeries(np.array([2.0, 0.0, 1.0], dtype=complex))  # 2 + u^2
    got = mat_apply_series(s, r.raising).dense()
    expect = 2 * np.eye(3) + r.Jp @ r.Jp
    assert np.max(np.abs(got - expect)) == 0.0


def _strictly_upper(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return np.triu(z, 1)


def _nilpotent_inputs():
    """Random strictly upper-triangular matrices of dim 1..30, then the
    Kronecker sums Jp x 1 + 1 x Jp of a few spin-module pairs (nilpotent far
    below dim)."""
    rng = np.random.default_rng(20)
    for dim in range(1, 31):
        yield _strictly_upper(rng, dim)
    for j1, j2 in ((0.5, 1.0), (1.0, 1.5), (2.0, 2.5), (3.0, 3.0)):
        yield build_spin(j1).raising.tensor_sum(build_spin(j2).raising).dense()


def test_a_matrix_argument_is_refused_by_name():
    """Every series is taken on an element of the raising algebra; a matrix,
    even a strictly upper-triangular one, is refused before any work."""
    s = TruncatedSeries(np.ones(4, dtype=complex))
    rep = build_spin(1.5)
    for m in (rep.Jp, rep.raising.dense(), np.eye(3), np.zeros((2, 3))):
        for call in (lambda: mat_apply_series(s, m), lambda: mat_apply_series([s, s], m),
                     lambda: liealg.apply_table([s.coeffs], m)):
            with pytest.raises(DomainError, match="not a matrix"):
                call()


def test_mat_apply_series_matches_explicit_power_sum():
    rng = np.random.default_rng(21)
    worst = 0.0
    for m in _nilpotent_inputs():
        dim = m.shape[0]
        powers = [np.linalg.matrix_power(m, i) for i in range(3 * dim + 1)]
        for order in range(3 * dim + 1):
            c = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
            expect = sum(ci * p for ci, p in zip(c, powers))
            got = dense_apply(TruncatedSeries(c), m)
            worst = max(worst, frobenius(got - expect) / frobenius(expect))
    assert worst <= 1e-13


def test_mat_apply_series_is_bit_identical_past_the_nilpotency_bound():
    rng = np.random.default_rng(22)
    for m in _nilpotent_inputs():
        dim = m.shape[0]
        c = rng.standard_normal(3 * dim + 1) + 1j * rng.standard_normal(3 * dim + 1)
        first = dense_apply(TruncatedSeries(c[:dim]), m)
        for order in range(dim, 3 * dim + 1):
            assert np.array_equal(dense_apply(TruncatedSeries(c[: order + 1]), m), first)


def test_mat_apply_series_rejects_entries_on_or_below_the_diagonal():
    rng = np.random.default_rng(23)
    s = TruncatedSeries(np.ones(4, dtype=complex))
    for dim in range(1, 31):
        m = _strictly_upper(rng, dim)
        row = int(rng.integers(dim))
        col = int(rng.integers(row + 1))  # col <= row: on or below the diagonal
        m[row, col] = complex(rng.standard_normal(), rng.standard_normal())
        with pytest.raises(DomainError):
            dense_apply(s, m)
    with pytest.raises(DomainError):
        dense_apply(s, np.eye(3))
    with pytest.raises(DomainError):
        dense_apply(s, np.zeros((2, 3)))


def _element(rng, dim, complex_entries=True, odd=False):
    """A random element of the one-factor algebra of dimension dim: random
    coefficients without constant term (or without any at even degree) on a
    random superdiagonal."""
    c = rng.standard_normal(dim)
    if complex_entries:
        c = c + 1j * rng.standard_normal(dim)
    c[:: 2 if odd else dim] = 0.0
    return RaisingPoly(c, (rng.standard_normal(dim - 1),))


def _kron_sum_inputs():
    """Factor pairs (a, b) of the Kronecker sum a x 1 + 1 x b: random
    elements of unequal dims, dim 1 among them, a random element beside a
    raising operator, then the threefold primitive sums of raising operators
    with one factor itself a sum."""
    rng = np.random.default_rng(30)
    for d1, d2 in ((1, 1), (1, 4), (5, 1), (2, 3), (4, 4), (6, 3), (3, 8)):
        yield _element(rng, d1), _element(rng, d2)
    yield _element(rng, 4), build_spin(1.5).raising
    yield build_spin(1.0).raising, _element(rng, 5)
    for j1, j2, j3 in ((0.5, 1.0, 1.5), (1.0, 1.0, 0.5), (1.5, 0.5, 2.0)):
        s1, s2, s3 = build_spin(j1).raising, build_spin(j2).raising, build_spin(j3).raising
        yield s1.tensor_sum(s2), s3
        yield s1, s2.tensor_sum(s3)


def _rel_gap(got, expect):
    return frobenius(got - expect) / max(frobenius(expect), 1e-300)


def _sum_of_parts(rng, dims, odd, complex_entries=True):
    """A random sum a_1(S_1) + ... + a_m(S_m) of one-factor parts on random
    superdiagonals; with odd parts the sum's matrix is odd under the weight
    parity sum_i r_i mod 2."""
    parts = [_element(rng, d, complex_entries, odd) for d in dims]
    return functools.reduce(RaisingPoly.tensor_sum, parts)


def _sum_inputs():
    """Random sums of one-factor parts on up to three factors, odd and
    general, real and complex, factors of dimension 1 among them."""
    rng = np.random.default_rng(38)
    for dims in ((1,), (5,), (1, 1), (1, 2), (2, 1), (2, 3), (3, 3), (4, 2), (5, 4), (6, 7),
                 (2, 3, 4)):
        for odd in (True, False):
            for complex_entries in (False, True):
                yield _sum_of_parts(rng, dims, odd, complex_entries), odd


def test_sums_of_one_factor_parts_match_the_dense_route():
    rng = np.random.default_rng(40)
    top = 0.0
    for op, odd in _sum_inputs():
        dense = op.dense()
        if odd:
            parity = np.indices(op.coeffs.shape).sum(axis=0).ravel() % 2
            assert not dense[parity[:, None] == parity].any()
        bound = nilpotency_bound(op)
        assert bound == sum(op.coeffs.shape) - op.coeffs.ndim
        for n in sorted({0, 1, 2, 3, bound // 2, bound, bound + 2}):
            c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
            parity = np.arange(n + 1) % 2
            for coeffs in (c, c.real, np.where(parity == 0, c, 0), np.where(parity == 1, c, 0),
                           np.where(parity == 1, c.real, 0)):
                s = TruncatedSeries(coeffs)
                got, expect = mat_apply_series(s, op).dense(), dense_apply(s, dense)
                assert got.shape == expect.shape and got.dtype == expect.dtype
                top = max(top, frobenius(got - expect) / max(frobenius(expect), 1e-300))
    assert top <= 1e-14


def test_algebra_route_refuses_an_element_that_is_not_a_sum_of_one_factor_parts():
    s = TruncatedSeries(np.ones(4))
    rng = np.random.default_rng(42)
    for dims, cross in (((2, 2), (1, 1)), ((3, 4), (2, 1)), ((2, 3, 2), (1, 0, 1))):
        x = _sum_of_parts(rng, dims, odd=False)
        coeffs = x.coeffs.copy()
        coeffs[cross] = 0.5          # a product S_i S_j of two factors
        with pytest.raises(DomainError, match="sum of one-factor parts"):
            mat_apply_series([s, s], RaisingPoly(coeffs, x.w))
        mat_apply_series(s, x)


def test_algebra_route_refuses_an_element_with_a_constant_term():
    s = TruncatedSeries(np.ones(4))
    rng = np.random.default_rng(41)
    for d1, d2 in ((1, 1), (2, 3), (4, 2)):
        x = _sum_of_parts(rng, (d1, d2), odd=True)
        with_constant = RaisingPoly(x.coeffs + (np.arange(x.coeffs.size) == 0).reshape(d1, d2),
                                    x.w)
        assert np.diagonal(with_constant.dense()).all()   # the constant is on the diagonal
        with pytest.raises(DomainError, match="strictly upper-triangular"):
            mat_apply_series(s, with_constant)
    with pytest.raises(DomainError, match="do not fit"):
        RaisingPoly(np.zeros((2, 3)), (np.zeros(1), np.zeros(1)))


def test_kron_sum_dense_is_the_primitive_sum():
    rng = np.random.default_rng(31)
    a, b = _element(rng, 3), _element(rng, 4)
    ks = a.tensor_sum(b)
    assert np.array_equal(ks.dense(), np.kron(a.dense(), np.eye(4)) + np.kron(np.eye(3), b.dense()))
    # a sum of generators has unit coefficients, so scaling is exact
    ks = build_spin(1.0).raising.tensor_sum(build_spin(1.5).raising)
    scaled = RaisingPoly((0.4 - 2j) * ks.coeffs, ks.w)
    assert np.array_equal(scaled.dense(), (0.4 - 2j) * ks.dense())


def test_kron_sum_route_matches_the_dense_route():
    rng = np.random.default_rng(32)
    worst = 0.0
    for a, b in _kron_sum_inputs():
        ks = a.tensor_sum(b)
        dense = ks.dense()
        top = sum(ks.coeffs.shape) + 2
        for order in range(top):
            c = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
            s = TruncatedSeries(c)
            got = mat_apply_series(s, ks).dense()
            assert got.shape == dense.shape
            worst = max(worst, _rel_gap(got, dense_apply(s, dense)))
        got = mat_apply_series(exp_series(top), ks).dense()
        worst = max(worst, _rel_gap(got, dense_apply(exp_series(top), dense)))
    assert worst <= 1e-13


def test_exp_of_a_kron_sum_is_the_kron_of_the_exps():
    for a, b in _kron_sum_inputs():
        ks = a.tensor_sum(b)
        got = mat_apply_series(exp_series(sum(ks.coeffs.shape)), ks).dense()
        expect = np.kron(scipy.linalg.expm(a.dense()), scipy.linalg.expm(b.dense()))
        assert _rel_gap(got, expect) <= 1e-13


def test_kron_sum_route_is_bit_identical_past_the_nilpotency_bound():
    rng = np.random.default_rng(33)
    for a, b in _kron_sum_inputs():
        ks = a.tensor_sum(b)
        n = nilpotency_bound(ks)
        assert n == sum(ks.coeffs.shape) - ks.coeffs.ndim
        c = rng.standard_normal(3 * n + 3) + 1j * rng.standard_normal(3 * n + 3)
        first = mat_apply_series(TruncatedSeries(c[: n + 1]), ks).coeffs
        for order in range(n + 1, 3 * n + 3):
            assert np.array_equal(mat_apply_series(TruncatedSeries(c[: order + 1]), ks).coeffs,
                                  first)


def _series_batch(rng, bound):
    """Series of orders below, at and past a nilpotency bound, truncations of
    one another among them, and a constant."""
    c = rng.standard_normal(2 * bound + 3) + 1j * rng.standard_normal(2 * bound + 3)
    orders = {0, 1, 2, 3, max(bound - 1, 0), bound, bound + 1, 2 * bound + 2}
    return [TruncatedSeries(c[: n + 1]) for n in sorted(orders)] + [TruncatedSeries(c[:1])]


def _values(result):
    """A matrix, or the coefficient array of an element."""
    return result.coeffs if isinstance(result, RaisingPoly) else result


def test_a_batch_gives_the_same_bits_as_each_series_alone():
    rng = np.random.default_rng(35)
    args = [m for m in _nilpotent_inputs()] + [a.tensor_sum(b) for a, b in _kron_sum_inputs()]
    for m in args:      # a matrix on the dense reference route, an element on the package's
        element = isinstance(m, RaisingPoly)
        batch = _series_batch(rng, nilpotency_bound(m) if element else m.shape[0] - 1)
        if element:  # an even and an odd series, and a real one
            c = batch[-2].coeffs
            batch += [TruncatedSeries(np.where(np.arange(c.size) % 2 == p, c, 0)) for p in (0, 1)]
            batch.append(TruncatedSeries(c.real))
        apply = mat_apply_series if element else dense_apply
        for seq in (batch, tuple(reversed(batch))):
            got = apply(seq, m)
            assert type(got) is list and len(got) == len(seq)
            for s, mat in zip(seq, got):
                assert np.array_equal(_values(mat), _values(apply(s, m)))
    assert mat_apply_series([], build_spin(1.0).raising) == []


def test_a_batch_validates_its_argument_once(calculus_calls):
    """One power table on each factor for the whole batch, each built from
    its part's one multiplication matrix, and none at a generator S."""
    rng = np.random.default_rng(36)
    mat_apply_series(_series_batch(rng, 6), _element(rng, 3).tensor_sum(_element(rng, 5)))
    assert [a.shape for a in calculus_calls.tables()] == [(3,), (5,)]
    calculus_calls.clear()
    mat_apply_series(_series_batch(rng, 6), _element(rng, 3).tensor_sum(build_spin(2.0).raising))
    assert [a.shape for a in calculus_calls.tables()] == [(3,)]


def test_frobenius_matches_the_library_norm():
    rng = np.random.default_rng(37)
    top = 0.0
    for dim in (1, 2, 3, 7, 17, 50, 121, 289, 400):
        for scale in (1e-150, 1.0, 1e150):
            a = scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            ref = np.linalg.norm(a, "fro")
            got = frobenius(a)
            assert type(got) is float
            top = max(top, abs(got - ref) / ref)
    assert top <= 1e-14
    assert frobenius(np.zeros((3, 3), dtype=complex)) == 0.0
    assert frobenius(np.eye(4)) == 2.0
    view = (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[::2, 1::2]
    assert abs(frobenius(view) - np.linalg.norm(view, "fro")) <= 1e-14 * frobenius(view)


@pytest.mark.parametrize("entries, expect", [
    ([1e200, 1e200], math.sqrt(2) * 1e200),
    ([1e200 + 1e200j, -3e199j], math.sqrt(2.09) * 1e200),
    ([1.5e308, 1.5e308], math.inf),  # the norm itself overflows
    ([1e-170, 1e-170], math.sqrt(2) * 1e-170),
    ([1e-300, -1e-300j], math.sqrt(2) * 1e-300),
])
def test_frobenius_scales_entries_whose_squares_overflow_or_underflow(entries, expect):
    got = frobenius(np.array(entries))
    assert type(got) is float
    assert got == expect or abs(got - expect) <= 4e-16 * expect


def test_frobenius_keeps_the_one_dot_product_bits_in_range():
    rng = np.random.default_rng(38)
    for dim in (1, 3, 25, 121):
        for scale in (1e-150, 1e-20, 1.0, 1e20, 1e150):
            a = scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            assert frobenius(a) == math.sqrt(np.vdot(a, a).real)
    # NaN and inf propagate, at either extreme too.
    assert math.isnan(frobenius(np.array([1e200, np.nan])))
    assert math.isnan(frobenius(np.array([1e-170, np.nan])))
    assert frobenius(np.array([1e200, np.inf])) == math.inf
    assert frobenius(np.zeros(0)) == 0.0 and frobenius(np.array([0.0, -0.0])) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf), complex(np.nan, 1)])
def test_a_non_finite_entry_gives_a_residual_that_fails(bad):
    m = np.ones((4, 4), dtype=complex)
    m[1, 2] = bad
    residual = frobenius(m) / max(1.0, frobenius(np.eye(4)))
    assert not worst([1e-16, residual]) <= 1e-9


def test_kron_sum_route_rejects_factors_that_are_not_strictly_upper_triangular():
    rng = np.random.default_rng(34)
    s = TruncatedSeries(np.ones(4, dtype=complex))
    for dim in range(1, 7):
        bad = _element(rng, dim)
        bad.coeffs[0] = 1.0   # a constant term: the diagonal of the factor's matrix
        good = _element(rng, 3)
        for ks in (bad.tensor_sum(good), good.tensor_sum(bad)):
            with pytest.raises(DomainError):
                mat_apply_series(s, ks)
    with pytest.raises(DomainError):
        RaisingPoly(np.zeros((2, 3)), (np.zeros(1), np.zeros(1)))


def test_non_finite_entries_are_named_as_an_overflow():
    s = TruncatedSeries(np.ones(4, dtype=complex))
    finite = np.triu(np.ones((3, 3)))
    with pytest.raises(DomainError, match="strictly upper-triangular"):
        dense_apply(s, finite)
    for bad in (np.nan, np.inf):
        m = np.triu(np.ones((3, 3)), 1)
        m[2, 0] = bad
        with pytest.raises(DomainError, match="overflow"):
            dense_apply(s, m)


def test_classical_coproduct_satisfies_relations():
    r1, r2 = build_spin(0.5), build_spin(1.0)
    djp, djm, dj0 = (np.kron(a, np.eye(r2.dim)) + np.kron(np.eye(r1.dim), b)
                     for a, b in ((r1.Jp, r2.Jp), (r1.Jm, r2.Jm), (r1.J0, r2.J0)))
    assert frobenius(commutator(djp, djm) - 2 * dj0) < 1e-13
    assert frobenius(commutator(dj0, djp) - djp) < 1e-13
    d = r1.dim * r2.dim
    assert djp.shape == (d, d)
    assert np.max(np.abs(r1.raising.tensor_sum(r2.raising).dense() - djp)) == 0.0


def test_worst_is_the_largest_residual():
    assert worst([3e-16, 1e-12, 0.0]) == 1e-12
    assert worst(v for v in (2.0, 5.0)) == 5.0
    assert worst([]) == 0.0
    assert worst([1e-16, float("inf")]) == float("inf")


@pytest.mark.parametrize("where", [0, 1, 2])
def test_worst_ranks_a_nan_above_every_number(where):
    values = [1e-16, float("inf"), 2e-15]
    values.insert(where, float("nan"))
    top = worst(values)
    assert top != top
    assert not top <= 1e-9


def test_spin_dimension_cap():
    j_max = (MAX_SPIN_DIM - 1) / 2
    assert build_spin(j_max).dim == MAX_SPIN_DIM
    for j in (j_max + 0.5, 5000, 1e300):
        with pytest.raises(DomainError, match="cap"):
            build_spin(j)


def _at_half(s, h):
    """s with coefficient i scaled by (h/2)**i: the series of F((h/2) M)."""
    return TruncatedSeries(s.coeffs * (complex(h) / 2.0) ** np.arange(s.order + 1))


@pytest.mark.parametrize("h", [0.0, 0.45, 0.8 - 0.3j])
@pytest.mark.parametrize("j", [0.0, 0.5, 1.0, 2.5, 8.0, 40.0])
def test_raising_gather_matches_dense_paterson_stockmeyer(j, h):
    rep = build_spin(j)
    raising = rep.raising
    assert np.array_equal(raising.dense(), rep.Jp)
    assert nilpotency_bound(raising) == rep.dim - 1
    u = TruncatedSeries.identity(rep.dim)
    series = [_at_half(s, h) for s in (asn_series(0.6, rep.dim), asn_series(1.0, rep.dim),
                                       exp_series(rep.dim), (1.0 - u * u).pow_rational(0.25))]
    if h:   # a real series beside a complex one keeps its own dtype and bits
        series.append(asn_series(0.6, rep.dim))
    batch = densify(mat_apply_series(series, raising))
    for s, together in zip(series, batch):
        got, ref = mat_apply_series(s, raising).dense(), dense_apply(s, rep.Jp)
        assert np.array_equal(got, together) and got.dtype == together.dtype == ref.dtype
        assert together.flags.c_contiguous   # later matrix products run on it
        assert frobenius(got - ref) <= 1e-14 * frobenius(ref)


def test_raising_gather_keeps_the_powers_in_range_where_the_entries_are():
    """At spin 100 the products of the superdiagonal reach 200!, past double
    range, while arcsn((h/2) J+) itself stays finite."""
    rep = build_spin(100.0)
    s = _at_half(asn_series(0.6, rep.dim), 0.8)
    got, ref = mat_apply_series(s, rep.raising).dense(), dense_apply(s, rep.Jp)
    assert np.isfinite(ref).all() and np.array_equal(got != 0, ref != 0)
    assert np.max(abs(got - ref)[ref != 0] / abs(ref[ref != 0])) <= 1e-14


def _shift(w):
    """The generator S with superdiagonal w."""
    return RaisingPoly(np.eye(1, w.size + 1, 1)[0], (w,))


def test_raising_gather_refuses_an_overflowing_entry():
    op = _shift(np.full(40, 1e10))   # entry [0, 40] is 1e400 / 40!
    with pytest.raises(DomainError, match="overflowed double precision"):
        mat_apply_series(exp_series(40), op).dense()
    assert np.isfinite(mat_apply_series(exp_series(40), _shift(np.full(40, 1e7))).dense()).all()
    c = _shift(np.full(40, 5e9 + 5e9j))   # a complex shift stays complex under a real series
    assert np.array_equal(mat_apply_series(exp_series(3), c).dense(),
                          dense_apply(exp_series(3), c.dense()))
