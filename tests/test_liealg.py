"""Spin modules and matrix helpers."""

import numpy as np
import pytest
import scipy.linalg

from elliptic_sl2.errors import DomainError
from elliptic_sl2.liealg import (
    KronSum,
    build_spin,
    commutator,
    coproduct_classical,
    frobenius,
    kron,
    mat_apply_series,
    matrix_from_json,
    matrix_to_json,
    worst,
)
from elliptic_sl2.series import TruncatedSeries, exp_series


def test_spin_half_matrices_exact():
    r = build_spin(0.5)
    assert r.dim == 2
    assert np.array_equal(r.Jp, np.array([[0, 1], [0, 0]], dtype=complex))
    assert np.array_equal(r.Jm, np.array([[0, 0], [1, 0]], dtype=complex))
    assert np.array_equal(r.J0, np.diag([0.5, -0.5]).astype(complex))


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
    got = mat_apply_series(s, r.Jp)
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
        yield coproduct_classical(build_spin(j1), build_spin(j2))[0]


def test_mat_apply_series_matches_explicit_power_sum():
    rng = np.random.default_rng(21)
    worst = 0.0
    for m in _nilpotent_inputs():
        dim = m.shape[0]
        powers = [np.linalg.matrix_power(m, i) for i in range(3 * dim + 1)]
        for order in range(3 * dim + 1):
            c = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
            expect = sum(ci * p for ci, p in zip(c, powers))
            got = mat_apply_series(TruncatedSeries(c), m)
            worst = max(worst, frobenius(got - expect) / frobenius(expect))
    assert worst <= 1e-13


def test_mat_apply_series_is_bit_identical_past_the_nilpotency_bound():
    rng = np.random.default_rng(22)
    for m in _nilpotent_inputs():
        dim = m.shape[0]
        c = rng.standard_normal(3 * dim + 1) + 1j * rng.standard_normal(3 * dim + 1)
        first = mat_apply_series(TruncatedSeries(c[:dim]), m)
        for order in range(dim, 3 * dim + 1):
            assert np.array_equal(mat_apply_series(TruncatedSeries(c[: order + 1]), m), first)


def test_mat_apply_series_rejects_entries_on_or_below_the_diagonal():
    rng = np.random.default_rng(23)
    s = TruncatedSeries(np.ones(4, dtype=complex))
    for dim in range(1, 31):
        m = _strictly_upper(rng, dim)
        row = int(rng.integers(dim))
        col = int(rng.integers(row + 1))  # col <= row: on or below the diagonal
        m[row, col] = complex(rng.standard_normal(), rng.standard_normal())
        with pytest.raises(DomainError):
            mat_apply_series(s, m)
    with pytest.raises(DomainError):
        mat_apply_series(s, np.eye(3))
    with pytest.raises(DomainError):
        mat_apply_series(s, np.zeros((2, 3)))


def _kron_sum_inputs():
    """Random strictly upper-triangular factor pairs of unequal dims, dim 1
    among them, then the threefold primitive sums of raising operators with
    one factor itself a materialized sum."""
    rng = np.random.default_rng(30)
    for d1, d2 in ((1, 1), (1, 4), (5, 1), (2, 3), (4, 4), (6, 3), (3, 8)):
        yield KronSum(_strictly_upper(rng, d1), _strictly_upper(rng, d2))
    for j1, j2, j3 in ((0.5, 1.0, 1.5), (1.0, 1.0, 0.5), (1.5, 0.5, 2.0)):
        r1, r2, r3 = build_spin(j1), build_spin(j2), build_spin(j3)
        yield KronSum(KronSum(r1.Jp, r2.Jp).dense(), r3.Jp)
        yield KronSum(r1.Jp, KronSum(r2.Jp, r3.Jp).dense())


def _rel_gap(got, expect):
    return frobenius(got - expect) / max(frobenius(expect), 1e-300)


def test_kron_sum_dense_is_the_primitive_sum():
    rng = np.random.default_rng(31)
    a, b = rng.standard_normal((3, 3)), rng.standard_normal((4, 4))
    ks = KronSum(a, b)
    assert np.array_equal(ks.dense(), kron(a, np.eye(4)) + kron(np.eye(3), b))
    # strictly upper factors never overlap in the sum, so scaling is exact
    ks = KronSum(np.triu(a, 1), np.triu(b, 1))
    assert np.array_equal(((0.4 - 2j) * ks).dense(), (0.4 - 2j) * ks.dense())


def test_kron_sum_route_matches_the_dense_route():
    rng = np.random.default_rng(32)
    worst = 0.0
    for ks in _kron_sum_inputs():
        dense = ks.dense()
        top = ks.a.shape[0] + ks.b.shape[0] + 2
        for order in range(top):
            c = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
            s = TruncatedSeries(c)
            got = mat_apply_series(s, ks)
            assert got.shape == dense.shape
            worst = max(worst, _rel_gap(got, mat_apply_series(s, dense)))
        got = mat_apply_series(exp_series(top), ks)
        worst = max(worst, _rel_gap(got, mat_apply_series(exp_series(top), dense)))
    assert worst <= 1e-13


def test_exp_of_a_kron_sum_is_the_kron_of_the_exps():
    for ks in _kron_sum_inputs():
        order = ks.a.shape[0] + ks.b.shape[0]
        got = mat_apply_series(exp_series(order), ks)
        expect = np.kron(scipy.linalg.expm(ks.a), scipy.linalg.expm(ks.b))
        assert _rel_gap(got, expect) <= 1e-13


def test_kron_sum_route_is_bit_identical_past_the_nilpotency_bound():
    rng = np.random.default_rng(33)
    for ks in _kron_sum_inputs():
        n = ks.a.shape[0] + ks.b.shape[0] - 2
        c = rng.standard_normal(3 * n + 3) + 1j * rng.standard_normal(3 * n + 3)
        first = mat_apply_series(TruncatedSeries(c[: n + 1]), ks)
        for order in range(n + 1, 3 * n + 3):
            assert np.array_equal(mat_apply_series(TruncatedSeries(c[: order + 1]), ks), first)


def test_kron_sum_route_rejects_factors_that_are_not_strictly_upper_triangular():
    rng = np.random.default_rng(34)
    s = TruncatedSeries(np.ones(4, dtype=complex))
    for dim in range(1, 7):
        bad = _strictly_upper(rng, dim)
        row = int(rng.integers(dim))
        bad[row, int(rng.integers(row + 1))] = 1.0
        good = _strictly_upper(rng, 3)
        for ks in (KronSum(bad, good), KronSum(good, bad)):
            with pytest.raises(DomainError):
                mat_apply_series(s, ks)
    with pytest.raises(DomainError):
        mat_apply_series(s, KronSum(np.zeros((2, 3)), np.zeros((2, 2))))


def test_classical_coproduct_satisfies_relations():
    r1, r2 = build_spin(0.5), build_spin(1.0)
    djp, djm, dj0 = coproduct_classical(r1, r2)
    assert frobenius(commutator(djp, djm) - 2 * dj0) < 1e-13
    assert frobenius(commutator(dj0, djp) - djp) < 1e-13
    d = r1.dim * r2.dim
    assert djp.shape == (d, d)
    assert np.max(np.abs(kron(np.eye(r1.dim), r2.Jp)
                         + kron(r1.Jp, np.eye(r2.dim)) - djp)) == 0.0


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    back = matrix_from_json(matrix_to_json(m))
    assert np.array_equal(back, m)


def test_matrix_from_json_validates_entry_count():
    with pytest.raises(DomainError):
        matrix_from_json({"dim": 2, "entries": [[0.0, 0.0]] * 3})


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
