"""Coproducts: relations on tensor products, re-expressed raising images,
cocommutativity gaps, coassociativity."""

import dataclasses

import numpy as np
import pytest

from elliptic_sl2 import liealg
from elliptic_sl2.deform import (
    DeformParams,
    build_jordanian_triplet,
    deform_generators,
    lift_generators,
)
from elliptic_sl2.hopf import (
    coassociativity_delta1,
    coassociativity_uh,
    cocommutativity_gap,
    delta1,
    delta2,
    delta_uh,
    delta1_x_from_factor_sn,
    delta2_x_from_factor_sn,
    verify_coproduct,
    _swap_factors,
)
from elliptic_sl2.liealg import (
    KronSum,
    build_spin,
    coproduct_classical,
    frobenius,
    kron,
    mat_apply_series,
    worst,
)

PAIRS = [(0.5, 0.5), (0.5, 1.0), (1.0, 1.0)]


def report_ok(report, tol):
    vals = [v for k, v in report.items()
            if k != "cocommutativity_gap" and isinstance(v, float)]
    return max(vals) <= tol


@pytest.mark.parametrize("j1,j2", PAIRS)
def test_deformed_primitive_coproduct(j1, j2):
    ct = delta1(DeformParams(h=0.8, k=0.5), build_spin(j1), build_spin(j2))
    report = verify_coproduct(ct)
    assert report_ok(report, 1e-10)
    assert report["eq48_vs_eq39"] <= 1e-10
    # this coproduct is cocommutative
    assert report["cocommutativity_gap"] <= 1e-12


@pytest.mark.parametrize("j1,j2", PAIRS)
def test_twisted_hyperbolic_coproduct(j1, j2):
    ct = delta_uh(0.8, build_spin(j1), build_spin(j2))
    report = verify_coproduct(ct)
    assert report_ok(report, 1e-10)
    assert report["cocommutativity_gap"] > 0.1


@pytest.mark.parametrize("j1,j2", PAIRS)
def test_lifted_twisted_coproduct(j1, j2):
    ct = delta2(DeformParams(h=0.8, k=0.5), build_spin(j1), build_spin(j2))
    report = verify_coproduct(ct)
    assert report_ok(report, 1e-10)
    assert report["eq49_vs_eq45"] <= 1e-10
    assert report["cocommutativity_gap"] > 0.1


def test_twisted_raising_is_primitive():
    r1, r2 = build_spin(0.5), build_spin(1.0)
    ct = delta_uh(0.8, r1, r2)
    t1 = build_jordanian_triplet(r1, 0.8)
    t2 = build_jordanian_triplet(r2, 0.8)
    primitive = kron(t1.Xhat, np.eye(r2.dim)) + kron(np.eye(r1.dim), t2.Xhat)
    assert np.max(np.abs(ct.DX - primitive)) == 0.0


def test_reexpressed_raising_images_match_both_families():
    p = DeformParams(h=0.8, k=0.5)
    r1, r2 = build_spin(1.0), build_spin(0.5)
    ct1 = delta1(p, r1, r2)
    alt1 = delta1_x_from_factor_sn(p, r1, r2)
    assert frobenius(ct1.DX - alt1) / max(1.0, frobenius(ct1.DX)) < 1e-10
    ct2 = delta2(p, r1, r2)
    alt2 = delta2_x_from_factor_sn(p, r1, r2)
    assert frobenius(ct2.DX - alt2) / max(1.0, frobenius(ct2.DX)) < 1e-10


def test_coproducts_collapse_to_classical_at_small_h():
    r1, r2 = build_spin(0.5), build_spin(1.0)
    djp, djm, dj0 = coproduct_classical(r1, r2)
    ct = delta_uh(1e-8, r1, r2)
    assert np.max(np.abs(ct.DX - djp)) < 1e-7
    assert np.max(np.abs(ct.DY - djm)) < 1e-7
    assert np.max(np.abs(ct.DJ0 - dj0)) < 1e-7


def test_coassociativity_of_the_twisted_coproduct():
    r = build_spin(0.5)
    gaps = coassociativity_uh(0.8, r, r, r)
    assert gaps["max"] <= 1e-11


def test_coassociativity_of_the_primitive_coproduct():
    r = build_spin(0.5)
    gaps = coassociativity_delta1(DeformParams(h=0.8, k=0.5), r, r, r)
    assert gaps["max"] <= 1e-11


def test_cocommutativity_gap_keys():
    ct = delta1(DeformParams(h=0.4, k=0.3), build_spin(0.5), build_spin(0.5))
    gaps = cocommutativity_gap(ct)
    assert set(gaps) == {"X", "Y", "J0", "max"}
    assert gaps["max"] < 1e-12


@pytest.mark.parametrize("d1,d2", [(2, 3), (3, 2), (4, 4)])
def test_factor_swap_is_the_permutation_conjugation(d1, d2):
    p = np.zeros((d1 * d2, d1 * d2))
    for i1 in range(d1):
        for i2 in range(d2):
            p[i2 * d1 + i1, i1 * d2 + i2] = 1.0
    rng = np.random.default_rng(d1 * 10 + d2)
    a = rng.standard_normal((d1 * d2,) * 2) + 1j * rng.standard_normal((d1 * d2,) * 2)
    assert np.array_equal(_swap_factors(a, d1, d2), p @ a @ p.T)
    b1 = rng.standard_normal((d1, d1))
    b2 = rng.standard_normal((d2, d2))
    assert np.array_equal(_swap_factors(kron(b1, b2), d1, d2), kron(b2, b1))


def test_delta1_is_cocommutative_on_unequal_factors():
    ct = delta1(DeformParams(h=0.35, k=0.7), build_spin(1.5), build_spin(2.0))
    assert cocommutativity_gap(ct)["max"] <= 1e-13


def test_a_nan_gap_is_the_max_gap():
    r = build_spin(0.5)
    ct = delta1(DeformParams(h=0.4, k=0.3), r, r)
    broken = dataclasses.replace(ct, DY=ct.DY * np.nan)
    gap = cocommutativity_gap(broken)["max"]
    assert gap != gap
    gap = verify_coproduct(broken)["cocommutativity_gap"]
    assert gap != gap


def _rel_gap(got, expect):
    return frobenius(got - expect) / max(1.0, frobenius(expect))


@pytest.mark.parametrize("j1,j2", [(0.5, 1.0), (1.5, 1.5), (2.0, 3.5)])
def test_deformed_and_lifted_sums_match_the_dense_route(j1, j2):
    """asn and g at a primitive sum (deform_generators), and the lift series
    at the twisted one (lift_generators), on factors and on the sum."""
    p = DeformParams(h=0.7, k=0.6)
    r1, r2 = build_spin(j1), build_spin(j2)
    order = r1.dim + r2.dim - 1
    jp = KronSum(r1.Jp, r2.Jp)
    _, djm, _ = coproduct_classical(r1, r2)
    for got, expect in zip(deform_generators(jp, djm, p, order),
                           deform_generators(jp.dense(), djm, p, order)):
        assert _rel_gap(got, expect) <= 1e-13
    base = delta_uh(p.h, r1, r2)
    x = KronSum(*(build_jordanian_triplet(r, p.h).Xhat for r in (r1, r2)))
    assert np.array_equal(x.dense(), base.DX)
    for got, expect in zip(lift_generators(x, base.DY, p, order),
                           lift_generators(base.DX, base.DY, p, order)):
        assert _rel_gap(got, expect) <= 1e-13


def _verdicts(tol):
    """Worst residual and verdict of every coproduct report on the acceptance
    grid's h and k values."""
    out = {}
    for j1, j2 in ((0.5, 0.5), (0.5, 1.0), (1.0, 1.0), (1.5, 3.0)):
        r1, r2 = build_spin(j1), build_spin(j2)
        for h in (0.3, 0.9, 1.5):
            for k in (0.0, 0.4, 0.8, 1.0):
                p = DeformParams(h=h, k=k)
                for ct in (delta1(p, r1, r2), delta_uh(h, r1, r2), delta2(p, r1, r2)):
                    report = verify_coproduct(ct)
                    if ct.source != "delta1":
                        del report["cocommutativity_gap"]
                    top = worst(report.values())
                    out[ct.source, j1, j2, h, k] = (top, top <= tol)
    return out


def test_coproduct_verdicts_on_the_grid_match_the_dense_route(monkeypatch):
    tol = 1e-10
    fast = _verdicts(tol)
    monkeypatch.setattr(liealg, "_kron_sum_apply", lambda s, ks: mat_apply_series(s, ks.dense()))
    dense = _verdicts(tol)
    assert fast.keys() == dense.keys()
    for key, (top, verdict) in fast.items():
        assert verdict == dense[key][1], key
        # the routes round differently (up to about 1e-12 on this grid), but
        # never by an amount that could move a residual across tol
        assert abs(top - dense[key][0]) <= tol / 10, key
