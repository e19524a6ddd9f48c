"""Coproducts: relations on tensor products, re-expressed raising images,
cocommutativity gaps, coassociativity."""

import dataclasses

import numpy as np
import pytest

from elliptic_sl2.deform import DeformParams
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
from elliptic_sl2.liealg import build_spin, coproduct_classical, frobenius, kron

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
    from elliptic_sl2.deform import build_jordanian_triplet

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
