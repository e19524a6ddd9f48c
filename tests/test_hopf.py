"""Coproducts: relations on tensor products, re-expressed raising images,
cocommutativity gaps, coassociativity."""

import dataclasses
import json

import numpy as np
import pytest

from elliptic_sl2 import cli, hopf, liealg
from elliptic_sl2.deform import (
    DeformParams,
    _F_series,
    _G_series,
    _asn,
    _g_of_v,
    _at_half_h,
    _sncndn,
    build_elliptic_triplet,
    build_jordanian_triplet,
    deform_generators,
    lift_generators,
    lift_series,
    relations_on_generators,
)
from elliptic_sl2.errors import DomainError
from elliptic_sl2.hopf import (
    MAX_PRODUCT_DIM,
    coassociativity_delta1,
    coassociativity_uh,
    cocommutativity_gap,
    coproduct,
    delta1,
    delta2,
    delta_uh,
    verify_coproduct,
    _swap_factors,
    _uh_factor,
    _x_from_factor_sn,
)
from elliptic_sl2.liealg import (
    RaisingPoly,
    build_spin,
    frobenius,
    kron,
    mat_apply_series,
    worst,
)
from elliptic_sl2.series import exp_series

PAIRS = [(0.5, 0.5), (0.5, 1.0), (1.0, 1.0)]


def _kron_sum(a, b):
    """The dense Kronecker sum a x 1 + 1 x b."""
    return np.kron(a, np.eye(b.shape[0])) + np.kron(np.eye(a.shape[0]), b)


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


def test_twisted_coproducts_gather_only_the_map(monkeypatch):
    """Each factor of the twisted coproducts is the k = 1 map's (X, Y) with
    its exponentials: no other function of J+ (F, the Jordanian Casimir
    factors) is gathered, and the images have the bits of the Jordanian
    triplets'."""
    from elliptic_sl2 import deform

    def refuse(*args):
        raise AssertionError("the coproduct layer reads no other function of J+")

    h, p = 0.8, DeformParams(h=0.8, k=0.6)
    r1, r2 = build_spin(1.0), build_spin(2.5)
    monkeypatch.setattr(deform, "_raising_terms", refuse)
    uh = delta_uh(h, r1, r2)
    delta2(p, r1, r2)
    coassociativity_uh(h, r1, r2, r1)
    monkeypatch.undo()
    t1, t2 = (build_jordanian_triplet(r, h) for r in (r1, r2))
    ((x1, *_), (m1, y1, _, em1)), ((x2, *_), (m2, y2, ep2, _)) = (_uh_factor(r, complex(h))
                                                                  for r in (r1, r2))
    for x, m, y, t in ((x1, m1, y1, t1), (x2, m2, y2, t2)):
        assert np.array_equal(x.dense(), t.Xhat) and np.array_equal(m, t.Xhat)
        assert np.array_equal(y, t.Yhat)
    assert np.array_equal(uh.DX, _kron_sum(t1.Xhat, t2.Xhat))
    assert np.array_equal(uh.DY, kron(t1.Yhat, ep2) + kron(em1, t2.Yhat))
    assert np.array_equal(uh.DJ0, kron(t1.J0, ep2) + kron(em1, t2.J0))


@pytest.mark.parametrize("h", [0.8, 0.3 - 0.2j, 2.0])
def test_twist_factors_are_the_exponentials_of_the_factor_images(h):
    """e^(+-hX) from its closed form (1 +- v)/(1 -+ v) at v = (h/2) J+ is the
    exponential series at the factor's X, by dense Paterson-Stockmeyer."""
    for j in (0.5, 1.0, 2.5, 5.0, 8.0):
        rep = build_spin(j)
        (x, *_), (_, _, ep, em) = _uh_factor(rep, complex(h))
        for sign, got in ((1, ep), (-1, em)):
            expect = mat_apply_series(exp_series(rep.dim), sign * complex(h) * x.dense())
            assert got.dtype == expect.dtype
            assert _rel_gap(got, expect) <= 1e-14, (j, sign)


def test_reexpressed_raising_images_match_both_families():
    p = DeformParams(h=0.8, k=0.5)
    r1, r2 = build_spin(1.0), build_spin(0.5)
    ct1 = delta1(p, r1, r2)
    alt1 = _x_from_factor_sn(ct1).dense()
    assert frobenius(ct1.DX - alt1) / max(1.0, frobenius(ct1.DX)) < 1e-10
    ct2 = delta2(p, r1, r2)
    alt2 = _x_from_factor_sn(ct2).dense()
    assert frobenius(ct2.DX - alt2) / max(1.0, frobenius(ct2.DX)) < 1e-10


def test_coproducts_collapse_to_classical_at_small_h():
    r1, r2 = build_spin(0.5), build_spin(1.0)
    djp, djm, dj0 = (_kron_sum(a, b) for a, b in ((r1.Jp, r2.Jp), (r1.Jm, r2.Jm), (r1.J0, r2.J0)))
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


COASSOC_KS = (0.6, 1.0, 0.99, 0.3 + 0.2j, 0.02)
# (22, 2, 0) has the series order of three j = 8 factors, 48, whose product
# module (dimension 4913) is over the cap; (200, 2, 0) reaches order 404.
COASSOC_FACTORS = ((0.5, 0.5, 0.5), (2.0, 2.0, 2.0), (22.0, 2.0, 0.0), (200.0, 2.0, 0.0))


def _coassociativity(source, k, js):
    reps = [build_spin(j) for j in js]
    if source == "delta1":
        return coassociativity_delta1(DeformParams(h=0.8, k=k), *reps)
    return coassociativity_uh(0.8, *reps)


@pytest.mark.parametrize("k", COASSOC_KS)
def test_coassociativity_identities_hold_to_rounding_on_the_grid(k):
    for js in COASSOC_FACTORS:
        for source, keys in (("delta1", {"X", "Y", "max"}), ("uh", {"group_like", "max"})):
            gaps = _coassociativity(source, k, js)
            assert set(gaps) == keys and gaps["max"] == worst(gaps.values())
            assert gaps["max"] <= 1e-15, (source, js, gaps)
    with pytest.raises(DomainError, match="cap"):
        coassociativity_uh(0.8, *[build_spin(8.0)] * 3)


def _bumped(series, by=1e-4):
    """A copy of series with its first nonzero coefficient past the linear
    one moved by a relative amount."""
    c = series.coeffs.copy()
    c[2 if c[2] else 3] *= 1 + by
    return type(series)(c)


# each series as `hopf` looks it up, and the coproduct and key it must lift
BUMPS = {"_asn": ("delta1", "X"), "_sncndn": ("delta1", "X"), "_g_of_v": ("delta1", "Y"),
         "_g_inv_of_u": ("delta1", "Y"), "_twist_series": ("uh", "group_like")}


@pytest.mark.parametrize("name", sorted(BUMPS))
def test_a_bumped_series_fails_its_coassociativity_identity(monkeypatch, name):
    """A 1e-4 relative move in one coefficient of arcsn, sn, g,
    (cn dn)**(-1/2) or the twist series, made where `hopf` looks it up, lifts
    the identity's key above 1e-6 everywhere on the grid."""
    source, key = BUMPS[name]
    real = getattr(hopf, name)

    def bumped(*args):
        out = real(*args)       # _sncndn gives (sn, cn, dn): move sn
        return (_bumped(out[0]), *out[1:]) if isinstance(out, tuple) else _bumped(out)

    monkeypatch.setattr(hopf, name, bumped)
    for k in COASSOC_KS:
        for js in COASSOC_FACTORS:
            gaps = _coassociativity(source, k, js)
            assert gaps[key] > 1e-6 and gaps["max"] >= gaps[key], (k, js, gaps)


def test_coassociativity_uh_composes_the_term_sizes_once(monkeypatch):
    """|+2 arctanh| and |-2 arctanh| are one series, so the group-like check
    composes three times (exp at each sign, and the sizes once), and its gap
    is the one the two signs give with the sizes composed for each."""
    from elliptic_sl2.series import TruncatedSeries

    calls = []
    real = TruncatedSeries.compose
    monkeypatch.setattr(TruncatedSeries, "compose", lambda s, t: calls.append(1) or real(s, t))
    reps = [build_spin(j) for j in (2.0, 1.5, 3.0)]
    gap = coassociativity_uh(0.8, *reps)["group_like"]
    assert len(calls) == 3
    monkeypatch.undo()
    n = sum(r.dim for r in reps) - 3
    size = lambda s: TruncatedSeries(np.abs(s.coeffs))
    by_sign = []
    for sign in (1, -1):
        inner = 2.0 * sign * _asn(1.0, n)
        got, terms = exp_series(n).compose(inner), size(exp_series(n)).compose(size(inner))
        target = hopf._twist_series(sign, n).coeffs
        by_sign.append(float(np.max(np.abs(got.coeffs - target) / np.maximum(1.0, terms.coeffs.real))))
    assert gap == max(by_sign)


def test_coassociativity_forms_no_matrix(monkeypatch, calculus_calls):
    def refuse(*args):
        raise AssertionError("coassociativity forms no matrix")

    for name in ("kron", "_uh_factor", "_sandwich", "_products", "_gather"):
        monkeypatch.setattr(hopf, name, refuse)
    reps = [build_spin(j) for j in (2.0, 1.5, 3.0)]
    calculus_calls.clear()
    coassociativity_uh(0.8, *reps)
    coassociativity_delta1(DeformParams(h=0.8, k=0.6), *reps)
    assert calculus_calls.log == []


@pytest.mark.parametrize("h", [0.8, 0.3 - 0.2j])
def test_delta2_at_k_one_is_delta_uh_bit_for_bit(h):
    """At k**2 = 1 the lift's map is exactly x and its dressing exactly 1."""
    for j1, j2 in ((0.5, 0.5), (1.0, 2.5), (3.0, 2.0)):
        r1, r2 = build_spin(j1), build_spin(j2)
        lifted, uh = delta2(DeformParams(h=h, k=1.0), r1, r2), delta_uh(h, r1, r2)
        for name in ("DX", "DY", "DJ0"):
            a, b = getattr(lifted, name), getattr(uh, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (j1, j2, name)


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
    jp = r1.raising.tensor_sum(r2.raising)
    ct = delta1(p, r1, r2)
    for got, expect in zip((ct.DX, ct.DY), deform_generators(jp.dense(), _kron_sum(r1.Jm, r2.Jm),
                                                             p, order)):
        assert _rel_gap(got, expect) <= 1e-13
    base = delta_uh(p.h, r1, r2)
    x = _uh_factor(r1, p.h)[0][0].tensor_sum(_uh_factor(r2, p.h)[0][0])
    assert np.array_equal(x.dense(), base.DX)
    ct = delta2(p, r1, r2)
    for got, expect in zip((ct.DX, ct.DY), lift_generators(base.DX, base.DY, p, order)):
        assert _rel_gap(got, expect) <= 1e-13


@pytest.mark.parametrize("h,k", [(0.7, 0.6), (0.8 - 0.3j, 0.6), (0.45, 0.3 + 0.2j), (2.0, 1.0)])
def test_factor_routes_take_the_raising_image_bits_of_the_map(h, k):
    """The factor routes gather arcsn alone; each factor's raising image has
    the bits of the map's Xhat, with and without its dressing beside it."""
    p = DeformParams(h=h, k=k)
    for j in (0.5, 1.0, 2.5, 5.0):
        rep = build_spin(j)
        alone, = _at_half_h(rep.raising, h, (_asn(p.k, rep.dim), 1))
        mapped = _at_half_h(rep.raising, p.h, (_asn(p.k, rep.dim), 1), (_g_of_v(p.k, rep.dim), 0))
        assert np.array_equal(alone.dense(), mapped[0].dense())
        assert np.array_equal(alone.dense(), build_elliptic_triplet(rep, p).Xhat)


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


def _dense_algebra(series, x):
    """Series in the raising algebra by dense Paterson-Stockmeyer on the
    multiplication matrix of x, x at unit weights: row 0 of F there holds
    F(x)'s coefficients."""
    unit = RaisingPoly(x.coeffs, tuple(np.ones(w.size) for w in x.w)).dense()
    return [RaisingPoly(f[0].reshape(x.coeffs.shape), x.w) for f in mat_apply_series(series, unit)]


def test_coproduct_verdicts_on_the_grid_match_the_dense_route(monkeypatch):
    tol = 1e-10
    fast = _verdicts(tol)
    monkeypatch.setattr(liealg, "_poly_apply", _dense_algebra)
    dense = _verdicts(tol)
    assert fast.keys() == dense.keys()
    for key, (top, verdict) in fast.items():
        assert verdict == dense[key][1], key
        # the routes round differently (up to about 1e-12 on this grid), but
        # never by an amount that could move a residual across tol
        assert abs(top - dense[key][0]) <= tol / 10, key


def test_product_dimension_cap_refuses_before_building():
    p = DeformParams(h=0.8, k=0.6)
    small, big = build_spin(0.5), build_spin(40)       # 2 * 81 fits, 81 * 81 does not
    assert 2 * 81 <= MAX_PRODUCT_DIM < 81 * 81
    delta1(p, small, big)
    for call in (lambda: delta1(p, big, big), lambda: delta2(p, big, big),
                 lambda: delta_uh(0.8, big, big),
                 lambda: coassociativity_uh(0.8, big, big, small),
                 lambda: coassociativity_delta1(p, small, big, big)):
        with pytest.raises(DomainError, match="cap"):
            call()


def _x_by_hand(source, params, r1, r2):
    """The re-expressed raising images as two separate per-factor loops."""
    order = r1.dim + r2.dim - 1
    k, h = params.k, params.h
    per_factor = []
    if source == "delta1":
        for rep in (r1, r2):
            t_x, = _at_half_h(rep.raising, h, (_asn(k, rep.dim), 1))
            sn, _, _ = _sncndn(k, rep.dim)
            per_factor.extend(_at_half_h(t_x, h, (sn, 1)))
        return _at_half_h(per_factor[0].tensor_sum(per_factor[1]), h, (_asn(k, order), 1))[0]
    for rep in (r1, r2):
        t_x, = _at_half_h(rep.raising, h, (_asn(k, rep.dim), 1))
        sn, _, _ = _sncndn(k, rep.dim)
        pulled = _asn(1.0, rep.dim).compose(sn)
        per_factor.extend(_at_half_h(t_x, h, (pulled, 1)))
    through, _ = lift_series(k, order)
    return _at_half_h(per_factor[0].tensor_sum(per_factor[1]), h, (through, 1))[0]


@pytest.mark.parametrize("source", ["delta1", "delta2"])
@pytest.mark.parametrize("h,k", [(0.8, 0.6), (0.45, 0.3), (0.3 - 0.2j, 0.6), (0.8, 1.0)])
def test_reexpressed_raising_route_has_the_bits_of_the_separate_loops(source, h, k):
    p = DeformParams(h=h, k=k)
    for j1, j2 in ((0.5, 0.5), (1.0, 2.5), (3.0, 2.0)):
        r1, r2 = build_spin(j1), build_spin(j2)
        assert np.array_equal(_x_from_factor_sn(coproduct(source, p, r1, r2)).coeffs,
                              _x_by_hand(source, p, r1, r2).coeffs), (j1, j2)


def test_coproduct_dispatch_builds_each_source_and_refuses_an_unknown_one():
    p = DeformParams(h=0.8, k=0.6)
    r1, r2 = build_spin(1.0), build_spin(0.5)
    for ct in (delta1(p, r1, r2), delta_uh(p.h, r1, r2), delta2(p, r1, r2)):
        got = coproduct(ct.source, p, r1, r2)
        assert got.source == ct.source and got.params == ct.params
        for a, b in ((got.DX, ct.DX), (got.DY, ct.DY), (got.DJ0, ct.DJ0),
                     (got.base.coeffs, ct.base.coeffs)):
            assert np.array_equal(a, b)
        assert (got.outer is None) == (ct.outer is None) == (ct.source == "delta_uh")
        assert ct.outer is None or np.array_equal(got.outer.coeffs, ct.outer.coeffs)
    for source in ("delta3", "uh", "1"):
        with pytest.raises(DomainError, match="unknown coproduct source"):
            coproduct(source, p, r1, r2)


SOURCES = ("delta1", "delta_uh", "delta2")


@pytest.mark.parametrize("h,k", [(0.35, 0.7), (0.8, 1.0), (0.3 - 0.2j, 0.3 + 0.2j)])
def test_every_coproduct_image_dx_is_odd_under_the_weight_parity(h, k):
    """DX's base element has no coefficient at even total degree and its
    outer series none at even degree, so DX maps each weight-parity class
    (i1 + i2) mod 2 to the other; (2/h) outer((h/2) base) is DX bit for bit."""
    p = DeformParams(h=h, k=k)
    for j1, j2 in ((0.5, 2.0), (1.5, 1.0), (2.5, 3.0)):
        r1, r2 = build_spin(j1), build_spin(j2)
        even = np.add.outer(np.arange(r1.dim), np.arange(r2.dim)) % 2 == 0
        for source in SOURCES:
            ct = coproduct(source, p, r1, r2)
            c = ct.base.coeffs
            assert c.shape == (r1.dim, r2.dim) and c[~even].any()
            assert not c[even].any(), (source, j1, j2)
            if ct.outer is None:
                image = ct.base
            else:
                assert not ct.outer.coeffs[::2].any() and ct.outer.coeffs[1] == 1
                image, = _at_half_h(ct.base, p.h, (ct.outer, 1))
            assert np.array_equal(image.dense(), ct.DX), (source, j1, j2)


@pytest.mark.parametrize("which,builder", [("1", "delta1"), ("2", "delta2"), ("uh", "delta_uh")])
def test_a_stray_even_entry_in_dx_fails_hopf_verify(monkeypatch, capsys, which, builder):
    """G and F come from DX's base and outer series, so a stray coefficient
    of S2**2 in DX's element of A, which they do not hold, breaks
    [J0, X] = G(X): eq13 fails."""
    argv = ["hopf", "verify", "--which", which, "--j1", "1", "--j2", "1", "--h", "0.35",
            "--k", "0.7"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    real = getattr(hopf, builder)

    def with_stray_coefficient(*args):
        ct = real(*args)
        nx = ct.NX.copy()
        nx[0, 2] += 1e-6                # S2**2: even, as every coefficient of DX is odd
        return dataclasses.replace(ct, NX=nx)

    monkeypatch.setattr(hopf, builder, with_stray_coefficient)
    code = cli.main(argv)
    payload = json.loads(capsys.readouterr().out)
    eq13 = payload["report"]["eq23" if which == "uh" else "eq13"]
    assert (code, payload["pass"]) == (1, False)
    assert eq13 > 1e-7 and payload["worst"] >= eq13


def test_verify_coproduct_builds_no_dense_power_stack(calculus_calls):
    p = DeformParams(h=0.8, k=0.6)
    r1, r2 = build_spin(1.5), build_spin(2.0)
    for source in SOURCES:
        ct = coproduct(source, p, r1, r2)
        calculus_calls.clear()
        verify_coproduct(ct)
        assert calculus_calls.stacks() == [], source


@pytest.mark.parametrize("j1,j2", [(1.5, 1.5), (1.5, 2.0)])
def test_verify_coproduct_forms_no_relation_product_and_gathers_nothing(calculus_calls, j1, j2):
    """The residuals are taken in normal form: no relation product is formed
    and G, F and the re-expressed image stay elements of A, never gathered
    into matrices.  Only the cocommutativity gap's swapped images, built
    anew for unequal factors, are gathered, as their build gathers them."""
    p = DeformParams(h=0.8, k=0.6)
    r1, r2 = build_spin(j1), build_spin(j2)
    for source in SOURCES:
        calculus_calls.clear()
        coproduct(source, p, r2, r1)
        swapped = [] if j1 == j2 else list(calculus_calls.log)
        assert ("relations", None) not in swapped
        ct = coproduct(source, p, r1, r2)
        calculus_calls.clear()
        verify_coproduct(ct)
        assert calculus_calls.log == swapped, (source, calculus_calls.log)


HOPF_VERIFY_1_AT_8 = ["hopf", "verify", "--which", "1", "--j1", "8", "--j2", "8", "--h", "0.8",
                      "--k", "0.6"]


def test_cocommutative_delta1_passes_hopf_verify_at_large_norms(capsys):
    """The primitive image at j1 = j2 = 8 is cocommutative to rounding, while
    |DY| is about 1e22 in the unitary basis: the gap is relative, and the
    verdict passes."""
    assert cli.main(HOPF_VERIFY_1_AT_8) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["cocommutativity_gap"] <= 1e-15


def test_one_moved_entry_still_fails_the_relative_cocommutativity_gap(monkeypatch, capsys):
    real = hopf.delta1

    def with_moved_entry(*args):
        ct = real(*args)
        dy = ct.DY.copy()
        dy[3, 40] += 1e-8 * frobenius(dy)
        return dataclasses.replace(ct, DY=dy)

    monkeypatch.setattr(hopf, "delta1", with_moved_entry)
    assert cli.main(HOPF_VERIFY_1_AT_8) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["cocommutativity_gap"] == pytest.approx(2 ** 0.5 * 1e-8, rel=1e-6)


def _dense_relations(ct):
    """The relation residuals with G and F by dense Paterson-Stockmeyer at DX."""
    p, order = ct.params, ct.r1.dim + ct.r2.dim - 1
    g, f = _at_half_h(ct.DX, p.h, (_G_series(p.k, order), 1), (_F_series(p.k, order), 0))
    return relations_on_generators(ct.DX, ct.DY, ct.DJ0, g, f, p.ksq == 1)


RELATION_GRID = [(h, k) for h in (0.35, 0.8, 0.3 - 0.2j) for k in (0.7, 1.0, 0.3 + 0.2j)]


def test_relations_through_the_algebra_match_the_dense_route():
    tol = 1e-9
    checked = 0
    cases = [(j1, j2, SOURCES) for j1, j2 in ((0.5, 0.5), (0.5, 4.5), (1.0, 2.5), (3.5, 2.0),
                                                (4.0, 5.0), (5.0, 5.0))]
    cases += [(8.0, 8.0, ("delta1",)), (8.0, 12.0, ("delta1",))]
    for j1, j2, sources in cases:
        r1, r2 = build_spin(j1), build_spin(j2)
        for h, k in RELATION_GRID:
            p = DeformParams(h=h, k=k)
            for source in sources:
                ct = coproduct(source, p, r1, r2)
                report = verify_coproduct(ct)
                for key, dense in _dense_relations(ct).items():
                    assert abs(report[key] - dense) <= tol / 10, (source, j1, j2, h, k, key)
                    checked += 1
    assert checked == (6 * 3 + 2) * 9 * 3


def _with_moved_dy_coefficient(ct, factor):
    """ct with the coefficient of the factor's S**2 in DY's L term of that
    factor moved by 1e-6, in the normal form and in the matrix alike."""
    move = np.zeros_like(ct.NY)
    move[hopf._LOW[factor], 0 if factor else 2, 2 if factor else 0] = 1e-6
    moved = hopf._gather(move[None], *hopf._grids(ct.r1, ct.r2))[0]
    return dataclasses.replace(ct, NY=ct.NY + move, DY=ct.DY + moved)


@pytest.mark.parametrize("factor", [0, 1])
def test_a_corrupted_dy_coefficient_fails_both_routes(factor):
    """One moved coefficient in one factor's DY term fails eq12 or eq14 in
    the normal form and in the dense reference on the matrices."""
    p = DeformParams(h=0.8, k=0.6)
    r1, r2 = build_spin(1.5), build_spin(2.0)
    for source in SOURCES:
        ct = coproduct(source, p, r1, r2)
        keys = ("eq22", "eq24") if source == "delta_uh" else ("eq12", "eq14")
        for got in (verify_coproduct(ct), _dense_relations(ct)):
            assert max(got[key] for key in keys) <= 1e-13, source
        ct = _with_moved_dy_coefficient(ct, factor)
        for got in (verify_coproduct(ct), _dense_relations(ct)):
            assert max(got[key] for key in keys) > 1e-9, (source, factor, got)


@pytest.mark.parametrize("h,k", [(0.8, 0.6), (0.3 - 0.2j, 0.3 + 0.2j)])
def test_each_image_matrix_is_its_normal_form(h, k):
    """The residuals read the normal forms alone, so each emitted matrix must
    be its normal form's: delta_uh's Kronecker forms and delta2's sum of
    them and the lift's part agree with one gather of NX, NY and NJ0."""
    p = DeformParams(h=h, k=k)
    for j1, j2 in ((0.5, 2.0), (2.5, 3.0), (4.0, 4.0)):
        r1, r2 = build_spin(j1), build_spin(j2)
        for source in SOURCES:
            ct = coproduct(source, p, r1, r2)
            nfs = np.array([hopf._image(ct.NX), ct.NY, ct.NJ0])
            for got, expect in zip((ct.DX, ct.DY, ct.DJ0), hopf._gather(nfs, *hopf._grids(r1, r2))):
                assert _rel_gap(got, expect) <= 1e-14, (source, j1, j2)


def test_delta2_and_its_check_build_the_lift_series_once(monkeypatch):
    calls = []
    real = hopf.lift_series
    monkeypatch.setattr(hopf, "lift_series", lambda k, order: calls.append(order) or real(k, order))
    r = build_spin(1.5)      # equal factors: the swap check reuses the triple
    report = verify_coproduct(delta2(DeformParams(h=0.8, k=0.6), r, r))
    assert calls == [2 * r.dim - 1] and report["eq49_vs_eq45"] <= 1e-13


def _g_and_f_of(ct, monkeypatch):
    """The G and F elements of A that `verify_coproduct` puts into the
    normal-form relations, as matrices on ct's factors."""
    seen = []
    real = hopf._residuals
    monkeypatch.setattr(hopf, "_residuals", lambda *args: seen.append(args[3:5]) or real(*args))
    verify_coproduct(ct)
    monkeypatch.undo()
    return [RaisingPoly(c, ct.base.w).dense() for c in seen[0]]


@pytest.mark.parametrize("h,k", [(0.8, 0.6), (0.3 - 0.2j, 0.6), (0.45, 0.3 + 0.2j), (0.8, 1.0)])
def test_g_and_f_through_the_composition_match_dense_paterson_stockmeyer(monkeypatch, h, k):
    """G o outer and F o outer at base are G and F at DX, taken by dense
    Paterson-Stockmeyer on the matrix DX."""
    p = DeformParams(h=h, k=k)
    for j1, j2 in ((0.5, 0.5), (1.0, 2.5), (3.0, 2.0), (3.0, 4.0)):
        r1, r2 = build_spin(j1), build_spin(j2)
        order = r1.dim + r2.dim - 1
        for source in SOURCES:
            ct = coproduct(source, p, r1, r2)
            got = _g_and_f_of(ct, monkeypatch)
            k = ct.params.k
            expect = _at_half_h(ct.DX, p.h, (_G_series(k, order), 1), (_F_series(k, order), 0))
            for name, a, b in zip("GF", got, expect):
                assert frobenius(a - b) / frobenius(b) <= 1e-13, (source, j1, j2, name)


def _perturbed(series, index=3, by=1e-3):
    """A copy of series with coefficient index moved by a relative amount."""
    c = series.coeffs.copy()
    c[index] *= 1 + by
    return type(series)(c)


@pytest.mark.parametrize("which", ["1", "2"])
def test_a_perturbed_outer_map_fails_hopf_verify(monkeypatch, capsys, which):
    """One coefficient of delta1's arcsn or of delta2's lift map, moved where
    the coproduct layer looks it up, makes DX a different function of base;
    G and F composed with the same moved map then no longer satisfy the
    relations, so the composition does not make them hold by construction."""
    argv = ["hopf", "verify", "--which", which, "--j1", "1", "--j2", "1.5", "--h", "0.35",
            "--k", "0.7"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    order = 3 + 4 - 1           # the pair order at dimensions 3 and 4
    if which == "1":
        real = hopf._asn
        monkeypatch.setattr(hopf, "_asn", lambda k, n: _perturbed(real(k, n)) if n == order
                            else real(k, n))
    else:
        real = hopf.lift_series
        monkeypatch.setattr(hopf, "lift_series",
                            lambda k, n: (_perturbed(real(k, n)[0]), real(k, n)[1]))
    code = cli.main(argv)
    payload = json.loads(capsys.readouterr().out)
    assert (code, payload["pass"]) == (1, False)
    assert max(payload["report"]["eq13"], payload["report"]["eq14"]) > 1e-6


def test_hopf_verify_takes_powers_of_one_factor_parts_alone(monkeypatch, capsys):
    shapes = []
    real = liealg._powers
    monkeypatch.setattr(liealg, "_powers", lambda a: shapes.append(a.shape) or real(a))
    for which in ("1", "2", "uh"):
        assert cli.main(["hopf", "verify", "--which", which, "--j1", "2", "--j2", "1.5",
                         "--h", "0.8", "--k", "0.6"]) == 0
    capsys.readouterr()
    assert shapes and all(len(shape) == 1 for shape in shapes)
