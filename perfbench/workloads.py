"""The four workloads: seeded, fixed lists of operations on the library and CLI.

An operation has a ``run`` that only calls into ``elliptic_sl2`` (this is the
timed part) and a ``check`` that judges the result apart from the program
(untimed).  ``check`` returns every residual it saw, raises ``ProgramFailure``
when the program's own verdict fails, and raises ``oracles.CheckError`` when
an independent check disagrees with the program.

The seed draws only numeric parameters (h, k, rational scalars); the shapes
(spins, tensor dimensions, word lengths) are fixed, so every seed costs the
same.  Library functions are looked up on their modules at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from elliptic_sl2 import autos, cli, deform, hopf, liealg, rewrite

import oracles as O

# The lru_caches of deform.py; cold workloads clear them before every operation.
DEFORM_CACHES = ("_sncndn", "_asn", "_g_of_v", "_g_inv_of_u", "_G_series",
                 "_F_series", "_F_doubled_series", "_F_of_v_series")


class ProgramFailure(Exception):
    """The program's own verdict on an operation is a failure."""


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], dict]
    bytes_out: Callable[[Any], int] = lambda result: 0


@dataclass
class Workload:
    ops: list
    warm: bool                 # one untimed pass first; caches stay warm after it
    before_op: Callable[[], None] = lambda: None


def claimed(report, skip=("epsilon", "kind", "cocommutativity_gap")):
    """The program's own residuals from a flat report; a failing one is the
    program's verdict, not a checker's."""
    out = {}
    for key, val in report.items():
        if key in skip or isinstance(val, bool) or not isinstance(val, (int, float)):
            continue
        val = float(val)
        if not (math.isfinite(val) and val <= O.TOL):
            raise ProgramFailure(f"{key} = {val!r} fails tol {O.TOL:g}")
        out[key] = val
    return out


def clear_deform_caches():
    for name in DEFORM_CACHES:
        getattr(deform, name).cache_clear()


def deform_cache_stats():
    hits = misses = 0
    for name in DEFORM_CACHES:
        info = getattr(deform, name).cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


# -- spin-verify --------------------------------------------------------------

SPIN_JS = (1.0, 2.5, 4.5, 6.0, 8.0)
FORMS = ("classical", "jordanian", "elliptic")


def _verify_triplet(j, h, k):
    """Build one triplet and run every check of the spin-verify workload on it."""
    rep = liealg.build_spin(j)
    t = deform.build_elliptic_triplet(rep, deform.DeformParams(h=h, k=k))
    out = {
        "t": t,
        "relations": deform.relation_residuals(t),
        "casimir": {f: deform.casimir(t, f) for f in FORMS},
        "inverse": deform.invert_map(t),
    }
    sign = autos.sign_involution(t)
    out["sign"] = (sign, deform.relation_residuals(sign))
    if k < 1:
        out["shifts"] = [(spec, *autos.period_shift_elliptic(t, spec))
                         for spec in (autos.ELL_IKP, autos.ELL_2K_IKP)]
    else:
        half = autos.half_period_shift_uh(t)
        full = autos.half_period_shift_uh(half)
        out["half"] = (half, deform.relation_residuals(half))
        out["full_inverse"] = deform.invert_map(full)
    return out


def _check_triplet(out, j, h, k, Kref):
    own_jp, own_jm, own_j0 = O.spin_matrices(j)
    t = out["t"]
    res = {f"rel_{key}": v for key, v in claimed(out["relations"]).items()}
    sign, sign_rel = out["sign"]
    res.update({f"sign_rel_{key}": v for key, v in claimed(sign_rel).items()})
    own = {
        "J0": O.rel_gap(t.J0, own_j0),
        "inverse_Jp": O.rel_gap(out["inverse"][0], own_jp),
        "inverse_Jm": O.rel_gap(out["inverse"][1], own_jm),
        "sign_X": O.exact_equal_gap(sign.Xhat, -t.Xhat),
        "sign_Y": O.exact_equal_gap(sign.Yhat, -t.Yhat),
        "sign_J0": O.exact_equal_gap(sign.J0, t.J0),
    }
    target = O.casimir_target(j)
    for form, mat in out["casimir"].items():
        own[f"casimir_{form}"] = O.rel_gap(mat, target)
    eye = np.eye(t.rep.dim, dtype=complex)
    if k < 1:
        K, Kp = Kref[k]
        for spec, image, report in out["shifts"]:
            res.update({f"{spec.kind}_{key}": v for key, v in claimed(report).items()})
            offset = (2.0 / h) * (spec.du_a * K + 1j * spec.du_b * Kp)
            own[f"{spec.kind}_X"] = O.rel_gap(image.Xhat, t.Xhat + offset * eye)
            own[f"{spec.kind}_Y"] = O.exact_equal_gap(image.Yhat, -t.Yhat)
            own[f"{spec.kind}_J0"] = O.exact_equal_gap(image.J0, -t.J0)
    else:
        half, half_rel = out["half"]
        res.update({f"half_{key}": v for key, v in claimed(half_rel).items()})
        own["half_X"] = O.rel_gap(half.Xhat, t.Xhat + (1j * math.pi / h) * eye)
        own["half_Y"] = O.exact_equal_gap(half.Yhat, -t.Yhat)
        own["full_inverse_Jp"] = O.rel_gap(out["full_inverse"][0], own_jp)
        own["full_inverse_Jm"] = O.rel_gap(out["full_inverse"][1], own_jm)
    res.update(O.gaps_within(own))
    return res


def _spin_op(j, pairs, Kref):
    """One spin module verified at every (h, k) pair of the run."""
    def run():
        return [_verify_triplet(j, h, k) for h, k in pairs]

    def check(outs):
        res = {}
        for i, (out, (h, k)) in enumerate(zip(outs, pairs)):
            res.update({f"p{i}_{key}": v for key, v in _check_triplet(out, j, h, k, Kref).items()})
        return res

    return Op(kind=f"j{j:g}", run=run, check=check)


def spin_verify(rng):
    pairs = [(rng.uniform(0.42, 0.48), rng.uniform(0.4, 0.8)) for _ in range(4)]
    pairs.append((rng.uniform(0.42, 0.48), 1.0))
    Kref = {k: O.complete_K_reference(k) for _, k in pairs if k < 1}
    return Workload([_spin_op(j, pairs, Kref) for j in SPIN_JS], warm=True)


# -- tensor-coproduct ---------------------------------------------------------


def _coassoc_op(h, k):
    js, js_d1 = (2.0, 2.0, 2.0), (1.5, 1.5, 1.5)
    own_j0 = [O.spin_matrices(j)[2] for j in js]

    def run():
        r = [liealg.build_spin(j) for j in js]
        params = deform.DeformParams(h=h, k=k)
        trip = [deform.build_jordanian_triplet(rep, h) for rep in r]
        d12 = hopf.delta_uh(h, r[0], r[1])
        d23 = hopf.delta_uh(h, r[1], r[2])
        return {
            "trip": trip, "d12": d12, "d23": d23,
            "uh": hopf.coassociativity_uh(h, *r),
            "d1": hopf.coassociativity_delta1(params, *[liealg.build_spin(j) for j in js_d1]),
        }

    def check(out):
        res = {f"uh_{k_}": v for k_, v in claimed(out["uh"]).items()}
        res.update({f"d1_{k_}": v for k_, v in claimed(out["d1"]).items()})
        trip = out["trip"]
        own = O.twisted_coassociativity_gaps(
            h, [t.Xhat for t in trip], [t.Yhat for t in trip], own_j0,
            (out["d12"].DX, out["d12"].DY, out["d12"].DJ0),
            (out["d23"].DX, out["d23"].DY, out["d23"].DJ0))
        res.update(O.gaps_within(own))
        return res

    return Op(kind="coassoc-2x2x2", run=run, check=check)


def _delta_uh_op(h, j1, j2):
    def run():
        ct = hopf.delta_uh(h, liealg.build_spin(j1), liealg.build_spin(j2))
        return ct, hopf.verify_coproduct(ct)

    def check(out):
        ct, report = out
        res = claimed(report)
        res.update(O.gaps_within(O.jordanian_relation_gaps(ct.DX, ct.DY, ct.DJ0, h)))
        return res

    return Op(kind=f"delta_uh-{j1:g}x{j2:g}", run=run, check=check)


def _delta1_op(h, k, j1, j2):
    d1, d2 = round(2 * j1) + 1, round(2 * j2) + 1
    own_dj0 = O.kron_sum(O.spin_matrices(j1)[2], O.spin_matrices(j2)[2])

    def run():
        params = deform.DeformParams(h=h, k=k)
        r1, r2 = liealg.build_spin(j1), liealg.build_spin(j2)
        ct = hopf.delta1(params, r1, r2)
        flipped = ct if j1 == j2 else hopf.delta1(params, r2, r1)
        return ct, flipped, hopf.verify_coproduct(ct)

    def check(out):
        ct, flipped, report = out
        res = claimed(report)
        own = {"DJ0": O.rel_gap(ct.DJ0, own_dj0)}
        for name in ("DX", "DY", "DJ0"):
            own[f"cocommutative_{name}"] = O.rel_gap(
                O.swap(getattr(ct, name), d1, d2), getattr(flipped, name))
        res.update(O.gaps_within(own))
        return res

    return Op(kind=f"delta1-{j1:g}x{j2:g}", run=run, check=check)


def _delta2_op(h, k, j):
    d = round(2 * j) + 1

    def run():
        ct = hopf.delta2(deform.DeformParams(h=h, k=k), liealg.build_spin(j), liealg.build_spin(j))
        return ct, hopf.verify_coproduct(ct)

    def check(out):
        ct, report = out
        res = claimed(report)
        gap = max(float(np.linalg.norm(O.swap(getattr(ct, n), d, d) - getattr(ct, n)))
                  for n in ("DX", "DY", "DJ0"))
        O.require(gap > 0.1, f"delta2 cocommutativity gap {gap!r} is not > 0.1")
        return res

    return Op(kind=f"delta2-{j:g}x{j:g}", run=run, check=check)


def tensor_coproduct(rng):
    pairs = [(rng.uniform(0.32, 0.38), rng.uniform(0.6, 0.85)) for _ in range(3)]
    ops = []
    for h, k in pairs:
        ops += [
            _coassoc_op(h, k),
            _delta_uh_op(h, 4.0, 4.0),
            _delta1_op(h, k, 4.0, 4.0),
            _delta1_op(h, k, 4.0, 5.0),
            _delta2_op(h, k, 5.0),
        ]
    return Workload(ops, warm=True)


# -- exact-rewrite ------------------------------------------------------------

SPIN_ORACLE = (O.SpinModule(8),)   # spin 4: every monomial of degree <= 8 acts nonzero
STRATEGY_WORDS = (
    ("Jpinv", "Jm", "J0", "Jpinv", "Jm", "Jp", "J0", "Jm", "Jpinv"),
    ("Jm", "Jpinv", "J0", "Jm", "Jpinv", "Jp", "Jm", "J0", "Jpinv"),
)


def _word(q, *names):
    return ("prod", [("num", q)] + [("gen", n) for n in names])


def _rational(rng):
    """p/q from distinct small primes, so no seed is cheaper by cancellation."""
    p, q = rng.sample((2, 3, 5, 7, 11, 13), 2)
    return Fraction(p, q) * rng.choice((1, -1))


def _parse_op(kind, expr):
    text = O.expr_text(expr)
    modules = O.LAURENT if O.uses_inverse(expr) else SPIN_ORACLE

    def run():
        return rewrite.parse_expression(text).terms

    def check(terms):
        return O.gaps_within({"normal_form": O.operator_gap(
            lambda v, m: O.apply_expr(expr, v, m),
            lambda v, m: O.apply_terms(terms, v, m), modules)})

    return Op(kind=kind, run=run, check=check)


def _strategy_op(qs):
    pairs = list(zip(qs, STRATEGY_WORDS))

    def run():
        return (rewrite.nf(pairs, "leftmost").terms, rewrite.nf(pairs, "rightmost").terms)

    def check(out):
        left, right = out
        expr = ("sum", [_word(q, *w) for q, w in pairs])
        return O.gaps_within({
            "strategies": 0.0 if left == right else 1.0,
            "normal_form": O.operator_gap(lambda v, m: O.apply_expr(expr, v, m),
                                          lambda v, m: O.apply_terms(left, v, m), O.LAURENT),
        })

    return Op(kind="strategies", run=run, check=check)


def _inversion_op(h, k):
    def run():
        return [(eps, autos.inversion_symbolic_report(h, k, eps), rewrite.inversion_map(h, k, eps))
                for eps in (1, -1)]

    def check(out):
        own = {}
        for eps, report, m in out:
            if not report["all_zero"]:
                raise ProgramFailure(f"inversion report at eps={eps} has nonzero residuals")
            O.require(m.jp.terms == {(0, 0, -1): eps * Fraction(4) / (k * h * h)},
                      "inversion image of J+ is not eps (1/k)(2/h)^2 J+^-1")
            images = [(lambda v, mod, p=p: O.apply_terms(p.terms, v, mod)) for p in (m.jp, m.jm, m.j0)]
            own[f"automorphism_eps{eps:+d}"] = O.automorphism_gap(*images, O.LAURENT)
        return O.gaps_within(own)

    return Op(kind="inversion", run=run, check=check)


def exact_rewrite(rng):
    ops = []
    for _ in range(2):
        a, b, c, d = (_rational(rng) for _ in range(4))
        ops += [
            _parse_op("power", ("pow", ("sum", [_word(a, "Jp"), _word(b, "Jm"), _word(c, "J0")]), 7)),
            _parse_op("commutator", ("comm",
                                     ("sum", [_word(a, "Jp", "Jp", "Jp", "Jm", "Jm", "Jm"),
                                              _word(b, "J0", "Jm")]),
                                     ("sum", [_word(c, "Jm", "Jm", "Jm", "Jm", "Jp", "Jp"),
                                              _word(d, "J0", "J0", "Jp")]))),
            _parse_op("inverse-power", ("pow", ("sum", [_word(a, "Jpinv", "Jm", "J0"),
                                                       _word(b, "Jm", "Jpinv")]), 2)),
            _strategy_op((c, d)),
            _inversion_op(Fraction(rng.randint(1, 9), rng.randint(5, 12)),
                          Fraction(rng.randint(1, 9), rng.randint(5, 12))),
        ]

    def clear_memo():
        rewrite._NF_MEMO.clear()

    return Workload(ops, warm=False, before_op=clear_memo)


# -- cli-reports --------------------------------------------------------------


def _cli_op(kind, argv, path, check_output):
    argv = [*argv, "--out", path]

    def run():
        code = cli.main(argv)
        with open(path, encoding="utf-8") as fh:
            return code, fh.read()

    def check(out):
        code, text = out
        if code != 0:
            raise ProgramFailure(f"{' '.join(argv)} exited {code}")
        return check_output(text)

    return Op(kind=kind, run=run, check=check,
              bytes_out=lambda out: len(out[1].encode("utf-8")))


def _flat_csv(text):
    header, rows = O.strict_csv(text)
    O.require(header == ["key", "value"], f"unexpected CSV header {header}")
    return {key: value for key, value in rows}


def _periods_check(k, Kref):
    def check(text):
        flat = _flat_csv(text)
        O.require(float(flat["k"]) == k, "echoed modulus differs from the input")
        table = {name: [O.parse_complex_cell(flat[f"periods.{name}[{i}]"]) for i in (0, 1)]
                 for name in ("sn", "cn", "dn")}
        return O.gaps_within(O.period_gaps(table, *Kref), O.K_TOL)
    return check


def _deform_build_check(j, h, k):
    own_j0 = O.spin_matrices(j)[2]

    def check(text):
        obj = O.strict_json(text)
        t = deform.build_elliptic_triplet(liealg.build_spin(j), deform.DeformParams(h=h, k=k))
        own = {}
        for name, ref in (("Xhat", t.Xhat), ("Yhat", t.Yhat), ("J0", t.J0)):
            got = O.matrix_from_entries(obj[name]["dim"], obj[name]["entries"])
            own[f"roundtrip_{name}"] = O.exact_equal_gap(got, ref)
        own["J0_spin"] = O.rel_gap(O.matrix_from_entries(obj["J0"]["dim"], obj["J0"]["entries"]), own_j0)
        return O.gaps_within(own)
    return check


def _deform_verify_check(text):
    flat = _flat_csv(text)
    if flat["pass"] != "true":
        raise ProgramFailure(f"deform verify reports pass={flat['pass']}")
    res = claimed({key: float(val) for key, val in flat.items()
                   if key.split(".")[0] in ("residuals", "casimir", "roundtrip")})
    worst = float(flat["worst"])
    O.require(worst == max(res.values()), "reported worst is not the largest residual")
    return res


def _hopf_delta_check(j, h, k):
    def check(text):
        flat = _flat_csv(text)
        rep = liealg.build_spin(j)
        ct = hopf.delta2(deform.DeformParams(h=h, k=k), rep, rep)
        return O.gaps_within({f"roundtrip_{name}": O.exact_equal_gap(
            O.matrix_from_flat(flat, name), getattr(ct, name)) for name in ("DX", "DY", "DJ0")})
    return check


def _sweep_check(js, h, ks):
    def check(text):
        obj = O.strict_json(text)
        if obj["pass"] is not True:
            raise ProgramFailure("sweep reports pass=false")
        want = [(fam, j, k) for fam in ("deform", "elliptic") for j in js for k in ks]
        got = [(row["family"], row["j"], row["k"]) for row in obj["rows"]]
        O.require(got == want, "sweep rows are not the cartesian product in order")
        res = {}
        for i, row in enumerate(obj["rows"]):
            O.require(row["status"] == "ok" and row["pass"] is True, f"row {i} did not pass")
            vals = claimed({key: val for key, val in row.items()
                            if key not in ("family", "j", "h", "k", "status", "pass", "worst")})
            O.require(row["worst"] == max(vals.values()), f"row {i} worst is not its largest residual")
            res.update({f"row{i}_{key}": val for key, val in vals.items()})
        return res
    return check


def cli_reports(rng, out_dir):
    """Four variants of five report kinds; every call gets moduli of its own."""
    ks = iter(n / 10000 for n in rng.sample(range(5000, 9001), 28))
    ops = []
    for i in range(4):
        h = round(rng.uniform(0.4, 0.5), 4)
        k_per, k_build, k_verify, k_hopf = (next(ks) for _ in range(4))
        k_sweep = [next(ks) for _ in range(3)]
        path = os.path.join(out_dir, f"op{i}")
        ops += [
            _cli_op("elliptic-periods", ["elliptic", "periods", "--k", str(k_per), "--format", "csv"],
                    path + "-periods.csv", _periods_check(k_per, O.complete_K_reference(k_per))),
            _cli_op("deform-build", ["deform", "build", "--j", "5", "--h", str(h), "--k", str(k_build)],
                    path + "-build.json", _deform_build_check(5.0, h, k_build)),
            _cli_op("deform-verify", ["deform", "verify", "--j", "5", "--h", str(h), "--k", str(k_verify),
                                      "--format", "csv"], path + "-verify.csv", _deform_verify_check),
            _cli_op("hopf-delta", ["hopf", "delta", "--which", "2", "--j1", "2", "--j2", "2",
                                   "--h", str(h), "--k", str(k_hopf), "--format", "csv"],
                    path + "-hopf.csv", _hopf_delta_check(2.0, h, k_hopf)),
            _cli_op("sweep", ["sweep", "--families", "deform,elliptic", "--j", "1.5,3",
                              "--h", str(h), "--k", ",".join(map(str, k_sweep))],
                    path + "-sweep.json", _sweep_check([1.5, 3.0], h, k_sweep)),
        ]
    return Workload(ops, warm=False, before_op=clear_deform_caches)


def build(name, seed, out_dir):
    rng = random.Random(f"{name}:{seed}")
    if name == "spin-verify":
        return spin_verify(rng)
    if name == "tensor-coproduct":
        return tensor_coproduct(rng)
    if name == "exact-rewrite":
        return exact_rewrite(rng)
    if name == "cli-reports":
        return cli_reports(rng, out_dir)
    raise ValueError(f"unknown workload {name!r}")
