"""Command-line interface: exit codes, output formats, determinism, config."""

import concurrent.futures
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc

import pytest

import elliptic_sl2

CLI = [sys.executable, "-m", "elliptic_sl2"]
# The child imports the package this test process imported.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(elliptic_sl2.__file__)))


def run(*args, env_extra=None, timeout=120):
    env = dict(os.environ)
    env.pop("ELLIPTIC_SL2_FORMAT", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=env, timeout=timeout)


def test_version_flag():
    proc = run("--version")
    assert proc.returncode == 0
    assert "elliptic-sl2" in proc.stdout


def test_rep_build_json():
    proc = run("rep", "build", "--j", "0.5")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["dim"] == 2
    assert payload["Jp"]["entries"][1] == [1.0, 0.0]


def test_elliptic_K_at_a_tiny_modulus():
    proc = run("elliptic", "K", "--k", "1e-9")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert abs(payload["Kprime"] - 22.109560198066302) < 1e-13


def test_elliptic_K_values():
    proc = run("elliptic", "K", "--k", "0.5")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert abs(payload["K"] - 1.6857503548125961) < 1e-15
    assert abs(payload["Kprime"] - 2.1565156474996434) < 1e-15


def test_deform_verify_passes_and_respects_tol():
    proc = run("deform", "verify", "--j", "1", "--h", "0.7", "--k", "0.6")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True
    strict = run("deform", "verify", "--j", "1", "--h", "0.7", "--k", "0.6",
                 "--tol", "1e-20")
    assert strict.returncode == 1
    assert json.loads(strict.stdout)["pass"] is False


def test_hopf_verify():
    proc = run("hopf", "verify", "--which", "2", "--j1", "0.5", "--j2", "0.5",
               "--h", "0.8", "--k", "0.5")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["report"]["cocommutativity_gap"] > 0.1
    assert payload["pass"] is True


def test_auto_shift_all_kinds():
    for which, extra in (("sign", ["--k", "0.6"]),
                         ("uh-half", []),
                         ("ell-iKp", ["--k", "0.6"]),
                         ("ell-2KiKp", ["--k", "0.6"])):
        proc = run("auto", "shift", "--which", which, "--j", "1", "--h", "0.7", *extra)
        assert proc.returncode == 0, (which, proc.stderr)
        assert json.loads(proc.stdout)["pass"] is True


@pytest.mark.parametrize("h, k", [("0.7", "1e-13"), ("0.7", "4e-13"), ("0.7", "1e-300"),
                                  ("1e-13", "0.6"), ("1e-300", "0.6")])
def test_auto_shift_at_a_tiny_h_or_k_checks_the_induced_map_exactly(capsys, h, k):
    # a modulus that rounds to 0 at denominator 10**12 is taken as its exact
    # binary rational, not refused as a zero sample
    from elliptic_sl2 import cli

    code = cli.main(["auto", "shift", "--which", "ell-iKp", "--j", "1", "--h", h, "--k", k])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0, payload
    assert payload["pass"] is True
    assert payload["report"]["induced_map_exact"] is True


def test_verify_all_at_a_tiny_modulus(capsys):
    from elliptic_sl2 import cli

    code = cli.main(["verify-all", "--k", "1e-13"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0, payload
    assert payload["induced_maps_exact"] is True


def test_rewrite_nf_and_strategies():
    from elliptic_sl2 import rewrite

    proc = run("rewrite", "nf", "--expr", "[Jp, Jm] - 2*J0")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["terms"] == []
    proc = run("rewrite", "nf", "--expr", "Jpinv Jm Jp")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert list(payload) == ["expr", "terms"]
    for strategy in rewrite.STRATEGIES:
        assert payload["terms"] == rewrite.nf_word(("Jpinv", "Jm", "Jp"), strategy).to_terms()
    assert run("rewrite", "nf", "--expr", "Jp", "--strategy", "leftmost").returncode == 2


def test_rewrite_nf_long_expression_under_both_strategies():
    from elliptic_sl2 import rewrite

    proc = run("rewrite", "nf", "--expr", "(Jp Jm)^12")
    assert proc.returncode == 0, proc.stderr
    terms = json.loads(proc.stdout)["terms"]
    for strategy in rewrite.STRATEGIES:
        assert terms == rewrite.nf_word(("Jp", "Jm") * 12, strategy).to_terms()


def test_rewrite_nf_huge_exponent_is_a_fast_domain_error(capsys):
    from elliptic_sl2 import cli

    t0 = time.perf_counter()
    assert cli.main(["rewrite", "nf", "--expr", "Jp^-1000000"]) == 3
    assert time.perf_counter() - t0 < 1.0
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "DomainError" and "MAX_DEGREE" in err["message"]


def test_usage_error_is_exit_2():
    proc = run("no-such-verb")
    assert proc.returncode == 2
    proc = run("deform")
    assert proc.returncode == 2


def test_unparseable_values_are_exit_2_with_structured_report():
    for args, flag in ((("deform", "verify", "--j", "abc", "--h", "0.7", "--k", "0.6"), "--j"),
                       (("deform", "verify", "--j", "1", "--h", "0.7", "--k", "0.6",
                         "--tol", "xyz"), "--tol"),
                       (("sweep", "--workers", "abc"), "--workers")):
        proc = run(*args)
        assert proc.returncode == 2, (args, proc.stderr)
        err = json.loads(proc.stderr)["error"]
        assert err["type"] == "UsageError"
        assert flag in err["message"]


def test_domain_error_is_exit_3_with_structured_report():
    proc = run("rewrite", "nf", "--expr", "Jp + * Jm")
    assert proc.returncode == 3
    err = json.loads(proc.stderr)
    assert err["error"]["type"] == "DomainError"
    assert "position" in err["error"]["message"]


def test_pole_is_exit_3():
    proc = run("elliptic", "eval", "--k", "0.6", "--u", "1.9953027776647292i")
    assert proc.returncode == 3
    assert json.loads(proc.stderr)["error"]["type"] == "PoleError"


def test_missing_value_is_exit_3():
    proc = run("deform", "verify", "--j", "1", "--h", "0.7")
    assert proc.returncode == 3
    assert "k" in json.loads(proc.stderr)["error"]["message"]


def test_csv_output_and_env_var_default(tmp_path):
    proc = run("elliptic", "K", "--k", "0.5", env_extra={"ELLIPTIC_SL2_FORMAT": "csv"})
    assert proc.returncode == 0
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0] == ["key", "value"]
    assert rows[1][0] == "k"
    # explicit flag beats the environment
    proc = run("elliptic", "K", "--k", "0.5", "--format", "json",
               env_extra={"ELLIPTIC_SL2_FORMAT": "csv"})
    json.loads(proc.stdout)


def test_config_file_defaults_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k=0.5\nformat=csv  # trailing comment\n")
    proc = run("elliptic", "K", "--config", str(cfg))
    assert proc.returncode == 0
    rows = dict(r[:2] for r in csv.reader(io.StringIO(proc.stdout)) if r)
    assert rows["k"] == "0.5"
    over = run("elliptic", "K", "--k", "0.9", "--config", str(cfg), "--format", "json")
    assert json.loads(over.stdout)["k"] == 0.9


@pytest.mark.parametrize("value,provenance", [("true", "uh"), ("false", "direct"),
                                              ("True", "uh")])
def test_config_file_sets_the_jordanian_switch(tmp_path, capsys, value, provenance):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"jordanian = {value}\n")
    for sub in ("build", "verify"):
        code, payload = main_json(capsys, "deform", sub, "--j", "1", "--h", "0.8", "--k", "0.6",
                                  "--config", str(cfg))
        assert (code, payload["provenance"]) == (0, provenance), sub
    # an explicit flag wins over the file
    code, payload = main_json(capsys, "deform", "build", "--j", "1", "--h", "0.8", "--k", "0.6",
                              "--jordanian", "--config", str(cfg))
    assert (code, payload["provenance"]) == (0, "uh")


def test_config_file_rejects_a_jordanian_value_that_is_not_a_boolean(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("jordanian = yes\n")
    proc = run("deform", "verify", "--j", "1", "--h", "0.8", "--k", "0.6", "--config", str(cfg))
    assert proc.returncode == 2 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"]["type"] == "UsageError"


def test_config_rejects_malformed_lines(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a pair\n")
    proc = run("elliptic", "K", "--config", str(cfg))
    assert proc.returncode == 3


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_out_path_that_cannot_be_written_is_a_domain_error(tmp_path, where):
    out = tmp_path / "no" / "such" / "x.json" if where == "missing-dir" else tmp_path
    proc = run("rep", "build", "--j", "1", "--out", str(out))
    assert proc.returncode == 3 and proc.stdout == ""
    err = json.loads(proc.stderr)["error"]
    assert err["type"] == "DomainError" and err["message"].startswith("cannot write output file")


@pytest.mark.parametrize("lines_read", [0, 1])
def test_stdout_closed_early_ends_quietly(lines_read):
    """`| head -1`, or a reader that closes the pipe before the first write:
    the report (about 350 kB, beyond the pipe buffer) ends without a
    traceback, and the exit code is still the verdict's."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    proc = subprocess.Popen(CLI + ["hopf", "delta", "--which", "2", "--j1", "3", "--j2", "3",
                                   "--h", "0.45", "--k", "0.7", "--format", "csv"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    for _ in range(lines_read):
        assert proc.stdout.readline() == b"key,value\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 0
    assert err == b""


def test_sweep_deterministic_and_parallel_identical(tmp_path):
    args = ("sweep", "--families", "deform", "--j", "0.5,1", "--h", "0.7",
            "--k", "0.4,1.0", "--format", "csv")
    a = run(*args)
    b = run(*args)
    assert a.returncode == 0 and a.stdout == b.stdout
    par = run(*args, "--workers", "2")
    assert par.stdout == a.stdout
    header = next(csv.reader(io.StringIO(a.stdout)))
    assert header[:5] == ["family", "j", "h", "k", "status"]


def test_hopf_commands_on_spin_zero_factors_exit_0(capsys):
    """On V_0 x V_0 the raising algebra is C, so DX and DY have no nonzero
    term: each coproduct still builds, prints and verifies, and every
    residual is 0."""
    from elliptic_sl2 import cli

    for which in ("1", "uh", "2"):
        args = ["--which", which, "--j1", "0", "--j2", "0", "--h", "0.8", "--k", "0.6"]
        assert cli.main(["hopf", "delta", *args]) == 0, which
        assert json.loads(capsys.readouterr().out)["DY"]["entries"] == [[0.0, 0.0]]
        assert cli.main(["hopf", "verify", *args]) == 0, which
        payload = json.loads(capsys.readouterr().out)
        assert (payload["worst"], payload["pass"]) == (0.0, True), which


def test_hopf_verify_counts_the_delta1_cocommutativity_gap():
    proc = run("hopf", "verify", "--which", "1", "--j1", "1", "--j2", "1",
               "--h", "0.8", "--k", "0.6")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["pass"] is True
    assert payload["worst"] >= payload["report"]["cocommutativity_gap"]


def test_cocommutativity_gap_decides_only_the_delta1_verdict(monkeypatch, capsys):
    from elliptic_sl2 import cli, hopf

    real = hopf.verify_coproduct

    def inflated(ct):
        report = real(ct)
        report["cocommutativity_gap"] = 0.5
        return report

    monkeypatch.setattr(hopf, "verify_coproduct", inflated)
    common = ["--j1", "0.5", "--j2", "1", "--h", "0.8", "--k", "0.6"]
    assert cli.main(["hopf", "verify", "--which", "1", *common]) == 1
    assert json.loads(capsys.readouterr().out)["worst"] == 0.5
    for which in ("2", "uh"):
        assert cli.main(["hopf", "verify", "--which", which, *common]) == 0
        assert json.loads(capsys.readouterr().out)["worst"] < 0.5


def test_sweep_computes_the_elliptic_family_once_per_modulus(monkeypatch, capsys):
    from elliptic_sl2 import autos, cli

    calls = []
    real = autos.scalar_shift_identities

    def counted(k, **kw):
        calls.append(k)
        return real(k, **kw)

    monkeypatch.setattr(autos, "scalar_shift_identities", counted)
    args = ["sweep", "--families", "deform,elliptic", "--j", "0.5,1.5", "--h", "0.6,0.7",
            "--k", "0.4,0.8"]
    assert cli.main(args) == 0
    assert sorted(calls) == [0.4, 0.8]
    serial = capsys.readouterr().out
    rows = json.loads(serial)["rows"]
    elliptic = [r for r in rows if r["family"] == "elliptic"]
    assert [(r["j"], r["h"], r["k"]) for r in elliptic] == [
        (j, h, k) for j in (0.5, 1.5) for h in (0.6, 0.7) for k in (0.4, 0.8)]
    par = run(*args, "--workers", "2")
    assert par.returncode == 0 and par.stdout == serial


def test_sweep_workers_never_exceed_the_distinct_cells_or_the_cpus(monkeypatch, capsys):
    from elliptic_sl2 import cli

    asked = []

    class SerialPool:
        """Records the pool size it is asked for and maps in this process."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    # four deform cells and two elliptic moduli: six distinct computations
    args = ("sweep", "--families", "deform,elliptic", "--j", "0.5,1", "--h", "0.7",
            "--k", "0.4,0.8")
    serial = main_json(capsys, *args)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    assert main_json(capsys, *args, "--workers", "1000") == serial
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    assert main_json(capsys, *args, "--workers", "1000") == serial
    assert asked == [3, 6]
    # one cell needs no pool at all
    main_json(capsys, "sweep", "--j", "1", "--h", "0.7", "--k", "0.6", "--workers", "8")
    assert asked == [3, 6]


def test_the_cli_imports_the_process_pool_only_for_a_parallel_sweep():
    code = ("import sys, elliptic_sl2.cli; "
            "print('concurrent.futures.process' in sys.modules, 'multiprocessing' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (proc.returncode, proc.stdout.split()) == (0, ["False", "False"])


def test_one_set_of_triplet_checks_behind_every_verb(capsys):
    j, h, k = 1.5, 0.7, 0.6
    code, verify = main_json(capsys, "deform", "verify", "--j", str(j), "--h", str(h),
                             "--k", str(k))
    assert code == 0
    expected = dict(verify["residuals"])
    expected.update({f"casimir_{form}": v for form, v in verify["casimir"].items()})
    code, bundle = main_json(capsys, "verify-all", "--h", str(h), "--k", str(k))
    assert code == 0
    assert bundle["sections"][f"deform_j{j}"] == expected
    code, sweep = main_json(capsys, "sweep", "--j", str(j), "--h", str(h), "--k", str(k))
    assert code == 0
    row, = sweep["rows"]
    assert {key: row[key] for key in expected} == expected
    assert set(row) - set(expected) == {"family", "j", "h", "k", "status", "worst", "pass"}


@pytest.mark.parametrize("model", [["--k", "0.6"], ["--jordanian"]])
def test_deform_verify_makes_one_gather_and_one_power_stack(model, calculus_calls, capsys):
    """The build's gather at J+ and one batch at x, one power table and one
    gather, serve every relation, all three Casimir forms and the round
    trip."""
    code, verify = main_json(capsys, "deform", "verify", "--j", "4", "--h", "0.7", *model)
    assert code == 0 and verify["pass"] is True
    assert calculus_calls.counts() == (1, 2)


def test_sweep_elliptic_marks_unit_modulus_as_error():
    proc = run("sweep", "--families", "elliptic", "--j", "0.5", "--h", "0.7",
               "--k", "0.6,1.0")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    by_k = {row["k"]: row for row in payload["rows"]}
    assert by_k[0.6]["status"] == "ok" and by_k[0.6]["pass"] is True
    assert by_k[1.0]["status"] == "error"
    assert "0 < k < 1" in by_k[1.0]["error"]
    assert payload["pass"] is False


def test_sweep_elliptic_passes_at_small_modulus():
    proc = run("sweep", "--families", "elliptic", "--k", "0.08")
    assert proc.returncode == 0, proc.stdout
    row = json.loads(proc.stdout)["rows"][0]
    assert row["pass"] is True and row["worst"] < 1e-9


def test_verify_all_passes():
    proc = run("verify-all", "--h", "0.7", "--k", "0.6")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["pass"] is True
    assert payload["induced_maps_exact"] is True


def test_out_file_matches_stdout(tmp_path):
    out = tmp_path / "k.json"
    direct = run("elliptic", "K", "--k", "0.3")
    to_file = run("elliptic", "K", "--k", "0.3", "--out", str(out))
    assert to_file.returncode == 0 and to_file.stdout == ""
    assert out.read_text() == direct.stdout


def strict_loads(text):
    """json.loads that refuses the non-standard NaN and Infinity tokens."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


def main_json(capsys, *argv):
    from elliptic_sl2 import cli

    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, strict_loads(captured.out if code in (0, 1) else captured.err)


def test_nan_residuals_fail_the_verdict(capsys):
    # At j = 2.5, h = 1e60 the dressing's matmuls that make Yhat = d J- d
    # overflow (Xhat's corner entry is about 8e239), and the relations meet
    # inf - inf.
    code, payload = main_json(capsys, "sweep", "--families", "deform", "--j", "2.5",
                              "--h", "1e60", "--k", "0.6")
    row = payload["rows"][0]
    assert code == 1 and payload["pass"] is False and row["pass"] is False
    assert row["eq14"] == "NaN" and row["worst"] == "NaN"
    code, payload = main_json(capsys, "auto", "shift", "--which", "sign", "--j", "2.5",
                              "--h", "1e60", "--k", "0.6")
    assert code == 1 and payload["pass"] is False
    assert payload["report"]["eq14"] == "NaN" and payload["worst"] == "NaN"


def test_structure_functions_at_x_stay_finite_at_a_huge_h(capsys):
    """At j = 2, h = 1e60 F is taken on Xhat's element x, so no power of
    Xhat's matrix overflows: eq14 and the two routes to F stay finite and
    small, and the row fails on the elliptic Casimir form's rounding alone."""
    code, payload = main_json(capsys, "sweep", "--families", "deform", "--j", "2",
                              "--h", "1e60", "--k", "0.6")
    row = payload["rows"][0]
    assert row["eq14"] < 1e-15 and row["f_eq15_vs_eq17"] < 1e-15
    assert code == 1 and row["pass"] is False and row["casimir_elliptic"] == row["worst"] == 1.0


def test_residuals_stay_finite_where_the_squared_norm_overflows(capsys):
    """At h = 1e100 the generators' entries reach about 1e200, whose squares
    overflow; every residual is still a finite relative gap."""
    code, payload = main_json(capsys, "sweep", "--families", "deform", "--j", "1",
                              "--h", "1e100", "--k", "0.6")
    row = payload["rows"][0]
    residuals = {key: row[key] for key in ("eq12", "eq13", "eq14", "f_eq15_vs_eq17")}
    assert all(isinstance(v, float) and v < 1e-15 for v in residuals.values())
    # Rounding in the Jordanian and elliptic Casimir products is as large as
    # the products themselves there, so the row still fails.
    assert row["casimir_jordanian"] >= 0.5 and row["casimir_elliptic"] >= 0.5
    assert code == 1 and row["pass"] is False and row["worst"] >= 0.5
    code, payload = main_json(capsys, "auto", "shift", "--which", "sign", "--j", "1",
                              "--h", "1e100", "--k", "0.6")
    assert code == 0 and payload["worst"] < 1e-15


def test_elliptic_sweep_passes_at_a_small_modulus(capsys):
    code, payload = main_json(capsys, "sweep", "--families", "elliptic", "--j", "1",
                              "--h", "0.7", "--k", "0.02")
    assert code == 0 and payload["pass"] is True
    assert payload["rows"][0]["dn_period_4iKp"] <= 1e-11


@pytest.mark.parametrize("k", ["0.002", "0.006"])
def test_elliptic_sweep_passes_at_the_smallest_moduli(capsys, k):
    code, payload = main_json(capsys, "sweep", "--families", "elliptic", "--j", "1",
                              "--h", "0.7", "--k", k)
    assert code == 0 and payload["pass"] is True
    assert payload["rows"][0]["worst"] <= 1e-12


def test_non_finite_flag_values_are_usage_errors(capsys):
    for argv, flag in ((("elliptic", "K", "--k", "nan"), "--k"),
                       (("elliptic", "K", "--k", "inf"), "--k"),
                       (("elliptic", "eval", "--k", "0.6", "--u", "1e400+0.1i"), "--u"),
                       (("deform", "verify", "--j", "nan", "--h", "0.7", "--k", "0.6"), "--j"),
                       (("deform", "verify", "--j", "1", "--h", "0.7", "--k", "0.6",
                         "--tol", "nan"), "--tol"),
                       (("sweep", "--h", "0.7,1e999"), "--h")):
        code, err = main_json(capsys, *argv)
        assert code == 2, argv
        assert err["error"]["type"] == "UsageError" and flag in err["error"]["message"]


@pytest.mark.parametrize("argv", [
    ("deform", "build", "--j", "1", "--h", "0.8", "--k", "1e155"),
    ("deform", "verify", "--j", "1", "--h", "0.8", "--k", "1e155"),
    ("deform", "verify", "--j", "1", "--h", "0.8", "--k", "1e200"),
    ("hopf", "verify", "--which", "1", "--j1", "1", "--j2", "0.5", "--h", "0.8", "--k", "1e155"),
    ("hopf", "verify", "--which", "2", "--j1", "1", "--j2", "0.5", "--h", "0.8", "--k", "1e200"),
    ("auto", "shift", "--which", "sign", "--j", "1", "--h", "0.8", "--k", "1e155"),
])
def test_a_modulus_whose_square_overflows_is_a_domain_error(capsys, argv):
    code, err = main_json(capsys, *argv)
    assert code == 3
    assert err["error"]["type"] == "DomainError" and "modulus k" in err["error"]["message"]


def test_a_sweep_row_names_a_modulus_whose_square_overflows(capsys):
    code, payload = main_json(capsys, "sweep", "--j", "1", "--h", "0.8", "--k", "0.6,1e155")
    assert code == 1
    ok, bad = payload["rows"]
    assert ok["status"] == "ok" and bad["status"] == "error"
    assert "modulus k" in bad["error"]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_needs_at_least_one_worker(capsys, workers):
    code, err = main_json(capsys, "sweep", "--j", "1", "--h", "0.7", "--k", "0.6",
                          "--workers", workers)
    assert code == 2
    assert err["error"]["type"] == "UsageError" and "--workers" in err["error"]["message"]


@pytest.mark.parametrize("argv", [
    ("deform", "verify", "--j", "1", "--h", "0.7", "--k", "0.6"),
    ("hopf", "verify", "--which", "uh", "--j1", "0.5", "--j2", "0.5", "--h", "0.7"),
    ("auto", "shift", "--which", "sign", "--j", "1", "--h", "0.7", "--k", "0.6"),
    ("verify-all",),
    ("sweep", "--j", "1", "--h", "0.7", "--k", "0.6"),
])
def test_a_negative_tolerance_is_a_usage_error_and_zero_is_a_tolerance(capsys, argv):
    code, err = main_json(capsys, *argv, "--tol", "-1")
    assert code == 2
    assert err["error"]["type"] == "UsageError" and "--tol" in err["error"]["message"]
    code, payload = main_json(capsys, *argv, "--tol", "0")
    assert code == (0 if payload["pass"] else 1)


def test_eval_without_u_is_a_missing_value():
    proc = run("elliptic", "eval", "--k", "0.5")
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == ('{"error": {"type": "DomainError", '
                           '"message": "missing required value --u"}}\n')


def test_overflowing_scale_is_a_domain_error(capsys):
    # (h/2)**i overflows for some power i < dim that a matrix uses
    for argv in (("deform", "verify", "--j", "1", "--h", "1e155", "--k", "0.6"),
                 ("verify-all", "--h", "1e160")):
        code, err = main_json(capsys, *argv)
        assert code == 3, argv
        assert err["error"]["type"] == "DomainError" and "overflows" in err["error"]["message"]
    # numpy's overflow warnings stay off stderr, which holds the JSON error alone
    proc = run("verify-all", "--h", "1e160")
    assert proc.returncode == 3
    assert strict_loads(proc.stderr)["error"]["type"] == "DomainError"
    # every used power is finite, but the inverse map is far off at this
    # scale (a roundtrip gap of about 1e282), and it fails
    code, payload = main_json(capsys, "deform", "verify", "--j", "1", "--h", "1e150",
                              "--k", "0.6")
    assert code == 1 and payload["pass"] is False
    assert payload["worst"] == payload["roundtrip"] > 1.0
    # J+**2 = 0 on spin 1/2, so only (h/2)**0 and (h/2)**1 are used
    code, payload = main_json(capsys, "deform", "verify", "--j", "0.5", "--h", "1e200",
                              "--k", "0.6")
    assert code == 0 and payload["pass"] is True


def test_json_is_one_strict_line_from_the_standard_encoder(capsys):
    code, payload = main_json(capsys, "rewrite", "nf", "--expr", "Jp\nJm")
    assert code == 0 and payload["expr"] == "Jp\nJm"
    code, err = main_json(capsys, "rewrite", "nf", "--expr", 'Jp \\ "')
    assert code == 3 and '\\ "' in err["error"]["message"]
    from elliptic_sl2 import cli

    assert cli.main(["elliptic", "eval", "--k", "0.6", "--u", "0.1+0.2i"]) == 0
    text = capsys.readouterr().out
    assert text.endswith("}\n") and text.count("\n") == 1
    payload = strict_loads(text)
    assert payload["u"] == [0.1, 0.2] and payload["k"] == 0.6
    assert cli._json_text({"a": [float("nan"), float("inf"), -float("inf"), complex(1, float("nan"))]}) \
        == '{"a": ["NaN", "Infinity", "-Infinity", [1.0, "NaN"]]}\n'


def test_csv_floats_read_back_to_the_json_doubles(capsys):
    from elliptic_sl2 import cli

    assert cli.main(["elliptic", "eval", "--k", "0.6", "--u", "0.1+0.2i"]) == 0
    payload = strict_loads(capsys.readouterr().out)
    assert cli.main(["elliptic", "eval", "--k", "0.6", "--u", "0.1+0.2i", "--format", "csv"]) == 0
    rows = dict(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows["k"] == format(0.6, ".17g") and float(rows["k"]) == payload["k"]
    re, im = payload["sn"]
    assert rows["sn"] == f"{re:.17g}{'+' if im >= 0 else '-'}{abs(im):.17g}i"
    assert complex(rows["sn"].replace("i", "j")) == complex(re, im)
    assert cli._csv_cell(complex(3.5, 0.0)) == "3.5+0i"
    assert cli._csv_cell(float("nan")) == "NaN" and cli._csv_cell(-float("inf")) == "-Infinity"


def test_the_parser_is_built_once_per_process():
    from elliptic_sl2 import cli

    assert cli.build_parser() is cli.build_parser()


def test_consecutive_main_calls_share_no_state(tmp_path, capsys):
    from elliptic_sl2 import cli

    cfg = tmp_path / "run.cfg"
    cfg.write_text("k=0.5\n")
    code, payload = main_json(capsys, "elliptic", "K", "--config", str(cfg))
    assert code == 0 and payload["k"] == 0.5
    code, err = main_json(capsys, "elliptic", "K")
    assert code == 3 and "--k" in err["error"]["message"]

    valid = ["deform", "verify", "--j", "1", "--h", "0.7", "--k", "0.6", "--format", "csv"]
    alone = run(*valid)
    assert alone.returncode == 0
    with pytest.raises(SystemExit) as exc:  # argparse's usage error, mid-parse
        cli.main(["deform", "verify", "--j", "1", "--no-such-flag"])
    assert exc.value.code == 2
    assert cli.main(["deform", "verify", "--j", "abc", "--h", "0.9", "--format", "json"]) == 2
    capsys.readouterr()
    assert cli.main(valid) == 0
    assert capsys.readouterr().out == alone.stdout


def test_overflowing_spin_module_is_a_named_domain_error(capsys):
    code, err = main_json(capsys, "deform", "verify", "--j", "150", "--h", "0.8", "--k", "0.6")
    assert code == 3 and err["error"]["type"] == "DomainError"
    assert "overflow" in err["error"]["message"]
    assert "strictly upper-triangular" not in err["error"]["message"]


def test_dimension_caps_exit_3_before_allocating(capsys):
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        for argv in (("deform", "verify", "--j", "5000", "--h", "0.8", "--k", "0.6"),
                     ("rep", "build", "--j", "1e300"),
                     ("hopf", "verify", "--which", "2", "--j1", "30", "--j2", "30",
                      "--h", "0.8", "--k", "0.6")):
            code, err = main_json(capsys, *argv)
            assert code == 3, argv
            assert err["error"]["type"] == "DomainError" and "cap" in err["error"]["message"]
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 8 * 2 ** 20


def test_an_empty_sweep_axis_is_a_usage_error(capsys):
    for flag, value in (("--j", ","), ("--j", ""), ("--h", ","), ("--k", ","),
                        ("--families", ","), ("--families", "")):
        code, err = main_json(capsys, "sweep", flag, value)
        assert code == 2, (flag, value)
        assert err["error"]["type"] == "UsageError" and flag in err["error"]["message"]
    # an empty entry next to a value is still skipped
    code, payload = main_json(capsys, "sweep", "--j", "0.5,", "--k", ",0.6")
    assert code == 0 and len(payload["rows"]) == 1


def test_elliptic_K_refuses_a_modulus_above_one(capsys):
    for k in ("1.5", "-0.5"):
        code, err = main_json(capsys, "elliptic", "K", "--k", k)
        assert code == 3 and err["error"]["type"] == "DomainError", k
    code, payload = main_json(capsys, "elliptic", "K", "--k", "1")
    assert code == 0 and payload["K"] is None and payload["Kprime"] == math.pi / 2


def test_large_spins_near_unit_modulus_pass_at_zero_scale(capsys):
    # correct triplets of dim 80 near k = 1, where the coefficients of sn(2u)
    # grow like (4/pi)**i: the doubled form must not divide by them
    for argv in (("deform", "verify", "--jordanian", "--j", "39.5", "--h", "0"),
                 ("deform", "verify", "--j", "39.5", "--h", "0", "--k", "0.99"),
                 ("sweep", "--j", "39.5", "--h", "0", "--k", "1")):
        code, payload = main_json(capsys, *argv)
        assert code == 0 and payload["pass"] is True, argv
        report = payload["rows"][0] if "rows" in payload else payload["residuals"]
        assert report["f_eq15_vs_eq16"] <= 1e-14, argv


def _report_keys(obj, inputs=frozenset({"j", "h", "k", "j1", "j2", "tol"})):
    """Every key of a report whose value is a number (a non-finite one is a
    string), inputs aside."""
    if isinstance(obj, list):
        return set().union(*map(_report_keys, obj))
    if not isinstance(obj, dict):
        return set()
    keys = set()
    for key, val in obj.items():
        if key not in inputs and (val in ("NaN", "Infinity", "-Infinity") or (
                isinstance(val, (int, float)) and not isinstance(val, bool))):
            keys.add(key)
        keys |= _report_keys(val)
    return keys


def test_every_numeric_report_key_is_in_the_readme_label_table(capsys):
    readme = open(os.path.join(SRC, os.pardir, "README.md"), encoding="utf-8").read()
    section = readme.split("## Residual labels", 1)[1].split("\n## ", 1)[0]
    labels = {token for line in section.splitlines() if line.startswith("| `")
              for token in re.findall(r"`([^`]+)`", line.split(" | ")[0])}
    spin = ("--j", "1", "--h", "0.8", "--k", "0.6")
    pair = ("--j1", "0.5", "--j2", "1", "--h", "0.8", "--k", "0.6")
    runs = [("deform", "verify", *spin), ("verify-all",),
            ("sweep", "--families", "deform,elliptic", "--j", "1", "--h", "0.8",
             "--k", "0.6,1")]
    runs += [("hopf", "verify", "--which", which, *pair) for which in ("1", "2", "uh")]
    runs += [("auto", "shift", "--which", which, *spin)
             for which in ("sign", "uh-half", "ell-iKp", "ell-2KiKp")]
    keys = set()
    for argv in runs:
        code, payload = main_json(capsys, *argv)
        assert code in (0, 1), argv
        keys |= _report_keys(payload)
    assert keys - labels == set()
