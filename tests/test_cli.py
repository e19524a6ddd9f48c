"""Command-line interface: exit codes, output formats, determinism, config."""

import csv
import io
import json
import os
import subprocess
import sys
import time

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


def test_rewrite_nf_and_strategies():
    proc = run("rewrite", "nf", "--expr", "[Jp, Jm] - 2*J0")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["terms"] == []
    left = run("rewrite", "nf", "--expr", "Jpinv Jm Jp", "--strategy", "leftmost")
    right = run("rewrite", "nf", "--expr", "Jpinv Jm Jp", "--strategy", "rightmost")
    assert left.returncode == 0 and right.returncode == 0
    assert json.loads(left.stdout)["terms"] == json.loads(right.stdout)["terms"]


def test_rewrite_nf_long_expression_under_both_strategies():
    left = run("rewrite", "nf", "--expr", "(Jp Jm)^20", "--strategy", "leftmost")
    right = run("rewrite", "nf", "--expr", "(Jp Jm)^20", "--strategy", "rightmost")
    assert left.returncode == 0 and right.returncode == 0, right.stderr
    assert json.loads(right.stdout)["terms"] == json.loads(left.stdout)["terms"]


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


def test_config_rejects_malformed_lines(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a pair\n")
    proc = run("elliptic", "K", "--config", str(cfg))
    assert proc.returncode == 3


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
    code, payload = main_json(capsys, "sweep", "--families", "deform", "--j", "1",
                              "--h", "1e100", "--k", "0.6")
    row = payload["rows"][0]
    assert code == 1 and payload["pass"] is False and row["pass"] is False
    assert row["eq14"] == "NaN" and row["worst"] == "NaN"
    code, payload = main_json(capsys, "auto", "shift", "--which", "sign", "--j", "1",
                              "--h", "1e100", "--k", "0.6")
    assert code == 1 and payload["pass"] is False
    assert payload["report"]["eq14"] == "NaN" and payload["worst"] == "NaN"


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


def test_overflowing_scale_is_a_domain_error(capsys):
    for argv in (("deform", "verify", "--j", "1", "--h", "1e150", "--k", "0.6"),
                 ("verify-all", "--h", "1e100")):
        code, err = main_json(capsys, *argv)
        assert code == 3, argv
        assert err["error"]["type"] == "DomainError" and "overflows" in err["error"]["message"]
    # numpy's overflow warnings stay off stderr, which holds the JSON error alone
    proc = run("verify-all", "--h", "1e100")
    assert proc.returncode == 3
    assert strict_loads(proc.stderr)["error"]["type"] == "DomainError"


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
