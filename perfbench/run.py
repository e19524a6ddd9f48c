"""Benchmark of elliptic_sl2: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload spin-verify --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository; the package is imported from its
``src`` directory.  The run builds the workload's operation list from the
seed, then repeats whole rounds of that list until ``--seconds`` have passed
(and at least 100 operations have been timed).  Each operation runs three
times from the same cache state and its latency is the fastest of the three,
so an execution the host slowed down does not count.  Times are reported at
reference speed: each operation's wall time is scaled by the host's speed,
measured with a fixed loop that never calls the program, just before and
just after the operation, so a slow spell of the shared host does not read as
a slower program.  The wall-clock figures are kept in the run record.
Only the calls into the program are timed; every result is then checked
apart from the program.  Before and after the rounds it times fresh
interpreters importing the package and CLI.

With ``--trace 0`` the last line of output carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics from spans around each layer's calls.
A run record (and, traced, the spans) is written under ``perfbench/out/``.
"""

import os

# One BLAS thread, set before numpy loads: two threads on two cores gave a
# latency tail up to twice the median at dimension 121.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("spin-verify", "tensor-coproduct", "exact-rewrite", "cli-reports")
SETUP_SAMPLES = 6         # fresh interpreters before and again after the timed rounds
REPEATS = 3               # executions per operation; its latency is the fastest
MIN_SAMPLES = 100         # so that ten timed operations lie beyond the 90th percentile
HARD_STOP_S = 120.0       # stop starting rounds after this, whatever --seconds says
# Times are reported at reference speed: the host speed at which the
# workload's reference loop takes REF_LOOP_S.  On the shared 2-vCPU host the
# benchmark was written on, both loops took 2-5 ms as the host moved between
# fast and slow spells that last seconds to minutes.
REF_LOOP_S = 3.0e-3
_SMALL = np.random.default_rng(1).random((9, 9))
_BIG = np.random.default_rng(0).random((100, 100))


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def import_package():
    if not (SRC / "elliptic_sl2" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC / 'elliptic_sl2'}")
    sys.path.insert(0, str(SRC))
    import elliptic_sl2

    where = Path(elliptic_sl2.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SetupError(f"elliptic_sl2 was imported from {where}, not from {SRC}")


def measure_setup(samples, loop):
    """Time from starting a fresh interpreter until it has imported
    elliptic_sl2 and elliptic_sl2.cli and exited, at reference speed (the
    mean of the host speeds just before and just after it), and as wall time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", "import elliptic_sl2, elliptic_sl2.cli"]
    times, wall = [], []
    speed = host_speed(loop)
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60, check=False)
        wall.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SetupError(f"fresh interpreter failed to import: {proc.stderr.decode()[-400:]}")
        speed_after = host_speed(loop)
        times.append(wall[-1] * (speed + speed_after) / 2)
        speed = speed_after
    return times, wall


def run_op(op, tracer):
    """Time one call into the program; an exception is a failed operation."""
    if tracer:
        tracer.begin_op(op.kind)
    t0 = time.perf_counter()
    try:
        return op.run(), None, time.perf_counter() - t0
    except Exception as exc:  # noqa: BLE001 - any exception the program raises
        return None, exc, time.perf_counter() - t0
    finally:
        if tracer:
            tracer.end_op()


def numpy_loop():
    """Wall time of small-matrix numpy arithmetic and dense 100x100 matmuls,
    the work of the three numeric workloads; it never calls the program."""
    t0 = time.perf_counter()
    m = _SMALL
    for _ in range(400):
        m = (m @ _SMALL) * 0.1 + _SMALL
    for _ in range(30):
        _BIG @ _BIG
    return time.perf_counter() - t0


def fraction_loop():
    """Wall time of Fraction sums, the work of the rewrite engine; it never
    calls the program."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 700):
        acc += Fraction(i, i + 1)
    return time.perf_counter() - t0


# A slow spell slows interpreter-bound Fraction arithmetic more than numpy
# work, so each workload reads the host's speed from a loop doing its kind
# of work.  Over 10 s windows of one 180 s exact-rewrite process, wall-clock
# p50 spread 0.39 (IQR / median); at the speed of numpy_loop 0.07, of
# fraction_loop 0.03.
REFERENCE_LOOP = {
    "spin-verify": numpy_loop,
    "tensor-coproduct": numpy_loop,
    "exact-rewrite": fraction_loop,
    "cli-reports": numpy_loop,
}


def host_speed(loop):
    """Factor that takes a wall time to reference-speed time; from the fastest
    of three loops, so a loop the host interrupted does not count."""
    return REF_LOOP_S / min(loop() for _ in range(REPEATS))


def measure(workload, seconds, tracer, loop):
    """Run whole rounds of the workload's operations; return the tallies."""
    import workloads as W
    from elliptic_sl2 import rewrite

    stats = {"latencies": [], "wall_latencies": [], "by_kind": {}, "attempted": 0, "failed": 0,
             "verdicts": 0, "round_rates": [], "speeds": [], "worst": 0.0, "problems": [],
             "failures": [], "rounds": 0, "executions": 0, "bytes_out": 0, "cache_hits": 0,
             "cache_misses": 0, "memo_peak": 0}
    if workload.warm:
        for op in workload.ops:
            op.run()
    start = time.perf_counter()
    speed = host_speed(loop)
    while True:
        round_verdicts = stats["verdicts"]
        round_time = 0.0    # reference-speed time of the round's operations, failed ones too
        for op in workload.ops:
            times = []
            for _ in range(REPEATS):
                workload.before_op()
                hits0, misses0 = W.deform_cache_stats()
                result, error, dt = run_op(op, tracer)
                hits1, misses1 = W.deform_cache_stats()
                stats["cache_hits"] += hits1 - hits0
                stats["cache_misses"] += misses1 - misses0
                stats["memo_peak"] = max(stats["memo_peak"], len(rewrite._NF_MEMO))
                stats["executions"] += 1
                times.append(dt)
                if error is not None:
                    break
            # To reference speed with the mean of the host speeds measured
            # just before and just after the operation.
            speed_after = host_speed(loop)
            factor = (speed + speed_after) / 2
            speed = speed_after
            stats["speeds"].append(factor)
            dt = min(times)
            stats["attempted"] += 1
            round_time += dt * factor
            if error is None:
                try:
                    residuals = op.check(result)
                except W.ProgramFailure as exc:
                    error = exc
                except oracles.CheckError as exc:
                    stats["problems"].append(f"{op.kind}: {exc}")
                else:
                    stats["verdicts"] += 1
                    stats["worst"] = max([stats["worst"], *residuals.values()])
            if error is not None:
                stats["failed"] += 1
                stats["failures"].append(f"{op.kind}: {type(error).__name__}: {error}")
                continue
            stats["latencies"].append(dt * factor)
            stats["wall_latencies"].append(dt)
            stats["by_kind"].setdefault(op.kind, []).append(dt * factor)
            stats["bytes_out"] += op.bytes_out(result)
        stats["round_rates"].append((stats["verdicts"] - round_verdicts) / round_time)
        stats["rounds"] += 1
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and len(stats["latencies"]) >= MIN_SAMPLES):
            break
    stats["wall_s"] = time.perf_counter() - start
    return stats


def percentile_90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(stats, setup):
    lat = stats["latencies"]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "verdicts_per_s": (statistics.median(stats["round_rates"]), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (percentile_90(lat) * 1e3, "ms"),
        "residual_digits_min": (-math.log10(max(stats["worst"], oracles.FLOOR)), "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(stats, tracer):
    n = stats["executions"]
    out = {}
    for layer in tracing.LAYERS:
        out[f"{layer}.calls"] = (tracer.calls[layer] / n, "count")
        out[f"{layer}.self_ms"] = (tracer.self_s[layer] * 1e3 / n, "ms")
    lookups = stats["cache_hits"] + stats["cache_misses"]
    out.update({
        "series.revert_ms": (tracer.timed_s["series.revert_ms"] * 1e3 / n, "ms"),
        "elliptic.numeric_ms": (tracer.timed_s["elliptic.numeric_ms"] * 1e3 / n, "ms"),
        "liealg.mat_apply_calls": (tracer.fn_calls["liealg.mat_apply_series"] / n, "count"),
        "deform.cache_hit_ratio": (stats["cache_hits"] / lookups if lookups else 0.0, "ratio"),
        "hopf.max_dim": (tracer.hopf_max_dim, "count"),
        "rewrite.memo_entries": (stats["memo_peak"], "count"),
        "cli.bytes_out": (stats["bytes_out"] / stats["attempted"], "bytes"),
    })
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    loop = REFERENCE_LOOP[args.workload]
    try:
        import_package()
        setup, setup_wall = measure_setup(SETUP_SAMPLES, loop)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import workloads

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"cli-{os.getpid()}"
    scratch.mkdir()
    try:
        workload = workloads.build(args.workload, args.seed, str(scratch))
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        stats = measure(workload, args.seconds, tracer, loop)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    more, more_wall = measure_setup(SETUP_SAMPLES, loop)
    setup += more
    setup_wall += more_wall

    lat = stats["latencies"]
    if len(lat) < MIN_SAMPLES:
        print(f"perfbench: only {len(lat)} operations completed; "
              f"failures: {stats['failures'][:3]}", file=sys.stderr)
        return 1
    metrics = per_layer(stats, tracer) if tracer else end_to_end(stats, setup)
    correct = not stats["problems"]

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "rounds": stats["rounds"], "ops_per_round": len(workload.ops),
        "attempted": stats["attempted"], "failed": stats["failed"],
        "wall_s": stats["wall_s"],
        "latency_samples": len(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "samples_beyond_p90": sum(1 for x in lat if x > percentile_90(lat)),
        "wall_latency_p50_ms": statistics.median(stats["wall_latencies"]) * 1e3,
        "host_speed_median": statistics.median(stats["speeds"]),
        "host_speeds": stats["speeds"],
        "round_rates": stats["round_rates"],
        "median_ms_by_kind": {k: statistics.median(v) * 1e3 for k, v in stats["by_kind"].items()},
        "setup_samples_s": setup,
        "setup_wall_samples_s": setup_wall,
        "worst_residual": stats["worst"],
        "problems": stats["problems"][:20], "failures": stats["failures"][:20],
        "metrics": {name: value for name, (value, _) in metrics.items()},
    }
    if tracer:
        record["spans"] = len(tracer.spans)
        record["spans_dropped"] = tracer.dropped
        tracing.write_spans(tracer, OUT / f"{stem}.spans.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"{args.workload} seed={args.seed}: {stats['attempted']} operations in "
          f"{stats['rounds']} rounds of {len(workload.ops)}, {len(lat)} latency samples "
          f"({record['samples_beyond_p90']} beyond p90), {stats['failed']} failed, "
          f"{len(stats['problems'])} wrong; wall-clock p50 {record['wall_latency_p50_ms']:.2f} ms "
          f"at median host speed {record['host_speed_median']:.3f}")
    for problem in stats["problems"][:5]:
        print(f"  wrong: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
