"""What the benchmark under perfbench/ reaches into by name: the deform
lru_caches (`workloads.DEFORM_CACHES`), the TruncatedSeries methods its
tracer wraps (`tracing.SERIES_METHODS`) and `rewrite._NF_MEMO`.  One child
process installs the tracer, as a traced benchmark run does (`install`
rewrites the package's modules in place), then builds every workload and
runs and checks the first operation of each kind, so renaming or deleting
any of those names fails here and not only in a benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing, workloads
from elliptic_sl2 import rewrite

tracer = tracing.Tracer()
tracing.install(tracer)
workloads.clear_deform_caches()
before = workloads.deform_cache_stats()
kinds = {}
for name in ("spin-verify", "tensor-coproduct", "exact-rewrite", "cli-reports"):
    workload = workloads.build(name, 1, sys.argv[3])
    done = kinds[name] = []
    for op in workload.ops:
        if op.kind in done:
            continue
        done.append(op.kind)
        workload.before_op()
        tracer.begin_op(op.kind)
        try:
            result = op.run()
        finally:
            tracer.end_op()
        assert op.check(result), (name, op.kind)
        op.bytes_out(result)
        len(rewrite._NF_MEMO)
print(json.dumps({"kinds": kinds, "before": before, "after": workloads.deform_cache_stats(),
                  "calls": dict(tracer.calls), "methods": sorted(tracer.fn_calls)}))
"""


def test_perfbench_reaches_every_name_it_uses(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "perfbench"), str(ROOT / "src"), str(tmp_path)],
        capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out["kinds"]) == {"spin-verify", "tensor-coproduct", "exact-rewrite",
                                 "cli-reports"}
    assert all(out["kinds"].values())
    assert out["before"] == [0, 0] and out["after"][1] > 0   # the caches were cleared, then filled
    for layer in ("series", "elliptic", "liealg", "deform", "hopf", "autos", "rewrite", "cli"):
        assert out["calls"].get(layer, 0) > 0, layer
    assert any(name.startswith("series.TruncatedSeries.") for name in out["methods"])
