"""Self-test of the benchmark harness (a few minutes; run from the checkout root).

    python3 perfbench/selftest.py

1. A tiny-repetition pass of all three workloads through `run.run_workload`
   (the code behind run.py, with the workload's repetition count replaced),
   untraced and then traced twice with the same seed: every end-to-end
   metric is printed with its unit for each workload (`analyze_s` for bell
   and hom only), every per-layer metric appears in the traced
   output, and the traced counters repeat exactly between the two traced
   passes.  The acceptance bands are not asserted here: they hold only at
   the workloads' own repetition counts.
2. A report altered after its run (the fidelity) makes the gate fail the
   operation, which the run then counts in `failed`.
Exits 0 when every assertion holds.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import time
from pathlib import Path

import run

TINY_REPS = 2000
SEED = 3
HUMAN_UNITS = {"setup_s": "s", "simulate_s": "s", "op_s": "s",
               "simulate_norm_s": "s", "op_norm_s": "s", "reps_per_norm_s": "1/s",
               "reps_per_s": "1/s", "peak_rss_mb": "MB", "failed_ops": "ratio"}
ANALYZE_UNITS = {"analyze_s": "s", "analyze_norm_s": "s"}
WITH_ANALYZE = ("bell", "hom")


def bench_pass(root: Path, trace: int, bench: dict, reference: dict) -> str:
    """Standard output of all three workloads at TINY_REPS, as run.py prints it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for workload in run.WORKLOADS:
            result = run.run_workload(workload, SEED, 1, bool(trace), TINY_REPS,
                                      root, bench, reference)
            print(json.dumps(result))
    return out.getvalue()


def per_workload(stdout: str) -> dict[str, tuple[list[str], dict]]:
    """workload -> (its human-readable lines, its JSON result)."""
    out, current, lines = {}, None, []
    for line in stdout.splitlines():
        if line.startswith("workload "):
            current, lines = line.split()[1], [line]
        elif line.startswith("{"):
            out[current] = (lines, json.loads(line))
        else:
            lines.append(line)
    return out


def check_metrics(stdout: str, wanted: list[dict], trace: int) -> None:
    results = per_workload(stdout)
    assert sorted(results) == sorted(run.WORKLOADS), sorted(results)
    for workload, (lines, result) in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
        assert result["attempted"] >= 1
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in wanted}, (workload, got)
        printed = {line.split()[0]: line.split()[2] for line in lines
                   if line.startswith("  ")}
        for name, unit in HUMAN_UNITS.items():
            assert printed.get(name) == unit, (workload, name, printed.get(name))
        for name, unit in ANALYZE_UNITS.items():
            want = unit if workload in WITH_ANALYZE else None
            assert printed.get(name) == want, (workload, name, printed.get(name))
        if trace:
            for m in wanted:
                assert printed.get(m["name"]) == m["unit"], (workload, m["name"])
        for line in lines:
            assert not (line.startswith("FAILED") and "differ" in line), line


def check_corruption(root: Path, gate: dict) -> None:
    op_dir = root / "perfbench" / ".out" / "selftest" / "op0"
    shutil.rmtree(op_dir.parent, ignore_errors=True)
    result, _wall, error = run._spawn(["--workload", "bell", "--seed", str(SEED),
                                       "--reps", str(TINY_REPS), "--dir", str(op_dir)], root,
                                      time.monotonic() + run.RUN_TIMEOUT_S)
    assert result is not None, error
    state = run.State(op_dir.parent / "state.json")
    keys = ("bell|selftest", f"bell|selftest|seed{SEED}")
    clean = run.consistency_failures("bell", op_dir, result, gate, state, *keys)
    assert clean == [], clean
    path = op_dir / "sim" / "report.json"
    report = json.loads(path.read_text())
    report["fidelity"]["value"] = 0.1
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    failures = run.check_op("bell", op_dir, result, "", gate, state, *keys)
    assert any("outside" in f for f in failures), failures
    assert any("analyze fidelity" in f for f in failures), failures
    assert any("report.json differs" in f for f in failures), failures


def main() -> int:
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    reference = json.loads((run.BENCH_DIR / "reference.json").read_text())
    check_metrics(bench_pass(root, 0, bench, reference), bench["end_to_end"], 0)
    check_metrics(bench_pass(root, 1, bench, reference), bench["per_layer"], 1)
    # the second traced pass compares its counters with the first one's
    check_metrics(bench_pass(root, 1, bench, reference), bench["per_layer"], 1)
    check_corruption(root, reference["gate"]["bell"])
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
