"""The repository benchmark: `timebin` CLI workloads at paper defaults.

    python3 perfbench/run.py --workload bell --seed 7 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 40 --trace 0

Run from the root of a checkout.  Workloads (see BENCHMARK.json):

  bell  simulate bell (400k reps, time tags), then analyze --mode witness
  ghz3  simulate ghz --photons 3 --no-timetags (120k reps)
  hom   simulate hom (400k reps, time tags), then analyze --mode hom

One operation is one workload's CLI commands in a fresh interpreter
(perfbench/op.py), so set-up time and peak RSS are those of a real run.
A run first times set-up alone in several fresh interpreters, then repeats
operations with the same seed until the next one would end past --seconds
(at least one; with --trace 1 at least two, alternating traced and untraced).
Every operation passes the correctness gate or counts as failed.

--trace 0 reports the end-to-end metrics as medians over operations: wall
times, and the same scaled to a reference core speed (`_norm_`, see
op.SpeedSampler), which the host's speed drift barely moves.  --trace 1
reports the per-layer metrics of the traced operations, and the tracing
overhead against the untraced ones of the same run.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Everything the run writes goes under perfbench/.out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import COUNTERS

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("bell", "ghz3", "hom")
SETUP_PROBES = 11
RUN_TIMEOUT_S = 170
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


def _child_env(root: Path) -> dict:
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _spawn(args: list[str], root: Path, deadline: float) -> tuple[dict | None, float, str]:
    """Run op.py in a fresh interpreter, killed at the monotonic `deadline`;
    returns (result, wall seconds, error)."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH_DIR / "op.py"), "--t0", repr(t0), *args]
    try:
        proc = subprocess.run(cmd, cwd=root, env=_child_env(root), capture_output=True,
                              text=True, timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        return None, time.monotonic() - t0, f"killed after {time.monotonic() - t0:.0f} s"
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return None, wall, f"op.py exited with {proc.returncode}: {tail}"
    try:
        return json.loads(lines[-1]), wall, ""
    except json.JSONDecodeError:
        return None, wall, f"op.py printed no result: {lines[-1][:200]!r}"


def source_digest(root: Path) -> str:
    """Digest of the program's sources, so cross-run checks compare like with like."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class State:
    """Values that must repeat across runs of the same code, kept on disk."""

    def __init__(self, path: Path):
        self.path = path
        self.data = json.loads(path.read_text()) if path.exists() else {}

    def same(self, key: str, value) -> bool:
        """Record value under key, or compare with the value recorded earlier."""
        if key not in self.data:
            self.data[key] = value
            return True
        return self.data[key] == value

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def _read_json(path: Path) -> tuple[dict, bytes]:
    raw = path.read_bytes()
    return json.loads(raw), raw


def band_failures(workload: str, report: dict, gate: dict) -> list[str]:
    """Acceptance-criterion bands; they hold at the workloads' repetition counts."""
    def outside(label, value, centre, tol):
        return [] if abs(value - centre) <= tol else [
            f"{label} {value!r} outside {centre} +- {tol}"]

    if workload == "bell":
        f = report["fidelity"]["value"]
        lo, hi = gate["fidelity_range"]
        return (([] if lo <= f <= hi else [f"fidelity {f!r} outside [{lo}, {hi}]"])
                + outside("Pz", report["population"]["value"], gate["pz"], gate["pz_tol"]))
    if workload == "ghz3":
        return outside("fidelity", report["fidelity"]["value"], gate["fidelity"],
                       gate["fidelity_tol"])
    return (outside("g2", report["g2_zero"]["value"], gate["g2"], gate["g2_tol"])
            + outside("V_raw", report["v_raw"]["value"], gate["v_raw"], gate["v_raw_tol"]))


def consistency_failures(workload: str, op_dir: Path, result: dict, gate: dict,
                         state: State, code_key: str, seed_key: str) -> list[str]:
    """Checks that hold at any repetition count: analyze agrees with simulate,
    and what must repeat across runs of the same code does repeat."""
    report, raw = _read_json(op_dir / "sim" / "report.json")
    failures = []
    if workload == "bell":
        analysis, _ = _read_json(op_dir / "ana" / "analysis.json")
        f, fa = report["fidelity"]["value"], analysis["fidelity"]["value"]
        if abs(fa - f) > gate["analyze_fidelity_tol"]:
            failures.append(f"analyze fidelity {fa!r} != simulate fidelity {f!r}")
    elif workload == "ghz3":
        exact = report["exact_reference_fidelity"]
        if abs(exact - gate["exact_reference_fidelity"]) > gate["exact_reference_tol"]:
            failures.append(f"exact_reference_fidelity {exact!r} != recorded "
                            f"{gate['exact_reference_fidelity']!r}")
        if not state.same(code_key + "|exact_reference", exact):
            failures.append(f"exact_reference_fidelity {exact!r} differs from an "
                            "earlier run")
    else:
        analysis, _ = _read_json(op_dir / "ana" / "analysis.json")
        for key in ("hom_counts", "g2_zero"):
            if analysis[key] != report[key]:
                failures.append(f"analyze {key} {analysis[key]} != simulate {report[key]}")
    if not state.same(seed_key + "|report_sha256", hashlib.sha256(raw).hexdigest()):
        failures.append("report.json differs from an earlier run with the same seed")
    if "counters" in result and not state.same(seed_key + "|counters", result["counters"]):
        failures.append("traced counters differ from an earlier run with the same seed")
    return failures


def check_op(workload: str, op_dir: Path, result: dict | None, error: str,
             gate: dict, state: State, code_key: str, seed_key: str) -> list[str]:
    """Correctness gate of one operation; returns the failures (empty if it passed)."""
    if result is None:
        return [error]
    failures = [f"{step} exited with {info['exit_code']}"
                for step, info in result["steps"].items() if info["exit_code"] != 0]
    if failures:
        return failures
    try:
        report, _ = _read_json(op_dir / "sim" / "report.json")
        return (band_failures(workload, report, gate)
                + consistency_failures(workload, op_dir, result, gate, state,
                                       code_key, seed_key))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def _op_seconds(result: dict, calibration_ref_s: float) -> dict:
    """Wall seconds of each step the workload has, and the same scaled to the
    reference machine speed: wall * calibration_ref_s / the step's
    calibration time."""
    out = {}
    for step, info in result["steps"].items():
        out[f"{step}_s"] = info["seconds"]
        out[f"{step}_norm_s"] = info["seconds"] * calibration_ref_s / info["calibration_s"]
    steps = result["steps"].values()
    out["op_s"] = sum(i["seconds"] for i in steps)
    out["op_norm_s"] = sum(out[f"{step}_norm_s"] for step in result["steps"])
    out["calibration_s"] = statistics.median(i["calibration_s"] for i in steps)
    out["cpu_per_wall"] = max(i["cpu_per_wall"] for i in steps)
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, reps: int,
                 root: Path, bench: dict, reference: dict) -> dict:
    """Run one workload for about `seconds`; returns the printed result object."""
    start = time.monotonic()
    deadline = start + RUN_TIMEOUT_S
    load1 = os.getloadavg()[0]
    out = root / "perfbench" / ".out"
    run_dir = out / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    state = State(out / "state.json")
    code_key = f"{workload}|{source_digest(root)}"
    seed_key = f"{code_key}|reps{reps}|seed{seed}"

    setups = []
    for _ in range(SETUP_PROBES):
        res, _wall, err = _spawn(["--setup-only"], root, deadline)
        if res is None:
            print(f"error: set-up failed: {err}", file=sys.stderr)
            sys.exit(1)
        setups.append((res["setup_s"], res["calibration_s"]))

    ops = []
    min_ops = 2 if trace else 1
    while True:
        traced = trace and len(ops) % 2 == 0
        op_dir = run_dir / f"op{len(ops)}"
        args = ["--workload", workload, "--seed", str(seed), "--reps", str(reps),
                "--dir", str(op_dir)] + (["--trace"] if traced else [])
        result, wall, error = _spawn(args, root, deadline)
        failures = check_op(workload, op_dir, result, error,
                            reference["gate"][workload], state, code_key, seed_key)
        for name in ("timetags.csv", "histogram.csv"):
            (op_dir / "sim" / name).unlink(missing_ok=True)
        ops.append({"traced": traced, "result": result, "wall_s": wall,
                    "failures": failures})
        elapsed = time.monotonic() - start
        typical = statistics.median(o["wall_s"] for o in ops)
        if (len(ops) >= min_ops and elapsed + typical > seconds) or result is None:
            break
    state.save()

    done = [o for o in ops if o["result"] is not None]
    if not done:
        print(f"error: no operation completed: {ops[0]['failures']}", file=sys.stderr)
        sys.exit(1)
    failed = sum(1 for o in ops if o["failures"])
    untraced = [o for o in done if not o["traced"]]
    cal_ref = reference["calibration_ref_s"]
    timed = [_op_seconds(o["result"], cal_ref) | {"peak_rss_mb": o["result"]["peak_rss_mb"]}
             for o in untraced]
    e2e = {}
    if timed:
        e2e = {name: statistics.median(t[name] for t in timed) for name in timed[0]}
        e2e["reps_per_s"] = statistics.median(reps / t["simulate_s"] for t in timed)
        e2e["reps_per_norm_s"] = statistics.median(reps / t["simulate_norm_s"]
                                                   for t in timed)
    setups += [(o["result"]["setup_s"], o["result"]["setup_calibration_s"]) for o in done]
    e2e["setup_wall_s"] = statistics.median(s for s, _ in setups)
    e2e["setup_s"] = statistics.median(s * cal_ref / cal for s, cal in setups)
    e2e["failed_ops"] = failed / len(ops)

    layers = {}
    traced_ops = [o for o in done if o["traced"]]
    if traced_ops:
        per_op = [o["result"]["layers"] for o in traced_ops]
        layers = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
        counters = traced_ops[0]["result"]["counters"]
        for name in COUNTERS:
            layers[name] = counters.get(name, 0)
        reps_seen = layers.pop("experiments.repetitions")
        heralded = layers.pop("experiments.heralded_events")
        layers["experiments.herald_ratio"] = heralded / reps_seen if reps_seen else 0.0
        if untraced:
            traced_s = statistics.median(_op_seconds(o["result"], cal_ref)["op_norm_s"]
                                         for o in traced_ops)
            layers["trace.overhead_s"] = traced_s - e2e["op_norm_s"]

    env = done[0]["result"]["environment"] | {"load1_at_start": load1}
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {}
    source = layers if trace else e2e
    for m in wanted:
        if m["name"] not in source:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            sys.exit(1)
        metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}

    print(f"workload {workload}  seed {seed}  reps {reps}  ops {len(ops)} "
          f"({len(traced_ops)} traced)  setup samples {len(setups)}")
    print("environment " + json.dumps(env, sort_keys=True))
    units = {"simulate_s": "s", "analyze_s": "s", "op_s": "s", "setup_s": "s",
             "setup_wall_s": "s",
             "simulate_norm_s": "s", "analyze_norm_s": "s", "op_norm_s": "s",
             "calibration_s": "s", "cpu_per_wall": "ratio",
             "reps_per_s": "1/s", "reps_per_norm_s": "1/s", "peak_rss_mb": "MB",
             "failed_ops": "ratio"}
    samples = {"setup_s": f"median of {len(setups)}",
               "setup_wall_s": f"median of {len(setups)}",
               "failed_ops": f"{failed} of {len(ops)} ops"}
    for name, value in sorted(e2e.items()):
        print(f"  {name:<40} {value:>14.6g} {units[name]:<6} "
              f"({samples.get(name, f'median of {len(timed)}')})")
    if trace:
        for m in bench["per_layer"]:
            print(f"  {m['name']:<40} {layers[m['name']]:>14.6g} {m['unit']}")
    around = sum(info["calibration"] == "around_step"
                 for o in done for info in o["result"]["steps"].values())
    if around:
        print(f"NOTE {around} step(s) used more than one core or thread; their "
              "_norm_ times use the calibration samples around the step")
    for k, o in enumerate(ops):
        for failure in o["failures"]:
            print(f"FAILED {workload} op{k}: {failure}")

    summary = {"workload": workload, "seed": seed, "reps": reps, "trace": trace,
               "environment": env, "setup_samples": setups,
               "ops": [{"traced": o["traced"], "wall_s": o["wall_s"],
                        "failures": o["failures"],
                        "result": o["result"]} for o in ops],
               "end_to_end": e2e, "per_layer": layers}
    (run_dir / "result.json").write_text(json.dumps(summary, indent=1))
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "timebin" / "__init__.py").is_file():
        print(f"error: {root} holds no timebin sources (src/timebin); run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                              reference["reps"][workload], root, bench, reference)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
