"""coxaut benchmark: one command, every metric, every output checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-matrix --seed 1 --seconds 30 --trace 0

Each repetition of the workload runs in a fresh child interpreter with the
COXAUT_MAX_* guards scrubbed from its environment and PYTHONHASHSEED pinned,
one child at a time (a closed loop with one caller).  Repetitions continue
while the next one is predicted to finish inside --seconds, and there are
at least three.

Other tenants of a shared machine change its speed by up to a factor of two,
for seconds or minutes at a time.  So each child also times a fixed
reference loop (child.reference_ms) before the first call and after every
call, and every time the benchmark reports is scaled to a machine on which
that loop takes REF_NOMINAL_MS: a pass's times are divided by the mean of
its reference times.  Each operation's latency is then its median over
every call of every repetition, and wall_s is the sum of those medians:
one pass over the operation list.  The unscaled times are kept in the
results file.  Extra set-up-only children give set-up time enough samples
for a median.  With --trace 1, untraced and traced repetitions alternate:
the per-layer metrics come from the median traced one, and the difference
between the median traced and untraced passes is the tracing overhead.

The last line of output is a JSON object with keys correct, attempted,
failed and metrics; the lines before it are a table of every metric with
its unit and sample count.  Full records go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 11
# Every latency is a median of at least this many passes.
MIN_ROUNDS = 3
# Reported times are those of a machine on which the reference loop takes this long.
REF_NOMINAL_MS = 10.0
# A run must end well inside the 180 s a caller allows it.
DEADLINE_S = 170.0


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("COXAUT_MAX_")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, *flags: str, timeout: float) -> dict:
    """One child interpreter; returns the JSON record it prints last."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload, "--seed", str(args.seed), *flags]
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"child {' '.join(flags) or 'pass'} did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"child exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated inclusively."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(args, layer_units: dict[str, str]) -> tuple[dict, dict]:
    """Run the children; return (name -> (value, unit, samples), raw record for the results file)."""
    started = time.monotonic()

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    setups = []
    if not args.trace:
        setups = [setup_scaled(run_child(args, "--setup-only", timeout=remaining())) for _ in range(SETUP_SAMPLES)]
    kinds = ("plain", "traced") if args.trace else ("plain",)
    passes: dict[str, list[dict]] = {kind: [] for kind in kinds}
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    rounds_started = time.monotonic()
    rounds = 0
    while True:
        for kind in kinds:
            flags = []
            if kind == "traced":
                spans = results_dir / f"spans-{args.workload}-seed{args.seed}-{rounds}.json"
                flags = ["--trace", "--spans", str(spans)]
            passes[kind].append(run_child(args, *flags, timeout=remaining()))
        rounds += 1
        elapsed = time.monotonic() - rounds_started
        next_end = elapsed + elapsed / rounds
        if rounds >= MIN_ROUNDS and (next_end > args.seconds or next_end > remaining()):
            break

    plain = passes["plain"]
    setups += [setup_scaled(record) for record in plain]
    plain_ops = [op for record in plain for op in record["ops"]]
    latencies = op_latencies(plain)
    p90 = percentile(latencies, 90)
    metrics = {
        "wall_s": (sum(latencies) / 1e3, "s", len(plain)),
        "op_p50_ms": (statistics.median(latencies), "ms", len(latencies)),
        "op_p90_ms": (p90, "ms", len(latencies)),
        "decided_frac": (fraction(plain_ops, "decided"), "ratio", len(plain_ops)),
        "failed_frac": (fraction(plain_ops, "failed"), "ratio", len(plain_ops)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB", len(plain)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
    }
    raw = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setups,
        "passes": passes,
        "p90_samples_above": sum(x > p90 for x in latencies),
        "reference_ms": statistics.fmean(r for record in plain for r in record["ref_ms"]),
        "failures": [op for kind in kinds for r in passes[kind] for op in r["ops"] if op["status"] == "failed"],
        "consistent_counters": True,
    }
    if args.trace:
        traced = passes["traced"]
        typical = median_pass(traced)
        metrics, raw["consistent_counters"] = layer_metrics(typical, traced, layer_units)
        metrics["trace.wall_s"] = (pass_wall(typical), "s", len(traced))
        overhead = pass_wall(typical) - pass_wall(median_pass(plain))
        metrics["trace.overhead_s"] = (overhead, "s", len(traced) + len(plain))
    return metrics, raw


def speed_scale(record: dict) -> float:
    """Factor that turns one child's times into those of the nominal machine."""
    return REF_NOMINAL_MS / statistics.fmean(record["ref_ms"])


def setup_scaled(record: dict) -> float:
    return record["setup_s"] * REF_NOMINAL_MS / statistics.fmean(record["setup_ref_ms"])


def pass_wall(record: dict) -> float:
    """Scaled time in seconds of every call of one pass."""
    return sum(sum(op["ms"]) for op in record["ops"]) * speed_scale(record) / 1e3


def median_pass(records: list[dict]) -> dict:
    """The pass whose scaled wall time is the median (the lower middle one of an even count)."""
    return sorted(records, key=pass_wall)[(len(records) - 1) // 2]


def op_latencies(records: list[dict]) -> list[float]:
    """Each operation's scaled latency in ms: its median over every call of every pass."""
    return [
        statistics.median(ms * speed_scale(record) for record, op in zip(records, ops) for ms in op["ms"])
        for ops in zip(*(record["ops"] for record in records))
    ]


def fraction(ops: list[dict], status: str) -> float:
    return sum(op["status"] == status for op in ops) / len(ops)


def layer_metrics(typical: dict, traced: list[dict], units: dict[str, str]) -> tuple[dict, bool]:
    """Per-layer values of the median traced pass, times scaled like its wall
    time so they add up within trace.wall_s; every value that is not a time
    must repeat exactly across passes."""
    layers = [record["layers"] for record in traced]
    scale = speed_scale(typical)
    unknown = sorted(set().union(*layers) - set(units))
    if unknown:
        print(f"warning: per-layer values missing from BENCHMARK.json: {unknown}", file=sys.stderr)
    metrics = {}
    consistent = True
    for name, unit in units.items():
        if name.startswith("trace."):
            continue
        values = [layer.get(name, 0) for layer in layers]
        if unit != "s" and len(set(values)) > 1:
            print(f"error: {name} differs between traced passes: {values}", file=sys.stderr)
            consistent = False
        value = typical["layers"].get(name, 0)
        metrics[name] = (value * scale if unit == "s" else value, unit, len(values))
    return metrics, consistent


def main() -> int:
    parser = argparse.ArgumentParser(description="coxaut benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    missing = [p for p in ("BENCHMARK.json", "src/coxaut/cli.py", "diagrams") if not (root / p).exists()]
    if missing:
        print(f"error: run from the root of a coxaut checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    try:
        metrics, raw = measure(args, {m["name"]: m["unit"] for m in spec["per_layer"]})
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:50s} {value:14.6g} {unit:6s} n={samples}")
    if not args.trace:
        print(f"latencies are per-operation medians; {raw['p90_samples_above']} of them lie above op_p90_ms")
        print(f"times are scaled to a {REF_NOMINAL_MS:g} ms reference loop; it took {raw['reference_ms']:.3f} ms here")
    for op in raw["failures"]:
        print(f"FAILED {op['op']}: {op['reason']}", file=sys.stderr)
    attempted = sum(len(op["ms"]) for kind in raw["passes"].values() for r in kind for op in r["ops"])
    failed = len(raw["failures"])
    result = {
        "correct": failed == 0 and raw["consistent_counters"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in units.items()},
    }
    raw["metrics"] = {name: {"value": v, "unit": u, "samples": n} for name, (v, u, n) in metrics.items()}
    out = HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(raw, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
