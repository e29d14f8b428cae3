"""One repetition of a workload, in a fresh interpreter.

Run from the root of a checkout:

    python3 perfbench/child.py --workload deep-ball --seed 1 [--trace] [--setup-only]

Prints one JSON record as its last line of output: the set-up time, then
(unless --setup-only) the latency of every call and every operation's
outcome, the peak
resident memory, and with --trace the per-layer values.  It also times a
fixed reference loop after set-up and after every operation, so that the
caller can take out changes in the machine's speed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import oracle
import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
# Reference loops timed right after set-up; the caller takes their mean.
SETUP_REFS = 5


def reference_ms() -> float:
    """Time a fixed piece of pure-Python work of the kinds coxaut does: tuple
    hashing with dict and set updates, building and sorting string-keyed
    records, and a JSON round trip.  It never calls coxaut, so the program
    cannot change it; only the machine's speed can."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    table: dict = {}
    seen = set()
    for i in range(12_000):
        key = (i % 13, i % 11, i & 3)
        table[key] = table.get(key, 0) + 1
        if key[0] == key[1]:
            seen.add(key)
    for _ in range(3):
        records = {str((i * 7919) % 10_007): [i, {"word": "a b c " * (i % 5), "n": i / 2}] for i in range(200)}
        json.loads(json.dumps(sorted(records.items()), indent=1))
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed * 1e3


class Checker:
    """Dispatches each operation to its oracle; knows the parsed diagrams."""

    def __init__(self, systems):
        self.systems = systems
        self.geometric = {d: oracle.Geometric(s.names, s.finite_pairs()) for d, s in systems.items()}
        self.digests = json.loads(EXPECTED.read_text(encoding="utf-8"))

    def check(self, op: workloads.Op, code, stdout: str) -> bool:
        """True when decided, False when undecided; raises OracleError when wrong."""
        system = self.systems[op.diagram]
        if op.kind == "verify":
            return oracle.check_verify(
                code,
                stdout,
                radius=op.radius,
                flexible=oracle.is_flexible(system.rank, system.order),
                probe_radius=oracle.expected_probe_radius(system.max_finite_order(), op.radius),
            )
        if op.kind == "reduce":
            return oracle.check_reduce(code, stdout, geometric=self.geometric[op.diagram], word=op.word)
        if op.kind == "ball":
            return oracle.check_ball(
                code, stdout, diagram=op.diagram, radius=op.radius, expected_sha256=self.digests[op.label]
            )
        return oracle.check_digest(code, stdout, self.digests[op.label])


def run_op(cli, op: workloads.Op, out_path: Path):
    """Call cli.main in-process with its stdout written to out_path; returns (seconds, exit code)."""
    with open(out_path, "w", encoding="utf-8") as out:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "crash: " + traceback.format_exc(limit=-3)
        seconds = time.perf_counter() - start
    return seconds, code


def run_pass(cli, ops, checker: Checker, out_dir: Path, tracer: Tracer | None = None) -> dict:
    """Run every operation, then read the peak memory, then check every output.

    The outputs go to files, so neither they nor the oracles' work count in
    the peak memory.  A reference loop runs before the first call and after
    each one.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    ref_ms = [reference_ms()]
    runs = []
    for i, op in enumerate(ops):
        calls = []
        for c in range(op.calls):
            calls.append(run_op(cli, op, out_dir / f"op-{i}-{c}.out"))
            ref_ms.append(reference_ms())
        runs.append(calls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    records = []
    output_bytes = 0
    for i, (op, calls) in enumerate(zip(ops, runs)):
        statuses, reason = set(), None
        for c, (_, code) in enumerate(calls):
            stdout = (out_dir / f"op-{i}-{c}.out").read_text(encoding="utf-8")
            output_bytes += len(stdout.encode("utf-8"))
            try:
                statuses.add("decided" if checker.check(op, code, stdout) else "undecided")
            except Exception as exc:  # any malformed output is a failed operation, not a benchmark crash
                statuses.add("failed")
                reason = reason or f"{type(exc).__name__}: {exc}"
        status = "failed" if "failed" in statuses else "undecided" if "undecided" in statuses else "decided"
        ms = [seconds * 1e3 for seconds, _ in calls]
        records.append({"op": op.label, "ms": ms, "status": status, "reason": reason})
    shutil.rmtree(out_dir)
    result = {"ops": records, "ref_ms": ref_ms, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        result["layers"] = {**tracer.layer_metrics(), "cli.output_bytes": output_bytes}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="with --trace, write the spans to this file")
    args = parser.parse_args()

    # set-up: what a command-line user pays before the first operation
    start = time.perf_counter()
    sys.path.insert(0, os.path.abspath("src"))
    import coxaut
    import coxaut.cli

    systems = {
        d: coxaut.parse_system(Path(workloads.diagram_path(d)).read_text(encoding="utf-8"))
        for d in workloads.DIAGRAMS
    }
    ops = workloads.build(args.workload, args.seed, systems)
    record = {"setup_s": time.perf_counter() - start}
    record["setup_ref_ms"] = [reference_ms() for _ in range(SETUP_REFS)]

    if not args.setup_only:
        checker = Checker(systems)
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        out_dir = HERE / "results" / f"outputs-{os.getpid()}"
        record.update(run_pass(coxaut.cli, ops, checker, out_dir, tracer))
        if tracer is not None and args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
