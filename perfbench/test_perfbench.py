"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import coxaut.cli  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from child import Checker, run_op, run_pass  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module", autouse=True)
def at_root(monkeypatch_module):
    monkeypatch_module.chdir(ROOT)


@pytest.fixture(scope="module")
def monkeypatch_module():
    with pytest.MonkeyPatch.context() as mp:
        yield mp


@pytest.fixture(scope="module")
def systems():
    return {
        d: coxaut.parse_system((ROOT / workloads.diagram_path(d)).read_text(encoding="utf-8"))
        for d in workloads.DIAGRAMS
    }


@pytest.fixture(scope="module")
def checker(systems):
    return Checker(systems)


@pytest.fixture(scope="module")
def call(tmp_path_factory):
    """Run one operation; returns (exit code, stdout)."""
    out = tmp_path_factory.mktemp("outputs") / "op.out"

    def run(op):
        _, code = run_op(coxaut.cli, op, out)
        return code, out.read_text(encoding="utf-8")

    return run


def _op(ops, label_prefix):
    return next(op for op in ops if op.label.startswith(label_prefix))


class TestOracleRejectsCorruption:
    def test_permuted_vertex_list(self, checker, call):
        op = _op(workloads.deep_ball(), "ball diagrams/flexible.cox")
        code, stdout = call(op)
        assert checker.check(op, code, stdout)
        ball = json.loads(stdout)
        ball["vertices"][1]["word"], ball["vertices"][2]["word"] = ball["vertices"][2]["word"], ball["vertices"][1]["word"]
        with pytest.raises(oracle.OracleError):
            checker.check(op, code, json.dumps(ball, indent=2, sort_keys=True) + "\n")

    def test_truncated_ball(self, checker, call):
        op = _op(workloads.deep_ball(), "ball diagrams/flexible.cox")
        code, stdout = call(op)
        ball = json.loads(stdout)
        ball["vertices"].pop()
        with pytest.raises(oracle.OracleError, match="closed form"):
            checker.check(op, code, json.dumps(ball, indent=2, sort_keys=True) + "\n")

    @pytest.mark.parametrize("verdict", ["NONDISCRETE-EVIDENCE", "INCONCLUSIVE"])
    def test_wrong_verdict(self, checker, call, verdict):
        op = _op(workloads.verify_matrix(), "verify diagrams/a2.cox --radius 6")
        code, stdout = call(op)
        assert checker.check(op, code, stdout)
        report = json.loads(stdout)
        report["verdict"] = verdict
        with pytest.raises(oracle.OracleError, match="verdict"):
            checker.check(op, code, json.dumps(report))

    def test_failing_check(self, checker, call):
        op = _op(workloads.verify_matrix(), "verify diagrams/a2.cox --radius 6")
        code, stdout = call(op)
        report = json.loads(stdout)
        report["checks"][0]["status"] = "fail"
        with pytest.raises(oracle.OracleError, match="failing"):
            checker.check(op, code, json.dumps(report))

    def test_unreduced_canonical_word(self, checker, call, systems):
        op = _op(workloads.word_problem(1, systems), "reduce diagrams/atilde2.cox")
        code, stdout = call(op)
        assert checker.check(op, code, stdout)
        out = json.loads(stdout)
        out["canonical"] = "a a " + out["canonical"] if out["canonical"] != "e" else "a a"
        with pytest.raises(oracle.OracleError, match="not reduced"):
            checker.check(op, code, json.dumps(out))

    def test_wrong_element(self, checker, call, systems):
        op = _op(workloads.word_problem(1, systems), "reduce diagrams/a3.cox")
        code, stdout = call(op)
        out = json.loads(stdout)
        out["canonical"] = "b" if out["canonical"] != "b" else "a"
        with pytest.raises(oracle.OracleError, match="different element"):
            checker.check(op, code, json.dumps(out))

    def test_indeterminate_verdict_needs_exit_3(self, checker, call):
        op = _op(workloads.verify_matrix(), "verify diagrams/flexible.cox")
        code, stdout = call(op)
        assert code == 3 and not checker.check(op, code, stdout)
        assert json.loads(stdout)["verdict"] == "INDETERMINATE"
        with pytest.raises(oracle.OracleError, match="indeterminate"):
            checker.check(op, 0, stdout)

    def test_exit_3_needs_an_indeterminate_check(self, checker, call):
        op = _op(workloads.verify_matrix(), "verify diagrams/a2.cox --radius 6")
        code, stdout = call(op)
        assert code == 0
        with pytest.raises(oracle.OracleError, match="indeterminate"):
            checker.check(op, 3, stdout)
        report = json.loads(stdout)
        report["verdict"] = "INDETERMINATE"
        with pytest.raises(oracle.OracleError, match="INDETERMINATE"):
            checker.check(op, code, json.dumps(report))

    def test_crash_exit_code(self, checker):
        op = _op(workloads.verify_matrix(), "verify diagrams/a2.cox --radius 6")
        with pytest.raises(oracle.OracleError, match="exited"):
            checker.check(op, 1, "{}")


@pytest.mark.parametrize("diagram", workloads.DIAGRAMS)
def test_geometric_oracle_matches_rewriting(systems, diagram):
    system = systems[diagram]
    geometric = oracle.Geometric(system.names, system.finite_pairs())
    rng = random.Random(diagram)
    for _ in range(100):
        word = tuple(rng.randrange(system.rank) for _ in range(rng.randint(0, 9)))
        canonical = coxaut.reduce_word(system, word)
        assert geometric.canonical(word) == canonical
        assert geometric.reduced_word_count(word) == len(coxaut.m_class(system, canonical))


def test_flexibility_oracle(systems):
    flexible = {d for d, s in systems.items() if oracle.is_flexible(s.rank, s.order)}
    assert flexible == {d for d, s in systems.items() if coxaut.is_flexible(s) is not None} == {"flexible"}


def test_word_problem_inputs_follow_the_seed(systems):
    first, again, other = (workloads.word_problem(seed, systems) for seed in (1, 1, 2))
    assert first == again
    assert first != other
    assert sorted(op.diagram for op in first) == sorted(op.diagram for op in other)


def _layer_pass(ops, checker, out_dir):
    tracer = Tracer()
    tracer.install()
    try:
        result = run_pass(coxaut.cli, ops, checker, out_dir, tracer)
    finally:
        tracer.uninstall()
    assert all(r["status"] != "failed" for r in result["ops"]), result["ops"]
    return result["layers"]


def test_counters_repeat_exactly_across_two_passes(checker, systems, tmp_path):
    ops = [
        _op(workloads.verify_matrix(), "verify diagrams/a2.cox --radius 6"),
        _op(workloads.verify_matrix(), "verify diagrams/free2.cox --radius 6"),
        _op(workloads.deep_ball(), "exotic diagrams/flexible.cox --radius 12 --n 3"),
        *workloads.word_problem(3, systems)[:20],
    ]
    first, second = (_layer_pass(ops, checker, tmp_path / f"pass-{i}") for i in range(2))
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(first) <= set(units)
    counters = {name for name in first if units[name] != "s"}
    assert counters and {n: first[n] for n in counters} == {n: second[n] for n in counters}
    assert first["words.reduce_word.calls"] > 0 and first["automorphisms.census.classes"] > 0
    assert not hasattr(coxaut.cli.main, "__wrapped__")


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(set(m) == {"name", "unit", "better", "bound"} and m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metric_names_match_benchmark_json(trace):
    proc = _run(["--workload", "deep-ball", "--seed", "1", "--seconds", "1", "--trace", trace], ROOT)
    assert proc.returncode == 0, proc.stderr
    assert "warning" not in proc.stderr
    *table, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    printed = {line.split()[0] for line in table if re.search(r" n=\d+$", line)}
    assert {m["name"] for m in listed} <= printed


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(["--workload", "deep-ball", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
