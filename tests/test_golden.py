"""Golden CLI outputs: the exit code and the SHA-256 of stdout and stderr of
each command in COMMANDS, recorded in golden_outputs.json.

A change that alters output on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from coxaut.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"

# Guards set in the environment would change the output.
GUARD_VARS = ("COXAUT_MAX_STATES", "COXAUT_MAX_VERTICES", "COXAUT_MAX_NODES")

# Diagrams without a Cartan matrix (an order outside {2, 3, 4, 6}), so
# their elements are keyed by canonical words.
FALLBACK = {
    "i2_5.cox": "gens a b\npair a b 5\n",
    "flexible5.cox": "gens s t u v\npair s t 5\npair s u 2\npair s v 2\n",
}


def _commands() -> list[list[str]]:
    commands = []
    for path in sorted((ROOT / "diagrams").glob("*.cox")):
        name = f"diagrams/{path.name}"
        commands += [
            ["verify", name, "--format", "json", "--radius", "6"],
            ["stabilizer", name, "--format", "json", "--radius", "5"],
            ["ball", name, "--format", "json", "--radius", "7"],
            ["cycles", name, "--format", "json", "--radius", "6"],
        ]
    commands += [
        ["exotic", "diagrams/flexible.cox", "--radius", "8", "--format", "json"],
        ["exotic", "diagrams/flexible.cox", "--radius", "8", "--format", "json", "--n", "2"],
    ]
    commands += [["verify", name, "--radius", "5", "--format", "json"] for name in FALLBACK]
    return commands


COMMANDS = _commands()


def run(argv: list[str], fallback_dir: Path) -> dict:
    """Run one command in-process and digest what it printed."""
    name = argv[1]
    path = fallback_dir / name if name in FALLBACK else ROOT / name
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(path), *argv[2:]])
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }


def _write_fallbacks(directory: Path) -> None:
    for name, text in FALLBACK.items():
        (directory / name).write_text(text)


@pytest.fixture(autouse=True)
def default_guards(monkeypatch):
    for name in GUARD_VARS:
        monkeypatch.delenv(name, raising=False)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def fallback_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fallback")
    _write_fallbacks(directory)
    return directory


def test_golden_file_lists_every_command(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_output_unchanged(argv, golden, fallback_dir):
    assert run(argv, fallback_dir) == golden[" ".join(argv)]


if __name__ == "__main__":
    for name in GUARD_VARS:
        os.environ.pop(name, None)
    with tempfile.TemporaryDirectory() as tmp:
        _write_fallbacks(Path(tmp))
        recorded = {" ".join(argv): run(argv, Path(tmp)) for argv in COMMANDS}
    GOLDEN.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} commands in {GOLDEN}", file=sys.stderr)
