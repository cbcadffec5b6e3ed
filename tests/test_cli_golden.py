"""Byte-identical CLI output on every shipped group.

Each command runs `cli.main` in-process; its exit code and the sha256 of
its stdout and stderr are compared with `tests/golden_cli.json`.  Two
generated groups, written to a temporary directory, pin the automaton's
JSON where many walls are nested: A~4 (1,296 states) and a rank-4 chain
of orders 3, 4, 5.  A
mismatch is a regression, unless a change alters output on purpose and
records that in CHANGES.md; then rewrite the file with

    PYTHONPATH=src python tests/test_cli_golden.py

and commit it with that change.
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from coxlang.cli import main

GROUPS = Path(__file__).resolve().parent.parent / "groups"
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"

COMMANDS = (
    ("info",),
    ("automaton",),
    ("automaton", "--format", "json"),
    ("automaton", "--format", "dot"),
    ("automaton", "--scan-len", "4"),
    ("scan", "--radius", "4"),
    ("scan", "--radius", "3", "--all-words"),
    ("scan", "--radius", "4", "--format", "text"),
    ("divergence", "--radii", "0,4,6"),
    ("prop", "--radius", "3"),
)

GENERATED = {
    # A~4: a 5-cycle of order-3 edges, every other pair commuting
    "a4tilde.cox": "generators p q r s t\n"
                   "m p q 3\nm q r 3\nm r s 3\nm s t 3\nm t p 3\n"
                   "m p r 2\nm p s 2\nm q s 2\nm q t 2\nm r t 2\n",
    # the chain x-y-z-w with orders 3, 4, 5, every other pair commuting
    "chain345.cox": "generators x y z w\n"
                    "m x y 3\nm y z 4\nm z w 5\n"
                    "m x z 2\nm x w 2\nm y w 2\n",
}


def _generated_key(name: str) -> str:
    return f"automaton generated/{name} --format json"


def _generated_argv(name: str, directory: Path) -> list:
    path = directory / name
    path.write_text(GENERATED[name])
    return ["automaton", str(path), "--format", "json"]


def _cases():
    """(key, argv) per command and group; the key names the group file
    relative to the repo, so it does not depend on the checkout path."""
    for path in sorted(GROUPS.glob("*.cox")):
        for cmd in COMMANDS:
            key = " ".join((cmd[0], f"groups/{path.name}") + cmd[1:])
            yield key, [cmd[0], str(path), *cmd[1:]]


CASES = list(_cases())


def _digest(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"exit": code,
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(
        [key for key, _ in CASES] + [_generated_key(nm) for nm in GENERATED])


@pytest.mark.parametrize("key,argv", CASES, ids=[key for key, _ in CASES])
def test_cli_output_unchanged(key, argv):
    assert _digest(argv) == _golden()[key], key


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_automaton_unchanged(name, tmp_path):
    key = _generated_key(name)
    assert _digest(_generated_argv(name, tmp_path)) == _golden()[key], key


if __name__ == "__main__":
    table = {key: _digest(argv) for key, argv in CASES}
    with tempfile.TemporaryDirectory() as tmp:
        for name in GENERATED:
            table[_generated_key(name)] = _digest(
                _generated_argv(name, Path(tmp)))
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(table)} cases to {GOLDEN.name}\n")
