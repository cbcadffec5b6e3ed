"""The benchmark's tracer still finds every entry point it wraps.

`perfbench/tracer.py` wraps named functions of each layer and fails on a
name that no longer exists.  Running a few commands under it here makes a
renamed or deleted target fail this suite, not only the benchmark's own
traced pass.  The tracer is read from its file and never written.
"""

import contextlib
import io
import types
from pathlib import Path

import pytest

from coxlang import cli
from conftest import GROUPS

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("argv", [
    ("divergence", "a3tilde", "--radii", "4"),
    ("automaton", "fig1", "--scan-len", "3"),
    ("prop", "fig1", "--radius", "2"),
    ("scan", "triangle_237", "--radius", "3"),
])
def test_traced_run_matches_untraced(argv):
    argv = [argv[0], str(GROUPS / f"{argv[1]}.cox"), *argv[2:]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    assert rc == 0
    traced = _load_tracer().traced_main(argv)
    assert traced["rc"] == 0
    assert traced["stdout"] == out.getvalue()
    assert traced["counters"]["cli.main.calls"] == 1
