"""The benchmark still finds every entry point it wraps and every output
it expects.

`perfbench/tracer.py` wraps named functions of each layer and fails on a
name that no longer exists.  Running a few commands under it here makes a
renamed or deleted target fail this suite, not only the benchmark's own
traced pass.  `perfbench/run.py` freezes the stdout of each workload's
commands; running them here makes a changed output fail this suite, not
only the benchmark's correctness check.  Both files are read, never
written.
"""

import contextlib
import io
import sys
import types
from pathlib import Path

import pytest

from coxlang import cli
from conftest import GROUPS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load(path, name, **imports):
    """A benchmark file executed as a fresh module, its imports of sibling
    files given as modules.  These and the module itself are in
    sys.modules only while it runs, as dataclasses need; sys.path is
    restored."""
    module = types.ModuleType(name)
    module.__file__ = str(path)
    saved = sys.path[:]
    added = {name: module, **imports}
    sys.modules.update(added)
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        sys.path[:] = saved
        for key in added:
            del sys.modules[key]
    return module


def _load_tracer():
    return _load(TRACER, "perfbench_tracer")


BENCH = _load(PERFBENCH / "run.py", "perfbench_run", tracer=_load_tracer())


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", sorted(BENCH.WORKLOADS))
def test_workload_outputs_match_the_benchmark(tmp_path, name, seed):
    """Each workload command and `info` print what the benchmark checks:
    the frozen output at seed 0, its generator-order invariant fields at
    another seed."""
    workload = BENCH.WORKLOADS[name]
    text = (PERFBENCH.parent / workload.group).read_text()
    group = tmp_path / "group.cox"
    group.write_text(BENCH.relabelled(text, seed))
    runs = [(("info", "{group}"), workload.info),
            *zip(workload.commands, workload.expected)]
    for template, expected in runs:
        argv = [a.format(group=group) for a in template]
        rc, stdout = _stdout(argv)
        assert rc == 0, argv
        if seed == 0:
            assert stdout == expected, argv
        else:
            assert (BENCH.invariant_fields(argv[0], stdout)
                    == BENCH.invariant_fields(argv[0], expected)), argv


@pytest.mark.parametrize("argv", [
    ("divergence", "a3tilde", "--radii", "4"),
    ("automaton", "fig1", "--scan-len", "3"),
    ("prop", "fig1", "--radius", "2"),
    ("scan", "triangle_237", "--radius", "3"),
])
def test_traced_run_matches_untraced(argv):
    argv = [argv[0], str(GROUPS / f"{argv[1]}.cox"), *argv[2:]]
    rc, stdout = _stdout(argv)
    assert rc == 0
    traced = _load_tracer().traced_main(argv)
    assert traced["rc"] == 0
    assert traced["stdout"] == stdout
    assert traced["counters"]["cli.main.calls"] == 1
