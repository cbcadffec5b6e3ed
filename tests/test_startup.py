"""Start-up guards: each command loads only the modules it runs.

Every check runs in a fresh interpreter, because this test process has
long since imported the whole package.  Only modules new since the
interpreter started count, so a module that site hooks load first does
not fail the check.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import coxlang
from conftest import GROUPS

SRC = str(Path(coxlang.__file__).resolve().parent.parent)

# Run a command in process, then list on stderr the modules it loaded.
RUN = """
import sys
before = set(sys.modules)
from coxlang.cli import main
rc = main(sys.argv[1:])
print("\\n".join(sorted(set(sys.modules) - before)), file=sys.stderr)
sys.exit(rc)
"""


def _python(code, *args):
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    return proc


def _loaded(*argv):
    return set(_python(RUN, *argv).stderr.split())


def test_info_loads_core_only():
    loaded = _loaded("info", str(GROUPS / "fig1.cox"))
    assert {"coxlang.cli", "coxlang.core", "coxlang.scalar"} <= loaded
    assert not loaded & {"coxlang.automaton", "coxlang.experiments",
                         "coxlang.language", "coxlang.walls",
                         "dataclasses", "fractions", "json"}


@pytest.mark.parametrize("argv", [
    ("divergence", "a3tilde.cox", "--radii", "2,4"),
    ("scan", "fig1.cox", "--radius", "2"),
    ("prop", "fig1.cox", "--radius", "2"),
])
def test_scans_do_not_load_the_automaton(argv):
    loaded = _loaded(argv[0], str(GROUPS / argv[1]), *argv[2:])
    assert "coxlang.experiments" in loaded
    assert not loaded & {"coxlang.automaton", "coxlang.walls"}


def test_automaton_does_not_load_the_scans():
    loaded = _loaded("automaton", str(GROUPS / "fig1.cox"), "--scan-len", "2")
    assert "coxlang.automaton" in loaded
    assert "coxlang.experiments" not in loaded


def test_every_public_name_resolves():
    proc = _python("""
import sys
import coxlang
assert not [m for m in sys.modules if m.startswith("coxlang.")]
names = {name: getattr(coxlang, name) for name in coxlang.__all__}
assert set(coxlang.__all__) <= set(dir(coxlang))
try:
    coxlang.side
except AttributeError:
    pass
else:
    raise AssertionError("coxlang.side still resolves")
namespace = {}
exec("from coxlang import *", namespace)
assert all(namespace[name] is value for name, value in names.items())
print(len(names))
""")
    assert int(proc.stdout) == len(coxlang.__all__)
