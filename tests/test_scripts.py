"""The scripts in scripts/ run and print their known output."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

WALKTHROUGH = """\
g = strst  (length 5, normal form strst)
T(g) = {s,t}
w(g) = st
Pi(g) = str
chunks:
  T={s,t}  w=st  remainder=str
  T={r}  w=r  remainder=st
  T={s,t}  w=st  remainder=e
|W(g)| = 3  reflections: strst, srtrs, trsrt
canonical word: strst
language words (4): strst, strts, tsrst, tsrts
automaton: 25 states, 46 transitions, max wall depth 5
"""

@pytest.mark.parametrize("argv,stdout", [
    (["figure_walkthrough.py"], WALKTHROUGH),
])
def test_script_output(argv, stdout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0])]
                          + argv[1:], capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == stdout


def _paired_bench():
    spec = importlib.util.spec_from_file_location(
        "paired_bench", ROOT / "scripts" / "paired_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Ten parent readings: median 1.0, quartiles 0.9725 and 1.0275.
_PARENT = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0]


@pytest.mark.parametrize("change,better,bound,expected", [
    # Won every pair, median 0.2 better: wider than the 0.055 spread.
    ([p - 0.2 for p in _PARENT], "lower", 0.25, ("gain", 10)),
    # Won 8 of 10 pairs: short of 9 of 10.
    ([p - 0.2 for p in _PARENT[:8]] + _PARENT[8:], "lower", 0.25,
     ("within bound", 8)),
    # Won every pair, median 0.05 better: inside the spread.
    ([p - 0.05 for p in _PARENT], "lower", 0.25, ("within bound", 10)),
    # Equal readings are ties, which count for neither side.
    (_PARENT, "lower", 0.25, ("within bound", 0)),
    # 30% worse passes a bound of 0.25 but not one of 0.4.
    ([1.3 * p for p in _PARENT], "lower", 0.25, ("worse", 0)),
    ([1.3 * p for p in _PARENT], "lower", 0.4, ("within bound", 0)),
    # Where higher is better, 30% lower is worse and 30% higher a gain.
    ([0.7 * p for p in _PARENT], "higher", 0.25, ("worse", 0)),
    ([1.3 * p for p in _PARENT], "higher", 0.25, ("gain", 10)),
])
def test_paired_bench_verdict(change, better, bound, expected):
    assert _paired_bench().verdict(_PARENT, change, better, bound) == expected


def test_paired_bench_spread_wider_than_the_bound():
    """A parent spread wider than the bound leaves a metric unresolved,
    unless every change reading beats every parent reading."""
    verdict = _paired_bench().verdict
    parent = [1.0, 2.0] * 5
    assert verdict(parent, [1.4, 1.6] * 5, "lower", 0.25) == (
        "unresolved", 5)
    assert verdict(parent, [0.5] * 10, "lower", 0.25) == (
        "within bound", 10)


def test_paired_bench_refuses_fewer_than_ten_pairs(capsys):
    with pytest.raises(SystemExit):
        _paired_bench().main([str(ROOT), str(ROOT), "--workload",
                              "a3-divergence", "--pairs", "9"])
    assert "at least 10" in capsys.readouterr().err


def test_paired_bench_voids_a_gain_when_the_change_fails_more(
        tmp_path, monkeypatch, capsys):
    """Runs for the benchmark's own length; a change that reads lower on
    every metric but fails a larger share of operations gains nothing and
    exits 1."""
    module = _paired_bench()
    bench = (ROOT / "BENCHMARK.json").read_text()
    seconds = json.loads(bench)["run_seconds"]
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(bench)

    def run_once(command, checkout, workload, seed, run_seconds):
        assert run_seconds == seconds
        side = 1.0 if checkout.name == "parent" else 0.5
        return {"metrics": {m: {"value": side * (1 + seed % 3 / 100)}
                            for m in ("wall_s", "cpu_s", "setup_s",
                                      "peak_rss_mb")},
                "failed": 0 if checkout.name == "parent" else 1,
                "attempted": 100}

    monkeypatch.setattr(module, "run_once", run_once)
    code = module.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                        "--workload", "a3-divergence", "--pairs", "10"])
    out = capsys.readouterr().out
    assert code == 1
    assert f"10 pairs of {seconds:g} s runs" in out
    assert out.count("void gain") == 4
    assert "failed operations, change: 10/1000" in out
