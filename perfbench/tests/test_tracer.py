"""Tests for the benchmark's tracer and seed handling.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import coxlang.scalar  # noqa: E402
from run import invariant_fields, relabelled  # noqa: E402
from tracer import Tracer, traced_main  # noqa: E402

# Exact counts at this commit.  Each command reaches a layer through a
# different module's `from ... import` copy (cli, automaton, experiments),
# so a namespace the tracer missed shows as a zero here.
CASES = [
    (["lang", "groups/fig1.cox", "check", "strst"],
     "in language: true\n",
     {"scalar.raw_mul.calls": 226, "scalar.raw_sign.calls": 81,
      "scalar.bisect_steps.calls": 48, "core.mat_mul.calls": 15,
      "core.gen_mul.calls": 28, "core.descents.calls": 8,
      "core.longest_element.calls": 3, "w0_cache_entries": 2,
      "language.descent_data.calls": 3, "language.membership.calls": 1,
      "cli.main.calls": 1}),
    (["automaton", "groups/dihedral_inf.cox", "--scan-len", "3"],
     "states: 3\ntransitions: 4\nmax wall depth: 1\n"
     "equivalent up to length 3 (15 words)\n",
     {"scalar.raw_mul.calls": 478, "scalar.raw_sign.calls": 132,
      "core.mat_mul.calls": 74, "core.gen_mul.calls": 92,
      "core.descents.calls": 24, "core.longest_element.calls": 22,
      "w0_cache_entries": 2, "core.residue_gate.calls": 2,
      "walls.walls_cross.calls": 4, "walls.separates.calls": 4,
      "language.descent_data.calls": 18, "language.membership.calls": 15,
      "automaton.build.calls": 1, "automaton.equivalence_scan.calls": 1,
      "accepted_in_scan": 7, "words_checked": 15, "cli.main.calls": 1}),
    (["scan", "groups/triangle_333.cox", "--radius", "2"],
     "radius\tK\tmax_ii\tmax_iii\twitness_g_nf\twitness_s\n2\t3\t2\t3\tba\tb\n",
     {"scalar.raw_mul.calls": 3807, "scalar.raw_sign.calls": 1758,
      "core.mat_mul.calls": 279, "core.gen_mul.calls": 480,
      "core.descents.calls": 180, "core.ball.calls": 1, "ball_elements": 10,
      "core.longest_element.calls": 144, "w0_cache_entries": 6,
      "language.descent_data.calls": 138, "language.canonical_word.calls": 84,
      "experiments.pair_value.calls": 42, "experiments.scan.calls": 1,
      "cli.main.calls": 1}),
    (["prop", "groups/fig1.cox", "--radius", "1"],
     "radius 1: 15 residues, 104 ordered pairs checked\n"
     "witnesses found for every pair\n",
     {"scalar.raw_mul.calls": 12287, "scalar.raw_sign.calls": 10323,
      "scalar.bisect_steps.calls": 5864, "core.mat_mul.calls": 1465,
      "core.gen_mul.calls": 1258, "core.descents.calls": 1226,
      "core.ball.calls": 1, "ball_elements": 4,
      "core.longest_element.calls": 228, "w0_cache_entries": 6,
      "core.residue_gate.calls": 469, "language.descent_data.calls": 228,
      "language.check_prop_main.calls": 104, "experiments.scan.calls": 1,
      "cli.main.calls": 1}),
]


@pytest.fixture(autouse=True)
def fresh_process_state(monkeypatch):
    # Field construction multiplies scalars; start from an empty field
    # cache, as a fresh process does, so the counts do not depend on
    # which test ran first.
    monkeypatch.setattr(coxlang.scalar, "_FIELDS", {})
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("argv,stdout,expected", CASES,
                         ids=[" ".join(c[0][:2]) for c in CASES])
def test_exact_counts_per_layer(argv, stdout, expected):
    doc = traced_main(argv)
    assert doc["rc"] == 0
    assert doc["stdout"] == stdout
    counts = {k: v for k, v in doc["counters"].items()
              if v and not k.endswith("_s")}
    assert counts == expected


def _coxlang_namespaces():
    return [vars(m) for n, m in sorted(sys.modules.items())
            if n == "coxlang" or n.startswith("coxlang.")]


def test_wrappers_replace_every_binding_and_are_removed():
    before = [dict(ns) for ns in _coxlang_namespaces()]
    with Tracer() as tracer:
        bindings = list(tracer._restore)
        originals = [orig for _, _, orig in bindings]
        for ns in _coxlang_namespaces():
            for key, value in ns.items():
                assert not any(value is o for o in originals), key
    assert [dict(ns) for ns in _coxlang_namespaces()] == before
    for owner, attr, original in bindings:
        assert owner.__dict__[attr] is original


def test_relabelling_permutes_only_the_generator_line():
    text = (ROOT / "groups" / "a3tilde.cox").read_text()
    assert relabelled(text, 0) == text
    moved = relabelled(text, 5).splitlines()
    lines = text.splitlines()
    gen = next(i for i, ln in enumerate(lines) if ln.startswith("generators"))
    assert moved[gen] != lines[gen]
    assert sorted(moved[gen].split()) == sorted(lines[gen].split())
    assert moved[:gen] + moved[gen + 1:] == lines[:gen] + lines[gen + 1:]


def test_invariant_fields_drop_only_witness_columns():
    head = "radius\tmax_divergence\twitness_g_nf\twitness_s\n"
    assert invariant_fields("divergence", head + "8\t6\tprpsrpt\ts\n") \
        == invariant_fields("divergence", head + "8\t6\tpsrpsrt\tp\n")
    assert invariant_fields("divergence", head + "8\t6\tprpsrpt\ts\n") \
        != invariant_fields("divergence", head + "8\t7\tprpsrpt\ts\n")
