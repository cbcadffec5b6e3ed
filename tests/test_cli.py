"""CLI behavior: outputs, formats, exit codes, determinism."""

import json
import time

import pytest

from coxlang import cli
from coxlang.cli import main
from coxlang.errors import (CoxeterError, FieldMismatchError,
                            InfiniteParabolicError, InvariantViolation,
                            ParseError, PreconditionError, ResourceLimitError,
                            SystemMismatchError)
from conftest import GROUPS

FIG1 = str(GROUPS / "fig1.cox")
A3T = str(GROUPS / "a3tilde.cox")
TRI = str(GROUPS / "triangle_333.cox")
H237 = str(GROUPS / "triangle_237.cox")
H245 = str(GROUPS / "triangle_245.cox")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_fig1(capsys):
    code, out, _ = run(capsys, "info", FIG1)
    assert code == 0
    assert "generators: s t r" in out
    assert "2-dimensional: yes; K = 4" in out
    assert "field degree: 2" in out


def test_info_a3tilde(capsys):
    code, out, _ = run(capsys, "info", A3T)
    assert code == 0
    assert "2-dimensional: no; K = 6" in out
    assert "field degree: 1" in out


def test_lang_check(capsys):
    code, out, _ = run(capsys, "lang", FIG1, "check", "strst")
    assert code == 0 and out.strip() == "in language: true"
    code, out, _ = run(capsys, "lang", FIG1, "check", "strsr")
    assert code == 0 and out.strip() == "in language: false"


def test_lang_word(capsys):
    code, out, _ = run(capsys, "lang", FIG1, "word", "sts")
    assert code == 0 and out.strip() == "t"


def test_lang_chunks(capsys):
    code, out, _ = run(capsys, "lang", FIG1, "chunks", "strst")
    assert code == 0
    assert out.splitlines() == [
        "T={s,t}  w=st  remainder=str",
        "T={r}  w=r  remainder=st",
        "T={s,t}  w=st  remainder=e",
    ]


def test_lang_reads_back_the_empty_word(capsys):
    code, out, _ = run(capsys, "lang", FIG1, "word", "ss")
    assert code == 0 and out == "e\n"
    code, out, _ = run(capsys, "lang", FIG1, "check", "e")
    assert code == 0 and out == "in language: true\n"


def test_lang_unknown_letter(capsys):
    code, _, err = run(capsys, "lang", FIG1, "check", "sxt")
    assert code == 2
    assert "unknown generator" in err


def test_automaton_scan(capsys):
    code, out, _ = run(capsys, "automaton", FIG1, "--scan-len", "6")
    assert code == 0
    assert "states: 25" in out
    assert "transitions: 46" in out
    assert "equivalent up to length 6" in out


def test_automaton_json(capsys):
    code, out, _ = run(capsys, "automaton", FIG1, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["generators"] == ["s", "t", "r"]
    assert len(data["states"]) == 25


def test_automaton_dot(capsys):
    code, out, _ = run(capsys, "automaton", FIG1, "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")


def test_automaton_output_file(capsys, tmp_path):
    target = tmp_path / "fsa.json"
    code, out, _ = run(capsys, "automaton", FIG1, "--format", "json",
                       "--output", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["start"] == 0


@pytest.mark.parametrize("argv", [
    ("automaton", FIG1, "--format", "json"),
    ("divergence", A3T, "--radii", "2"),
])
def test_unwritable_output_is_a_usage_error(capsys, tmp_path, argv):
    """An output path that cannot be written exits 2 with one error line,
    not a traceback and exit 1 (which means a failed invariant)."""
    for target in (tmp_path / "missing" / "out.txt", tmp_path):
        code, out, err = run(capsys, *argv, "--output", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write output file: ")
        assert len(err.splitlines()) == 1


def test_automaton_state_cap(capsys):
    code, _, err = run(capsys, "automaton", FIG1, "--max-states", "5")
    assert code == 3
    assert "exceeded 5 states" in err


def test_automaton_exits_3_when_a_w0_has_too_many_reduced_words(capsys,
                                                                tmp_path):
    """w0 of A5 (a path of order-3 edges) has 292,864 reduced words, more
    than a transition may list."""
    names = "abcde"
    group = tmp_path / "a5.cox"
    group.write_text(f"generators {' '.join(names)}\n" + "".join(
        f"m {a} {b} {3 if j == i + 1 else 2}\n"
        for i, a in enumerate(names) for j, b in enumerate(names) if i < j))
    code, out, err = run(capsys, "automaton", str(group))
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_scan_tsv(capsys):
    code, out, _ = run(capsys, "scan", FIG1, "--radius", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "radius\tK\tmax_ii\tmax_iii\twitness_g_nf\twitness_s"
    assert lines[1] == "5\t4\t4\t3\tstrsr\tt"


@pytest.mark.parametrize("group,scan_len,summary", [
    (H245, "4", "states: 26\ntransitions: 52\nmax wall depth: 5\n"
                "equivalent up to length 4 (121 words)\n"),
    (H237, "3", "states: 40\ntransitions: 67\nmax wall depth: 7\n"
                "equivalent up to length 3 (40 words)\n"),
])
def test_automaton_hyperbolic(capsys, group, scan_len, summary):
    code, out, _ = run(capsys, "automaton", group, "--scan-len", scan_len)
    assert code == 0 and out == summary


@pytest.mark.parametrize("group,radius,row", [
    (H245, "5", "5\t5\t4\t5\tabcac\tb"),
    (H237, "4", "4\t7\t2\t3\tabc\ta"),
])
def test_scan_hyperbolic_within_5k(capsys, group, radius, row):
    code, out, _ = run(capsys, "scan", group, "--radius", radius)
    assert code == 0  # exit 1 would report a 5K violation
    assert out.splitlines()[1] == row
    k, max_ii = (int(v) for v in out.splitlines()[1].split("\t")[1:3])
    assert max_ii <= 5 * k


def test_scan_deterministic(capsys):
    _, first, _ = run(capsys, "scan", FIG1, "--radius", "5")
    _, second, _ = run(capsys, "scan", FIG1, "--radius", "5")
    assert first == second


def test_scan_ball_cap(capsys):
    code, _, err = run(capsys, "scan", FIG1, "--radius", "6",
                       "--max-ball", "5")
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize("argv", [
    ("scan", FIG1, "--radius", "0"),
    ("prop", FIG1, "--radius", "0"),
    ("divergence", FIG1, "--radii", "0"),
])
def test_ball_cap_counts_the_identity(capsys, argv):
    # the ball of radius 0 already holds one element, over a cap of 0
    code, out, err = run(capsys, *argv, "--max-ball", "0")
    assert code == 3 and out == ""
    assert "cap 0" in err
    assert run(capsys, *argv, "--max-ball", "1")[0] == 0


def test_field_degree_cap(capsys, tmp_path):
    # Orders 11, 13 and 17 need Q(2cos(pi/2431)), of degree 960; the cap
    # refuses it before any field arithmetic.
    group = tmp_path / "big.cox"
    group.write_text("generators a b c d\nm a b 11\nm b c 13\nm c d 17\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "info", str(group))
    assert time.perf_counter() - start < 2
    assert code == 3 and out == ""
    assert "960" in err and "256" in err


def test_equivalence_scan_cap(capsys):
    # 3^0 + ... + 3^30 words; the cap refuses them before the scan.
    start = time.perf_counter()
    code, out, err = run(capsys, "automaton", FIG1, "--scan-len", "30")
    assert time.perf_counter() - start < 2
    assert code == 3 and out == ""
    assert "308836698141973 words" in err and "MAX_SCAN_WORDS = 1000000" in err


def test_free_product_of_30_generators(capsys, tmp_path):
    """Spherical subsets are found from spherical ones, so 30 pairwise
    free generators cost 435 pair tests, not 2^30 subsets."""
    group = tmp_path / "free30.cox"
    group.write_text("generators " + " ".join(f"g{i}" for i in range(30)) + "\n")
    start = time.perf_counter()
    code, out, _ = run(capsys, "info", str(group))
    assert code == 0 and "2-dimensional: yes; K = 1" in out
    code, out, _ = run(capsys, "automaton", str(group))
    assert code == 0 and out.startswith("states: ")
    assert time.perf_counter() - start < 5


def test_info_on_a12_path(capsys, tmp_path):
    """K needs w0 only on the maximal spherical subsets: here the whole
    set, against 4,095 spherical subsets."""
    names = [f"g{i}" for i in range(12)]
    group = tmp_path / "a12.cox"
    group.write_text("generators " + " ".join(names) + "\n" + "".join(
        f"m {a} {b} {3 if j == i + 1 else 2}\n"
        for i, a in enumerate(names) for j, b in enumerate(names) if i < j))
    start = time.perf_counter()
    code, out, _ = run(capsys, "info", str(group))
    assert code == 0 and "2-dimensional: no; K = 78" in out
    assert time.perf_counter() - start < 2.5


def test_scan_all_words(capsys):
    code, out, _ = run(capsys, "scan", FIG1, "--radius", "3", "--all-words",
                       "--format", "text")
    assert code == 0
    assert "words all" in out


def test_prop_ok(capsys):
    code, out, _ = run(capsys, "prop", FIG1, "--radius", "3")
    assert code == 0
    assert "witnesses found for every pair" in out


def test_prop_rejects_a3tilde(capsys):
    code, _, err = run(capsys, "prop", A3T, "--radius", "2")
    assert code == 2
    assert "2-dimensional" in err


def test_divergence_tsv(capsys):
    code, out, _ = run(capsys, "divergence", FIG1, "--radii", "4,6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "radius\tmax_divergence\twitness_g_nf\twitness_s"
    assert lines[1].startswith("4\t")
    assert lines[2].startswith("6\t4\t")


def test_divergence_bad_radii(capsys):
    code, _, err = run(capsys, "divergence", FIG1, "--radii", "6,4")
    assert code == 2
    assert "increasing" in err
    code, _, err = run(capsys, "divergence", FIG1, "--radii", "4,x")
    assert code == 2


def test_parse_error_reports_line(capsys, tmp_path):
    bad = tmp_path / "bad.cox"
    bad.write_text("generators s t\nm s t 1\n")
    code, _, err = run(capsys, "info", str(bad))
    assert code == 2
    assert "line 2" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "info", "/no/such/file.cox")
    assert code == 2


def test_group_file_that_is_not_utf8(capsys, tmp_path):
    path = tmp_path / "g.cox"
    path.write_bytes(b"\xff\xfe\n")
    code, out, err = run(capsys, "info", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 0: cannot read group file: ")
    assert err.count("\n") == 1 and err.endswith("\n")


ERRORS = [
    (ParseError(3, "bad"), 2, "error: line 3: bad"),
    (PreconditionError("bad"), 2, "error: bad"),
    (InfiniteParabolicError("bad"), 2, "error: bad"),
    (FieldMismatchError("bad"), 2, "error: bad"),
    (SystemMismatchError("bad"), 2, "error: bad"),
    (CoxeterError("bad"), 2, "error: bad"),
    (ResourceLimitError("bad"), 3, "error: bad"),
    (InvariantViolation("bad"), 1, "internal invariant violated: bad"),
]


@pytest.mark.parametrize("exc, code, message", ERRORS,
                         ids=[type(exc).__name__ for exc, _, _ in ERRORS])
def test_each_error_class_has_its_exit_code(capsys, monkeypatch, exc, code,
                                            message):
    def fail(args):
        raise exc

    monkeypatch.setitem(cli._HANDLERS, "info", fail)
    assert run(capsys, "info", FIG1) == (code, "", message + "\n")


def test_usage_errors(capsys):
    assert run(capsys, "automaton", FIG1, "--bogus")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "scan", FIG1)[0] == 2  # --radius is required
    assert run(capsys, "scan", FIG1, "--radius", "2", "--threads", "2")[0] == 2
    assert run(capsys, "scan", FIG1, "--radius", "-1")[0] == 2
    assert run(capsys, "prop", FIG1, "--radius", "-2")[0] == 2
    assert run(capsys, "automaton", FIG1, "--scan-len", "-1")[0] == 2
    assert run(capsys, "scan", FIG1, "--radius", "2", "--max-ball", "-1")[0] == 2
    assert run(capsys, "prop", FIG1, "--radius", "0", "--max-ball", "-1")[0] == 2
    assert run(capsys, "divergence", FIG1, "--radii", "2",
               "--max-ball", "-1")[0] == 2
    assert run(capsys, "scan", FIG1, "--radius", "2", "--all-words",
               "--max-words", "-1")[0] == 2
    assert run(capsys, "automaton", FIG1, "--max-states", "-1")[0] == 2


@pytest.mark.parametrize("argv", [
    ("lang", FIG1, "check", "strst"),
    ("automaton", FIG1, "--scan-len", "4"),
    ("scan", FIG1, "--radius", "3"),
    ("scan", FIG1, "--radius", "3", "--all-words"),
    ("prop", FIG1, "--radius", "2"),
    ("divergence", A3T, "--radii", "2,4"),
    ("automaton", H237, "--scan-len", "3"),
])
def test_no_dense_product_on_cli_paths(capsys, monkeypatch, argv):
    """Library products are generator steps; the dense O(n^3) matrix
    product is left to the public Element.__mul__."""
    from coxlang.core import CoxeterSystem
    calls = []
    dense = CoxeterSystem._mat_mul

    def counted(self, a, b):
        calls.append(1)
        return dense(self, a, b)

    monkeypatch.setattr(CoxeterSystem, "_mat_mul", counted)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == 0


def test_ball_forms_no_inverse_and_one_step_per_candidate(monkeypatch):
    """A ball forms each candidate's matrix once and no inverse matrix:
    inverses wait for their first read."""
    from coxlang import parse_system
    from coxlang.core import CoxeterSystem
    system = parse_system((GROUPS / "a3tilde.cox").read_text())
    calls = {"_gen_rmul": 0, "_gen_lmul": 0}
    for name in calls:
        kernel = getattr(CoxeterSystem, name)

        def counted(self, *args, name=name, kernel=kernel):
            calls[name] += 1
            return kernel(self, *args)
        monkeypatch.setattr(CoxeterSystem, name, counted)
    ball = system.ball(10)
    candidates = sum(system.n - len(g.right_descents())
                     for g in ball if g.length < 10)
    assert calls["_gen_lmul"] == 0
    assert 0 < calls["_gen_rmul"] <= candidates
