"""CLI behavior: outputs, formats, exit codes, determinism."""

import argparse
import io
import json
import os
import subprocess
import sys
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
    assert err == "error: unknown generator 'x'\n"


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
    ("automaton", FIG1, "--scan-len", "3"),
    ("automaton", FIG1, "--format", "json"),
    ("automaton", FIG1, "--format", "dot"),
    ("scan", FIG1, "--radius", "4"),
    ("scan", FIG1, "--radius", "4", "--format", "text"),
    ("prop", FIG1, "--radius", "3"),
    ("prop", FIG1, "--radius", "3", "--format", "tsv"),
    ("divergence", A3T, "--radii", "2,4"),
    ("divergence", A3T, "--radii", "2,4", "--format", "text"),
], ids=lambda argv: " ".join((argv[0], *argv[2:])))
def test_output_file_holds_the_bytes_of_stdout(capsys, tmp_path, argv):
    """Every command and format writes to --output exactly what it would
    write to stdout, with the same exit code."""
    code, out, _ = run(capsys, *argv)
    target = tmp_path / "out"
    assert run(capsys, *argv, "--output", str(target)) == (code, "", "")
    assert out and target.read_bytes() == out.encode("utf-8")


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


GREEK = "generators σ τ ρ\nm σ τ 2\nm σ ρ 4\nm τ ρ 4\n"


def test_output_the_stdout_encoding_cannot_hold_is_a_usage_error(tmp_path):
    """Names that stdout's encoding cannot hold exit 2 with one error
    line, not a traceback; an output file is UTF-8 whatever stdout and
    the locale are.  The C locale, neither coerced nor in UTF-8 mode,
    makes ASCII the default file encoding."""
    group = tmp_path / "greek.cox"
    group.write_text(GREEK, encoding="utf-8")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="ascii",
               LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")

    def coxlang(*argv):
        return subprocess.run([sys.executable, "-m", "coxlang.cli", *argv],
                              capture_output=True, env=env, timeout=120)

    proc = coxlang("info", str(group))
    assert proc.returncode == 2
    err = proc.stderr.decode("ascii")
    assert err.startswith("error: cannot encode output: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    target = tmp_path / "fsa.dot"
    proc = coxlang("automaton", str(group), "--format", "dot",
                   "--output", str(target))
    assert proc.returncode == 0 and proc.stdout == proc.stderr == b""
    assert "{σ,τ} : στ" in target.read_text(encoding="utf-8")


def _coxlang_process(*argv, unbuffered="", **kwargs):
    """`coxlang` in a child process; stdout is block-buffered unless
    `unbuffered` is a non-empty PYTHONUNBUFFERED value."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    return subprocess.Popen([sys.executable, "-m", "coxlang.cli", *argv],
                            env=env, stderr=subprocess.PIPE, **kwargs)


def _one_error_line(err: bytes) -> str:
    text = err.decode()
    assert text.count("\n") == 1 and text.endswith("\n"), text
    return text


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv", [("info", FIG1),
                                  ("automaton", A3T, "--format", "json")])
def test_a_full_stdout_is_a_usage_error(argv, unbuffered):
    """A stdout on a full device exits 2 with one error line, not a
    traceback and exit 1, whether the failing write is a print, the
    flush at the end, or one large write."""
    with open("/dev/full", "w") as full:
        proc = _coxlang_process(*argv, unbuffered=unbuffered, stdout=full)
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert _one_error_line(err).startswith("error: cannot write output: ")


A4_TILDE = ("generators a b c d e\n"
            + "".join(f"m {x} {y} {3 if (j - i) % 5 in (1, 4) else 2}\n"
                      for i, x in enumerate("abcde")
                      for j, y in enumerate("abcde") if i < j))


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_closed_pipe_is_a_usage_error(tmp_path, unbuffered):
    """A reader that stops after the first byte of A~4's 4 MB automaton
    (`| head -1`) makes the command exit 2 with one error line, and what
    stdout still buffers is not written, nor reported, at exit.  Python's
    unbuffered text stdout alone would drop the rest of the cut write and
    exit 0."""
    group = tmp_path / "a4tilde.cox"
    group.write_text(A4_TILDE)
    proc = _coxlang_process("automaton", str(group), "--format", "json",
                            unbuffered=unbuffered, stdout=subprocess.PIPE)
    assert os.read(proc.stdout.fileno(), 1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 2
    assert _one_error_line(err).startswith("error: cannot write output: ")


@pytest.mark.parametrize("code, argv", [
    (0, ("info", FIG1)),
    (2, ("info", str(GROUPS / "missing.cox"))),
    (3, ("automaton", FIG1, "--max-states", "0")),
])
def test_the_process_entry_reports_as_main(capsys, code, argv):
    """`python -m coxlang.cli` ends its process without interpreter
    teardown, yet gives the exit code, stdout and stderr of `main`."""
    proc = _coxlang_process(*argv, stdout=subprocess.PIPE)
    out, err = proc.communicate(timeout=120)
    expected = run(capsys, *argv)
    assert expected[0] == code
    assert (proc.returncode, out.decode(), err.decode()) == expected


def test_the_process_entry_writes_the_output_file(capsys, tmp_path):
    argv = ("automaton", FIG1, "--format", "json", "--output")
    proc = _coxlang_process(*argv, str(tmp_path / "child.json"),
                            stdout=subprocess.PIPE)
    assert proc.communicate(timeout=120) == (b"", b"")
    assert proc.returncode == 0
    assert run(capsys, *argv, str(tmp_path / "main.json")) == (0, "", "")
    assert ((tmp_path / "child.json").read_bytes()
            == (tmp_path / "main.json").read_bytes())


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_the_process_entry_sends_all_of_a_large_output(capsys, tmp_path,
                                                       unbuffered):
    """A~4's 4 MB automaton, read through a pipe to the end, is all there
    when the process ends without teardown, buffered or not."""
    group = tmp_path / "a4tilde.cox"
    group.write_text(A4_TILDE)
    argv = ("automaton", str(group), "--format", "json")
    proc = _coxlang_process(*argv, unbuffered=unbuffered,
                            stdout=subprocess.PIPE)
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")
    code, expected, _ = run(capsys, *argv)
    assert code == 0 and len(expected) > 4_000_000
    assert out.decode() == expected


def test_the_coxlang_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.dirname(cli.__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"coxlang": "coxlang.cli:run"}


# Register an atexit handler, then end through `run` or `sys.exit(main())`.
ATEXIT = """
import atexit, sys
from coxlang.cli import main, run
atexit.register(print, "atexit ran")
if sys.argv.pop(1) == "run":
    run()
sys.exit(main())
"""


def test_the_process_entry_skips_atexit_handlers():
    """The trade-off of ending without teardown: an `atexit` handler that
    other code registered does not run under `run`, while a process that
    calls `main` and exits normally still runs it."""
    src = os.path.dirname(os.path.dirname(cli.__file__))

    def stdout(entry):
        proc = subprocess.run(
            [sys.executable, "-c", ATEXIT, entry, "info", FIG1],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=""))
        assert (proc.returncode, proc.stderr) == (0, "")
        return proc.stdout

    ended = stdout("run")
    assert ended.startswith("generators: s t r\n")
    assert stdout("main") == ended + "atexit ran\n"


def test_a_stdout_write_error_in_process(capsys, monkeypatch):
    """In process, with a stdout that has no file descriptor, a failed
    write is still one error line and exit 2."""
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Closed())
    assert main(["info", FIG1]) == 2
    err = capsys.readouterr().err
    assert err == "error: cannot write output: [Errno 32] Broken pipe\n"


def test_automaton_state_cap(capsys):
    code, _, err = run(capsys, "automaton", FIG1, "--max-states", "5")
    assert code == 3
    assert "exceeded 5 states" in err


def test_automaton_exits_3_when_a_w0_has_too_many_reduced_words(capsys,
                                                                tmp_path):
    """w0 of A5 (a path of order-3 edges) has 292,864 reduced words.  A
    transition keeps only its T, so the machine builds and certifies, with
    one state per element; only the JSON, which lists every reduced word,
    meets the cap, and says so before any word is formed."""
    names = "abcde"
    group = tmp_path / "a5.cox"
    group.write_text(f"generators {' '.join(names)}\n" + "".join(
        f"m {a} {b} {3 if j == i + 1 else 2}\n"
        for i, a in enumerate(names) for j, b in enumerate(names) if i < j))
    code, out, _ = run(capsys, "automaton", str(group))
    assert code == 0 and out.startswith("states: 720\n")
    code, out, _ = run(capsys, "automaton", str(group), "--scan-len", "6")
    assert code == 0
    assert out.endswith("equivalent up to length 6 (19531 words)\n")
    assert run(capsys, "automaton", str(group), "--format", "dot")[0] == 0
    code, out, err = run(capsys, "automaton", str(group), "--format", "json")
    assert (code, out) == (3, "")
    assert err == "error: w0({a,b,c,d,e}) has more than 200000 reduced words\n"


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


def test_a3tilde_scan_to_length_9_is_certified_by_chunk_paths(capsys,
                                                                monkeypatch):
    """349,525 words, settled by one walk over the chunk paths: no word
    is run through the automaton or the membership predicate."""
    from coxlang import automaton

    def refuse(*args):
        raise AssertionError("a word was checked on its own")

    monkeypatch.setattr(automaton, "is_in_standard_language", refuse)
    monkeypatch.setattr(automaton, "_runner", refuse)
    code, out, err = run(capsys, "automaton", A3T, "--scan-len", "9")
    assert (code, err) == (0, "")
    assert out.endswith("equivalent up to length 9 (349525 words)\n")


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


def _a_path(tmp_path, k):
    """A group file for A_k: a path of k generators with order-3 edges."""
    names = [f"g{i}" for i in range(k)]
    group = tmp_path / f"a{k}.cox"
    group.write_text("generators " + " ".join(names) + "\n" + "".join(
        f"m {a} {b} {3 if j == i + 1 else 2}\n"
        for i, a in enumerate(names) for j, b in enumerate(names) if i < j))
    return str(group)


def test_info_on_a12_path(capsys, tmp_path):
    """K needs w0 only on the maximal spherical subsets: here the whole
    set, against 4,095 spherical subsets."""
    group = _a_path(tmp_path, 12)
    start = time.perf_counter()
    code, out, _ = run(capsys, "info", group)
    assert code == 0 and "2-dimensional: no; K = 78" in out
    assert time.perf_counter() - start < 2.5


def test_info_on_a13_path_exits_3_at_the_spherical_subset_cap(capsys,
                                                              tmp_path):
    """A13 has 8,191 spherical subsets, over MAX_SPHERICAL_SUBSETS: info
    prints nothing on stdout and one error line on stderr."""
    code, out, err = run(capsys, "info", _a_path(tmp_path, 13))
    assert (code, out) == (3, "")
    assert err == ("error: more than 5000 spherical subsets, "
                   "over the cap MAX_SPHERICAL_SUBSETS\n")


def test_scan_all_words(capsys):
    code, out, _ = run(capsys, "scan", FIG1, "--radius", "3", "--all-words",
                       "--format", "text")
    assert code == 0
    assert "words all" in out


A4T_TEXT = ("generators p q r s t\n"
            "m p q 3\nm q r 3\nm r s 3\nm s t 3\nm t p 3\n"
            "m p r 2\nm p s 2\nm q s 2\nm q t 2\nm r t 2\n")


def _a4tilde(tmp_path):
    path = tmp_path / "a4tilde.cox"
    path.write_text(A4T_TEXT)
    return str(path)


def test_scan_all_words_refuses_a_pair_before_its_walk(capsys, monkeypatch):
    """A compared pair over --max-words is refused from the sum of its
    prefix pairs, before any `_step` of its walk: the pairs walked before
    it took their steps, and it took none."""
    from coxlang import experiments
    steps, at_entry = [], []
    real_step, real_walk = experiments._step, experiments._walk_value

    def step(*args):
        steps.append(args)
        return real_step(*args)

    def walk(*args):
        at_entry.append(len(steps))
        return real_walk(*args)
    monkeypatch.setattr(experiments, "_step", step)
    monkeypatch.setattr(experiments, "_walk_value", walk)
    code, out, err = run(capsys, "scan", FIG1, "--radius", "4", "--all-words",
                         "--max-words", "12")
    assert (code, out) == (3, "")
    assert err == "error: prefix pair count exceeds cap 12\n"
    assert len(at_entry) > 1 and 0 < at_entry[-1] == len(steps)


def test_scan_all_words_caps_prefix_pairs_per_compared_pair(capsys):
    """fig1 at radius 4 compares at most 13 prefix pairs, summed over the
    prefix lengths, for one pair of elements: --max-words 12 refuses it,
    and 13 gives the uncapped report."""
    argv = ("scan", FIG1, "--radius", "4", "--all-words")
    code, out, err = run(capsys, *argv, "--max-words", "12")
    assert (code, out) == (3, "")
    assert err == "error: prefix pair count exceeds cap 12\n"
    assert run(capsys, *argv, "--max-words", "13") == run(capsys, *argv)
    assert run(capsys, *argv)[0] == 0


@pytest.mark.parametrize("group,radius,row", [
    ("a4tilde", "8", "8\t10\t6\t7\tpqprq\tp"),
    ("a4tilde", "11", "11\t10\t10\t9\tpqprqpsrq\tp"),
    ("a3tilde", "12", "12\t6\t6\t5\tprpsr\tp"),
], ids=["a4tilde-8", "a4tilde-11", "a3tilde-12"])
def test_scan_all_words_matches_the_word_pair_product(capsys, tmp_path, group,
                                                      radius, row):
    """Under the default cap, each reports what comparing every pair of
    language words reported with no cap.  A~4 at radius 11 has compared
    pairs with 589,824 pairs of words, and took minutes that way."""
    path = _a4tilde(tmp_path) if group == "a4tilde" else A3T
    code, out, _ = run(capsys, "scan", path, "--radius", radius, "--all-words")
    assert (code, out) == (0, "radius\tK\tmax_ii\tmax_iii\twitness_g_nf"
                              f"\twitness_s\n{row}\n")


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
    assert err.startswith("error: cannot read group file: ")
    assert err.count("\n") == 1 and err.endswith("\n")


ERRORS = [
    (ParseError("bad", 3), 2, "error: line 3: bad"),
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
    def fail(args, system):
        raise exc

    monkeypatch.setattr(cli, "cmd_info", fail)
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
    """A ball forms no matrix and no inverse matrix: it takes one key step
    per candidate, and matrices wait for their first read."""
    from coxlang import parse_system
    from coxlang.core import CoxeterSystem
    system = parse_system((GROUPS / "a3tilde.cox").read_text())
    calls = {"_gen_rmul": 0, "_gen_lmul": 0, "_key_rmul": 0}
    for name in calls:
        kernel = getattr(CoxeterSystem, name)

        def counted(self, *args, name=name, kernel=kernel):
            calls[name] += 1
            return kernel(self, *args)
        monkeypatch.setattr(CoxeterSystem, name, counted)
    ball = system.ball(10)
    candidates = sum(system.n - len(g.right_descents())
                     for g in ball if g.length < 10)
    assert calls["_gen_rmul"] == calls["_gen_lmul"] == 0
    # The generators were stepped when the system was built.
    assert calls["_key_rmul"] == candidates - system.n


# Every subcommand's arguments in the order `--help` lists them:
# (flag or positional name, dest, default, choices, required, type).
OPTIONS = {
    "info": [("group", "group", None, None, True, None)],
    "lang": [
        ("group", "group", None, None, True, None),
        ("sub", "sub", None, ("check", "word", "chunks"), True, None),
        ("word", "word", None, None, True, None),
    ],
    "automaton": [
        ("group", "group", None, None, True, None),
        ("--scan-len", "scan_len", None, None, False, int),
        ("--max-states", "max_states", 10_000, None, False, int),
        ("--format", "fmt", "text", ("text", "json", "dot"), False, None),
        ("--output", "output", None, None, False, None),
    ],
    "scan": [
        ("group", "group", None, None, True, None),
        ("--radius", "radius", None, None, True, int),
        ("--all-words", "all_words", False, None, False, None),
        ("--max-words", "max_words", 100_000, None, False, int),
        ("--max-ball", "max_ball", 1_000_000, None, False, int),
        ("--format", "fmt", "tsv", ("tsv", "text"), False, None),
        ("--output", "output", None, None, False, None),
    ],
    "prop": [
        ("group", "group", None, None, True, None),
        ("--radius", "radius", None, None, True, int),
        ("--max-ball", "max_ball", 1_000_000, None, False, int),
        ("--format", "fmt", "text", ("tsv", "text"), False, None),
        ("--output", "output", None, None, False, None),
    ],
    "divergence": [
        ("group", "group", None, None, True, None),
        ("--radii", "radii", None, None, True, None),
        ("--max-ball", "max_ball", 1_000_000, None, False, int),
        ("--format", "fmt", "tsv", ("tsv", "text"), False, None),
        ("--output", "output", None, None, False, None),
    ],
}


def test_option_table_is_frozen():
    """No subcommand gains, loses or changes an argument."""
    parser = cli._build_parser()
    subs, = (a for a in parser._actions
             if isinstance(a, argparse._SubParsersAction))
    table = {
        name: [((a.option_strings or [a.dest])[0], a.dest, a.default,
                a.choices, a.required, a.type)
               for a in sub._actions
               if not isinstance(a, argparse._HelpAction)]
        for name, sub in subs.choices.items()}
    assert table == OPTIONS
