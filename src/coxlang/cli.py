"""Command-line surface. All runs are deterministic given file and flags.

Exit codes: 0 clean, 1 an asserted invariant failed (equivalence mismatch,
5K bound violation, missing residue witness), 2 usage or parse problems
(an unreadable group file, an unwritable output file, output that
stdout's encoding cannot hold, and a stdout that cannot be written
included), 3 a resource cap was hit.  Output files are written in UTF-8,
as group files are read.

`main` flushes stdout before it returns, so a full disk or a reader that
closed the pipe early (`coxlang automaton ... --format json | head -1`)
is an error line on stderr and exit 2, not a traceback, also when
PYTHONUNBUFFERED makes stdout unbuffered.

`run`, the process entry point, calls `main`, flushes stderr and ends the
process with `os._exit`: what is left then is interpreter teardown, which
frees every object and module only for the OS to reclaim the memory anyway.
So `atexit` handlers do not run in a `coxlang` process; calling `main` in
process keeps the normal exit.

Each command imports the modules it runs inside its handler, so a process
compiles and loads only those: `info` needs no more than `core`.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from typing import NoReturn

from .core import (DEFAULT_BALL_CAP, DEFAULT_WORD_CAP, INF, CoxeterSystem,
                   k_constant, parse_system)
from .errors import (CoxeterError, InvariantViolation, ParseError,
                     PreconditionError, ResourceLimitError)

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _load(path: str) -> CoxeterSystem:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(0, f"cannot read group file: {exc}")
    return parse_system(text)


def _emit(text: str, args: argparse.Namespace) -> None:
    if not args.output:
        out = sys.stdout
        raw = getattr(out, "buffer", None)
        if not isinstance(raw, io.RawIOBase):
            out.write(text)
            return
        # Unbuffered (PYTHONUNBUFFERED): the text layer would drop what a
        # partial write leaves, so a closed pipe would go unseen.  Each
        # write of the rest raises once the reader is gone.
        data = memoryview(text.encode(out.encoding, out.errors))
        out.flush()
        while data:
            data = data[raw.write(data):]
        return
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise PreconditionError(f"cannot write output file: {exc}")


def _subset_str(system: CoxeterSystem, T) -> str:
    names = system.matrix.names
    return "{" + ",".join(names[s] for s in sorted(T)) + "}"


def cmd_info(args: argparse.Namespace) -> int:
    system = _load(args.group)
    verdict = "yes" if system.is_two_dimensional() else "no"
    k = k_constant(system)  # may exceed a cap, so before any output
    names = system.matrix.names
    print(f"generators: {' '.join(names)}")
    print("orders:")
    for i, nm in enumerate(names):
        row = " ".join(
            "inf" if system.matrix.orders[i][j] == INF
            else str(system.matrix.orders[i][j])
            for j in range(system.n))
        print(f"  {nm}: {row}")
    print(f"field degree: {system.field.degree}")
    print(f"2-dimensional: {verdict}; K = {k}")
    return EXIT_OK


def cmd_lang(args: argparse.Namespace) -> int:
    from .language import (canonical_word, chunk_decomposition,
                           is_in_standard_language)

    system = _load(args.group)
    word = system.parse_word(args.word)
    if args.sub == "check":
        verdict = is_in_standard_language(system, word)
        print(f"in language: {'true' if verdict else 'false'}")
        return EXIT_OK
    g = system.element(word)
    if args.sub == "word":
        print(system.word_str(canonical_word(g)))
        return EXIT_OK
    for chunk in chunk_decomposition(g):
        print(f"T={_subset_str(system, chunk.parabolic)}  "
              f"w={system.word_str(chunk.longest.nf)}  "
              f"remainder={system.word_str(chunk.remainder.nf)}")
    return EXIT_OK


def cmd_automaton(args: argparse.Namespace) -> int:
    from . import automaton as fsa

    system = _load(args.group)
    machine, report = fsa.build(system, max_states=args.max_states)
    mismatch = None
    scan = None
    if args.scan_len is not None:
        scan = fsa.equivalence_scan(machine, args.scan_len)
        mismatch = scan.first_mismatch
    if args.fmt == "json":
        _emit(fsa.to_json(machine), args)
    elif args.fmt == "dot":
        _emit(fsa.to_dot(machine), args)
    else:
        lines = [f"states: {report.state_count}",
                 f"transitions: {report.transition_count}",
                 f"max wall depth: {report.max_wall_depth}"]
        if scan is not None:
            if mismatch is None:
                lines.append(f"equivalent up to length {scan.max_len} "
                             f"({scan.words_checked} words)")
            else:
                lines.append(f"MISMATCH at word {system.word_str(mismatch)}")
        _emit("\n".join(lines) + "\n", args)
    return EXIT_OK if mismatch is None else EXIT_FINDING


def cmd_scan(args: argparse.Namespace) -> int:
    from .experiments import ft_scan, ft_text, ft_tsv

    system = _load(args.group)
    report = ft_scan(system, args.radius,
                     words="all" if args.all_words else "canonical",
                     max_words=args.max_words, max_ball=args.max_ball)
    render = ft_text if args.fmt == "text" else ft_tsv
    _emit(render(report, system), args)
    if report.bound_ok is False:
        return EXIT_FINDING
    return EXIT_OK


def cmd_prop(args: argparse.Namespace) -> int:
    from .experiments import prop_main_scan, prop_text, prop_tsv

    system = _load(args.group)
    report = prop_main_scan(system, args.radius, max_ball=args.max_ball)
    render = prop_text if args.fmt == "text" else prop_tsv
    _emit(render(report, system), args)
    return EXIT_OK if report.ok else EXIT_FINDING


def cmd_divergence(args: argparse.Namespace) -> int:
    from .experiments import divergence_scan, divergence_text, divergence_tsv

    radii = _parse_radii(args.radii)
    system = _load(args.group)
    table = divergence_scan(system, radii, max_ball=args.max_ball)
    render = divergence_text if args.fmt == "text" else divergence_tsv
    _emit(render(table, system), args)
    return EXIT_OK


def _parse_radii(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise PreconditionError(f"bad radii list {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxlang",
        description="Standard-language normal forms, automata, and "
                    "fellow-traveller scans for Coxeter groups.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("info", help="print group summary")
    p.add_argument("group")

    p = subs.add_parser("lang", help="standard-language queries")
    p.add_argument("group")
    p.add_argument("sub", choices=("check", "word", "chunks"))
    p.add_argument("word")

    p = subs.add_parser("automaton", help="build the recognizing automaton")
    p.add_argument("group")
    p.add_argument("--scan-len", type=int, default=None,
                   help="verify against membership up to this word length")
    p.add_argument("--max-states", type=int, default=10_000)
    p.add_argument("--format", default="text", choices=("text", "json", "dot"),
                   dest="fmt")
    p.add_argument("--output", default=None)

    p = subs.add_parser("scan", help="fellow-traveller scan over a ball")
    p.add_argument("group")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--all-words", action="store_true")
    p.add_argument("--max-words", type=int, default=DEFAULT_WORD_CAP,
                   help="cap on the prefix pairs of one --all-words pair")
    p.add_argument("--max-ball", type=int, default=DEFAULT_BALL_CAP)
    p.add_argument("--format", default="tsv", choices=("tsv", "text"),
                   dest="fmt")
    p.add_argument("--output", default=None)

    p = subs.add_parser("prop", help="residue witness scan over a ball")
    p.add_argument("group")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--max-ball", type=int, default=DEFAULT_BALL_CAP)
    p.add_argument("--format", default="text", choices=("tsv", "text"),
                   dest="fmt")
    p.add_argument("--output", default=None)

    p = subs.add_parser("divergence", help="divergence table over radii")
    p.add_argument("group")
    p.add_argument("--radii", required=True,
                   help="comma-separated strictly increasing radii")
    p.add_argument("--max-ball", type=int, default=DEFAULT_BALL_CAP)
    p.add_argument("--format", default="tsv", choices=("tsv", "text"),
                   dest="fmt")
    p.add_argument("--output", default=None)
    return parser


_HANDLERS = {
    "info": cmd_info,
    "lang": cmd_lang,
    "automaton": cmd_automaton,
    "scan": cmd_scan,
    "prop": cmd_prop,
    "divergence": cmd_divergence,
}


def main(argv=None) -> int:
    """Run one command and return its exit code, with stdout flushed."""
    try:
        code = _run(argv)
        sys.stdout.flush()
    except OSError as exc:
        # Group files and --output files report their own errors, so this
        # one is stdout's.  What stdout still holds would fail again when
        # the interpreter flushes it at exit, so it is sent to the null
        # device first.
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):
            pass  # a stdout with no file descriptor
        else:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, fd)
            os.close(null)
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        for cap in ("max_ball", "max_words", "max_states"):
            if getattr(args, cap, 0) < 0:
                raise PreconditionError(
                    f"--{cap.replace('_', '-')} must be at least 0")
        return _HANDLERS[args.command](args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InvariantViolation as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_FINDING
    except UnicodeEncodeError as exc:
        print(f"error: cannot encode output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CoxeterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> NoReturn:
    """Process entry point: run `main`, then end the process at once."""
    code = main()
    if sys.stderr is not None:
        try:
            sys.stderr.flush()
        except (OSError, ValueError):
            pass  # as the interpreter's own exit ignores it
    os._exit(code)


if __name__ == "__main__":
    run()
