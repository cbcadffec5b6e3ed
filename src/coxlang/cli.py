"""Command-line surface. All runs are deterministic given file and flags.

Exit codes: 0 clean, 1 an asserted invariant failed (equivalence mismatch,
5K bound violation, missing residue witness), 2 usage or parse problems
(an unreadable group file, an unwritable output file, output that
stdout's encoding cannot hold, and a stdout that cannot be written
included), 3 a resource cap was hit.  Output files are written in UTF-8,
as group files are read.

Each subcommand is declared once, with its handler, in `_build_parser`.
`_run` loads the group and calls the handler, which returns its whole
output and exit code, then writes that text once, through `_emit`, to
stdout or the `--output` file: a command that raises has written nothing.

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
        raise ParseError(f"cannot read group file: {exc}")
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


def _lines(lines) -> str:
    return "".join(line + "\n" for line in lines)


def _subset_str(system: CoxeterSystem, T) -> str:
    names = system.matrix.names
    return "{" + ",".join(names[s] for s in sorted(T)) + "}"


def cmd_info(args, system: CoxeterSystem) -> tuple[str, int]:
    verdict = "yes" if system.is_two_dimensional() else "no"
    k, names = k_constant(system), system.matrix.names
    rows = (" ".join("inf" if m == INF else str(m) for m in row)
            for row in system.matrix.orders)
    return _lines([f"generators: {' '.join(names)}", "orders:",
                   *(f"  {nm}: {row}" for nm, row in zip(names, rows)),
                   f"field degree: {system.field.degree}",
                   f"2-dimensional: {verdict}; K = {k}"]), EXIT_OK


def cmd_lang(args, system: CoxeterSystem) -> tuple[str, int]:
    from .language import (canonical_word, chunk_decomposition,
                           is_in_standard_language)

    word = system.parse_word(args.word)
    if args.sub == "check":
        verdict = "true" if is_in_standard_language(system, word) else "false"
        return _lines([f"in language: {verdict}"]), EXIT_OK
    g = system.element(word)
    if args.sub == "word":
        return _lines([system.word_str(canonical_word(g))]), EXIT_OK
    return _lines(f"T={_subset_str(system, chunk.parabolic)}  "
                  f"w={system.word_str(chunk.longest.nf)}  "
                  f"remainder={system.word_str(chunk.remainder.nf)}"
                  for chunk in chunk_decomposition(g)), EXIT_OK


def cmd_automaton(args, system: CoxeterSystem) -> tuple[str, int]:
    from . import automaton as fsa

    machine, report = fsa.build(system, max_states=args.max_states)
    scan = None
    if args.scan_len is not None:
        scan = fsa.equivalence_scan(machine, args.scan_len)
    code = EXIT_OK if scan is None or scan.ok else EXIT_FINDING
    if args.fmt == "json":
        return fsa.to_json(machine), code
    if args.fmt == "dot":
        return fsa.to_dot(machine), code
    lines = [f"states: {report.state_count}",
             f"transitions: {report.transition_count}",
             f"max wall depth: {report.max_wall_depth}"]
    if scan is not None and scan.ok:
        lines.append(f"equivalent up to length {scan.max_len} "
                     f"({scan.words_checked} words)")
    elif scan is not None:
        word = system.word_str(scan.first_mismatch)
        lines.append(f"MISMATCH at word {word}")
    return _lines(lines), code


def cmd_scan(args, system: CoxeterSystem) -> tuple[str, int]:
    from .experiments import ft_scan, ft_text, ft_tsv

    report = ft_scan(system, args.radius,
                     words="all" if args.all_words else "canonical",
                     max_words=args.max_words, max_ball=args.max_ball)
    render = ft_text if args.fmt == "text" else ft_tsv
    return (render(report, system),
            EXIT_FINDING if report.bound_ok is False else EXIT_OK)


def cmd_prop(args, system: CoxeterSystem) -> tuple[str, int]:
    from .experiments import prop_main_scan, prop_text, prop_tsv

    report = prop_main_scan(system, args.radius, max_ball=args.max_ball)
    render = prop_text if args.fmt == "text" else prop_tsv
    return render(report, system), EXIT_OK if report.ok else EXIT_FINDING


def cmd_divergence(args, system: CoxeterSystem) -> tuple[str, int]:
    from .experiments import divergence_scan, divergence_text, divergence_tsv

    try:
        radii = tuple(int(part) for part in args.radii.split(","))
    except ValueError:
        raise PreconditionError(f"bad radii list {args.radii!r}")
    table = divergence_scan(system, radii, max_ball=args.max_ball)
    render = divergence_text if args.fmt == "text" else divergence_tsv
    return render(table, system), EXIT_OK


def _option(*flags, **keywords):
    return flags, keywords


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxlang",
        description="Standard-language normal forms, automata, and "
                    "fellow-traveller scans for Coxeter groups.")
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, *options, formats=(), default=None):
        """Add subcommand `name` with its handler: the group file, then
        `options`, then, when it has `formats`, --format (`default`, else
        the first) and --output.  Without them `output` is None, so
        `_emit` writes to stdout."""
        p = subs.add_parser(name, help=help)
        p.set_defaults(handler=handler, output=None)
        p.add_argument("group")
        for flags, keywords in options:
            p.add_argument(*flags, **keywords)
        if formats:
            p.add_argument("--format", default=default or formats[0],
                           choices=formats, dest="fmt")
            p.add_argument("--output")

    radius = _option("--radius", type=int, required=True)
    max_ball = _option("--max-ball", type=int, default=DEFAULT_BALL_CAP)
    command("info", cmd_info, "print group summary")
    command("lang", cmd_lang, "standard-language queries",
            _option("sub", choices=("check", "word", "chunks")),
            _option("word"))
    command("automaton", cmd_automaton, "build the recognizing automaton",
            _option("--scan-len", type=int,
                    help="verify against membership up to this word length"),
            _option("--max-states", type=int, default=10_000),
            formats=("text", "json", "dot"))
    command("scan", cmd_scan, "fellow-traveller scan over a ball",
            radius, _option("--all-words", action="store_true"),
            _option("--max-words", type=int, default=DEFAULT_WORD_CAP,
                    help="cap on the prefix pairs of one --all-words pair"),
            max_ball, formats=("tsv", "text"))
    command("prop", cmd_prop, "residue witness scan over a ball",
            radius, max_ball, formats=("tsv", "text"), default="text")
    command("divergence", cmd_divergence, "divergence table over radii",
            _option("--radii", required=True,
                    help="comma-separated strictly increasing radii"),
            max_ball, formats=("tsv", "text"))
    return parser


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
        text, code = args.handler(args, _load(args.group))
        _emit(text, args)
        return code
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
