"""The residue automaton recognizing the standard language.

States are finite wall sets pulled back to the identity: reading a prefix
of a language word leaves the machine in the state g^-1·W(g), where g is
the element spelled so far, and each such wall is a small root.  A
transition consumes one whole chunk: any reduced word of the longest
element of a finite parabolic T, which is any maximal chain of the weak
order of W_T read from the identity (`reduced_words`).  It is allowed
precisely when no generator wall of T, and no far-side image of an
outside generator wall, is blocked by the current set.  All states
accept; the start state is the empty set.

The state space is discovered by breadth-first closure rather than given a
priori, so construction needs no global constants, and a scan against the
membership predicate certifies the result at word-length scale.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .core import CoxeterSystem, Element, Word, parse_word, word_str
from .errors import PreconditionError, ResourceLimitError
from .language import is_in_standard_language, reduced_words
from .walls import (Wall, conjugate_wall, inversion_walls, pulled_wall_set,
                    small_roots, wall_of_generator)

MAX_SCAN_WORDS = 10**6


class Transition(NamedTuple):
    source: int
    parabolic: tuple[int, ...]
    w0_word: Word
    labels: tuple[Word, ...]
    target: int


class ResidueFsa(NamedTuple):
    generators: tuple[str, ...]
    states: tuple[tuple[str, ...], ...]
    transitions: tuple[Transition, ...]
    start: int


class BuildReport(NamedTuple):
    state_count: int
    transition_count: int
    max_wall_depth: int
    truncated: bool


class EquivalenceReport(NamedTuple):
    max_len: int
    words_checked: int
    first_mismatch: Word | None

    @property
    def ok(self) -> bool:
        return self.first_mismatch is None


def _render(system: CoxeterSystem, states):
    """Each wall set as its reflection words, shortest first, then
    lexicographically, and the longest word's length.  Each distinct wall
    forms its reflection once."""
    words = {w: w.reflection.nf for w in frozenset().union(*states)}
    keys = [sorted((words[w] for w in st), key=lambda u: (len(u), u))
            for st in states]
    depth = max((len(key[-1]) for key in keys if key), default=0)
    return tuple(tuple(system.word_str(u) for u in key) for key in keys), depth


def wall_state_key(system: CoxeterSystem, g: Element) -> tuple[str, ...]:
    """The state reached after spelling g: its wall set pulled back by g,
    which is the small inversion walls of g^-1."""
    return _render(system, [pulled_wall_set(g)])[0][0]


def build(system: CoxeterSystem,
          max_states: int = 10_000) -> tuple[ResidueFsa, BuildReport]:
    """Breadth-first state discovery from the empty wall set."""
    subsets = system.spherical_subsets()
    small = small_roots(system)
    chunk = {}
    for T in subsets:
        w0 = system.longest_element(T)
        # w0 permutes the generator walls of T, and takes each outside
        # generator wall to its far-side image.  State walls are small.
        images = {a: conjugate_wall(w0, a) for a in small}
        blocked = {images[wall_of_generator(system, t)] for t in range(system.n)}
        images = {a: b for a, b in images.items() if b in small}
        labels = reduced_words(system, T)
        chunk[T] = (w0, blocked, labels, frozenset(inversion_walls(w0)), images)

    start: frozenset[Wall] = frozenset()
    states = [start]
    index = {start: 0}
    transitions = []
    pos = 0
    while pos < len(states):
        walls = states[pos]
        for T in subsets:
            w0, blocked, labels, rwalls, images = chunk[T]
            if not walls.isdisjoint(blocked):
                continue
            target_walls = rwalls.union(images[a] for a in images.keys() & walls)
            target = index.get(target_walls)
            if target is None:
                target = len(states)
                if target >= max_states:
                    report = BuildReport(len(states), len(transitions),
                                         _render(system, states)[1],
                                         truncated=True)
                    err = ResourceLimitError(
                        f"automaton build exceeded {max_states} states")
                    err.report = report
                    raise err
                index[target_walls] = target
                states.append(target_walls)
            transitions.append(Transition(pos, T, w0.nf, labels, target))
        pos += 1

    state_strings, depth = _render(system, states)
    fsa = ResidueFsa(system.matrix.names, state_strings, tuple(transitions), 0)
    report = BuildReport(len(states), len(transitions), depth, truncated=False)
    return fsa, report


def _runner(fsa: ResidueFsa):
    """Acceptance by set-of-runs matching over whole-chunk labels.

    The by-source index and the label sets are built once, so one runner
    serves any number of words.
    """
    by_source = {}
    for tr in fsa.transitions:
        by_source.setdefault(tr.source, []).append(
            (len(tr.w0_word), frozenset(tr.labels), tr.target))

    def run(word: Word) -> bool:
        n = len(word)
        active = [set() for _ in range(n + 1)]
        active[0].add(fsa.start)
        for i in range(n):
            for state in active[i]:
                for k, labels, target in by_source.get(state, ()):
                    if i + k <= n and word[i:i + k] in labels:
                        active[i + k].add(target)
        return bool(active[n])

    return run


def accepts(fsa: ResidueFsa, word) -> bool:
    """Whether the automaton accepts a word (indices or a string)."""
    if isinstance(word, str):
        word = parse_word(fsa.generators, word)
    return _runner(fsa)(tuple(word))


def equivalence_scan(fsa: ResidueFsa, system: CoxeterSystem,
                     max_len: int) -> EquivalenceReport:
    """Compare automaton acceptance with the membership predicate on
    every word of length <= max_len.

    Raises ResourceLimitError before scanning when there are more than
    MAX_SCAN_WORDS such words.
    """
    if max_len < 0:
        raise PreconditionError("scan length must be nonnegative")
    n = system.n
    # Over n >= 2 letters length 20 alone passes the cap; count to 64 at most.
    short = min(max_len, 64)
    words = (n ** (short + 1) - 1) // (n - 1) if n > 1 else max_len + 1
    if words > MAX_SCAN_WORDS:
        more = "more than " if n > 1 and short < max_len else ""
        raise ResourceLimitError(
            f"scan to length {max_len} would check {more}{words} words, "
            f"over the cap MAX_SCAN_WORDS = {MAX_SCAN_WORDS}")
    run = _runner(fsa)
    checked = 0
    for length in range(max_len + 1):
        for word in itertools.product(range(system.n), repeat=length):
            checked += 1
            if run(word) != is_in_standard_language(system, word):
                return EquivalenceReport(max_len, checked, word)
    return EquivalenceReport(max_len, checked, None)


# ----- export ---------------------------------------------------------------


def to_json(fsa: ResidueFsa) -> str:
    import json

    names = fsa.generators
    doc = {
        "generators": list(names),
        "states": [list(st) for st in fsa.states],
        "transitions": [
            {
                "from": tr.source,
                "T": [names[t] for t in tr.parabolic],
                "w0": word_str(names, tr.w0_word),
                "labels": [word_str(names, w) for w in tr.labels],
                "to": tr.target,
            }
            for tr in fsa.transitions
        ],
        "start": fsa.start,
    }
    return json.dumps(doc, indent=2) + "\n"


def from_json(text: str) -> ResidueFsa:
    import json

    doc = json.loads(text)
    names = tuple(doc["generators"])
    transitions = tuple(
        Transition(
            tr["from"],
            parse_word(names, " ".join(tr["T"])),
            parse_word(names, tr["w0"]),
            tuple(parse_word(names, w) for w in tr["labels"]),
            tr["to"],
        )
        for tr in doc["transitions"]
    )
    states = tuple(tuple(st) for st in doc["states"])
    return ResidueFsa(names, states, transitions, doc["start"])


def _dot_label(text: str) -> str:
    """A DOT label attribute, with backslash and double quote escaped."""
    return 'label="' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(fsa: ResidueFsa) -> str:
    names = fsa.generators
    lines = ["digraph standard_language {", "  rankdir=LR;",
             "  node [shape=doublecircle];",
             '  __start [shape=none, label=""];',
             f"  __start -> q{fsa.start};"]
    for i, st in enumerate(fsa.states):
        depth = max((len(parse_word(names, w)) for w in st), default=0)
        label = _dot_label(f"{i}: {len(st)} walls, depth {depth}")
        lines.append(f"  q{i} [{label}];")
    for tr in fsa.transitions:
        tnames = ",".join(names[t] for t in tr.parabolic)
        label = _dot_label(f"{{{tnames}}} : {word_str(names, tr.w0_word)}")
        lines.append(f"  q{tr.source} -> q{tr.target} [{label}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
