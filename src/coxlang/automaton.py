"""The residue automaton recognizing the standard language.

States are finite wall sets pulled back to the identity: reading a prefix
of a language word leaves the machine in the state g^-1·W(g), where g is
the element spelled so far, and each such wall is a small root.  A
transition keeps only a finite parabolic T and consumes one whole chunk:
any word of l(w0(T)) letters that spells w0(T), the longest element of T.
It is allowed precisely when the current set holds no generator wall of
T and no far-side image of an outside generator wall: the right side of
the append lemma (`check_append_lemma`).  All states accept; the start
state is the empty set.

The state space is discovered by breadth-first closure rather than given a
priori, so construction needs no global constants.  `equivalence_scan`
certifies the result up to a word length by its chunk paths: every
element has exactly one chunk decomposition, so when no two transitions
leave a state on the same T, each accepted path is the chunk
decomposition of the element it spells, and the paths of each length are
as many as the elements of that length, the automaton accepts exactly the
language words of that length (the chunk-Garside-shadow picture of Hohlweg,
Nadeau & Williams, J. Algebra 2016).  The cost grows with the ball; only
when the certificate fails is each word run through the automaton and
the membership predicate, to name the first mismatch.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .core import CoxeterSystem, Element, Word
from .errors import ParseError, PreconditionError, ResourceLimitError
from .language import descent_data, is_in_standard_language, reduced_words
from .walls import (Wall, conjugate_wall, inversion_walls, pulled_wall_set,
                    small_roots, wall_of_generator)

MAX_SCAN_WORDS = 10**6


class Transition(NamedTuple):
    source: int
    parabolic: tuple[int, ...]
    target: int


class ResidueFsa(NamedTuple):
    system: CoxeterSystem
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
    forms its reflection and its string once: distinct walls have
    distinct reflections, so a sort never compares two strings."""
    words = {}
    for w in frozenset().union(*states):
        u = w.reflection.nf
        words[w] = len(u), u, system.word_str(u)
    keys = [sorted(words[w] for w in st) for st in states]
    depth = max((key[-1][0] for key in keys if key), default=0)
    return tuple(tuple(text for _, _, text in key) for key in keys), depth


def wall_state_key(system: CoxeterSystem, g: Element) -> tuple[str, ...]:
    """The state reached after spelling g: its wall set pulled back by g,
    which is the small inversion walls of g^-1."""
    return _render(system, [pulled_wall_set(g)])[0][0]


def _chunk_walls(system: CoxeterSystem, T) -> tuple:
    """For a spherical T, kept on the system: the walls that block a T
    transition, which are the images of the generator walls under w0(T);
    the walls of <T>; and the small roots' images under w0(T) that are
    small, since state walls are small."""
    T = frozenset(T)
    table = system._chunk_walls.get(T)
    if table is None:
        w0, small = system.longest_element(T), small_roots(system)
        images = {a: conjugate_wall(w0, a) for a in small}
        blocked = frozenset(images[wall_of_generator(system, t)]
                            for t in range(system.n))
        table = system._chunk_walls[T] = (
            blocked, frozenset(inversion_walls(w0)),
            {a: b for a, b in images.items() if b in small})
    return table


def check_append_lemma(g: Element, T) -> tuple[bool, bool]:
    """Both sides of the descent-set append criterion, for a spherical T:
    g·w0(T) has descent set exactly T, and g's state, its pulled-back wall
    set, holds no wall that blocks a T transition.  The lemma is that the
    two agree."""
    system = g.system
    h = system.mul_word(g, system.longest_element(T).nf)
    return (descent_data(h)[0] == frozenset(T),
            pulled_wall_set(g).isdisjoint(_chunk_walls(system, T)[0]))


def build(system: CoxeterSystem,
          max_states: int = 10_000) -> tuple[ResidueFsa, BuildReport]:
    """Breadth-first state discovery from the empty wall set."""
    chunks = [(T, *_chunk_walls(system, T))
              for T in system.spherical_subsets()]
    start: frozenset[Wall] = frozenset()
    states = [start]
    index = {start: 0}
    transitions = []
    pos = 0
    while pos < len(states):
        walls = states[pos]
        for T, blocked, rwalls, images in chunks:
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
            transitions.append(Transition(pos, T, target))
        pos += 1

    state_strings, depth = _render(system, states)
    fsa = ResidueFsa(system, state_strings, tuple(transitions), 0)
    report = BuildReport(len(states), len(transitions), depth, truncated=False)
    return fsa, report


def _runner(fsa: ResidueFsa):
    """Acceptance by set-of-runs matching over whole chunks.

    A T transition reads the next l(w0(T)) letters when they spell w0(T):
    a word of that length spelling w0(T) is one of its reduced words.  The
    by-source index is built once, so one runner serves any number of
    words.
    """
    system = fsa.system
    by_source = {}
    for tr in fsa.transitions:
        w0 = system.longest_element(tr.parabolic)
        by_source.setdefault(tr.source, []).append((w0.length, w0, tr.target))

    def run(word: Word) -> bool:
        n = len(word)
        active = [set() for _ in range(n + 1)]
        active[0].add(fsa.start)
        for i in range(n):
            for state in active[i]:
                for k, w0, target in by_source.get(state, ()):
                    if i + k <= n and system.mul_word(
                            system.identity, word[i:i + k]) is w0:
                        active[i + k].add(target)
        return bool(active[n])

    return run


def accepts(fsa: ResidueFsa, word) -> bool:
    """Whether the automaton accepts a word (indices or a string); an
    unknown name or a letter out of range raises."""
    if isinstance(word, str):
        word = fsa.system.parse_word(word)
    fsa.system.element(word)  # checks every letter
    return _runner(fsa)(tuple(word))


def _certified(fsa: ResidueFsa, max_len: int, max_elements: int) -> bool:
    """Whether the chunk paths of the automaton certify that it accepts
    exactly the language words of length <= max_len.

    1. Each transition's T is spherical, and no other transition leaves
       its source on the same T.
    2. Each accepted chunk path from the start, of total length <=
       max_len, spells g_0 = 1, g_1, ..., with T(g_i) == T_i, the append
       lemma's left side, so g_i's descent data is (T_i, w0(T_i), g_{i-1})
       at every step: the path is the chunk decomposition of its last
       element, and that element's length is the path's length.
    3. The paths of each length are as many as the elements of that
       length in the ball.

    By 1 and 2 every accepted word spells its element chunk by chunk, so
    it is a language word.  An element has one chunk decomposition, and
    by 1 one sequence of T's from the start is one path, so no two paths
    end at one element; by 3 every element of length <= max_len then ends
    a path, and every language word of it, a product of reduced words of
    its chunks, is accepted.  The walk shares prefixes and makes one chunk
    step per ball element, not one run per word.
    """
    system = fsa.system
    spherical = set(system.spherical_subsets())
    by_source = {}
    for tr in fsa.transitions:
        T = tr.parabolic
        if T not in spherical:
            return False
        steps = by_source.setdefault(tr.source, {})
        if frozenset(T) in steps:
            return False
        steps[frozenset(T)] = (system.longest_element(T), tr.target)

    spheres = [0] * (max_len + 1)
    for g in system.ball(max_len, max_elements):
        spheres[len(g.nf)] += 1
    paths = [0] * (max_len + 1)
    stack = [(fsa.start, system.identity, 0)]
    while stack:
        state, g, length = stack.pop()
        paths[length] += 1
        for T, (w0, target) in by_source.get(state, {}).items():
            if length + w0.length <= max_len:
                h = system.mul_word(g, w0.nf)
                if descent_data(h)[0] != T:
                    return False
                stack.append((target, h, length + w0.length))
    return paths == spheres


def _word_scan(fsa: ResidueFsa, max_len: int) -> EquivalenceReport:
    """Run the automaton and the membership predicate on each word of
    length <= max_len, in length and then lex order, to the first
    disagreement."""
    system, run = fsa.system, _runner(fsa)
    checked = 0
    for length in range(max_len + 1):
        for word in itertools.product(range(system.n), repeat=length):
            checked += 1
            if run(word) != is_in_standard_language(system, word):
                return EquivalenceReport(max_len, checked, word)
    return EquivalenceReport(max_len, checked, None)


def equivalence_scan(fsa: ResidueFsa, max_len: int) -> EquivalenceReport:
    """Whether the automaton accepts exactly the language words among the
    words of length <= max_len.

    The chunk-path certificate (`_certified`) settles it when it passes,
    checking no word on its own; otherwise each word is run through the
    automaton and the membership predicate, which names the first word
    they disagree on.  Either way the report counts every word.  More
    than MAX_SCAN_WORDS such words raise ResourceLimitError first.
    """
    if max_len < 0:
        raise PreconditionError("scan length must be nonnegative")
    n = fsa.system.n
    # Over n >= 2 letters length 20 alone passes the cap; count to 64 at most.
    short = min(max_len, 64)
    words = (n ** (short + 1) - 1) // (n - 1) if n > 1 else max_len + 1
    if words > MAX_SCAN_WORDS:
        more = "more than " if n > 1 and short < max_len else ""
        raise ResourceLimitError(
            f"scan to length {max_len} would check {more}{words} words, "
            f"over the cap MAX_SCAN_WORDS = {MAX_SCAN_WORDS}")
    if _certified(fsa, max_len, words):
        return EquivalenceReport(max_len, words, None)
    return _word_scan(fsa, max_len)


# ----- export ---------------------------------------------------------------


def to_json(fsa: ResidueFsa) -> str:
    """The machine as a JSON document: its generators, its states as
    lists of reflection words, its start, and each transition with T,
    nf(w0(T)) and `reduced_words(system, T)`, which may raise
    ResourceLimitError."""
    import json

    system = fsa.system
    names = system.matrix.names
    doc = {
        "generators": list(names),
        "states": [list(st) for st in fsa.states],
        "transitions": [
            {"from": tr.source,
             "T": [names[t] for t in tr.parabolic],
             "w0": system.word_str(system.longest_element(tr.parabolic).nf),
             "labels": [system.word_str(w)
                        for w in reduced_words(system, tr.parabolic)],
             "to": tr.target}
            for tr in fsa.transitions],
        "start": fsa.start,
    }
    return json.dumps(doc, indent=2) + "\n"


def from_json(text: str, system: CoxeterSystem) -> ResidueFsa:
    """The machine `to_json` wrote for `system`.  Raises ParseError unless
    `to_json` writes the loaded machine back as the same document, each
    state word parses, `start` and each `from` and `to` is an int that
    indexes a state (JSON's `true` equals 1), and each T is spherical as
    `spherical_subsets` lists it (an unsorted or repeated T would be
    written back as it came)."""
    import json

    try:
        doc = json.loads(text)
        states = tuple(tuple(st) for st in doc["states"])
        for st in states:
            for w in st:
                system.parse_word(w)
        fsa = ResidueFsa(system, states, tuple(
            Transition(tr["from"], system.parse_word(" ".join(tr["T"])),
                       tr["to"])
            for tr in doc["transitions"]), doc["start"])
    except (ValueError, TypeError, KeyError, AttributeError,
            RecursionError) as exc:
        raise ParseError(f"not a machine to_json writes: {exc!r}")
    indices = [fsa.start, *(i for tr in fsa.transitions
                            for i in (tr.source, tr.target))]
    if not all(type(i) is int and 0 <= i < len(states) for i in indices):
        raise ParseError("a start, from or to is not a state index")
    spherical = set(system.spherical_subsets())
    if not all(tr.parabolic in spherical for tr in fsa.transitions):
        raise ParseError("a transition's T is not a spherical subset")
    if json.loads(to_json(fsa)) != doc:
        raise ParseError("to_json writes the machine otherwise")
    return fsa


def _dot_label(text: str) -> str:
    """A DOT label attribute, with backslash and double quote escaped."""
    return 'label="' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(fsa: ResidueFsa) -> str:
    system = fsa.system
    names = system.matrix.names
    lines = ["digraph standard_language {", "  rankdir=LR;",
             "  node [shape=doublecircle];",
             '  __start [shape=none, label=""];',
             f"  __start -> q{fsa.start};"]
    for i, st in enumerate(fsa.states):
        depth = max((len(system.parse_word(w)) for w in st), default=0)
        label = _dot_label(f"{i}: {len(st)} walls, depth {depth}")
        lines.append(f"  q{i} [{label}];")
    for tr in fsa.transitions:
        tnames = ",".join(names[t] for t in tr.parabolic)
        w0 = system.longest_element(tr.parabolic)
        label = _dot_label(f"{{{tnames}}} : {system.word_str(w0.nf)}")
        lines.append(f"  q{tr.source} -> q{tr.target} [{label}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
