"""Automaton construction, equivalence with membership, serialization."""

import json
import re

import pytest

from coxlang import (ParseError, ResourceLimitError, accepts, build,
                     canonical_word, equivalence_scan, from_json,
                     parse_system, to_dot, to_json)
from coxlang.automaton import wall_state_key
from coxlang.walls import inversion_walls, small_roots
from conftest import GROUPS, diagram, path_edges
from oracles import braid_closure

SHIPPED = sorted(path.name for path in GROUPS.glob("*.cox"))

# A~4: a 5-cycle of order-3 edges, every other pair commuting
A4TILDE = ("generators p q r s t\n"
           "m p q 3\nm q r 3\nm r s 3\nm s t 3\nm t p 3\n"
           "m p r 2\nm p s 2\nm q s 2\nm q t 2\nm r t 2\n")


@pytest.fixture(scope="module")
def machines(fig1, a3tilde, triangle, dinf, single):
    out = {}
    for name, system in (("fig1", fig1), ("a3tilde", a3tilde),
                         ("triangle", triangle), ("dinf", dinf),
                         ("single", single)):
        out[name] = (system,) + build(system)
    return out


def test_build_reports_frozen(machines):
    sizes = {name: (rep.state_count, rep.transition_count, rep.max_wall_depth)
             for name, (_, _, rep) in machines.items()}
    assert sizes["fig1"] == (25, 46, 5)
    assert sizes["triangle"] == (16, 33, 3)
    assert sizes["a3tilde"] == (125, 298, 5)
    assert sizes["dinf"] == (3, 4, 1)
    assert sizes["single"][:2] == (2, 1)
    for _, _, rep in machines.values():
        assert not rep.truncated


def test_build_is_deterministic(fig1):
    m1, r1 = build(fig1)
    m2, r2 = build(fig1)
    assert m1.states == m2.states
    assert r1 == r2
    assert [(t.source, t.parabolic, t.w0_word, t.target)
            for t in m1.transitions] == \
        [(t.source, t.parabolic, t.w0_word, t.target)
         for t in m2.transitions]


def test_transitions_deterministic_per_parabolic(machines):
    for _, machine, _ in machines.values():
        seen = set()
        for tr in machine.transitions:
            key = (tr.source, tr.parabolic)
            assert key not in seen
            seen.add(key)


def test_transition_labels_are_reduced_words(machines):
    for system, machine, _ in machines.values():
        for tr in machine.transitions:
            w0 = system.longest_element(set(tr.parabolic))
            assert tr.w0_word == w0.nf
            assert set(tr.labels) == braid_closure(system, w0.nf)
            assert tr.labels == tuple(sorted(tr.labels))


def test_start_state_is_empty(machines):
    for _, machine, _ in machines.values():
        assert machine.states[machine.start] == ()


def test_accepts_examples(machines):
    system, machine, _ = machines["fig1"]
    assert accepts(machine, "")
    assert accepts(machine, "strst")
    assert accepts(machine, "tsrsr")
    assert not accepts(machine, "strsr")
    assert not accepts(machine, "ss")
    assert not accepts(machine, "sts")
    assert accepts(machine, "e")  # the empty word, as word_str prints it
    with pytest.raises(ParseError):
        accepts(machine, "sx")


def test_equivalence_scans(machines):
    for name, max_len in (("fig1", 6), ("triangle", 6), ("dinf", 12),
                          ("a3tilde", 5), ("single", 6)):
        system, machine, _ = machines[name]
        report = equivalence_scan(machine, system, max_len)
        assert report.ok, f"{name}: mismatch at {report.first_mismatch}"
        assert report.words_checked == sum(
            system.n ** k for k in range(max_len + 1))


def test_canonical_runs_track_wall_states(machines, ball):
    system, machine, _ = machines["fig1"]
    by_parabolic = {}
    for tr in machine.transitions:
        by_parabolic[(tr.source, tr.parabolic)] = tr
    for g in ball(system, 6):
        from coxlang import chunk_decomposition
        state = machine.start
        consumed = system.identity
        for chunk in reversed(chunk_decomposition(g)):
            T = tuple(sorted(chunk.parabolic))
            tr = by_parabolic.get((state, T))
            assert tr is not None
            assert chunk.longest.nf in tr.labels
            state = tr.target
            consumed = consumed * chunk.longest
        assert consumed == g
        assert machine.states[state] == wall_state_key(system, g)


def test_json_round_trip(machines):
    system, machine, _ = machines["fig1"]
    text = to_json(machine)
    parsed = json.loads(text)
    assert parsed["generators"] == list(system.matrix.names)
    clone = from_json(text)
    assert clone.states == machine.states
    assert clone.start == machine.start
    for k in range(5):
        import itertools
        for word in itertools.product(range(system.n), repeat=k):
            assert accepts(clone, word) == accepts(machine, word)


@pytest.mark.parametrize("field,bad", [("labels", ["sx"]), ("w0", "x"),
                                       ("T", ["x"])])
def test_from_json_rejects_unknown_names(machines, field, bad):
    _, machine, _ = machines["fig1"]
    doc = json.loads(to_json(machine))
    doc["transitions"][0][field] = bad
    with pytest.raises(ParseError):
        from_json(json.dumps(doc))


def test_dot_export_shape(machines):
    _, machine, report = machines["fig1"]
    dot = to_dot(machine)
    assert dot.startswith("digraph")
    assert "doublecircle" in dot
    assert dot.count("->") == report.transition_count + 1


def test_dot_escapes_quotes_and_backslashes_in_names():
    machine, _ = build(parse_system('generators a"b c\\d\nm a"b c\\d 3\n'))
    dot = to_dot(machine)
    labels = [line.split('label="', 1)[1].rsplit('"];', 1)[0]
              for line in dot.splitlines() if 'label="' in line]
    assert len(labels) == dot.count("->") + len(machine.states)
    for label in labels:
        # every quote and backslash inside a label is escaped
        assert not re.search(r'["\\]', re.sub(r'\\["\\]', "", label)), label
    unescaped = {re.sub(r'\\(.)', r'\1', label) for label in labels}
    assert '{a"b,c\\d} : a"b c\\d a"b' in unescaped
    # depths count letters, not characters
    assert "3: 3 walls, depth 3" in unescaped


def test_build_output_does_not_depend_on_the_system_object():
    """Walls hash with their system, whose hash is its identity, so wall
    sets iterate in an order that differs between two parses of a group;
    no output may follow that order."""
    first, second = parse_system(A4TILDE), parse_system(A4TILDE)
    assert to_json(build(first)[0]) == to_json(build(second)[0])


def test_state_cap(fig1):
    with pytest.raises(ResourceLimitError) as exc:
        build(fig1, max_states=5)
    assert exc.value.report.truncated
    assert exc.value.report.state_count >= 5



@pytest.mark.parametrize("fname", ["a3tilde.cox", "triangle_237.cox"])
def test_build_forms_each_wall_image_once(monkeypatch, fname):
    """build tabulates the image of every small root under w0(T) once per
    spherical T, up front, and asks conjugate_wall nothing else."""
    from coxlang import automaton
    asked = []
    real = automaton.conjugate_wall
    monkeypatch.setattr(automaton, "conjugate_wall",
                        lambda g, wall: asked.append((g, wall)) or real(g, wall))
    system = parse_system((GROUPS / fname).read_text())
    build(system)
    assert len(asked) == len(set(asked)) == (
        len(system.spherical_subsets()) * len(small_roots(system)))


@pytest.mark.parametrize("fname", SHIPPED)
def test_state_walls_are_small_roots(fname):
    """Every wall of every state, the walls of each <T> among them, is a
    small root."""
    system = parse_system((GROUPS / fname).read_text())
    small = small_roots(system)
    fsa, _ = build(system)
    assert set().union(*fsa.states) <= {
        system.word_str(w.reflection.nf) for w in small}
    for T in system.spherical_subsets():
        assert set(inversion_walls(system.longest_element(T))) <= small


@pytest.mark.parametrize("rank,edges,count", [
    # affine Weyl groups: the (h+1)^r regions of the Shi arrangement
    (3, {(0, 1): 3, (1, 2): 3, (0, 2): 3}, 16),                   # A~2
    (3, path_edges([4, 4]), 25),                                  # C~2
    (3, path_edges([6, 3]), 49),                                  # G~2
    (4, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (0, 3): 3}, 125),       # A~3
    (4, {(0, 2): 3, (1, 2): 3, (2, 3): 4}, 343),                  # B~3
    (4, path_edges([4, 3, 4]), 343),                              # C~3
    (5, {**path_edges([3, 3, 3, 3]), (0, 4): 3}, 1296),           # A~4
    # finite groups: every positive root is small, so one state per element
    (3, path_edges([3, 3]), 24),                                  # A3
    (3, path_edges([3, 4]), 48),                                  # B3
    (3, path_edges([5, 3]), 120),                                 # H3
    (4, path_edges([3, 3, 3]), 120),                              # A4
    (4, {(0, 1): 3, (0, 2): 3, (0, 3): 3}, 192),                  # D4
    (4, path_edges([3, 3, 4]), 384),                              # B4
], ids=["A~2", "C~2", "G~2", "A~3", "B~3", "C~3", "A~4",
        "A3", "B3", "H3", "A4", "D4", "B4"])
def test_state_count_closed_forms(rank, edges, count):
    """On an affine Weyl group of rank r and Coxeter number h, the states
    are the (h+1)^r regions of the Shi arrangement (Shi 1987); on a finite
    group they are the |W| elements."""
    assert build(diagram(rank, edges))[1].state_count == count
