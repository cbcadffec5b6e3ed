"""Automaton construction, equivalence with membership, serialization."""

import json
import re

import pytest

from coxlang import (ParseError, PreconditionError, ResourceLimitError,
                     accepts, build, canonical_word, check_append_lemma,
                     equivalence_scan, from_json, parse_system, to_dot,
                     to_json)
from coxlang import automaton
from coxlang.automaton import _certified, _word_scan, wall_state_key
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
    assert m1.transitions == m2.transitions


def test_transitions_deterministic_per_parabolic(machines):
    for _, machine, _ in machines.values():
        seen = set()
        for tr in machine.transitions:
            key = (tr.source, tr.parabolic)
            assert key not in seen
            seen.add(key)


def test_transition_labels_are_reduced_words(machines):
    """`to_json` writes each transition with nf(w0(T)) and every reduced
    word of w0(T) once, sorted, as the braid-move closure finds them."""
    for system, machine, _ in machines.values():
        written = json.loads(to_json(machine))["transitions"]
        for tr, doc in zip(machine.transitions, written):
            w0 = system.longest_element(tr.parabolic)
            assert system.parse_word(doc["w0"]) == w0.nf
            labels = [system.parse_word(w) for w in doc["labels"]]
            assert set(labels) == braid_closure(system, w0.nf)
            assert labels == sorted(set(labels))


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
    # a letter out of range raises wherever it stands, even after a
    # prefix that no run survives
    for word in ((3,), (0, 0, 3)):
        with pytest.raises(PreconditionError):
            accepts(machine, word)


def test_equivalence_scans(machines):
    for name, max_len in (("fig1", 6), ("triangle", 6), ("dinf", 12),
                          ("a3tilde", 5), ("single", 6)):
        system, machine, _ = machines[name]
        report = equivalence_scan(machine, max_len)
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
            assert system.longest_element(tr.parabolic) is chunk.longest
            state = tr.target
            consumed = consumed * chunk.longest
        assert consumed == g
        assert machine.states[state] == wall_state_key(system, g)


def test_json_round_trip(machines):
    """`from_json(to_json(m), system)` gives m back, its states,
    transitions and system, on every group file and A~4."""
    system, machine, _ = machines["fig1"]
    parsed = json.loads(to_json(machine))
    assert parsed["generators"] == list(system.matrix.names)
    for text in [*((GROUPS / f).read_text() for f in SHIPPED), A4TILDE]:
        system = parse_system(text)
        machine, _ = build(system)
        assert from_json(to_json(machine), system) == machine


@pytest.mark.parametrize("field,bad", [("labels", ["sx"]), ("w0", "x"),
                                       ("T", ["x"])])
def test_from_json_rejects_unknown_names(machines, field, bad):
    _, machine, _ = machines["fig1"]
    doc = json.loads(to_json(machine))
    doc["transitions"][0][field] = bad
    with pytest.raises(ParseError):
        from_json(json.dumps(doc), machine.system)


def test_from_json_rejects_other_generators(machines):
    """A machine loads only into a system with its generators, in order."""
    system, machine, _ = machines["fig1"]
    doc = json.loads(to_json(machine))
    for names in (["t", "s", "r"], ["s", "t"], ["s", "t", "r", "u"]):
        doc["generators"] = names
        with pytest.raises(ParseError):
            from_json(json.dumps(doc), system)
    with pytest.raises(ParseError):
        from_json(to_json(machine), machines["triangle"][0])


def _two_letter(doc):
    """The first transition on a two-letter T: fig1's {s, t}, labels st
    and ts."""
    return next(tr for tr in doc["transitions"] if len(tr["T"]) == 2)


# Each refused document differs from one `to_json` wrote in one place.
_NOT_WRITTEN = {
    "to-999": lambda doc: doc["transitions"][0].update(to=999),
    "from-negative": lambda doc: doc["transitions"][0].update({"from": -1}),
    "to-true": lambda doc: doc["transitions"][0].update(to=True),
    "to-float": lambda doc: doc["transitions"][0].update(to=1.0),
    "start-77": lambda doc: doc.update(start=77),
    "start-negative": lambda doc: doc.update(start=-1),
    "start-float": lambda doc: doc.update(start=0.0),
    "start-false": lambda doc: doc.update(start=False),
    "start-string": lambda doc: doc.update(start="0"),
    "missing-start": lambda doc: doc.pop("start"),
    "extra-key": lambda doc: doc.update(final=[0]),
    "missing-to": lambda doc: doc["transitions"][0].pop("to"),
    "extra-transition-key": lambda doc: doc["transitions"][0].update(x=1),
    "transition-list": lambda doc: doc["transitions"].append([0, ["s"], 1]),
    "transition-null": lambda doc: doc["transitions"].__setitem__(0, None),
    "T-string": lambda doc: doc["transitions"][0].update(T="s"),
    "T-unsorted": lambda doc: _two_letter(doc)["T"].reverse(),
    "T-empty": lambda doc: _two_letter(doc).update(T=[]),
    "T-repeated": lambda doc: _two_letter(doc).update(T=["s", "s"]),
    "T-of-ints": lambda doc: _two_letter(doc).update(T=[0, 1]),
    "labels-reordered": lambda doc: _two_letter(doc)["labels"].reverse(),
    "w0-other-word": lambda doc: _two_letter(doc).update(w0="ts"),
    "transitions-object": lambda doc: doc.update(transitions={}),
    "states-object": lambda doc: doc.update(
        states=dict(enumerate(doc["states"]))),
    "states-null": lambda doc: doc.update(states=None),
    "state-string": lambda doc: doc["states"].__setitem__(1, "s"),
    "state-of-ints": lambda doc: doc["states"].__setitem__(1, [0]),
    "state-nested": lambda doc: doc["states"].__setitem__(1, [["s"]]),
    "state-unknown-name": lambda doc: doc["states"].__setitem__(1, ["x"]),
    "generators-string": lambda doc: doc.update(generators="str"),
}

# `to_json` writes these machines too; whether such a machine is the
# language's is for `equivalence_scan` to judge, not the loader.
_STILL_WRITTEN = {
    "transition-duplicated": lambda doc: doc["transitions"].append(
        dict(doc["transitions"][0])),
    "transition-dropped": lambda doc: doc["transitions"].pop(),
}


@pytest.mark.parametrize("mutate", _NOT_WRITTEN.values(), ids=_NOT_WRITTEN)
def test_from_json_refuses_what_to_json_cannot_write(machines, mutate):
    _, machine, _ = machines["fig1"]
    doc = json.loads(to_json(machine))
    mutate(doc)
    with pytest.raises(ParseError):
        from_json(json.dumps(doc), machine.system)


@pytest.mark.parametrize("mutate", _STILL_WRITTEN.values(),
                         ids=_STILL_WRITTEN)
def test_from_json_loads_what_to_json_can_write(machines, mutate):
    _, machine, _ = machines["fig1"]
    doc = json.loads(to_json(machine))
    mutate(doc)
    loaded = from_json(json.dumps(doc), machine.system)
    assert json.loads(to_json(loaded)) == doc


@pytest.mark.parametrize("text", [
    "", "not json", "[]", "7", '"machine"',
    # Nesting past the interpreter's recursion limit.
    pytest.param("[" * 100000, id="100000-open-brackets")])
def test_from_json_refuses_what_is_no_json_object(fig1, text):
    with pytest.raises(ParseError):
        from_json(text, fig1)


@pytest.mark.parametrize("name,radius", [("fig1", 6), ("a3tilde", 5),
                                         ("h237", 6)])
def test_append_lemma_right_side_is_the_transition_test(request, ball, name,
                                                        radius):
    """The lemma's right side at g holds exactly when the machine has a T
    transition out of the state g leads to."""
    system = request.getfixturevalue(name)
    machine, _ = build(system)
    index = {st: i for i, st in enumerate(machine.states)}
    leaving = {}
    for tr in machine.transitions:
        leaving.setdefault(tr.source, set()).add(tr.parabolic)
    for g in ball(system, radius):
        out = leaving.get(index[wall_state_key(system, g)], set())
        for T in system.spherical_subsets():
            assert check_append_lemma(g, T)[1] == (T in out), (g, T)


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
    (5, path_edges([3, 3, 3, 3]), 720),                           # A5
    (5, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (2, 4): 3}, 1920),      # D5
    (5, path_edges([3, 3, 3, 4]), 3840),                          # B5
], ids=["A~2", "C~2", "G~2", "A~3", "B~3", "C~3", "A~4",
        "A3", "B3", "H3", "A4", "D4", "B4", "A5", "D5", "B5"])
def test_state_count_closed_forms(rank, edges, count):
    """On an affine Weyl group of rank r and Coxeter number h, the states
    are the (h+1)^r regions of the Shi arrangement (Shi 1987); on a finite
    group they are the |W| elements.  Each machine is certified to length
    6, A5, D5 and B5 included, whose w0 has too many reduced words to
    list."""
    fsa, report = build(diagram(rank, edges))
    assert report.state_count == count
    assert equivalence_scan(fsa, 6).ok


@pytest.mark.parametrize("fname,max_len", [
    ("a3tilde.cox", 5), ("dihedral_inf.cox", 10), ("fig1.cox", 6),
    ("single.cox", 6), ("triangle_237.cox", 5), ("triangle_245.cox", 5),
    ("triangle_333.cox", 6)])
def test_certificate_report_equals_the_word_loop(fname, max_len):
    """On every shipped group the chunk-path certificate passes, and its
    report is the one the word-by-word loop gives, at every length."""
    system = parse_system((GROUPS / fname).read_text())
    fsa, _ = build(system)
    words = sum(system.n ** k for k in range(max_len + 1))
    assert _certified(fsa, max_len, words)
    for length in range(max_len + 1):
        assert equivalence_scan(fsa, length) == _word_scan(fsa, length)


def _changed(fsa, i, tr):
    return fsa.transitions[:i] + (tr,) + fsa.transitions[i + 1:]


def _drop_transition(fsa):
    return fsa.transitions[1:]


def _duplicate_for_dropped(fsa):
    """The first transition replaced by a copy of the second: as many
    transitions, one (source, T) twice and another missing."""
    return _changed(fsa, 0, fsa.transitions[1])


def _duplicate_transition(fsa):
    """The first transition listed twice: the same words are accepted, but
    one (source, T) has two transitions."""
    return fsa.transitions + fsa.transitions[:1]


def _retarget(fsa):
    tr = fsa.transitions[0]
    return _changed(fsa, 0, tr._replace(target=(tr.target + 1)
                                        % len(fsa.states)))


# Mutations of the transition list, and whether the word loop still finds
# the machine equivalent.
_MUTATIONS = {
    "transition-dropped": (_drop_transition, False),
    "transition-duplicated": (_duplicate_transition, True),
    "transition-duplicated-for-dropped": (_duplicate_for_dropped, False),
    "retargeted": (_retarget, False),
}


def _drop_label(system, tr):
    tr["labels"] = tr["labels"][1:]


def _repeat_label(system, tr):
    """As many labels, one of them twice and another missing."""
    tr["labels"] = tr["labels"][:1] + tr["labels"][:-1]


def _misspell_label(system, tr):
    """A label of the right length and letters that does not spell w0."""
    w0 = system.parse_word(tr["w0"])
    tr["labels"][-1] = system.word_str((system.gen_index(tr["T"][0]),)
                                       * len(w0))


def _short_w0_word(system, tr):
    tr["w0"] = system.word_str(system.parse_word(tr["w0"])[:-1])


def _other_w0_word(system, tr):
    """Another reduced word of w0, not its normal form."""
    tr["w0"] = next(u for u in tr["labels"] if u != tr["w0"])


# Mutations of what a transition's T determines.  A machine keeps only
# its T's, so only a JSON document can carry these.
_WRITTEN_MUTATIONS = {
    "label-dropped": _drop_label,
    "label-repeated": _repeat_label,
    "label-misspelt": _misspell_label,
    "short-w0-word": _short_w0_word,
    "other-w0-word": _other_w0_word,
}


@pytest.mark.parametrize("fname,mutation", [
    *((fname, mutation)
      for fname in ("fig1.cox", "triangle_333.cox", "a3tilde.cox")
      for mutation in ("label-dropped", "label-repeated", "label-misspelt",
                       "transition-dropped", "transition-duplicated",
                       "transition-duplicated-for-dropped", "retargeted",
                       "short-w0-word", "other-w0-word")),
    # Over two free generators every path length has two paths, as many
    # as the sphere, with "a" no longer accepted.
    ("dihedral_inf.cox", "transition-duplicated-for-dropped")])
def test_mutated_machine_reports_as_the_word_loop(fname, mutation):
    """A machine that is wrong, or only written differently, is caught.
    A changed transition list fails the certificate, and the scan's
    report, first mismatch and word count included, is the word loop's.
    A changed `w0` or label can only be written, and `from_json` refuses
    it when it is loaded."""
    system = parse_system((GROUPS / fname).read_text())
    fsa, _ = build(system)
    if mutation in _WRITTEN_MUTATIONS:
        doc = json.loads(to_json(fsa))
        tr = next(tr for tr in doc["transitions"] if len(tr["labels"]) > 1)
        _WRITTEN_MUTATIONS[mutation](system, tr)
        with pytest.raises(ParseError):
            from_json(json.dumps(doc), system)
        return
    mutate, loop_ok = _MUTATIONS[mutation]
    bad = fsa._replace(transitions=mutate(fsa))
    max_len = 4 if system.n > 3 else 5
    words = sum(system.n ** k for k in range(max_len + 1))
    assert not _certified(bad, max_len, words)
    expected = _word_scan(bad, max_len)
    assert expected.ok == loop_ok
    assert equivalence_scan(bad, max_len) == expected


def test_passing_certificate_checks_no_word(fig1, monkeypatch):
    """With the certificate passing, no word is run through the automaton
    or the membership predicate."""
    fsa, _ = build(fig1)

    def refuse(*args):
        raise AssertionError("a word was checked on its own")

    monkeypatch.setattr(automaton, "is_in_standard_language", refuse)
    monkeypatch.setattr(automaton, "_runner", refuse)
    assert equivalence_scan(fsa, 8) == (8, 9841, None)


def test_path_walk_takes_one_step_per_ball_element(fig1, monkeypatch):
    """The walk takes one chunk step per nonidentity element of the ball;
    a machine listing a (source, T) twice is refused before any step."""
    fsa, _ = build(fig1)
    steps = []
    real = automaton.descent_data
    monkeypatch.setattr(automaton, "descent_data",
                        lambda h: steps.append(h) or real(h))
    assert _certified(fsa, 8, 9841)
    assert len(steps) == len(set(steps)) == len(fig1.ball(8)) - 1
    steps.clear()
    bad = fsa._replace(transitions=fsa.transitions * 3)
    assert not _certified(bad, 8, 9841)
    assert steps == []


def test_build_and_scan_form_no_reduced_word(monkeypatch):
    """A transition keeps only its T: building the machine and certifying
    it list no reduced word; only `to_json` does."""
    from coxlang import language

    def refuse(*args):
        raise AssertionError("reduced words were listed")

    for module in (language, automaton):
        monkeypatch.setattr(module, "reduced_words", refuse)
    fig1 = parse_system((GROUPS / "fig1.cox").read_text())
    fsa, _ = build(fig1)
    assert equivalence_scan(fsa, 8) == (8, 9841, None)
    with pytest.raises(AssertionError):
        to_json(fsa)
