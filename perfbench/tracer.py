"""Per-layer tracer for the coxlang benchmark.

Wraps each layer's entry points from outside the package, so nothing under
``src/`` changes.  A wrapped name is replaced in every ``coxlang`` module
namespace that holds it, because ``from .walls import walls_cross`` binds a
separate copy in each importing module.

Three kinds of wrapper keep the overhead low where calls are hot:

* ``span``: counts calls and records total time (outermost call of the name
  only, so recursion is not counted twice) and self time (duration minus the
  time of wrapped calls made inside it);
* ``leaf``: counts and times a call that makes no wrapped timed call, with no
  frame of its own; used for the scalar kernels, which run millions of times;
* ``count``: counts calls only.

Run as a script, it executes one ``coxlang`` command in process through
``coxlang.cli.main(argv)`` under the tracer and prints one JSON object with
the exit code, the command's stdout and the raw counters.  The counters are
additive, so the benchmark sums them over a workload's commands and turns
the sums into metrics with :func:`layer_metrics`.

    PYTHONPATH=src python3 perfbench/tracer.py divergence groups/a3tilde.cox --radii 4
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time


class Tracer:
    """Installs counting and timing wrappers into the coxlang modules.

    Use as a context manager; leaving it restores every original binding.
    ``stats`` maps a span name to ``[calls, total_s, self_s, depth]``.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.extra = {"ball_elements": 0, "accepted_in_scan": 0,
                      "words_checked": 0, "w0_cache_entries": 0}
        self._stack = [[0.0]]
        self._systems = {}
        self._restore = []

    # ----- wrappers ---------------------------------------------------

    def _entry(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def _span(self, name, fn, after=None):
        st = self._entry(name)
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            st[3] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                st[3] -= 1
                st[0] += 1
                st[2] += dt - frame[0]
                if not st[3]:
                    st[1] += dt
                stack[-1][0] += dt
            if after is not None:
                after(args, result)
            return result
        return span

    def _leaf(self, name, fn):
        st = self._entry(name)
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def leaf(*args):
            t0 = perf()
            result = fn(*args)
            dt = perf() - t0
            st[0] += 1
            st[1] += dt
            st[2] += dt
            stack[-1][0] += dt
            return result
        return leaf

    def _count(self, name, fn, after=None):
        st = self._entry(name)

        @functools.wraps(fn)
        def count(*args, **kwargs):
            st[0] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        return count

    # ----- hooks that read results ------------------------------------

    def _after_ball(self, args, result):
        self.extra["ball_elements"] += len(result)

    def _after_longest(self, args, result):
        system = args[0]
        self._systems[id(system)] = system

    def _after_membership(self, args, result):
        if result and self.stats["automaton.equivalence_scan"][3]:
            self.extra["accepted_in_scan"] += 1

    def _after_equivalence(self, args, result):
        self.extra["words_checked"] += result.words_checked

    # ----- install ----------------------------------------------------

    def _plan(self):
        from coxlang import (automaton, cli, experiments, language, scalar,
                             walls)
        from coxlang.core import CoxeterSystem, Element
        from coxlang.scalar import CycloField
        # (kind, span name, [(owner, attribute)], after-hook)
        return [
            ("leaf", "scalar.raw_mul", [(CycloField, "raw_mul")], None),
            ("leaf", "scalar.raw_sign", [(CycloField, "raw_sign")], None),
            ("count", "scalar.bisect_steps", [(scalar, "_interval_eval")], None),
            ("span", "core.mat_mul", [(CoxeterSystem, "_mat_mul")], None),
            ("span", "core.gen_mul", [(CoxeterSystem, "_gen_rmul"),
                                      (CoxeterSystem, "_gen_lmul")], None),
            ("span", "core.descents", [(Element, "right_descents"),
                                       (Element, "left_descents")], None),
            ("span", "core.ball", [(CoxeterSystem, "ball")], self._after_ball),
            ("count", "core.longest_element",
             [(CoxeterSystem, "longest_element")], self._after_longest),
            ("span", "core.residue_gate", [(CoxeterSystem, "residue_gate")],
             None),
            ("span", "walls.walls_cross", [(walls, "walls_cross")], None),
            ("span", "walls.separates",
             [(walls, "separates_vertex_from_wall")], None),
            ("span", "language.descent_data", [(language, "descent_data")],
             None),
            ("span", "language.canonical_word", [(language, "canonical_word")],
             None),
            ("span", "language.membership",
             [(language, "is_in_standard_language")], self._after_membership),
            ("span", "language.check_prop_main",
             [(language, "check_prop_main")], None),
            ("span", "automaton.build", [(automaton, "build")], None),
            ("span", "automaton.equivalence_scan",
             [(automaton, "equivalence_scan")], self._after_equivalence),
            ("span", "experiments.pair_value", [(experiments, "_pair_value")],
             None),
            ("span", "experiments.scan", [(experiments, "ft_scan"),
                                          (experiments, "divergence_scan"),
                                          (experiments, "prop_main_scan")],
             None),
            ("span", "cli.main", [(cli, "main")], None),
        ]

    def __enter__(self):
        plan = self._plan()
        modules = [m for n, m in sys.modules.items()
                   if n == "coxlang" or n.startswith("coxlang.")]
        for kind, name, targets, after in plan:
            for owner, attr in targets:
                original = getattr(owner, attr)
                if kind == "leaf":
                    wrapper = self._leaf(name, original)
                elif kind == "count":
                    wrapper = self._count(name, original, after)
                else:
                    wrapper = self._span(name, original, after)
                if isinstance(owner, type):
                    self._bind(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._bind(module, key, wrapper)
        return self

    def _bind(self, owner, attr, wrapper):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc):
        self.extra["w0_cache_entries"] = sum(
            len(s._w0_cache) for s in self._systems.values())
        self._systems.clear()
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def counters(self) -> dict:
        """Raw additive counters: calls, total_s and self_s per span name."""
        out = dict(self.extra)
        for name, (calls, total, own, _) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = own
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(c: dict) -> dict:
    """Per-layer metrics, as {name: (value, unit)}, from summed counters."""
    signs = c["scalar.raw_sign.calls"]
    elements = c["ball_elements"]
    return {
        "scalar.raw_mul.calls": (c["scalar.raw_mul.calls"], "count"),
        "scalar.raw_mul.self_s": (c["scalar.raw_mul.self_s"], "s"),
        "scalar.raw_sign.calls": (signs, "count"),
        "scalar.raw_sign.total_s": (c["scalar.raw_sign.total_s"], "s"),
        "scalar.bisect_steps": (c["scalar.bisect_steps.calls"], "count"),
        "scalar.bisect_steps_per_sign":
            (_ratio(c["scalar.bisect_steps.calls"], signs), "ratio"),
        "core.mat_mul.calls": (c["core.mat_mul.calls"], "count"),
        "core.mat_mul.self_s": (c["core.mat_mul.self_s"], "s"),
        "core.mat_mul_per_element":
            (_ratio(c["core.mat_mul.calls"], elements), "ratio"),
        "core.gen_mul.calls": (c["core.gen_mul.calls"], "count"),
        "core.gen_mul.self_s": (c["core.gen_mul.self_s"], "s"),
        "core.descents.calls": (c["core.descents.calls"], "count"),
        "core.descents.total_s": (c["core.descents.total_s"], "s"),
        "core.ball.elements": (elements, "count"),
        "core.ball.total_s": (c["core.ball.total_s"], "s"),
        "core.w0_cache.hit_ratio":
            (1.0 - c["w0_cache_entries"] / c["core.longest_element.calls"]
             if c["core.longest_element.calls"] else 0.0, "ratio"),
        "core.residue_gate.total_s": (c["core.residue_gate.total_s"], "s"),
        "walls.walls_cross.calls": (c["walls.walls_cross.calls"], "count"),
        "walls.walls_cross.total_s": (c["walls.walls_cross.total_s"], "s"),
        "walls.separates.calls": (c["walls.separates.calls"], "count"),
        "walls.separates.total_s": (c["walls.separates.total_s"], "s"),
        "language.descent_data.calls":
            (c["language.descent_data.calls"], "count"),
        "language.descent_data.self_s":
            (c["language.descent_data.self_s"], "s"),
        "language.canonical_word.calls":
            (c["language.canonical_word.calls"], "count"),
        "language.canonical_word.total_s":
            (c["language.canonical_word.total_s"], "s"),
        "language.membership.calls": (c["language.membership.calls"], "count"),
        "language.membership.total_s": (c["language.membership.total_s"], "s"),
        "language.check_prop_main.calls":
            (c["language.check_prop_main.calls"], "count"),
        "language.check_prop_main.total_s":
            (c["language.check_prop_main.total_s"], "s"),
        "automaton.build.total_s": (c["automaton.build.total_s"], "s"),
        "automaton.equivalence_scan.self_s":
            (c["automaton.equivalence_scan.self_s"], "s"),
        "automaton.accept_ratio":
            (_ratio(c["accepted_in_scan"], c["words_checked"]), "ratio"),
        "experiments.pair_value.calls":
            (c["experiments.pair_value.calls"], "count"),
        "experiments.pair_value.self_s":
            (c["experiments.pair_value.self_s"], "s"),
        "experiments.scan.self_s": (c["experiments.scan.self_s"], "s"),
        "cli.main.self_s": (c["cli.main.self_s"], "s"),
    }


def traced_main(argv) -> dict:
    """Run one coxlang command under the tracer; return rc, stdout, counters."""
    import coxlang.cli
    out = io.StringIO()
    with Tracer() as tracer, contextlib.redirect_stdout(out):
        rc = coxlang.cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue(), "counters": tracer.counters()}


if __name__ == "__main__":
    print(json.dumps(traced_main(sys.argv[1:])))
