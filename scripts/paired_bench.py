"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 scripts/paired_bench.py PARENT CHANGE --workload a3-divergence \
        --pairs 10 [--seed 0]

Pair i runs the benchmark's command (``perfbench/run.py`` as the parent's
``BENCHMARK.json`` declares it, for its ``run_seconds``) once in each
checkout, with the checkout's root as the working directory, the caller's
environment, and seed S0 + i; even pairs run the parent first, odd pairs
the change.  Each run's last stdout line is its JSON result.  The rule
below counts wins out of at least ten pairs, so fewer are refused.

For every end-to-end metric in the parent's ``BENCHMARK.json`` the report
gives both sides' medians and quartiles (``statistics.quantiles``, its
default exclusive method), the pairs the change won (ties count for
neither) and a verdict:

* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound, a fraction of the parent's median;
* ``gain``: the change won at least 9 of 10 pairs and its median is better
  by more than the parent's interquartile spread;
* ``unresolved``: neither, and the parent's interquartile spread is wider
  than the bound, unless every change run reads better than every parent
  run;
* ``within bound``: otherwise.

A gain does not count when the change fails a larger share of operations
than the parent; it is then reported as ``void gain``.  The report ends
with each side's share of failed operations.  The exit code is 1 when a
metric is worse or the change fails a larger share, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def verdict(parent, change, better: str, bound: float) -> tuple[str, int]:
    """The verdict on one metric from paired readings, parent[i] and
    change[i] from pair i, and the number of pairs the change won."""
    sign = 1 if better == "lower" else -1
    # As costs, lower is better on every metric.
    parent = [sign * v for v in parent]
    change = [sign * v for v in change]
    wins = sum(c < p for p, c in zip(parent, change))
    q1, median, q3 = statistics.quantiles(parent, n=4)
    gap = median - statistics.median(change)
    if -gap > bound * abs(median):
        return "worse", wins
    if 10 * wins >= 9 * len(parent) and gap > q3 - q1:
        return "gain", wins
    if q3 - q1 > bound * abs(median) and not max(change) < min(parent):
        return "unresolved", wins
    return "within bound", wins


def run_once(command, checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark run in a checkout: its last stdout line, as JSON."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"error: no JSON result from {checkout} (exit "
                 f"{proc.returncode}): {proc.stderr.strip()[-500:]}")


def _spread(values) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    if args.pairs < 10:
        parser.error("--pairs must be at least 10, as the rule counts wins "
                     "out of ten")

    results = {"parent": [], "change": []}
    for i in range(args.pairs):
        sides = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in sides:
            results[side].append(run_once(
                bench["command"], getattr(args, side), args.workload,
                args.seed + i, bench["run_seconds"]))
    shares = {}
    for side, runs in results.items():
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        shares[side] = (failed / attempted if attempted else 1.0,
                        f"{failed}/{attempted}")
    fails_more = shares["change"][0] > shares["parent"][0]

    print(f"{args.workload}: {args.pairs} pairs of "
          f"{bench['run_seconds']:g} s runs, "
          f"seeds {args.seed}-{args.seed + args.pairs - 1}")
    print(f"  {'metric':12s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'won':>6s}  verdict")
    failing = fails_more
    for metric in bench["end_to_end"]:
        name = metric["name"]
        parent, change = ([r["metrics"][name]["value"] for r in results[side]]
                          for side in ("parent", "change"))
        word, wins = verdict(parent, change, metric["better"],
                             metric["bound"])
        failing |= word == "worse"
        if word == "gain" and fails_more:
            word = "void gain"
        print(f"  {name:12s} {_spread(parent):34s} {_spread(change):34s} "
              f"{wins:>3d}/{args.pairs:<2d}  {word} "
              f"(bound {metric['bound']:g}, {metric['unit']})")
    for side, (_, count) in shares.items():
        print(f"  failed operations, {side}: {count}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
