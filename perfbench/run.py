"""The coxlang benchmark: three CLI workloads, measured from outside.

    python3 perfbench/run.py --workload a3-divergence --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Run from the root of a checkout.  A run writes the workload's group file for
the seed into a temporary directory in the checkout (see ``relabelled``),
then runs the workload's commands as child processes, one at a time (a
closed loop with a single client), for ``--seconds``.

* ``--trace 0`` also times ``coxlang info`` in fresh processes (setup_s) and
  reports the end-to-end metrics: medians over the samples.
* ``--trace 1`` then makes one traced pass, each command in a fresh process
  running ``coxlang.cli.main`` under ``tracer.py``, and reports the
  per-layer metrics.

Every command's exit code and stdout are checked: byte for byte against the
output frozen below for seed 0, and on the fields that do not depend on the
generator order for other seeds.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the machine context (cores, Python, load, and a fixed calibration
loop timed around every sample, so drift of a shared machine shows).

``--workload all`` interleaves one sample of each workload per round, then
traces each, and prints every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

from tracer import layer_metrics  # noqa: E402

SETUP_REPEATS = 7


@dataclass(frozen=True)
class Workload:
    group: str                     # relative to the checkout root
    commands: tuple                # argv after `coxlang`; "{group}" is the file
    expected: tuple                # seed-0 stdout of each command
    info: str                      # seed-0 stdout of `coxlang info`


WORKLOADS = {
    # Dense mat_mul, recomputed by descent_data for every element of a shared
    # 3025-element ball; the field is Q, so no sign bisection runs.  A ball
    # index shows here; a scalar change should not.
    "a3-divergence": Workload(
        group="groups/a3tilde.cox",
        commands=(("divergence", "{group}", "--radii", "8,12,16"),),
        expected=("radius\tmax_divergence\twitness_g_nf\twitness_s\n"
                  "8\t6\tprpsrpt\ts\n"
                  "12\t6\tprpsrpt\ts\n"
                  "16\t8\tprpsrptprsrtps\tt\n",),
        info="generators: p r s t\norders:\n  p: 1 3 2 3\n  r: 3 1 3 2\n"
             "  s: 2 3 1 3\n  t: 3 2 3 1\nfield degree: 1\n"
             "2-dimensional: no; K = 6\n"),
    # The paper's C2/C6 certificates on the running example (degree 2):
    # 9841 mostly non-geodesic words, each prefix rebuilt from the start, then
    # dense residue products.  Automaton and membership changes show here; a
    # ball-index memoisation finds little to reuse.
    "fig1-certify": Workload(
        group="groups/fig1.cox",
        commands=(("automaton", "{group}", "--scan-len", "8"),
                  ("prop", "{group}", "--radius", "7")),
        expected=("states: 25\ntransitions: 46\nmax wall depth: 5\n"
                  "equivalent up to length 8 (9841 words)\n",
                  "radius 7: 183 residues, 1976 ordered pairs checked\n"
                  "witnesses found for every pair\n"),
        info="generators: s t r\norders:\n  s: 1 2 4\n  t: 2 1 4\n"
             "  r: 4 4 1\nfield degree: 2\n2-dimensional: yes; K = 4\n"),
    # Hyperbolic, non-crystallographic (2,3,7), field degree 12: Fraction
    # bisection in raw_sign and walls_cross dominate, on a 53-element ball.
    # Scalar and walls changes show here; a ball index should not.
    "h237-hyperbolic": Workload(
        group="perfbench/groups/h237.cox",
        commands=(("automaton", "{group}", "--scan-len", "5"),
                  ("scan", "{group}", "--radius", "6")),
        expected=("states: 40\ntransitions: 67\nmax wall depth: 7\n"
                  "equivalent up to length 5 (364 words)\n",
                  "radius\tK\tmax_ii\tmax_iii\twitness_g_nf\twitness_s\n"
                  "6\t7\t6\t7\tcbcbcb\tc\n"),
        info="generators: a b c\norders:\n  a: 1 2 3\n  b: 2 1 7\n"
             "  c: 3 7 1\nfield degree: 12\n2-dimensional: yes; K = 7\n"),
}


def relabelled(text: str, seed: int) -> str:
    """The group file for a seed: seed 0 as written, else generators permuted.

    Permuting the generator order changes the ShortLex order, so canonical
    words and witnesses change, while the work stays within a few percent
    (traced counts over every order of each group at small radii).
    """
    if seed == 0:
        return text
    lines = text.splitlines()
    for i, line in enumerate(lines):
        parts = line.split()
        if parts and parts[0] == "generators":
            names = parts[1:]
            random.Random(seed).shuffle(names)
            lines[i] = "generators " + " ".join(names)
            break
    return "\n".join(lines) + "\n"


# Leading TSV columns that a relabelling leaves unchanged; the witness
# columns after them change with the ShortLex order.
_TSV_INVARIANT_COLUMNS = {"divergence": 2, "scan": 4}


def invariant_fields(command: str, stdout: str) -> list:
    """The parts of a command's stdout that do not depend on generator order.

    Checked over every order of fig1 and (2,3,7) and 12 of the 24 orders of
    A~3 at the workloads' sizes.
    """
    lines = stdout.splitlines()
    if command == "info":
        return [ln for ln in lines
                if ln.startswith(("field degree", "2-dimensional"))]
    if command in _TSV_INVARIANT_COLUMNS:
        return [ln.split("\t")[:_TSV_INVARIANT_COLUMNS[command]]
                for ln in lines]
    return lines


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a gauge of the machine's speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


@dataclass
class Child:
    rc: int
    stdout: str
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Run:
    """One workload at one seed: runs, checks and records its commands."""

    name: str
    seed: int
    tmp: Path
    attempted: int = 0
    failed: int = 0
    setup: list = field(default_factory=list)
    samples: list = field(default_factory=list)     # (wall, cpu, rss)
    calibration: list = field(default_factory=list)
    traced_wall_s: float = 0.0
    counters: Counter = field(default_factory=Counter)

    def __post_init__(self):
        self.workload = WORKLOADS[self.name]
        text = (ROOT / self.workload.group).read_text()
        self.group = self.tmp / f"{self.name}.cox"
        self.group.write_text(relabelled(text, self.seed))
        path = os.environ.get("PYTHONPATH")
        src = str(ROOT / "src")
        self.env = dict(os.environ,
                        PYTHONPATH=src + os.pathsep + path if path else src)

    def _spawn(self, argv) -> Child:
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, out_path.read_text(), wall,
                     usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)

    def _check(self, argv, rc: int, stdout: str, expected: str) -> None:
        self.attempted += 1
        if self.seed == 0:
            ok = stdout == expected
        else:
            ok = (invariant_fields(argv[0], stdout)
                  == invariant_fields(argv[0], expected))
        if rc != 0 or not ok:
            self.failed += 1
            print(f"FAIL {self.name} seed {self.seed}: coxlang "
                  f"{' '.join(argv)} exited {rc} with stdout {stdout!r}",
                  file=sys.stderr)

    def _argvs(self):
        for template, expected in zip(self.workload.commands,
                                      self.workload.expected):
            yield [a.format(group=self.group) for a in template], expected

    def measure_setup(self) -> None:
        """Time `coxlang info` in fresh processes, after one untimed warm-up
        that compiles the bytecode cache."""
        argv = ["info", str(self.group)]
        for repeat in range(SETUP_REPEATS + 1):
            child = self._spawn([sys.executable, "-m", "coxlang.cli", *argv])
            self._check(argv, child.rc, child.stdout, self.workload.info)
            if repeat:
                self.setup.append(child.wall_s)

    def measure_sample(self) -> None:
        """Run the workload's commands once, each in a fresh process."""
        before = calibrate()
        wall = cpu = rss = 0.0
        for argv, expected in self._argvs():
            child = self._spawn([sys.executable, "-m", "coxlang.cli", *argv])
            self._check(argv, child.rc, child.stdout, expected)
            wall += child.wall_s
            cpu += child.cpu_s
            rss = max(rss, child.rss_mb)
        self.samples.append((wall, cpu, rss))
        self.calibration.append((before, calibrate()))

    def measure_traced(self) -> None:
        """One pass of the commands under the tracer, counters summed."""
        tracer = str(HERE / "tracer.py")
        for argv, expected in self._argvs():
            child = self._spawn([sys.executable, tracer, *argv])
            try:
                doc = json.loads(child.stdout)
            except json.JSONDecodeError:
                doc = {"rc": child.rc or 1, "stdout": child.stdout,
                       "counters": {}}
            self._check(argv, doc["rc"], doc["stdout"], expected)
            self.traced_wall_s += child.wall_s
            for key, value in doc["counters"].items():
                self.counters[key] += value

    def end_to_end(self) -> dict:
        walls, cpus, rsss = zip(*self.samples)
        return {
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "setup_s": (statistics.median(self.setup), "s"),
            "peak_rss_mb": (statistics.median(rsss), "MB"),
        }

    def per_layer(self) -> dict:
        metrics = layer_metrics(self.counters)
        untraced = statistics.median(s[0] for s in self.samples)
        metrics["trace.overhead_ratio"] = (self.traced_wall_s / untraced,
                                           "ratio")
        return metrics

    def context(self) -> dict:
        return {
            "workload": self.name, "seed": self.seed,
            "samples": len(self.samples),
            "wall_s_samples": [s[0] for s in self.samples],
            "setup_s_samples": self.setup,
            "fail_ratio": self.failed / self.attempted,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "loadavg": os.getloadavg(),
            "calibration_s": self.calibration,
        }


def _sample_until(runs, seconds: float) -> None:
    """Round-robin one sample per run, at least one round, and another only
    while the last round's length says it will end within `seconds`."""
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for run in runs:
            run.measure_sample()
        now = time.perf_counter()
        if (now - start) + (now - round_start) > seconds:
            return


def _result(runs, metrics: dict) -> dict:
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def _table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {name:36s} {shown} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so that the running
    # child is killed and the temporary directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    missing = [p for p in ["src/coxlang/cli.py",
                           *(WORKLOADS[n].group for n in names)]
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: run from the root of a coxlang checkout; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runs = []
        for name in names:
            run_tmp = Path(tmp) / name
            run_tmp.mkdir()
            runs.append(Run(name, args.seed, run_tmp))
        if args.workload == "all" or not args.trace:
            for run in runs:
                run.measure_setup()
        _sample_until(runs, args.seconds * len(runs))
        if args.workload == "all" or args.trace:
            for run in runs:
                run.measure_traced()

    for run in runs:
        print(json.dumps({"context": run.context()}))
    if args.workload == "all":
        metrics = {}
        for run in runs:
            e2e = run.end_to_end()
            _table(f"{run.name} (seed {args.seed}, {len(run.samples)} "
                   f"samples, medians)", e2e)
            metrics.update({f"{run.name}.{k}": v for k, v in e2e.items()})
        for run in runs:
            layers = run.per_layer()
            _table(f"{run.name} traced", layers)
            metrics.update({f"{run.name}.{k}": v for k, v in layers.items()})
    else:
        run, = runs
        metrics = run.per_layer() if args.trace else run.end_to_end()
    result = _result(runs, metrics)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
