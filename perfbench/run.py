"""Benchmark of the diracfree CLI: end-to-end wall time, or per-layer times.

Run from the repository root::

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 35 --trace 0

The program is run from source as ``python -m diracfree.cli`` with ``src``
on ``PYTHONPATH``.  Load is a closed loop with one client: the next
invocation starts when the previous one has exited.  A run's operations are
a fixed number of distinct argument lists from the seeded generator in
``workloads.py``; the run executes each once and then repeats them in order
until ``--seconds`` is spent.  Every execution is checked by the
library-independent oracle in ``oracle.py``, and an operation fails when any
of its executions fails, so ``attempted`` and ``failed`` depend on the seed
alone.  The child runs with one BLAS/OpenMP thread: the load is one client
on a small machine, and an idle pool thread would only compete with it.

``--trace 0`` measures the end-to-end metrics.  Between executions it runs
the fixed ``reference.py``, timed the same way, for a quarter of the CLI's
time; ``wall_rel.p50``
and ``wall_rel.tail`` are the median and tail wall time of one invocation
divided by the reference's median wall time in the same run, so they do not
move with the shared host's speed.  Also reported: peak child RSS, the
set-up time of a fresh ``import diracfree.cli``, and, outside the result
line, the raw wall times and invocations per second.  ``--trace 1`` alternates plain
and traced invocations of the same arguments (``traced_cli.py``) and
reports the per-layer metrics, the tracing overhead, and the scalar kernel
timings over the workload's states.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 2 means the program could not be set up.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
import workloads
from names import CHECK_IDS, KERNELS, LAYERS, SUITES, TRACE_MARKER

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 10       # timed imports, after one untimed warm-up import
CHILD_TIMEOUT_S = 150.0
TAIL_BEYOND = 10         # samples that must lie beyond the reported tail
REFERENCE_CHECKSUM = 1277.938616    # what reference.py prints
REFERENCE_SHARE = 0.25   # reference time per unit of CLI time in a plain run


def end_to_end_metrics() -> list[tuple[str, str]]:
    return [
        ("wall_rel.p50", "ratio"),
        ("wall_rel.tail", "ratio"),
        ("peak_rss_mb", "MB"),
        ("setup_s", "s"),
    ]


# Printed with the end-to-end metrics but not in the result line: the raw
# times move with the shared host's speed from one minute to the next, which
# the wall_rel metrics divide out.
RAW_TIMES = [("wall_s.p50", "s"), ("wall_s.tail", "s"), ("ops_per_s", "1/s"), ("reference_s.p50", "s")]


def per_layer_metrics() -> list[tuple[str, str]]:
    names = [
        ("import.numpy_s", "s"),
        ("import.diracfree_s", "s"),
        ("cli.parse_s", "s"),
        ("cli.render_s", "s"),
        ("cli.output_bytes", "bytes"),
        ("verify.grid_s", "s"),
        ("verify.run_suite_s", "s"),
        ("verify.checks_failed", "count"),
    ]
    names += [(f"verify.suite.{s}_s", "s") for s in SUITES]
    names += [(f"verify.check.{c}_s", "s") for c in CHECK_IDS]
    for layer in LAYERS:
        names += [(f"layer.{layer}.calls", "count"), (f"layer.{layer}.self_s", "s")]
    names += [(f"kernel.{k}.us_per_call", "us") for k in KERNELS]
    names.append(("trace.overhead_ratio", "ratio"))
    return names


class SetupError(RuntimeError):
    """The program could not be set up or measured; no result is printed."""


@dataclass
class Child:
    wall_s: float
    exit_code: int
    max_rss_kb: int
    stdout: str
    stderr: str


def run_child(argv: list[str], root: Path, env: dict) -> Child:
    """Run one child to exit; time it from spawn to reaping, with its rusage."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(wall, proc.returncode, usage.ru_maxrss, out.decode(), err[0].decode())


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.env = dict(os.environ)
        self.env.pop("DIRACFREE_TOL", None)
        self.env.update({k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(root / "src") + (os.pathsep + old if old else "")
        self.cli = [sys.executable, "-m", "diracfree.cli"]
        self.traced = [sys.executable, str(HERE / "traced_cli.py")]
        self.reference = [sys.executable, str(HERE / "reference.py")]
        self.ops = workloads.operations(workload, seed)
        self.attempted: set[int] = set()   # indices into self.ops
        self.failed: set[int] = set()
        self.executions = 0
        self.correct = True

    def setup_s(self) -> tuple[float, int]:
        """Median wall time of a fresh interpreter importing the CLI."""
        walls = []
        for _ in range(SETUP_REPEATS + 1):
            child = run_child([sys.executable, "-c", "import diracfree.cli"], self.root, self.env)
            if child.exit_code != 0:
                raise SetupError(f"import diracfree.cli failed:\n{child.stderr.strip()}")
            walls.append(child.wall_s)
        return statistics.median(walls[1:]), SETUP_REPEATS

    def invoke(self, argv_head: list[str], op: int, label: str) -> Child:
        inv = self.ops[op]
        child = run_child(argv_head + list(inv.args), self.root, self.env)
        verdict = oracle.check(inv.command, inv.params, child.exit_code, child.stdout)
        self.executions += 1
        self.attempted.add(op)
        status = "ok"
        if not verdict.ok:
            self.failed.add(op)
            status = "FAILED"
        if verdict.problems:
            self.correct = False
        print(f"{label} #{self.executions} op {op} exit {child.exit_code} wall {child.wall_s:.4f} s "
              f"rss {child.max_rss_kb / 1024:.1f} MB {status}: diracfree {' '.join(inv.args)}")
        for line in verdict.failing_checks:
            print(f"    failing check: {line}")
        for line in verdict.problems:
            print(f"    oracle: {line}")
        if verdict.problems and child.stderr.strip():
            print("    stderr: " + child.stderr.strip().replace("\n", "\n    stderr: "))
        return child

    def _keep_going(self, start: float, durations: list[float]) -> bool:
        """Closed-loop stop rule: every operation runs once, then the next
        call must fit before the deadline."""
        if len(durations) < len(self.ops):
            return True
        return time.perf_counter() - start + statistics.median(durations) <= self.seconds

    def _schedule(self, durations: list[float]):
        """Operation indices in order, cycling, until the stop rule says no."""
        start = time.perf_counter()
        for op in itertools.cycle(range(len(self.ops))):
            if not self._keep_going(start, durations):
                return
            yield op

    def run_plain(self) -> dict:
        """Executions, each followed by as many runs of the reference program
        as keep the reference's total time at REFERENCE_SHARE of the CLI's."""
        walls, rss, refs, step_s = [], [], [], []
        for op in self._schedule(step_s):
            t0 = time.perf_counter()
            child = self.invoke(self.cli, op, "run")
            walls.append(child.wall_s)
            rss.append(child.max_rss_kb)
            while sum(refs) < REFERENCE_SHARE * sum(walls):
                ref = run_child(self.reference, self.root, self.env)
                if ref.exit_code != 0 or not math.isclose(float(ref.stdout), REFERENCE_CHECKSUM,
                                                          rel_tol=1e-9):
                    raise SetupError(f"reference program failed:\n{ref.stdout}{ref.stderr}")
                refs.append(ref.wall_s)
            step_s.append(time.perf_counter() - t0)
        return {"walls": walls, "rss_kb": rss, "refs": refs, "elapsed": sum(step_s) - sum(refs)}

    def run_traced(self) -> tuple[list[dict], list[float], list[float]]:
        payloads, plain, traced = [], [], []
        pair_s: list[float] = []
        for op in self._schedule(pair_s):
            t0 = time.perf_counter()
            plain.append(self.invoke(self.cli, op, "plain").wall_s)
            child = self.invoke(self.traced, op, "traced")
            traced.append(child.wall_s)
            pair_s.append(time.perf_counter() - t0)
            payload = _trace_payload(child.stderr)
            if payload is None:
                self.correct = False
                print("    traced child wrote no trace")
            else:
                payloads.append(payload)
        return payloads, plain, traced

    def kernel_times(self) -> dict[str, float]:
        first = self.ops[0]
        if first.command == "verify":
            spec = {"grid": {"eta": first.params["eta"], "angles": first.params["angles"]}}
        else:
            spec = {"points": [[i.params["eta"], i.params["theta"], i.params["phi"]] for i in self.ops]}
        child = run_child(self.traced + ["--kernels", json.dumps(spec)], self.root, self.env)
        if child.exit_code != 0:
            raise SetupError(f"kernel timing failed:\n{child.stderr.strip()}")
        return json.loads(child.stdout)


def _trace_payload(stderr: str) -> dict | None:
    for line in reversed(stderr.splitlines()):
        if line.startswith(TRACE_MARKER):
            return json.loads(line[len(TRACE_MARKER):])
    return None


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with TAIL_BEYOND samples beyond it, and its label.

    Below 2 * TAIL_BEYOND + 1 samples that percentile would not lie above
    the median, so the median is reported and the label says so.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(ordered), f"median: n={n} is too few for a tail above it"
    return ordered[n - TAIL_BEYOND - 1], f"p{100.0 * (n - TAIL_BEYOND) / n:.1f}, n={n}"


def measure_end_to_end(bench: Bench) -> dict:
    setup, setup_n = bench.setup_s()
    plain = bench.run_plain()
    walls = plain["walls"]
    n = len(walls)
    tail_value, tail_label = tail(walls)
    ref = statistics.median(plain["refs"])
    values = {
        "wall_rel.p50": (statistics.median(walls) / ref, f"n={n}, reference {ref:.4f} s"),
        "wall_rel.tail": (tail_value / ref, tail_label),
        "reference_s.p50": (ref, f"n={len(plain['refs'])}"),
        "wall_s.p50": (statistics.median(walls), f"n={n}"),
        "wall_s.tail": (tail_value, tail_label),
        "ops_per_s": (n / plain["elapsed"], f"n={n} in {plain['elapsed']:.2f} s"),
        "peak_rss_mb": (max(plain["rss_kb"]) / 1024.0, f"max of n={n}"),
        "setup_s": (setup, f"median of n={setup_n}"),
    }
    _metrics(RAW_TIMES, values)
    return _metrics(end_to_end_metrics(), values)


def measure_per_layer(bench: Bench) -> dict:
    payloads, plain, traced = bench.run_traced()
    if not payloads:
        raise SetupError("no traced invocation produced a trace")
    kernels = bench.kernel_times()
    n = len(payloads)

    def mean(get) -> tuple[float, str]:
        # Per-invocation mean, so a mixed workload weighs each command by its share.
        return statistics.fmean(get(p) for p in payloads), f"mean of n={n}"

    scalar = {
        "import.numpy_s": "import_numpy_s",
        "import.diracfree_s": "import_diracfree_s",
        "cli.parse_s": "parse_s",
        "cli.render_s": "render_s",
        "cli.output_bytes": "output_bytes",
        "verify.grid_s": "grid_s",
        "verify.run_suite_s": "run_suite_s",
        "verify.checks_failed": "checks_failed",
    }
    values = {name: mean(lambda p: p[key]) for name, key in scalar.items()}
    values.update({f"verify.suite.{s}_s": mean(lambda p: p["suites"].get(s, 0.0)) for s in SUITES})
    values.update({f"verify.check.{c}_s": mean(lambda p: p["checks"].get(c, 0.0)) for c in CHECK_IDS})
    for layer in LAYERS:
        values[f"layer.{layer}.calls"] = mean(lambda p: p["layer_calls"][layer])
        values[f"layer.{layer}.self_s"] = mean(lambda p: p["layer_self_s"][layer])
    for k in KERNELS:
        values[f"kernel.{k}.us_per_call"] = (kernels[k], "median of 3 passes over the states")
    traced_s, plain_s = statistics.median(traced), statistics.median(plain)
    values["trace.overhead_ratio"] = (traced_s / plain_s,
                                      f"traced {traced_s:.4f} s / plain {plain_s:.4f} s, n={n}")
    return _metrics(per_layer_metrics(), values)


def _metrics(names: list[tuple[str, str]], values: dict) -> dict:
    out = {}
    for name, unit in names:
        value, note = values[name]
        print(f"{name:<44} {value:>14.6g} {unit:<6} ({note})")
        out[name] = {"value": value, "unit": unit}
    return out


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "diracfree" / "cli.py").is_file():
        print(f"error: no src/diracfree/cli.py under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed, args.seconds)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace} "
          f"(closed loop, 1 client, {sys.executable})")
    try:
        metrics = measure_per_layer(bench) if args.trace else measure_end_to_end(bench)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted, failed = len(bench.attempted), len(bench.failed)
    print(f"fail_ratio {failed / attempted:.4f} ({failed}/{attempted} operations failed; "
          f"{bench.executions} executions)")
    print(json.dumps({"correct": bench.correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
