"""Run the diracfree CLI once with per-layer tracing, or time the kernels.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/traced_cli.py CLI-ARGS...    # one traced CLI run
    python perfbench/traced_cli.py --kernels SPEC  # scalar kernel timings

In the first form the CLI's standard output and exit code are passed
through unchanged.  The trace is kept in memory and written, when the run
ends, as the last line of standard error behind ``TRACE_MARKER``.  It
holds the import times, the coarse spans (argument parsing, ``run_suite``,
one span per registry check, grid construction, ``render_json``), and for
each of the seven layer modules the number of calls into its public
functions and their self time.  Self time excludes nested calls into other
wrapped functions and spans.

In the second form SPEC is a JSON object, either ``{"grid": {"eta": [...],
"angles": [n, m]}}`` or ``{"points": [[eta, theta, phi], ...]}``; the
states are built at m = c = 1 and the per-call time of each scalar kernel
over them is printed as one JSON object.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()
import numpy  # noqa: E402  (timed import)

_T1 = time.perf_counter()
import diracfree.cli  # noqa: E402  (timed import)

_T2 = time.perf_counter()

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

from diracfree import cli, density, fermi, gamma, kinematics, observables, smallmat, spinors, verify  # noqa: E402

from names import KERNELS, TRACE_MARKER  # noqa: E402

LAYERS = {
    "smallmat": smallmat,
    "gamma": gamma,
    "kinematics": kinematics,
    "spinors": spinors,
    "observables": observables,
    "density": density,
    "fermi": fermi,
}


class Tracer:
    """Call counts, self times and coarse spans, all held in memory."""

    def __init__(self) -> None:
        self._stack: list[list[float]] = []  # per open frame: [time in children]
        self.layer_calls = {name: 0 for name in LAYERS}
        self.layer_self_s = {name: 0.0 for name in LAYERS}
        self.spans: list[dict] = []
        self._open_spans: list[int] = []

    def layer_wrapper(self, layer: str, fn):
        stack, calls, self_s = self._stack, self.layer_calls, self.layer_self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                calls[layer] += 1
                self_s[layer] += dt - frame[0]

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._open_spans[-1] if self._open_spans else None
        record = {"name": name, "parent": parent, **attrs}
        self.spans.append(record)
        self._open_spans.append(len(self.spans) - 1)
        frame = [0.0]
        self._stack.append(frame)
        record["start"] = time.perf_counter() - _T0
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - _T0
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += record["end"] - record["start"]
            self._open_spans.pop()

    def span_wrapper(self, name: str, fn, reentrant: bool = True, **attrs):
        """Wrap ``fn`` in a span; a non-reentrant span ignores nested calls."""
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not reentrant and depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            try:
                with self.span(name, **attrs):
                    return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper


def install(tracer: Tracer) -> dict:
    """Wrap the layer functions everywhere they are bound, and the spans.

    Returns a dict the ``run_suite`` span fills with the report it produced.
    """
    wrapped: dict[int, object] = {}
    module_layer = {mod.__name__: name for name, mod in LAYERS.items()}
    for mod in (*LAYERS.values(), verify, cli):
        for attr, value in list(vars(mod).items()):
            if (
                isinstance(value, types.FunctionType)
                and not attr.startswith("_")
                and not value.__name__.startswith("_")
                and value.__module__ in module_layer
            ):
                if id(value) not in wrapped:
                    wrapped[id(value)] = tracer.layer_wrapper(module_layer[value.__module__], value)
                setattr(mod, attr, wrapped[id(value)])

    for method in ("states", "sample_states"):
        setattr(verify.GridSpec, method, tracer.span_wrapper("grid", getattr(verify.GridSpec, method)))
    verify.REGISTRY = tuple(
        dataclasses.replace(e, fn=tracer.span_wrapper("check", e.fn, id=e.id, suite=e.suite))
        for e in verify.REGISTRY
    )
    outcome: dict = {}
    run_suite = verify.run_suite

    def traced_run_suite(*args, **kwargs):
        with tracer.span("run_suite"):
            outcome["report"] = run_suite(*args, **kwargs)
        return outcome["report"]

    verify.run_suite = cli.run_suite = traced_run_suite
    cli.render_json = tracer.span_wrapper("render", cli.render_json, reentrant=False)
    build_parser = cli.build_parser

    def traced_build_parser():
        with tracer.span("parse"):
            parser = build_parser()
        parser.parse_args = tracer.span_wrapper("parse", parser.parse_args)
        return parser

    cli.build_parser = traced_build_parser
    return outcome


def _summary(tracer: Tracer, outcome: dict, output_bytes: int) -> dict:
    durations: dict[str, float] = {}
    checks: dict[str, float] = {}
    suites: dict[str, float] = {}
    for s in tracer.spans:
        dt = s["end"] - s["start"]
        if s["name"] == "check":
            checks[s["id"]] = checks.get(s["id"], 0.0) + dt
            suites[s["suite"]] = suites.get(s["suite"], 0.0) + dt
        else:
            durations[s["name"]] = durations.get(s["name"], 0.0) + dt
    report = outcome.get("report")
    failed = 0
    if report is not None:
        failed = sum(1 for c in report.checks if not c.passed and c.deviation_note is None)
    return {
        "import_numpy_s": _T1 - _T0,
        "import_diracfree_s": _T2 - _T1,
        "parse_s": durations.get("parse", 0.0),
        "render_s": durations.get("render", 0.0),
        "grid_s": durations.get("grid", 0.0),
        "run_suite_s": durations.get("run_suite", 0.0),
        "output_bytes": output_bytes,
        "checks_failed": failed,
        "checks": checks,
        "suites": suites,
        "layer_calls": tracer.layer_calls,
        "layer_self_s": tracer.layer_self_s,
        "spans": tracer.spans,
    }


def traced_main(argv: list[str]) -> int:
    tracer = Tracer()
    outcome = install(tracer)
    captured = io.StringIO()
    code = 2
    try:
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        text = captured.getvalue()
        sys.stdout.write(text)
        sys.stdout.flush()
        summary = _summary(tracer, outcome, len(text.encode()))
        sys.stderr.write(TRACE_MARKER + json.dumps(summary) + "\n")
    return code


def _kernel_states(spec: dict) -> list:
    PolarAngles = kinematics.PolarAngles
    if "grid" in spec:
        grid = verify.GridSpec(eta_values=tuple(spec["grid"]["eta"]),
                               theta_count=spec["grid"]["angles"][0],
                               phi_count=spec["grid"]["angles"][1])
        points = [(eta, ang) for eta in grid.eta_values for ang in grid.angle_list()]
    else:
        points = [(eta, PolarAngles(theta, phi)) for eta, theta, phi in spec["points"]]
    stride = max(1, len(points) // 1024)
    return points[::stride]


def kernel_times(spec: dict) -> dict[str, float]:
    """Median per-call microseconds of each scalar kernel over the states."""
    sm, sp, ki = smallmat, spinors, kinematics
    pos, plus, unit = ki.EnergyBranch.POSITIVE, sp.Helicity.PLUS, sp.Normalization.UNIT
    points = _kernel_states(spec)
    states = [ki.from_eta(1.0, 1.0, eta, ang) for eta, ang in points]
    dirs = [ki.direction(ang) for _, ang in points]
    phis = [sp.helicity_spinor(plus, ang) for _, ang in points]
    hams = [gamma.hamiltonian(s) for s in states]
    blocks = [(sm.disassemble(h), sm.disassemble(sp.spin_basis_matrix(s))) for h, s in zip(hams, states)]
    calls = {
        "from_eta": (ki.from_eta, [(1.0, 1.0, eta, ang) for eta, ang in points]),
        "hamiltonian": (gamma.hamiltonian, [(s,) for s in states]),
        "helicity_operator": (gamma.helicity_operator, [(s,) for s in states]),
        "spin_basis_matrix": (sp.spin_basis_matrix, [(s,) for s in states]),
        "helicity_basis": (sp.helicity_basis, [(s,) for s in states]),
        "bispinor_block": (sp.bispinor_block, [(f, s, pos, unit) for f, s in zip(phis, states)]),
        "polarization_four_vector": (observables.polarization_four_vector, list(zip(states, dirs))),
        "density4": (density.density4, [(s, pos, plus, n) for s, n in zip(states, dirs)]),
        "det4": (sm.det4, [(h,) for h in hams]),
        "block_mul": (sm.block_mul, blocks),
    }
    reps = max(1, math.ceil(300 / len(points)))
    clock = time.perf_counter
    result = {}
    for name in KERNELS:
        fn, arg_list = calls[name]
        samples = []
        for _ in range(3):
            t0 = clock()
            for _ in range(reps):
                for args in arg_list:
                    fn(*args)
            samples.append((clock() - t0) / (reps * len(arg_list)))
        result[name] = 1e6 * statistics.median(samples)
    return result


def main(argv: list[str]) -> int:
    if argv[:1] == ["--kernels"]:
        print(json.dumps(kernel_times(json.loads(argv[1]))))
        return 0
    return traced_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
