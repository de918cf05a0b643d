"""Self-test of the benchmark: the oracle must accept real outputs and flag bad ones.

Run from the repository root::

    python3 perfbench/selftest.py

It runs the CLI once per emit command and once for a small ``verify``,
checks that the oracle accepts each output, then that it flags a verify
report with one check id missing and emits whose components are perturbed
by 1e-6.  It also checks that the seeded generator repeats itself, that the
reference program prints the checksum ``run.py`` expects, and that
``BENCHMARK.json`` lists exactly the metrics ``run.py`` reports.  Exit code
0 means every case behaved.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import oracle
import run
import workloads

ROOT = Path.cwd()
PERTURBATION = 1e-6


def _cli(args: tuple[str, ...]) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("DIRACFREE_TOL", None)
    proc = subprocess.run([sys.executable, "-m", "diracfree.cli", *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout


def _perturb_pairs(value):
    """Add PERTURBATION to the real part of every [re, im] pair in a nested list."""
    if isinstance(value, list) and len(value) == 2 and all(isinstance(x, (int, float)) for x in value):
        return [value[0] + PERTURBATION, value[1]]
    return [_perturb_pairs(v) for v in value]


def _perturbed_emit(inv: workloads.Invocation, stdout: str) -> str:
    key = "matrix" if inv.command == "density" else "components"
    if inv.params["format"] == "json":
        payload = json.loads(stdout)
        payload["outputs"][key] = _perturb_pairs(payload["outputs"][key])
        return json.dumps(payload)
    lines = []
    for line in stdout.splitlines():
        name, _, value = line.partition(": ")
        if name == key:
            line = f"{name}: {_perturb_pairs(json.loads(value))}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def _without_one_id(stdout: str) -> str:
    report = json.loads(stdout)
    report["checks"] = report["checks"][1:]
    return json.dumps(report)


def main() -> int:
    failures: list[str] = []

    def expect(condition: bool, what: str) -> None:
        print(("ok    " if condition else "FAIL  ") + what)
        if not condition:
            failures.append(what)

    emits: dict[tuple[str, str], workloads.Invocation] = {}
    for inv in workloads.invocations("emit-batch", 7):
        emits.setdefault((inv.command, inv.params["format"]), inv)
        if len(emits) == 6:  # every command in both output formats
            break
    for inv in emits.values():
        code, out = _cli(inv.args)
        verdict = oracle.check(inv.command, inv.params, code, out)
        expect(verdict.ok, f"{inv.command} ({inv.params['format']}) accepted: {verdict.problems}")
        bad = oracle.check(inv.command, inv.params, code, _perturbed_emit(inv, out))
        expect(bool(bad.problems), f"{inv.command} ({inv.params['format']}) perturbed by "
                                   f"{PERTURBATION:g} flagged: {bad.problems}")

    verify = workloads.Invocation("verify", ("verify", "--format", "json", "--angles", "2x2",
                                             "--eta", "0.2,0.5"), {})
    code, out = _cli(verify.args)
    verdict = oracle.check("verify", {}, code, out)
    expect(not verdict.problems, f"verify report accepted: {verdict.problems}")
    bad = oracle.check("verify", {}, code, _without_one_id(out))
    expect(any("missing" in p for p in bad.problems), f"verify report missing one id flagged: {bad.problems}")
    expect(bool(oracle.check("verify", {}, 1 - code, out).problems), "verify exit code mismatch flagged")

    for name in workloads.NAMES:
        first = [i.args for i in itertools.islice(workloads.invocations(name, 3), 4)]
        again = [i.args for i in itertools.islice(workloads.invocations(name, 3), 4)]
        other = [i.args for i in itertools.islice(workloads.invocations(name, 4), 4)]
        expect(first == again and first != other, f"{name}: the seed alone fixes the arguments")

    ref = subprocess.run([sys.executable, str(Path(__file__).with_name("reference.py"))],
                         capture_output=True, text=True, timeout=120)
    expect(ref.returncode == 0 and float(ref.stdout) == run.REFERENCE_CHECKSUM,
           f"reference.py prints the checksum run.py expects: {ref.stdout.strip()}")

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    listed = {(m["name"], m["unit"]) for m in spec["end_to_end"]}
    expect(listed == set(run.end_to_end_metrics()), "BENCHMARK.json end_to_end matches run.py")
    listed = {(m["name"], m["unit"]) for m in spec["per_layer"]}
    expect(listed == set(run.per_layer_metrics()), "BENCHMARK.json per_layer matches run.py")
    expect({w["name"] for w in spec["workloads"]} == set(workloads.NAMES),
           "BENCHMARK.json workloads match workloads.py")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
