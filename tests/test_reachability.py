"""Every public function of the library layers is reached by a check or an emit.

A child interpreter records, through ``sys.setprofile`` set before
``diracfree`` is imported, every Python function that runs during
``run_suite("all")`` on a 2x2 grid and one call of each emit: ``spinor`` in
every normalization (the box one on the negative branch), ``density`` with
and without ``--n``, and ``boost``.  Import-time calls count.  Every public
function, method and property that the seven layer modules define must be
among them, so the library ships no code that nothing runs.  There is no
allowlist.
"""

import json
import subprocess
import sys

LAYERS = ("smallmat", "kinematics", "gamma", "spinors", "observables", "density", "fermi")

PROBE = """
import contextlib, importlib, inspect, io, json, os, sys
from functools import cached_property

os.sched_getaffinity = lambda pid: {0}  # one process: no forked worker escapes the profile
called = set()

def record(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

sys.setprofile(record)
from diracfree.cli import main
from diracfree.verify import GridSpec, run_suite

run_suite("all", GridSpec(theta_count=2, phi_count=2))
emits = [["spinor", "--eta", "0.5", "--norm", norm] for norm in ("unit", "inv1", "inv2mc")]
emits += [
    ["spinor", "--eta", "0.5", "--norm", "box", "--volume", "2", "--branch", "neg"],
    ["density", "--eta", "0.5"],
    ["density", "--eta", "0.5", "--n", "0,0,1"],
    ["boost", "--eta", "0.5"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in emits]
sys.setprofile(None)


def members(cls):
    for name, attr in vars(cls).items():
        if name.startswith("_") and name != "__init__":
            continue
        if isinstance(attr, cached_property):
            yield name, attr.func
        elif isinstance(attr, property):
            yield name, attr.fget
        elif inspect.isfunction(attr):
            yield name, attr


counts, unreached = {}, []
for layer in LAYERS:
    module = importlib.import_module("diracfree." + layer)
    targets = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            targets.append((name, obj))
        elif inspect.isclass(obj):
            targets += [(f"{name}.{m}", f) for m, f in members(obj)]
    counts[layer] = len(targets)
    unreached += [f"{layer}.{q}" for q, f in targets if f.__code__ not in called]
print(json.dumps({"codes": codes, "counts": counts, "unreached": unreached}))
"""


def test_every_public_layer_function_is_reached(child_env):
    probe = f"LAYERS = {LAYERS!r}\n{PROBE}"
    child = subprocess.run([sys.executable, "-c", probe], env=child_env,
                           capture_output=True, text=True, check=True)
    result = json.loads(child.stdout)
    assert result["codes"] == [0] * 7
    assert all(result["counts"][layer] > 0 for layer in LAYERS)
    assert result["unreached"] == []
