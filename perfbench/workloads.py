"""Seeded CLI argument generators for the three benchmark workloads.

Each workload is an endless stream of ``Invocation`` objects drawn from one
``random.Random(seed)``: the same seed gives the same argument lists in the
same order.  A benchmark run takes the first ``OPS_PER_RUN[workload]`` of
them as its operations and repeats those until its time is spent, so the
operations a run attempts, and which of them fail, depend on the seed alone
and not on how fast the host is.  The CLI receives only the generated
arguments.  Eta values
cover the whole benchmark range [0.05, 0.95] by stratified draws, so every
run also reaches the eta > 0.89 region where the absolute-residual
``eig-det`` check is known to fail; those failures are reported, not
avoided.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator

ETA_LO, ETA_HI = 0.05, 0.95
NAMES = ("verify-default", "verify-wide", "emit-batch")

_VERIFY_SHAPES = {
    # workload: (eta strata, angles)
    "verify-default": (5, (8, 8)),
    "verify-wide": (5, (32, 32)),
}
_NORMS = ("unit", "inv1", "inv2mc", "box")

# Distinct operations per run: few enough that each runs several times in a
# run, and a multiple of 3 on emit-batch so every command has the same share.
OPS_PER_RUN = {"verify-default": 8, "verify-wide": 3, "emit-batch": 30}


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its arguments plus the parameters the oracle needs."""

    command: str
    args: tuple[str, ...]
    params: dict


def _stratified_etas(rng: random.Random, strata: int) -> list[float]:
    width = (ETA_HI - ETA_LO) / strata
    return [ETA_LO + width * (i + rng.random()) for i in range(strata)]


def _verify(rng: random.Random, strata: int, angles: tuple[int, int]) -> Invocation:
    etas = _stratified_etas(rng, strata)
    args = (
        "verify", "--suite", "all", "--format", "json",
        "--angles", f"{angles[0]}x{angles[1]}",
        "--eta", ",".join(repr(e) for e in etas),
    )
    return Invocation("verify", args, {"eta": etas, "angles": list(angles)})


def _emit(rng: random.Random, command: str) -> Invocation:
    params = {
        "eta": rng.uniform(ETA_LO, ETA_HI),
        "theta": rng.uniform(0.0, math.pi),
        "phi": rng.uniform(0.0, 2.0 * math.pi),
        "format": rng.choice(("text", "json")),
    }
    args = [command, "--eta", repr(params["eta"]), "--theta", repr(params["theta"]),
            "--phi", repr(params["phi"])]
    if command in ("spinor", "density"):
        params["branch"] = rng.choice(("pos", "neg"))
        params["lambda"] = rng.choice(("+1/2", "-1/2"))
        args += ["--branch", params["branch"], "--lambda", params["lambda"]]
    if command == "spinor":
        params["norm"] = rng.choice(_NORMS)
        args += ["--norm", params["norm"]]
        if params["norm"] == "box":
            params["volume"] = 10.0 ** rng.uniform(-1.0, 1.0)
            args += ["--volume", repr(params["volume"])]
    if command == "boost":
        params["spinor"] = [rng.uniform(-1.0, 1.0) for _ in range(4)]
        args += ["--spinor", ",".join(repr(x) for x in params["spinor"])]
    args += ["--format", params["format"]]
    return Invocation(command, tuple(args), params)


def invocations(workload: str, seed: int) -> Iterator[Invocation]:
    """Endless seeded stream of invocations for ``workload``."""
    if workload not in NAMES:
        raise ValueError(f"unknown workload {workload!r}; expected one of {NAMES}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "emit-batch":
        while True:
            for command in ("spinor", "density", "boost"):
                yield _emit(rng, command)
    strata, angles = _VERIFY_SHAPES[workload]
    while True:
        yield _verify(rng, strata, angles)


def operations(workload: str, seed: int) -> list[Invocation]:
    """The distinct invocations one run of ``workload`` attempts."""
    return list(itertools.islice(invocations(workload, seed), OPS_PER_RUN[workload]))
