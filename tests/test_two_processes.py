"""``run_suite`` splits the registry between this process and a forked worker.

The split must not change a residual, an error or the exit code, and no
worker may outlive ``run_suite``.  The worker sends each residual as one
fixed-size record as soon as it has it: the bits of nan, -0.0, inf and the
smallest subnormal arrive unchanged, and a worker that dies has delivered
every residual it finished, so this process evaluates only the rest.  Each
test fixes the CPU count it needs by patching ``os.sched_getaffinity``, so
it runs the same on any host.  CI runs this file under ``python -X dev -W
error::ResourceWarning``, where a stream left unclosed is an error.
"""

import dataclasses
import errno
import math
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from functools import partial

import numpy as np
import pytest

from diracfree import verify
from diracfree.cli import main

ONE_CPU, TWO_CPUS = {0}, {0, 1}


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)


def _bits(report):
    return [(c.id, c.residual.hex(), c.passed) for c in report.checks]


def _registry(monkeypatch, fns):
    entry = verify.REGISTRY[0]
    monkeypatch.setattr(verify, "REGISTRY", tuple(
        verify.RegistryEntry(f"{entry.id}-{i}", entry.suite, entry.description, fn) for i, fn in enumerate(fns)
    ))


def test_registry_order_does_not_change_a_residual(monkeypatch):
    # the checks share each grid's strided sample: a check run alone on a
    # fresh grid, after the whole registry, or in reverse order reads the
    # same values, in one process and with the worker
    indices = list(range(len(verify.REGISTRY)))
    runs = []
    for cpus in (ONE_CPU, TWO_CPUS):
        _cpus(monkeypatch, cpus)
        alone = {i: verify._evaluate(verify.GridSpec(), [i])[i] for i in indices}
        forward = verify._evaluate(verify.GridSpec(), indices)
        backward = verify._evaluate(verify.GridSpec(), indices[::-1])
        runs += [alone, forward, backward]
    bits = [[run[i].hex() for i in indices] for run in runs]
    assert bits == [bits[0]] * len(runs)


def test_strided_sample_is_built_once_and_read_only(monkeypatch):
    _cpus(monkeypatch, ONE_CPU)
    calls = []
    states = verify.GridSpec.states
    monkeypatch.setattr(verify.GridSpec, "states", lambda self, *args: calls.append(args) or states(self, *args))
    grid = verify.GridSpec()
    assert "_sample" in vars(grid)
    eta, angles, state = grid._sample
    assert len(calls) == 1  # the strided sample, which the range checks also read
    assert calls[0][0] is eta and calls[0][1] is angles
    verify.run_suite("all", grid)
    assert len(calls) == 1 + 18  # 18 per-check domains; the sample is not built again
    assert sum(np.shape(args[0]) == eta.shape and np.array_equal(args[0], eta) for args in calls) == 1
    assert grid._sample[1] is angles and grid.sample_states() is state
    cached = {name: value for name, value in vars(state).items() if isinstance(value, np.ndarray)}
    assert set(cached) == {"p", "p_abs", "R", "eta"}
    for array in (eta, angles.theta, angles.phi, *cached.values()):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0


@pytest.mark.parametrize(
    "grid",
    [verify.GridSpec(), verify.GridSpec(theta_count=32, phi_count=32),
     verify.GridSpec(theta_count=5, phi_count=7, mass=3.0, c=0.5)],
    ids=["default", "32x32", "m3-c0.5-5x7"],
)
def test_worker_gives_the_one_process_report(monkeypatch, grid):
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    _cpus(monkeypatch, TWO_CPUS)
    shared = verify.run_suite("all", grid)
    assert forks == [1]
    _cpus(monkeypatch, ONE_CPU)
    alone = verify.run_suite("all", grid)
    assert forks == [1]
    assert shared == alone
    assert _bits(shared) == _bits(alone)


def _lowest_free_fd():
    fd = os.dup(0)
    os.close(fd)
    return fd


def _falls_back_to_one_process(monkeypatch, name, failing):
    """With ``os.<name>`` patched to ``failing``, two CPUs give the one-process report."""
    grid = verify.GridSpec(theta_count=5, phi_count=7, mass=3.0, c=0.5)
    _cpus(monkeypatch, ONE_CPU)
    alone = verify.run_suite("all", grid)
    monkeypatch.setattr(os, name, failing)
    _cpus(monkeypatch, TWO_CPUS)
    free = _lowest_free_fd()
    assert _bits(verify.run_suite("all", grid)) == _bits(alone)
    assert _lowest_free_fd() == free  # every pipe end that was opened is closed


def test_failed_fork_falls_back_to_one_process(monkeypatch):
    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    _falls_back_to_one_process(monkeypatch, "fork", fork)


def test_fork_beside_a_thread_returns_the_pid_with_warnings_as_errors():
    # _claim_with_worker takes the worker's pid from os.fork(): a fork fails
    # before a child exists or returns its pid.  CPython 3.12 and later warn
    # at a fork beside another thread (3.10 and 3.11 do not), but the warning
    # never raises, even as an error
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30.0,))
    waiter.start()
    try:
        seen, pids = [], []
        for action in ("always", "error"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                pid = os.fork()
                if pid == 0:
                    os._exit(0)
            seen += [w.category for w in caught]
            pids.append(pid)
            assert os.waitpid(pid, 0) == (pid, 0)
    finally:
        release.set()
        waiter.join(10.0)
    assert not waiter.is_alive()
    assert min(pids) > 0
    assert seen == [DeprecationWarning] * (sys.version_info >= (3, 12))


def _nth_pipe_fails(n):
    pipe, calls = os.pipe, []

    def failing():  # the n-th pipe hits the descriptor limit
        calls.append(1)
        if len(calls) == n:
            raise OSError(errno.EMFILE, "Too many open files")
        return pipe()

    return failing, calls


def test_failed_claims_pipe_falls_back_to_one_process(monkeypatch):
    failing, calls = _nth_pipe_fails(1)
    _falls_back_to_one_process(monkeypatch, "pipe", failing)
    assert len(calls) == 1


def test_failed_results_pipe_falls_back_to_one_process(monkeypatch):
    failing, calls = _nth_pipe_fails(2)
    _falls_back_to_one_process(monkeypatch, "pipe", failing)
    assert len(calls) == 2


def test_killed_worker_falls_back_to_one_process(monkeypatch):
    read, parent = os.read, os.getpid()

    def claim_then_die(fd, n):  # the entry the worker claims dies with it
        data = read(fd, n)
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return data

    _falls_back_to_one_process(monkeypatch, "read", claim_then_die)


def test_killed_worker_keeps_the_residuals_it_delivered(monkeypatch):
    grid = verify.GridSpec(theta_count=5, phi_count=7, mass=3.0, c=0.5)
    _cpus(monkeypatch, ONE_CPU)
    alone = verify.run_suite("all", grid)
    parent, evaluated, claimed = os.getpid(), [], []

    def wrapped(fn, grid):
        if os.getpid() == parent:  # slow enough that the worker claims at least two
            evaluated.append(1)
            time.sleep(0.002)
        else:
            claimed.append(1)  # the worker's own copy of the list
            if len(claimed) == 2:
                os.kill(os.getpid(), signal.SIGKILL)
        return fn(grid)

    monkeypatch.setattr(verify, "REGISTRY", tuple(
        dataclasses.replace(entry, fn=partial(wrapped, entry.fn)) for entry in verify.REGISTRY
    ))
    _cpus(monkeypatch, TWO_CPUS)
    shared = verify.run_suite("all", grid)
    # the worker finished one check and died in its second, which the loop evaluates
    assert len(evaluated) == len(verify.REGISTRY) - 1
    assert shared == alone
    assert _bits(shared) == _bits(alone)


def test_worker_residuals_keep_their_bits(monkeypatch):
    values = [math.nan, -0.0, math.inf, 5e-324] * 2
    indices = list(range(len(values)))
    _cpus(monkeypatch, ONE_CPU)
    _registry(monkeypatch, [lambda grid, value=value: value for value in values])
    alone = verify._evaluate(verify.GridSpec(), indices)
    parent, in_parent = os.getpid(), []

    def refusing(value, grid):  # this process refuses its first claim, so the worker evaluates the rest
        if os.getpid() == parent:
            in_parent.append(value)
            if len(in_parent) == 1:
                raise RuntimeError("left to the loop")
        return value

    _registry(monkeypatch, [partial(refusing, value) for value in values])
    _cpus(monkeypatch, TWO_CPUS)
    shared = verify._evaluate(verify.GridSpec(), indices)
    # at most the refused claim and the loop's evaluation of it: the worker sent each value once or twice
    assert len(in_parent) in (0, 2)
    assert [shared[i].hex() for i in indices] == [alone[i].hex() for i in indices] == [v.hex() for v in values]


def _verify_child(env, patch="", preexec_fn=None):
    """``cli.run()`` of ``verify --format json`` in a child with two CPUs, after the ``patch`` source."""
    probe = (
        "import os, sys\n"
        "import diracfree.cli\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        f"{patch}"
        "sys.argv[1:] = ['verify', '--format', 'json']\n"
        "diracfree.cli.run()\n"
    )
    child = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                           preexec_fn=preexec_fn)
    return child.returncode, child.stdout, child.stderr


def _nth_pipe_fails_source(n):
    """Source that makes a child's n-th ``os.pipe()`` hit the descriptor limit."""
    return (
        "pipe, calls = os.pipe, []\n"
        "def failing():\n"
        "    calls.append(1)\n"
        f"    if len(calls) == {n}:\n"
        "        raise OSError(24, 'Too many open files')\n"
        "    return pipe()\n"
        "os.pipe = failing\n"
    )


@pytest.mark.parametrize(
    "patch, preexec_fn",
    [
        # a process limit: this process runs every check
        ("def fork():\n    raise BlockingIOError(11, 'Resource temporarily unavailable')\n"
         "os.fork = fork\n", None),
        # the descriptor limit, at either pipe
        (_nth_pipe_fails_source(1), None),
        (_nth_pipe_fails_source(2), None),
        # SIG_IGN for SIGCHLD survives exec; the kernel then reaps the worker itself
        ("", lambda: signal.signal(signal.SIGCHLD, signal.SIG_IGN)),
    ],
    ids=["failed-fork", "failed-claims-pipe", "failed-results-pipe", "ignored-sigchld"],
)
def test_worker_failure_gives_the_normal_output(child_env, patch, preexec_fn):
    normal = _verify_child(child_env)
    assert (normal[0], normal[2]) == (0, "")
    assert _verify_child(child_env, patch, preexec_fn) == normal


@pytest.mark.parametrize("error", ["RuntimeError", "MemoryError"])
def test_exception_in_a_check_exits_2_with_an_internal_error_line(child_env, error):
    patch = (
        "import dataclasses\n"
        "import diracfree.verify as verify\n"
        "def fault(grid):\n"
        f"    raise {error}('in a check')\n"
        "verify.REGISTRY = (dataclasses.replace(verify.REGISTRY[0], fn=fault),) + verify.REGISTRY[1:]\n"
    )
    assert _verify_child(child_env, patch) == (2, "", f"error: internal error: {error}: in a check\n")


def test_failing_parent_keeps_its_exception_when_the_worker_was_reaped(child_env):
    # with SIGCHLD ignored the kernel reaps the worker as it ends; the parent's
    # check then raises, and its kill-and-reap must find the worker gone
    probe = (
        "import dataclasses, os, signal, time\n"
        "from diracfree import verify\n"
        "signal.signal(signal.SIGCHLD, signal.SIG_IGN)\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "parent = os.getpid()\n"
        "gate, opened = os.pipe()\n"
        "pids, sent = os.pipe()\n"
        "def fn(grid):\n"
        "    if os.getpid() != parent:  # the worker: wait for the parent's claim, name itself, end\n"
        "        os.read(gate, 1)\n"
        "        os.write(sent, str(os.getpid()).encode())\n"
        "        return 0.0\n"
        "    os.write(opened, b'x')\n"
        "    worker = int(os.read(pids, 32))\n"
        "    deadline = time.monotonic() + 30.0\n"
        "    while time.monotonic() < deadline:\n"
        "        try:\n"
        "            os.kill(worker, 0)\n"
        "        except ProcessLookupError:\n"
        "            break\n"
        "        time.sleep(0.01)\n"
        "    raise KeyboardInterrupt\n"
        "verify.REGISTRY = tuple(dataclasses.replace(verify.REGISTRY[0], id=str(k), fn=fn) for k in range(2))\n"
        "try:\n"
        "    verify.run_suite('all')\n"
        "except BaseException as exc:\n"
        "    print(type(exc).__name__, type(exc.__context__).__name__)\n"
    )
    child = subprocess.run([sys.executable, "-c", probe], env=child_env, capture_output=True, text=True,
                           timeout=60)
    assert (child.returncode, child.stdout, child.stderr) == (0, "KeyboardInterrupt NoneType\n", "")


def test_engine_os_error_exits_2_with_one_error_line(child_env):
    patch = (
        "import diracfree.verify\n"
        "def run_suite(*args):\n"
        "    raise OSError(24, 'Too many open files')\n"
        "diracfree.verify.run_suite = run_suite\n"
    )
    assert _verify_child(child_env, patch) == (2, "", "error: [Errno 24] Too many open files\n")


def test_no_fork_beside_another_thread(monkeypatch):
    grid = verify.GridSpec(theta_count=5, phi_count=7, mass=3.0, c=0.5)
    _cpus(monkeypatch, ONE_CPU)
    alone = verify.run_suite("all", grid)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    _cpus(monkeypatch, TWO_CPUS)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30.0,))
    waiter.start()
    try:
        beside = verify.run_suite("all", grid)
    finally:
        release.set()
        waiter.join(10.0)
    assert not waiter.is_alive()
    assert forks == []
    assert _bits(beside) == _bits(alone)


def test_every_entry_runs_exactly_once_across_both_processes(monkeypatch):
    _cpus(monkeypatch, TWO_CPUS)
    log, sink = os.pipe()

    def fn(grid):
        time.sleep(0.005)
        os.write(sink, b"x")  # one byte per evaluation, from either process
        return float(os.getpid())

    _registry(monkeypatch, [fn] * 82)
    try:
        residuals = verify._evaluate(verify.GridSpec(), list(range(82)))
        os.close(sink)
        evaluations = os.read(log, 1000)
    finally:
        os.close(log)
    assert sorted(residuals) == list(range(82))
    assert evaluations == b"x" * 82
    assert len(set(residuals.values())) == 2  # both processes claimed entries


def test_worker_error_is_the_one_process_error(monkeypatch):
    log, sink = os.pipe()
    parent = os.getpid()

    def fn(k, grid):
        if k < 4:
            return float(k)
        os.write(sink, b"p" if os.getpid() == parent else b"w")
        raise ValueError(f"entry {k}")

    # each process stops at its first raising claim, so both meet one of the
    # twelve raising entries; the loop then raises entry 4 in this process
    _registry(monkeypatch, [partial(fn, k) for k in range(16)])
    errors = []
    try:
        for cpus in (ONE_CPU, TWO_CPUS):
            _cpus(monkeypatch, cpus)
            with pytest.raises(ValueError, match="entry 4") as error:
                verify.run_suite("all")
            errors.append(str(error.value))
        os.close(sink)
        raised = os.read(log, 100)
    finally:
        os.close(log)
    assert errors == ["entry 4", "entry 4"]
    # one CPU: the loop; two: this process's claim, the worker's claim, the loop
    assert (raised.count(b"p"), raised.count(b"w")) == (3, 1)


class _Interrupt(BaseException):
    pass


def test_failing_parent_kills_the_worker(monkeypatch):
    parent = os.getpid()

    def fn(grid):
        if os.getpid() == parent:
            time.sleep(0.05)
            raise _Interrupt
        time.sleep(30.0)  # only a kill ends the worker before the test times out
        return 0.0

    _cpus(monkeypatch, TWO_CPUS)
    _registry(monkeypatch, [fn] * 4)
    start = time.monotonic()
    with pytest.raises(_Interrupt):
        verify.run_suite("all")
    assert time.monotonic() - start < 10.0


@pytest.mark.parametrize(
    "argv, code",
    [(["verify", "--angles", "3x3"], 0), (["verify", "--angles", "3x3", "--tol", "1e-30"], 1),
     (["verify", "--eta", "0,0.5", "--angles", "3x3"], 2)],
    ids=["pass", "fail", "error"],
)
def test_cli_output_and_exit_code_do_not_depend_on_the_worker(monkeypatch, capfd, argv, code):
    _cpus(monkeypatch, ONE_CPU)
    assert main(argv) == code
    alone = capfd.readouterr()
    _cpus(monkeypatch, TWO_CPUS)
    assert main(argv) == code
    assert capfd.readouterr() == alone
