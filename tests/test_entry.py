"""The CLI's process exit (``cli.run``), and an emit process without the verify engine."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diracfree import cli
from diracfree.cli import main

CASES = {
    "verify-pass": (["verify", "--suite", "algebra", "--angles", "2x2"], 0),
    "verify-fail": (["verify", "--suite", "algebra", "--eta", "0.97", "--angles", "2x2"], 1),
    "precondition": (["spinor", "--eta", "2"], 2),
    "usage": (["spinor", "--bogus"], 2),
    "version": (["--version"], 0),
    "large-json": (["verify", "--format", "json", "--angles", "2x2"], 0),
}


def _in_process(argv, capsysbinary):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors and --version
        code = exc.code
    out, err = capsysbinary.readouterr()
    return code, out, err


def _child(argv, env, **kwargs):
    return subprocess.run([sys.executable, "-m", "diracfree.cli", *argv], env=env, **kwargs)


@pytest.mark.parametrize("case", list(CASES))
def test_child_process_matches_in_process_main(case, child_env, capsysbinary, monkeypatch):
    argv, expected_code = CASES[case]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to this width
    child_env["COLUMNS"] = "80"
    code, out, err = _in_process(argv, capsysbinary)
    child = _child(argv, child_env, capture_output=True)
    assert code == expected_code
    assert (child.returncode, child.stdout, child.stderr) == (code, out, err)


def test_large_json_arrives_complete_through_a_pipe(child_env):
    child = _child(CASES["large-json"][0], child_env, stdout=subprocess.PIPE)
    assert child.returncode == 0
    assert len(child.stdout) > 16_000
    assert json.loads(child.stdout)["outputs"]["check_count"] == 82


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ["spinor", "--eta", "0.3"],
        # about 5 KB: the one failed flush drops the buffer, so it must be reported then
        ["verify", "--suite", "algebra", "--format", "json", "--angles", "2x2"],
        # about 19 KB, beyond the 8 KB buffer: the write inside print fails first
        ["verify", "--format", "json"],
    ],
)
def test_failed_flush_exits_120_with_report(argv, child_env):
    child_env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "wb") as full:
        child = _child(argv, child_env, stdout=full, stderr=subprocess.PIPE, text=True)
    assert child.returncode == 120
    ignored, error = child.stderr.splitlines()
    assert ignored.startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>' mode='w'")
    assert error == "OSError: [Errno 28] No space left on device"


def test_main_returns_its_code_in_process(capsys):
    assert main(["spinor", "--eta", "2"]) == 2
    assert main(["spinor", "--eta", "0.3"]) == 0
    assert main(CASES["verify-fail"][0]) == 1
    assert capsys.readouterr().out


def test_run_ends_the_process_with_mains_code(monkeypatch, capsys):
    class Exited(Exception):
        pass

    def fake_exit(code):
        raise Exited(code)

    monkeypatch.setattr(sys, "argv", ["diracfree", "spinor", "--eta", "2"])
    monkeypatch.setattr(os, "_exit", fake_exit)
    with pytest.raises(Exited) as exited:
        cli.run()
    assert exited.value.args == (2,)
    assert "error:" in capsys.readouterr().err


# --------------------------------------------------------------------------
# modules an emit process loads

def test_importing_the_cli_leaves_verify_unloaded(child_env):
    # an emit loads only the layers it runs: dataclasses comes with verify,
    # density and observables with the density command
    probe = (
        "import contextlib, io, sys\n"
        "from diracfree.cli import main\n"
        "names = ('dataclasses', 'diracfree.density', 'diracfree.observables', 'diracfree.verify',\n"
        "         'diracfree.fermi')\n"
        "def loaded():\n"
        "    print(' '.join(str(n in sys.modules) for n in names))\n"
        "loaded()\n"
        "for argv in (['spinor', '--eta', '0.5'], ['boost', '--eta', '0.5'], ['density', '--eta', '0.5']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0\n"
        "    loaded()\n"
        "import diracfree.verify\n"
        "loaded()\n"
    )
    child = subprocess.run([sys.executable, "-c", probe], env=child_env,
                           capture_output=True, text=True, check=True)
    assert child.stdout.splitlines() == [
        "False False False False False",  # import diracfree.cli
        "False False False False False",  # spinor
        "False False False False False",  # boost
        "False True True False False",  # density
        "True True True True True",  # import diracfree.verify
    ]


def test_verify_run_leaves_numpy_random_unloaded(child_env):
    # the seeded draws come from the standard library's random module
    probe = (
        "import sys, io, contextlib\n"
        "from diracfree.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['verify', '--suite', 'all'])\n"
        "print(code, 'diracfree.verify' in sys.modules, 'numpy.random' in sys.modules)\n"
    )
    child = subprocess.run([sys.executable, "-c", probe], env=child_env,
                           capture_output=True, text=True, check=True)
    assert child.stdout == "0 True False\n"


def test_package_holds_only_its_version(child_env):
    # every other name is imported from the module that defines it
    probe = (
        "import sys, diracfree\n"
        "print(sorted(n for n in vars(diracfree) if not n.startswith('__')), diracfree.__version__)\n"
        "print(sorted(m for m in sys.modules if m.startswith('diracfree.')))\n"
    )
    child = subprocess.run([sys.executable, "-c", probe], env=child_env,
                           capture_output=True, text=True, check=True)
    assert child.stdout == "[] 0.1.0\n[]\n"
