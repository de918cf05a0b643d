import itertools
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diracfree import gamma, verify
from diracfree.cli import main, render_json
from diracfree.errors import UnknownSuite

MANIFEST = json.loads(
    (Path(__file__).parent / "data" / "registry_manifest.json").read_text()
)

SMALL_GRID = verify.GridSpec(eta_values=(0.2, 0.7), theta_count=3, phi_count=3)


def _floats(value):
    """Every number in a parsed JSON value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for item in value for x in _floats(item)]
    return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


class TestRegistry:
    def test_ids_match_manifest(self):
        assert verify.registry_ids() == MANIFEST["ids"]

    def test_suite_partitions_match_manifest(self):
        for suite, ids in MANIFEST["suites"].items():
            assert verify.registry_ids(suite) == ids

    def test_deviation_set(self):
        got = sorted(
            e.id for e in verify.REGISTRY if e.deviation_note is not None
        )
        assert got == MANIFEST["deviations"]

    def test_ids_unique(self):
        ids = [e.id for e in verify.REGISTRY]
        assert len(ids) == len(set(ids))


class TestRunSuite:
    def test_all_passes_on_default_grid(self):
        report = verify.run_suite("all", verify.GridSpec(), tol=1e-12)
        assert report.all_passed
        failed = [c.id for c in report.checks if not c.passed and not c.deviation_note]
        assert failed == []

    @pytest.mark.parametrize("tol", [1e-20, 1e-12, 1e-3])
    def test_one_tolerance_for_every_check(self, tol):
        report = verify.run_suite("all", SMALL_GRID, tol=tol)
        assert report.tolerance == tol
        assert all(c.passed == (c.residual <= tol) for c in report.checks)
        # the determinant of the dependent set is judged like every other check
        dependence = next(c for c in report.checks if c.id == "fermi-dependence")
        assert dependence.passed == (tol > 1e-20)

    def test_dependence_and_spin_bound_hold_across_scales(self):
        # m x c x eta box, from next to rest to the light cone; the printed
        # Fermi set's 1/(R - m c^2) must not cancel near rest, and spin-bound
        # is met with equality along p
        entries = {e.id: e for e in verify.REGISTRY}
        etas = (1e-300, 1e-10, 1e-8, 1e-6, 0.001, 0.1, 0.5, 0.9, 0.99, 0.999)
        for m, c in itertools.product((1e-3, 1.0, 1e3), (1.0, 137.0, 3e8)):
            grid = verify.GridSpec(eta_values=etas, theta_count=4, phi_count=4, mass=m, c=c)
            for check_id in ("fermi-dependence", "spin-bound"):
                assert entries[check_id].fn(grid) <= 1e-12, (check_id, m, c)

    @pytest.mark.parametrize("m", [1e-3, 1.0, 1e3])
    def test_fermi_eigen_holds_near_rest(self, m):
        # R - m c^2 is 0 in floats at eta = 1e-10 and below; the printed set
        # is evaluated without it, so H u = +R u keeps its digits
        fermi_eigen = next(e for e in verify.REGISTRY if e.id == "fermi-eigen")
        grid = verify.GridSpec(eta_values=(1e-300, 1e-10, 1e-8, 1e-6), theta_count=4,
                               phi_count=4, mass=m)
        assert fermi_eigen.fn(grid) <= 1e-12

    def test_block_rank_is_judged_by_the_run_tolerance(self):
        # at c = 137 the Schur complement rounds at about eps * R; --tol alone decides
        grid = verify.GridSpec(c=137.0, eta_values=(0.9,), theta_count=2, phi_count=2)
        for tol in (1e-6, 1e-12):
            block_rank = next(c for c in verify.run_suite("algebra", grid, tol=tol).checks
                              if c.id == "block-rank")
            assert 0.0 < block_rank.residual < 1e-6
            assert block_rank.passed == (block_rank.residual <= tol)
        assert not block_rank.passed

    def test_eig_det_sees_a_wrong_hamiltonian(self, monkeypatch):
        # det(H - E) has a double zero on shell, so an error in H shows
        # through the off-shell energies: they must still see a 1e-6 one
        hamiltonian = gamma.hamiltonian
        monkeypatch.setattr(gamma, "hamiltonian", lambda state: (1 + 1e-6) * hamiltonian(state))
        eig_det = next(e for e in verify.REGISTRY if e.id == "eig-det")
        assert eig_det.fn(verify.GridSpec()) >= 1e-5

    def test_impossible_tolerance_fails_honestly(self):
        report = verify.run_suite("spinors", SMALL_GRID, tol=1e-30)
        assert not report.all_passed

    def test_max_residual_leaves_out_deviations(self):
        report = verify.run_suite("algebra", verify.GridSpec())
        assert report.max_residual < 1e-12
        # n3-convention (about 1.7) would otherwise set it
        assert max(c.residual for c in report.deviations) > 1.0

    def test_deviations_not_counted_as_failures(self):
        report = verify.run_suite("algebra", SMALL_GRID)
        assert report.all_passed
        dev = {c.id for c in report.deviations}
        assert "n3-convention" in dev
        # the deviation really is out of tolerance, it is just not counted
        note = next(c for c in report.checks if c.id == "n3-convention")
        assert note.residual > report.tolerance

    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            verify.run_suite("bogus")

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            verify.run_suite("algebra", SMALL_GRID, tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance(self, tol):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            verify.run_suite("algebra", SMALL_GRID, tol=tol)

    @pytest.mark.parametrize(
        "field, value",
        [("mass", 0.0), ("mass", -1.0), ("mass", math.nan), ("mass", math.inf),
         ("c", 0.0), ("c", math.nan), ("c", math.inf)],
    )
    def test_grid_rejects_bad_mass_or_c(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            verify.GridSpec(**{field: value})

    @pytest.mark.parametrize("counts", [(10**20, 1), (1, 10**20), (2**32, 2**32)])
    def test_grid_rejects_more_directions_than_an_index_holds(self, counts):
        with pytest.raises(ValueError, match=f"^angle counts {counts[0]}x{counts[1]} give more directions"):
            verify.GridSpec(theta_count=counts[0], phi_count=counts[1])

    def test_grid_accepts_as_many_directions_as_an_index_holds(self):
        # the grid stores only its counts: nothing the size of the grid is built here
        verify.GridSpec(theta_count=np.iinfo(np.intp).max, phi_count=1)

    @pytest.mark.parametrize(
        "scales", [{"mass": 1e200}, {"c": 1e300}, {"c": 1e80}, {"mass": 1e300, "c": 1e300}]
    )
    def test_grid_rejects_overflowing_energy_scale(self, scales):
        with pytest.raises(ValueError, match="energy scale out of range"):
            verify.GridSpec(**scales)

    def test_grid_accepts_large_finite_energy_scale(self):
        verify.GridSpec(mass=1e70)

    @pytest.mark.parametrize(
        "scales, named",
        [({"mass": 1e-200}, "m c^2 = 1e-200"), ({"c": 1e-200}, "m c^2 = 0"),
         ({"c": 1e-78}, "m c^2 = 1e-156"), ({"mass": 1e-170, "c": 1e10}, "m c = 1e-160")],
    )
    def test_grid_rejects_underflowing_energy_scale(self, scales, named):
        with pytest.raises(ValueError, match=f"energy scale out of range: {re.escape(named)} "):
            verify.GridSpec(**scales)

    def test_tiny_c_keeps_the_rest_energy_digits(self):
        # c^2 is subnormal below c = 1.5e-154, so m c^2 keeps its digits only as (m c) c,
        # and the longitudinal spin term only as (c p)(c p . s)
        report = verify.run_suite("all", verify.GridSpec(theta_count=2, phi_count=2, mass=1e300, c=1e-160))
        checks = {c.id: c for c in report.checks}
        for check_id in ("eta-round-trip", "eta-rapidity", "boost-direct", "spin-relation"):
            assert checks[check_id].passed, (check_id, checks[check_id].residual)

    def test_checks_sorted_by_id(self):
        report = verify.run_suite("density", SMALL_GRID)
        ids = [c.id for c in report.checks]
        assert ids == sorted(ids)

    def test_deterministic(self):
        r1 = verify.run_suite("covariant", SMALL_GRID)
        r2 = verify.run_suite("covariant", SMALL_GRID)
        assert [(c.id, c.residual) for c in r1.checks] == [
            (c.id, c.residual) for c in r2.checks
        ]


class TestJsonRendering:
    def test_float_formatting(self):
        assert render_json(0.1) == "0.10000000000000001"
        assert render_json(1.0) == "1"

    def test_round_trip_exact(self):
        values = [0.1, 1.0 / 3.0, 2.0**-52, 1e300, -4.9e-324]
        for v in values:
            assert float(json.loads(render_json(v))) == v

    def test_structure(self):
        doc = {"a": [1, 2.5], "b": {"c": True, "d": None}, "e": 'say "hi"'}
        parsed = json.loads(render_json(doc))
        assert parsed == {"a": [1, 2.5], "b": {"c": True, "d": None}, "e": 'say "hi"'}

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            render_json(float("nan"))


class TestCli:
    def run(self, *argv):
        import contextlib
        import io

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def test_verify_json_exit_zero(self):
        code, out, _ = self.run(
            "verify", "--suite", "fermi", "--eta", "0.2,0.7",
            "--angles", "3x3", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"version", "inputs", "outputs", "checks"}
        assert doc["outputs"]["all_passed"] is True
        assert doc["inputs"]["suite"] == "fermi"

    def test_verify_text_lists_deviations(self):
        code, out, _ = self.run(
            "verify", "--suite", "algebra", "--eta", "0.2,0.7", "--angles", "3x3",
        )
        assert code == 0
        assert "documented deviations" in out
        assert "n3-convention" in out
        assert "all passed" in out

    def test_verify_json_deterministic(self):
        args = ("verify", "--suite", "fermi", "--eta", "0.3", "--angles", "2x2",
                "--format", "json")
        _, out1, _ = self.run(*args)
        _, out2, _ = self.run(*args)
        assert out1 == out2

    @pytest.mark.parametrize(
        "scale", [("--m", "1e-7"), ("--c", "1e-4"), ("--m", "1e-150")], ids=["m", "c", "m-1e-150"]
    )
    def test_small_scale_grid_exit_zero(self, scale):
        # A = (mc^2 + R) 1 at trial energy -R is invertible however small mc^2 is;
        # at m = 1e-150, (m c^2)^2 is still a normal float and no residual is nan
        code, out, err = self.run("verify", *scale, "--angles", "2x2")
        assert (code, err) == (0, "")
        summary = out.splitlines()[-1]
        assert summary.startswith("summary: 82 checks,") and summary.endswith("all passed")

    @pytest.mark.parametrize(
        "eta, fmt",
        [("1e-10", "text"), ("1e-10", "json"), ("1e-310", "text"), ("1e-310", "json")],
        ids=["text", "json", "1e-310-text", "1e-310-json"],
    )
    def test_near_rest_grid_exit_zero(self, eta, fmt):
        # R - m c^2 is exactly 0 here; the Fermi audit never forms it.  At 1e-310
        # |p| is subnormal, and p-hat must still be a unit vector, never nan
        code, out, err = self.run("verify", "--eta", eta, "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "json":
            assert json.loads(out)["outputs"]["all_passed"] is True

    def test_verify_failure_exit_one(self):
        code, out, _ = self.run(
            "verify", "--suite", "spinors", "--eta", "0.4", "--angles", "2x2",
            "--tol", "1e-30", "--format", "json",
        )
        assert code == 1
        assert json.loads(out)["outputs"]["all_passed"] is False

    def test_verify_text_rows_state_the_true_inequality(self):
        code, out, _ = self.run("verify", "--c", "137", "--suite", "algebra", "--angles", "2x2")
        assert code == 1
        rows = [line.split() for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
        assert {row[0] for row in rows} == {"PASS", "FAIL"}
        for verdict, _, residual, relation, tol, *_ in rows:
            assert relation == ("<=" if verdict == "PASS" else ">")
            assert (float(residual) <= float(tol)) == (verdict == "PASS")

    def test_spinor_unit_norm(self):
        code, out, _ = self.run(
            "spinor", "--m", "1", "--c", "1", "--p", "0,0,1",
            "--branch", "pos", "--lambda", "+1/2", "--norm", "unit",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        comps = [complex(re, im) for re, im in doc["outputs"]["components"]]
        assert abs(sum(abs(z) ** 2 for z in comps) - 1.0) <= 1e-12
        assert doc["outputs"]["helicity_residual"] <= 1e-12

    def test_spinor_negative_lambda_value(self):
        code, out, _ = self.run(
            "spinor", "--eta", "0.5", "--theta", "0.4", "--phi", "1.0",
            "--branch", "neg", "--lambda", "-1/2", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["outputs"]["energy"] < 0
        assert doc["outputs"]["dirac_residual"] <= 1e-12

    def test_spinor_zero_momentum_exit_two(self):
        code, _, err = self.run("spinor", "--p", "0,0,0", "--branch", "pos")
        assert code == 2
        assert "helicity is undefined at rest" in err

    def test_density_json(self):
        code, out, _ = self.run(
            "density", "--eta", "0.5", "--theta", "0", "--phi", "0",
            "--branch", "pos", "--lambda", "+1/2", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        matrix = doc["outputs"]["matrix"]
        assert len(matrix) == 4 and len(matrix[0]) == 4
        trace = doc["outputs"]["trace"]
        assert abs(trace[0] - 2.0) <= 1e-12  # 2mc with m = c = 1

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "direction, error",
        [
            ("0,0,0", "error: --n must be a nonzero, finite direction vector\n"),
            # a non-finite entry is argparse's usage error, as for --p
            ("nan,0,1", "error: argument --n: expected a finite number, got 'nan'\n"),
            ("inf,0,0", "error: argument --n: expected a finite number, got 'inf'\n"),
        ],
        ids=["0,0,0", "nan,0,1", "inf,0,0"],
    )
    def test_density_degenerate_direction_exit_two(self, capsys, fmt, direction, error):
        try:
            code = main(["density", "--p", "1,2,3", "--n", direction, "--format", fmt])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.endswith(error) and captured.err.count("error:") == 1

    def test_boost_json(self):
        code, out, _ = self.run(
            "boost", "--eta", "0.5", "--theta", "0.3", "--phi", "0.7",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["outputs"]["direct_route_residual"] <= 1e-12
        assert abs(doc["outputs"]["eta"] - 0.5) <= 1e-12

    def test_bad_eta_exit_two(self):
        code, _, err = self.run("spinor", "--eta", "1.5", "--branch", "pos")
        assert code == 2

    @pytest.mark.parametrize(
        "grid_args, message",
        [
            (("--eta=",), "at least one eta value"),
            (("--angles", "0x0"), "angle counts must be positive, got 0x0"),
            (("--angles", "4x0"), "angle counts must be positive, got 4x0"),
            (("--angles=-2x4",), "angle counts must be positive, got -2x4"),
            (("--angles", "100000000000000000000x1"), "angle counts 100000000000000000000x1 give more directions"),
        ],
    )
    def test_degenerate_grid_exit_two(self, grid_args, message):
        code, out, err = self.run("verify", *grid_args)
        assert code == 2
        assert out == ""
        assert message in err and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "eta, message",
        [
            (",0.5", "empty entry in the eta list ',0.5'"),
            ("0.5,,0.7", "empty entry in the eta list '0.5,,0.7'"),
            ("0.5,", "empty entry in the eta list '0.5,'"),
            ("0.5,abc", "expected a number, got 'abc'"),
        ],
    )
    def test_malformed_eta_list_exit_two(self, capsys, eta, message):
        # each of these used to sweep a grid other than the one typed, or to
        # name argparse's type function instead of the entry
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--eta", eta])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument --eta: {message}\n")

    @pytest.mark.parametrize("norm_args", [(), ("--norm", "unit"), ("--norm", "inv1"), ("--norm", "inv2mc")])
    def test_volume_without_box_norm_exit_two(self, norm_args):
        code, out, err = self.run("spinor", "--eta", "0.5", *norm_args, "--volume", "2")
        assert (code, out, err) == (2, "", "error: --volume applies only to --norm box\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "argv",
        [("spinor", "--p", "0,0,1", "--theta", "1.0"), ("density", "--p", "0,0,1", "--phi", "2"),
         ("boost", "--theta", "2"), ("spinor", "--theta", "0", "--phi", "0")],
    )
    def test_angles_without_eta_exit_two(self, argv, fmt):
        code, out, err = self.run(*argv, "--format", fmt)
        assert (code, out, err) == (2, "", "error: --theta and --phi apply only with --eta\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_box_norm_without_volume_exit_two(self, fmt):
        code, out, err = self.run("spinor", "--eta", "0.5", "--norm", "box", "--format", fmt)
        assert (code, out, err) == (2, "", "error: box normalization requires volume > 0\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--tol", "nan"), "tolerance must be positive and finite, got nan"),
            (("--tol", "inf"), "tolerance must be positive and finite, got inf"),
        ],
        ids=["tol-nan", "tol-inf"],
    )
    def test_bad_tolerance_exit_two(self, argv, message):
        code, out, err = self.run("verify", "--suite", "fermi", "--angles", "2x2", *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_inherited_tolerance_variable_changes_no_verdict(self, child_env):
        child_env["DIRACFREE_TOL"] = "1e-30"
        child = subprocess.run(
            [sys.executable, "-m", "diracfree.cli", "verify", "--suite", "fermi", "--format", "json"],
            capture_output=True, text=True, env=child_env,
        )
        assert (child.returncode, child.stderr) == (0, "")
        doc = json.loads(child.stdout)
        assert doc["inputs"]["tolerance"] == 1e-12
        assert {c["tolerance"] for c in doc["checks"]} == {1e-12}

    def test_unknown_suite_exit_two_names_the_suites(self):
        # run_suite alone knows the suite names; the parser does not restate them
        code, out, err = self.run("verify", "--suite", "bogus")
        assert (code, out) == (2, "")
        assert err == (
            "error: unknown suite 'bogus'; expected one of "
            f"{('all',) + verify.SUITES}\n"
        )

    def test_default_grid_is_gridspecs(self):
        code, out, _ = self.run("verify", "--format", "json")
        assert code == 0
        grid = verify.GridSpec()
        assert json.loads(out)["inputs"]["grid"] == {
            "eta_values": list(grid.eta_values),
            "theta_count": grid.theta_count,
            "phi_count": grid.phi_count,
            "mass": grid.mass,
            "c": grid.c,
        }

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("theta", ["4", "-0.5"])
    @pytest.mark.parametrize("command", ["spinor", "density", "boost"])
    def test_theta_outside_range_exit_two(self, command, theta, fmt):
        # theta = 4 used to be clamped to pi: the spinor of another direction, and exit 0
        code, out, err = self.run(command, "--eta", "0.5", "--theta", theta, "--format", fmt)
        assert (code, out, err) == (2, "", f"error: theta must lie in [0, pi], got {float(theta)}\n")

    @pytest.mark.parametrize(
        "argv, value",
        [
            (("verify", "--m", "nan"), "nan"),
            (("verify", "--c", "inf"), "inf"),
            (("spinor", "--p", "nan,0,0"), "nan"),
            (("spinor", "--m", "inf", "--eta", "0.5"), "inf"),
            (("spinor", "--eta", "0.5", "--theta", "nan"), "nan"),
            (("spinor", "--eta", "0.5", "--phi=-inf"), "-inf"),
            (("spinor", "--p", "0,0,1", "--norm", "box", "--volume", "nan"), "nan"),
            (("density", "--m", "nan", "--p", "0,0,1"), "nan"),
            (("density", "--c", "nan", "--p", "0,0,1"), "nan"),
            (("boost", "--eta", "0.5", "--spinor", "1,nan,0,0"), "nan"),
            (("verify", "--eta", "0.5,nan"), "nan"),
            (("spinor", "--eta", "0.5", "--phi", "-inf"), "-inf"),
        ],
    )
    def test_non_finite_flag_exit_two(self, capsys, argv, value):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"expected a finite number, got {value!r}" in captured.err

    @pytest.mark.parametrize(
        "before, flag, value, err",
        [
            (("spinor", "--eta", "0.5", "--format", "json"), "--phi", "-1e-3", ""),
            (("verify",), "--tol", "-1e-12", "error: tolerance must be positive and finite, got -1e-12\n"),
            (("verify",), "--eta", "-0.5,0.3", "error: eta must lie in [0, 1), got -0.5\n"),
            (("verify",), "--angles", "-1x2", "error: angle counts must be positive, got -1x2\n"),
            (("spinor", "--p", "1,0,0"), "--m", "-1e3", "error: mass must be nonnegative\n"),
        ],
        ids=["phi", "tol", "eta-list", "angles", "mass"],
    )
    def test_flag_takes_a_negative_value_in_either_spelling(self, before, flag, value, err):
        # argparse alone reads these values as unknown options: "expected one argument"
        code, out, got = self.run(*before, flag, value)
        assert (code, out, got) == self.run(*before, f"{flag}={value}")
        assert (code, got, bool(out)) == ((2, err, False) if err else (0, "", True))

    @pytest.mark.parametrize(
        "argv, flag, count",
        [
            (("boost", "--spinor", "1,0"), "--spinor", 4),
            (("spinor", "--p", "1,2"), "--p", 3),
            (("density", "--n", "1,0,0,0"), "--n", 3),
        ],
        ids=["spinor", "p", "n"],
    )
    def test_vector_flag_count_exit_two(self, capsys, argv, flag, count):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument {flag}: expected {count} comma-separated numbers\n")

    @pytest.mark.parametrize("command", ["spinor", "boost"])
    def test_non_finite_text_emit_exit_two(self, command):
        with np.errstate(all="ignore"):
            code, out, err = self.run(command, "--p", "1e300,0,0", "--c", "1e10")
        assert code == 2
        assert out == ""
        assert err.startswith("error: non-finite value in output")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("spinor", "--p", "1e200,0,0"),
            ("density", "--eta", "0.5", "--n", "1e200,0,0"),
            ("boost", "--eta", "0.5", "--spinor", "1e200,0,0,0"),
            ("spinor", "--p", "1e-320,0,0"),
        ],
        ids=["spinor-p", "density-n", "boost-spinor", "spinor-subnormal-p"],
    )
    def test_huge_vector_inputs_emit_finite_output(self, argv, fmt):
        code, out, err = self.run(*argv, "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "json":
            doc = json.loads(out)
            assert all(math.isfinite(x) for x in _floats(doc["outputs"]))
        else:
            assert "nan" not in out and "inf" not in out

    def test_huge_momentum_density_overflows_in_its_product(self):
        with np.errstate(all="ignore"):
            code, out, err = self.run("density", "--p", "1e160,0,0")
        assert code == 2
        assert out == ""
        assert err == "error: non-finite value in output: inf\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("density", "--p", "1e160,0,0"), "non-finite value in output: inf"),
            (("spinor", "--c", "1e200", "--p", "1,0,0"), "non-finite value in output"),
            (("density", "--c", "1e200", "--eta", "0.5"), "non-finite value in output"),
            (("boost", "--c", "1e200", "--eta", "0.5"), "non-finite value in output"),
            (("verify", "--m", "1e200", "--angles", "2x2"), "energy scale out of range"),
            (("verify", "--c", "1e300", "--angles", "2x2"), "energy scale out of range"),
            (("verify", "--m", "1e-200", "--angles", "2x2"), "energy scale out of range: m c^2 = 1e-200"),
            (("verify", "--c", "1e-200", "--angles", "2x2"), "energy scale out of range: m c^2 = 0"),
        ],
        ids=["density-p", "spinor-c", "density-c", "boost-c", "verify-m", "verify-c",
             "verify-tiny-m", "verify-tiny-c"],
    )
    def test_overflow_ends_in_one_error_line(self, child_env, argv, message):
        child = subprocess.run(
            [sys.executable, "-m", "diracfree.cli", *argv],
            capture_output=True, text=True, env=child_env,
        )
        assert child.returncode == 2
        assert child.stdout == ""
        assert child.stderr.startswith(f"error: {message}")
        assert child.stderr.count("\n") == 1 and child.stderr.endswith("\n")

    def test_large_momentum_boost_matches_direct_route(self):
        code, out, err = self.run("boost", "--p", "1e20,0,0", "--format", "json")
        assert (code, err) == (0, "")
        outputs = json.loads(out)["outputs"]
        size = max(abs(x) for x in _floats(outputs["components"]))
        assert outputs["direct_route_residual"] <= 1e-14 * size

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_boost_zero_spinor_exit_two(self, child_env, fmt):
        child = subprocess.run(
            [sys.executable, "-m", "diracfree.cli", "boost", "--eta", "0.5",
             "--spinor", "0,0,0,0", "--format", fmt],
            capture_output=True, text=True, env=child_env,
        )
        assert child.returncode == 2
        assert child.stdout == ""
        assert child.stderr == "error: two-spinor must be nonzero\n"

    def test_installed_entry_point(self, child_env):
        result = subprocess.run(
            [sys.executable, "-m", "diracfree.cli", "--version"],
            capture_output=True, text=True, env=child_env,
        )
        assert result.returncode == 0
        assert "diracfree" in result.stdout
