"""End-to-end tests of the command-line interface: subprocess level, and in
process where a test patches a fault into a library call."""

import ast
import contextlib
import errno
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyplobe import cli


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "hyplobe", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=120,
    )


def numbers(value):
    """Every number (and bool) in a report, in document order; records and
    lists are both sequences."""
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return [value]
    return [x for v in value for x in numbers(v)]


class TestTriangleCommand:
    def test_json_report(self):
        res = run_cli("triangle", "--b", "1.0", "--c", "1.2", "--alpha", "0.9")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        sol = report["solution"]
        assert abs(report["area_defect"] - report["area_two_tau"]) < 1e-9
        assert sol["area"] == pytest.approx(
            math.pi - sol["alpha"] - sol["beta"] - sol["gamma"], abs=1e-15
        )
        assert report["figure"]["tau"] > 0.0

    def test_floats_round_trip_exactly(self):
        # every float printed parses back to the double the library computes
        from hyplobe import triangle
        from hyplobe.oracle import grid_search_max_area

        res = run_cli("triangle", "--b", "1.0", "--c", "1.0", "--alpha", "1.5")
        sol = triangle.solve_sas(1.0, 1.0, 1.5)
        fig = triangle.build_figure1(1.0, 1.0, 1.5)
        expected = [1.0, 1.0, 1.5, sol, fig, sol.area, 2.0 * fig.tau, sol.area - 2.0 * fig.tau]
        assert numbers(json.loads(res.stdout)) == numbers(expected)

        res = run_cli("optimize", "--b", "0.8", "--c", "1.7")
        opt = triangle.optimal_alpha(0.8, 1.7)
        cert = triangle.optimality_certificate(triangle.build_figure1(0.8, 1.7, opt.alpha_star))
        grid = grid_search_max_area(0.8, 1.7, 100_000)
        expected = [
            0.8, 1.7, opt.alpha_star, opt.solution,
            abs(cert.acb_angle - math.pi / 2), cert.tangency_gap, cert.residual,
            grid.alpha_hat, grid.grid_step, abs(grid.alpha_hat - opt.alpha_star),
        ]
        assert numbers(json.loads(res.stdout)) == numbers(expected)

    def test_whole_number_floats_stay_floats(self):
        # "b": 1.0, not "b": 1
        res = run_cli("triangle", "--b", "1", "--c", "2", "--alpha", "1")
        report = json.loads(res.stdout)
        assert report["inputs"] == {"b": 1.0, "c": 2.0, "alpha": 1.0}
        assert all(type(x) is float for x in numbers(report))

    def test_tiny_triangle_is_solved(self):
        # its angle sum rounds to pi, which once refused it; the area and
        # 2 tau are the half-angle area to a few ulps
        mpmath = pytest.importorskip("mpmath")
        res = run_cli("triangle", "--b", "1e-8", "--c", "1e-8", "--alpha", "1")
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        with mpmath.workdps(50):
            u = mpmath.tanh(mpmath.mpf(1e-8) / 2) ** 2
            area = 2 * mpmath.atan2(u * mpmath.sin(1), 1 - u * mpmath.cos(1))
        for got in (report["area_defect"], report["area_two_tau"]):
            assert abs(got - area) <= 4 * math.ulp(float(area)), got

    def test_bad_input_exit_2(self):
        res = run_cli("triangle", "--b", "1.0", "--c", "1.0", "--alpha", "3.5")
        assert res.returncode == 2
        assert "error:" in res.stderr

    def test_svg_output_is_self_contained(self):
        res = run_cli(
            "triangle", "--b", "1.0", "--c", "1.0", "--alpha", "1.0",
            "--format", "svg",
        )
        assert res.returncode == 0
        svg = res.stdout
        assert svg.lstrip().startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "href" not in svg  # no external references

    def test_deterministic_output(self):
        a = run_cli("triangle", "--b", "0.7", "--c", "2.1", "--alpha", "0.5")
        b = run_cli("triangle", "--b", "0.7", "--c", "2.1", "--alpha", "0.5")
        assert a.stdout == b.stdout


class TestOptimizeCommand:
    def test_report_fields(self):
        res = run_cli("optimize", "--b", "1.0", "--c", "1.5")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        sol = report["solution"]
        assert abs(sol["alpha"] - sol["beta"] - sol["gamma"]) < 1e-12
        certs = report["certificates"]
        assert certs["right_angle_residual"] < 1e-9
        assert certs["tangency_gap"] < 1e-9
        assert certs["alpha_plus_tau_residual"] < 1e-9
        assert report["grid_check"]["gap"] <= 2.0 * report["grid_check"]["grid_step"]

    def test_largest_sides(self):
        res = run_cli("optimize", "--b", "20", "--c", "20")
        assert res.returncode == 0, res.stderr
        certs = json.loads(res.stdout)["certificates"]
        assert certs["right_angle_residual"] <= 1e-9
        assert certs["tangency_gap"] <= 1e-9
        assert certs["alpha_plus_tau_residual"] <= 1e-9

    def test_thin_triangle_grid_witness(self):
        # the law-of-cosines witness lost every digit here and landed on the
        # grid's last point, 50,000 steps from alpha*
        res = run_cli(
            "optimize", "--b", "1.6342918279229495e-05", "--c", "0.000272367714039238"
        )
        assert res.returncode == 0, res.stderr
        grid = json.loads(res.stdout)["grid_check"]
        assert grid["gap"] <= grid["grid_step"]

    def test_tiny_triangle_is_optimized(self):
        # at alpha* = acos(u), about pi/2, the largest area is pi - 2 alpha*,
        # within a few ulps, and the certificates vanish
        mpmath = pytest.importorskip("mpmath")
        res = run_cli("optimize", "--b", "1e-8", "--c", "1e-8")
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        with mpmath.workdps(50):
            u = mpmath.tanh(mpmath.mpf(1e-8) / 2) ** 2
            area = mpmath.pi - 2 * mpmath.acos(u)
        assert abs(report["solution"]["area"] - area) <= 4 * math.ulp(float(area))
        assert max(report["certificates"].values()) <= 1e-15

    def test_bad_input_exit_2(self):
        assert run_cli("optimize", "--b", "0", "--c", "1").returncode == 2


class TestSteinerCommand:
    def test_run_and_trace(self, tmp_path):
        trace = tmp_path / "trace.csv"
        out = tmp_path / "report.json"
        res = run_cli(
            "steiner", "--n", "6", "--seed", "3",
            "--trace-csv", str(trace), "--output", str(out),
        )
        assert res.returncode == 0
        report = json.loads(out.read_text())
        assert report["converged"] is True
        assert report["final"]["deficit"] < report["initial"]["deficit"]
        lines = trace.read_text().splitlines()
        assert lines[0] == "iter,vertex,area,perimeter,residual"
        perim0 = report["initial"]["perimeter"]
        areas = []
        for line in lines[1:]:
            _, _, area, perimeter, _ = line.split(",")
            areas.append(float(area))
            assert abs(float(perimeter) - perim0) < 1e-9
        assert all(a2 >= a1 - 1e-12 for a1, a2 in zip(areas, areas[1:]))

    def test_reports_rejected_moves(self, tmp_path, monkeypatch, capsys):
        # no seeded polygon has been seen to refuse a move, so the command
        # runs in process with its first move patched to a reflex position,
        # and so does the library run it is checked against
        from test_polygon import refuse_once

        from hyplobe import cli, random_convex_polygon, steiner_optimize

        refuse_once(monkeypatch)
        argv = ["steiner", "--n", "8", "--seed", "0", "--trace-csv", str(tmp_path / "t.csv")]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        refuse_once(monkeypatch)
        result = steiner_optimize(random_convex_polygon(8, 0))
        assert report["moves_rejected"] == result.moves_rejected == 1
        assert report["moves_accepted"] == len(result.trace)

    def test_unconverged_run_exit_3(self, tmp_path):
        # at a tol below what doubles reach, the run stops after a sweep that
        # does not lower its residual (16 sweeps here, the most measured),
        # which stays above tol times the mean side; the report's residual is
        # the trace's last
        out, trace = tmp_path / "report.json", tmp_path / "t.csv"
        res = run_cli("steiner", "--n", "3", "--seed", "70", "--tol", "1e-30",
                      "--trace-csv", str(trace), "--output", str(out))
        assert res.returncode == 3
        report = json.loads(out.read_text())
        assert report["converged"] is False and report["sweeps"] <= 20
        mean_side = report["final"]["perimeter"] / report["n"]
        assert report["final"]["residual"] > report["tol"] * mean_side
        last = trace.read_text().splitlines()[-1]
        assert float(last.rsplit(",", 1)[1]) == report["final"]["residual"]

    def test_report_measures_each_polygon_once(self, tmp_path, monkeypatch, capsys):
        # counted in process: the generator's polygon and one polygon per
        # move, so moves + 1 in all; the initial and final areas are the
        # input's and the run's polygons' own, and the residual the run's,
        # each equal to a fresh measurement
        from hyplobe import cli, polygon

        calls = []
        measure = polygon._measure
        monkeypatch.setattr(polygon, "_measure", lambda vs: calls.append(vs) or measure(vs))
        argv = ["steiner", "--n", "8", "--seed", "42", "--trace-csv", str(tmp_path / "t.csv")]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["moves_accepted"] == 11 and len(calls) == 11 + 1
        monkeypatch.undo()
        poly = polygon.random_convex_polygon(8, 42)
        vertices = polygon.steiner_optimize(poly).polygon.vertices
        final = polygon.HyperbolicPolygon.from_vertices(vertices)  # measured afresh
        area = final.area
        spec = polygon.regular_polygon_for_perimeter(8, polygon.polygon_perimeter(final))
        regular = polygon.regular_polygon(spec).area
        assert report["initial"]["area"] == poly.area
        assert report["final"]["area"] == area
        assert report["final"]["residual"] == polygon.max_optimality_residual(final)
        assert report["final"]["area_gap_to_regular"] == regular - area
        assert abs(regular - area) <= 2 * 8 * math.ulp(regular)

    def test_counts_are_ints_and_measures_floats(self, tmp_path):
        res = run_cli("steiner", "--n", "6", "--seed", "3",
                      "--trace-csv", str(tmp_path / "t.csv"))
        report = json.loads(res.stdout)
        counts = ("n", "seed", "sweeps", "moves_accepted", "moves_rejected")
        assert all(type(report.pop(key)) is int for key in counts)
        assert report.pop("converged") is True
        assert all(type(x) is float for x in numbers(report))

    @pytest.mark.parametrize("n", ["24", "32"])
    def test_defaults_converge_at_moderate_n(self, tmp_path, n):
        # moderate n converges at the default --tol
        res = run_cli("steiner", "--n", n, "--seed", "0",
                      "--trace-csv", str(tmp_path / "t.csv"))
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["converged"] is True and report["moves_rejected"] == 0

    def test_bad_input_exit_2(self, tmp_path):
        res = run_cli("steiner", "--n", "2", "--seed", "0",
                      "--trace-csv", str(tmp_path / "t.csv"))
        assert res.returncode == 2

    def test_negative_seed_exit_2(self, tmp_path):
        res = run_cli("steiner", "--n", "6", "--seed", "-1",
                      "--trace-csv", str(tmp_path / "t.csv"))
        assert res.returncode == 2
        assert res.stderr == "error: the seed must be a non-negative integer\n"

    @pytest.mark.parametrize("option, value, message", [
        ("--tol", "nan", "tol must be positive and finite"),
        ("--tol", "inf", "tol must be positive and finite"),
    ])
    def test_bad_tol_and_sweeps_exit_2(self, tmp_path, option, value, message):
        res = run_cli("steiner", "--n", "6", "--seed", "3", option, value,
                      "--trace-csv", str(tmp_path / "t.csv"))
        assert res.returncode == 2
        assert res.stderr == f"error: {message}\n"

    def test_max_sweeps_is_an_unknown_option(self, tmp_path):
        # a run stops on its residual alone, so there is no sweep cap to set
        res = run_cli("steiner", "--n", "6", "--seed", "3", "--max-sweeps", "500",
                      "--trace-csv", str(tmp_path / "t.csv"))
        assert res.returncode == 2
        assert "unrecognized arguments: --max-sweeps 500" in res.stderr


class TestIsoperimetricCommand:
    def test_sweep_table(self):
        res = run_cli("isoperimetric", "--n-min", "3", "--n-max", "12",
                      "--perimeter", "7.0")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "n,area,deficit"
        rows = [line.split(",") for line in lines[1:]]
        assert rows[-1][0] == "circle"
        deficits = [float(r[2]) for r in rows[:-1]]
        assert all(d2 < d1 for d1, d2 in zip(deficits, deficits[1:]))
        assert abs(float(rows[-1][2])) < 1e-9
        # polygon areas increase toward the circle area from below
        circle_area = float(rows[-1][1])
        assert all(float(r[1]) < circle_area for r in rows[:-1])

    @pytest.mark.parametrize("perimeter", ["1e-8", "1e-12"])
    def test_tiny_perimeter_keeps_the_circle_on_top(self, perimeter):
        # 2 pi (cosh r - 1) cancels to 0 at these radii, which the deficit
        # would refuse with exit 2
        res = run_cli("isoperimetric", "--n-max", "24", "--perimeter", perimeter)
        assert res.returncode == 0, res.stderr
        rows = [line.split(",") for line in res.stdout.splitlines()[1:]]
        assert rows[-1][0] == "circle"
        circle_area = float(rows[-1][1])
        assert all(float(r[1]) < circle_area for r in rows[:-1])
        # the circle's deficit is zero to a few ulps of L^2
        L = float(perimeter)
        assert abs(float(rows[-1][2])) <= 2e-15 * L * L

    @pytest.mark.parametrize("perimeter", ["1e-160", "1e-300"])
    def test_subnormal_areas_refused(self, perimeter):
        # the regular polygons' closed-form areas are subnormal here, bits
        # short, and refused as the measured polygons' are: no subnormal
        # area or negative deficit is printed
        res = run_cli("isoperimetric", "--perimeter", perimeter)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "area is subnormal" in res.stderr

    def test_bad_range_exit_2(self):
        assert run_cli("isoperimetric", "--n-min", "2", "--perimeter", "5").returncode == 2
        assert run_cli("isoperimetric", "--perimeter", "1e9").returncode == 2


class TestVerifyCommand:
    def test_all_checks_pass(self):
        res = run_cli("verify", "--samples", "50", "--seed", "0")
        assert res.returncode == 0
        assert "all properties passed" in res.stdout
        assert "FAIL" not in res.stdout

    def test_fault_injection_is_caught(self):
        res = run_cli("verify", "--samples", "50", "--seed", "0",
                      "--inject-fault", "tau-sign")
        assert res.returncode == 1
        assert "FAIL area-equivalence" in res.stdout

    def test_library_fault_is_caught(self, monkeypatch, capsys):
        # tau's sign flipped in the library itself, not by a switch of verify
        from hyplobe import cli, triangle

        build_figure1 = triangle.build_figure1
        monkeypatch.setattr(
            triangle, "build_figure1",
            lambda *args: (fig := build_figure1(*args))._replace(tau=-fig.tau),
        )
        assert cli.main(["verify", "--samples", "50", "--seed", "0"]) == 1
        out = capsys.readouterr().out
        assert "FAIL area-equivalence" in out
        assert "FAIL optimality-certificates" in out

    def test_negative_seed_is_bad_input(self):
        res = run_cli("verify", "--samples", "10", "--seed", "-1")
        assert res.returncode == 2
        assert res.stderr.startswith("error: ")

    def test_no_samples_is_bad_input(self):
        res = run_cli("verify", "--samples", "0")
        assert res.returncode == 2
        assert res.stderr == "error: samples must be at least 1\n"
        assert res.stdout == ""


class TestOutputFailures:
    """An output path that cannot be written is bad input (exit 2); a
    non-finite value in the output is an internal fault (exit 3)."""

    MISSING = f"error: cannot write {{}}: {os.strerror(errno.ENOENT)}\n"

    def test_unwritable_report_exit_2(self, tmp_path):
        path = tmp_path / "missing" / "x.json"
        res = run_cli("triangle", "--b", "1.0", "--c", "1.2", "--alpha", "0.9",
                      "--output", str(path))
        assert res.returncode == 2
        assert res.stderr == self.MISSING.format(path)

    def test_unwritable_trace_exit_2(self, tmp_path):
        path = tmp_path / "missing" / "t.csv"
        res = run_cli("steiner", "--n", "6", "--seed", "3", "--trace-csv", str(path))
        assert res.returncode == 2
        assert res.stderr == self.MISSING.format(path)
        assert res.stdout == ""

    def test_non_finite_json_exit_3(self, monkeypatch, capsys):
        from hyplobe import cli, triangle

        solve_sas = triangle.solve_sas
        monkeypatch.setattr(
            triangle, "solve_sas", lambda *args: solve_sas(*args)._replace(area=math.nan)
        )
        assert cli.main(["triangle", "--b", "1.0", "--c", "1.2", "--alpha", "0.9"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: non-finite value")

    def test_non_finite_csv_exit_3(self, monkeypatch, capsys):
        from hyplobe import cli, polygon

        regular_polygon = polygon.regular_polygon
        monkeypatch.setattr(
            polygon, "regular_polygon", lambda spec: regular_polygon(spec)._replace(area=math.nan)
        )
        assert cli.main(["isoperimetric", "--perimeter", "6.0", "--n-max", "5"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: non-finite value nan")


class TestImportBudget:
    """Each command loads only the modules it runs: polygon only for polygon
    commands, json only for JSON reports, argparse only for help, --version
    and usage errors, random only for the seeded commands, and never numpy,
    scipy, dataclasses or inspect."""

    # besides hyplobe's own modules; the interpreter runs with site off (-S),
    # as a site-packages .pth hook may import random before hyplobe does
    HEAVY = ("numpy", "scipy", "dataclasses", "inspect")
    WATCHED = ("json", "argparse", "random") + HEAVY

    # the harness itself loads no json: argvs go in as a literal, stages
    # come out as a repr
    SCRIPT = """
import contextlib, io, sys
def loaded():
    return sorted(m for m in sys.modules if m in WATCHED or m.startswith("hyplobe."))
import hyplobe
stages = [loaded()]
import hyplobe.cli
stages.append(loaded())
for argv in ARGVS:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = hyplobe.cli.main(argv)
        except SystemExit as exc:  # help, --version and usage errors
            code = exc.code
    assert code == EXIT_CODE, (argv, code)
    stages.append(loaded())
print(repr(stages))
"""

    def modules_loaded(self, *argvs, exit_code=0):
        """Watched modules loaded after `import hyplobe`, after importing the
        CLI, then after each command, all in one fresh interpreter; each
        command must end with exit_code."""
        script = (f"WATCHED = {self.WATCHED!r}\nARGVS = {list(argvs)!r}\n"
                  f"EXIT_CODE = {exit_code!r}" + self.SCRIPT)
        res = subprocess.run(
            [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=120
        )
        assert res.returncode == 0, res.stderr
        return ast.literal_eval(res.stdout)

    def test_bare_import_loads_no_submodule(self):
        assert self.modules_loaded() == [[], ["hyplobe.cli", "hyplobe.errors"]]

    def test_every_public_name_resolves(self):
        script = """
import hyplobe
names = list(hyplobe.__all__)
star = {}
exec("from hyplobe import *", star)
assert sorted(star.keys() - {"__builtins__"}) == sorted(names), "star import"
assert all(star[n] is getattr(hyplobe, n) for n in names)
assert set(names) <= set(dir(hyplobe))
assert hyplobe.DiskPoint is hyplobe.disk.DiskPoint
assert hyplobe.steiner_optimize is hyplobe.polygon.steiner_optimize
assert not hasattr(hyplobe, "no_such_name")
print(len(names), len(set(names)))
"""
        res = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["38", "38"]

    # the six request kinds of the cli-cold benchmark, help, --version and a
    # usage error (no --alpha), each alone in a fresh interpreter
    @pytest.mark.parametrize("argv, exit_code, loaded", [
        (["triangle", "--b", "1.0", "--c", "1.2", "--alpha", "0.9"], 0,
         {"cli", "disk", "errors", "triangle", "json"}),
        (["triangle", "--b", "1.0", "--c", "1.2", "--alpha", "0.9", "--format", "svg"], 0,
         {"cli", "disk", "errors", "svgfig", "triangle"}),
        (["optimize", "--b", "1.0", "--c", "1.5"], 0,
         {"cli", "disk", "errors", "oracle", "triangle", "json"}),
        (["isoperimetric", "--perimeter", "7.0"], 0, {"cli", "disk", "errors", "polygon"}),
        (["steiner", "--n", "6", "--seed", "3", "--trace-csv", "-"], 0,
         {"cli", "disk", "errors", "polygon", "json", "random"}),
        (["verify", "--samples", "10", "--seed", "0"], 0,
         {"cli", "disk", "errors", "oracle", "polygon", "triangle", "verify", "random"}),
        (["-h"], 0, {"cli", "errors", "argparse"}),
        (["--version"], 0, {"cli", "errors", "argparse"}),
        (["triangle", "--b", "1.0", "--c", "1.2"], 2, {"cli", "errors", "argparse"}),
    ], ids=["triangle", "svg", "optimize", "isoperimetric", "steiner", "verify", "help",
            "version", "usage-error"])
    def test_command_loads_exactly(self, argv, exit_code, loaded):
        stages = self.modules_loaded(argv, exit_code=exit_code)
        assert {m.removeprefix("hyplobe.") for m in stages[-1]} == loaded

    def heavy(self, stage):
        return [m for m in stage if m in self.HEAVY]

    # the tests below check one property each, at every stage: after the
    # imports and after each of several commands run in one interpreter
    @pytest.mark.parametrize("argv, loads_json", [
        (["triangle", "--b", "1.0", "--c", "1.2", "--alpha", "0.9"], True),
        (["optimize", "--b", "1.0", "--c", "1.5"], True),
        (["steiner", "--n", "6", "--seed", "3", "--trace-csv", "-"], True),
        (["triangle", "--b", "1.0", "--c", "1.2", "--alpha", "0.9", "--format", "svg"], False),
        (["isoperimetric", "--perimeter", "7.0"], False),
        (["verify", "--samples", "10", "--seed", "0"], False),
    ], ids=["triangle", "optimize", "steiner", "svg", "isoperimetric", "verify"])
    def test_only_json_reports_load_json(self, argv, loads_json):
        loaded = self.modules_loaded(argv)
        assert ["json" in stage for stage in loaded] == [False, False, loads_json]

    def test_well_formed_commands_load_no_argparse(self):
        # the six request kinds of the cli-cold benchmark
        loaded = self.modules_loaded(
            ["triangle", "--b", "1.0", "--c", "1.2", "--alpha", "0.9"],
            ["triangle", "--b", "1.0", "--c", "1.2", "--alpha", "0.9", "--format", "svg"],
            ["optimize", "--b", "1.0", "--c", "1.5"],
            ["isoperimetric", "--n-max", "96", "--perimeter", "7.0"],
            ["steiner", "--n", "6", "--seed", "3", "--trace-csv", "-"],
            ["verify", "--samples", "50", "--seed", "3"],
        )
        assert ["argparse" in stage for stage in loaded] == [False] * 8

    def test_triangle_and_isoperimetric_load_neither(self):
        loaded = self.modules_loaded(
            ["triangle", "--b", "1.0", "--c", "1.2", "--alpha", "0.9"],
            ["triangle", "--b", "1.0", "--c", "1.2", "--alpha", "0.9", "--format", "svg"],
            ["isoperimetric", "--perimeter", "7.0"],
        )
        # after the imports, then each command
        assert [self.heavy(stage) for stage in loaded] == [[]] * 5

    def test_triangle_and_optimize_leave_polygon_unloaded(self):
        loaded = self.modules_loaded(
            ["triangle", "--b", "1.0", "--c", "1.2", "--alpha", "0.9"],
            ["triangle", "--b", "1.0", "--c", "1.2", "--alpha", "0.9", "--format", "svg"],
            ["optimize", "--b", "1.0", "--c", "1.5"],
        )
        assert all("hyplobe.polygon" not in stage for stage in loaded)
        assert "hyplobe.verify" not in loaded[-1]

    def test_steiner_leaves_numpy_unloaded(self, tmp_path):
        loaded = self.modules_loaded(
            ["steiner", "--n", "6", "--seed", "3", "--trace-csv", str(tmp_path / "t.csv")],
        )
        assert "hyplobe.polygon" in loaded[-1]
        assert "hyplobe.triangle" not in loaded[-1]
        assert self.heavy(loaded[-1]) == []

    def test_isoperimetric_loads_neither_triangle_nor_the_rng(self):
        loaded = self.modules_loaded(["isoperimetric", "--perimeter", "7.0"])
        assert loaded[-1] == ["hyplobe.cli", "hyplobe.disk", "hyplobe.errors", "hyplobe.polygon"]

    def test_optimize_leaves_numpy_unloaded(self):
        loaded = self.modules_loaded(["optimize", "--b", "0.8", "--c", "1.7"])
        assert "hyplobe.oracle" in loaded[-1]
        assert self.heavy(loaded[-1]) == []

    def test_verify_leaves_numpy_unloaded(self):
        loaded = self.modules_loaded(["verify", "--samples", "10", "--seed", "3"])
        assert "hyplobe.verify" in loaded[-1]
        assert self.heavy(loaded[-1]) == []

    def test_no_command_loads_dataclasses(self, tmp_path):
        loaded = self.modules_loaded(
            ["triangle", "--b", "1.0", "--c", "1.2", "--alpha", "0.9"],
            ["triangle", "--b", "1.0", "--c", "1.2", "--alpha", "0.9", "--format", "svg"],
            ["optimize", "--b", "1.0", "--c", "1.5"],
            ["isoperimetric", "--perimeter", "7.0"],
            ["steiner", "--n", "6", "--seed", "3", "--trace-csv", str(tmp_path / "t.csv")],
            ["verify", "--samples", "10", "--seed", "0"],
        )
        assert [self.heavy(stage) for stage in loaded] == [[]] * 8

    def test_no_command_loads_scipy(self, tmp_path):
        loaded = self.modules_loaded(
            ["steiner", "--n", "6", "--seed", "3", "--trace-csv", str(tmp_path / "t.csv")],
            ["optimize", "--b", "1.0", "--c", "1.5"],
            ["verify", "--samples", "10", "--seed", "0"],
        )
        assert all("scipy" not in mods for mods in loaded)

    def test_no_module_needs_numpy(self):
        # numpy set to None in sys.modules makes every import of it fail
        script = """
import importlib, pkgutil, sys
sys.modules["numpy"] = None
import hyplobe
names = [m.name for m in pkgutil.iter_modules(hyplobe.__path__) if m.name != "__main__"]
for name in names:
    importlib.import_module("hyplobe." + name)
from hyplobe import oracle
oracle.grid_search_max_area(1.0, 1.2, 1000)
print(" ".join(sorted(names)))
"""
        res = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == [
            "cli", "disk", "errors", "oracle", "polygon", "svgfig", "triangle", "verify"
        ]


class TestTopLevel:
    def test_version(self):
        res = run_cli("--version")
        assert res.returncode == 0
        assert res.stdout.startswith("hyplobe ")

    def test_missing_subcommand_fails(self):
        assert run_cli().returncode != 0


TRIANGLE = ["triangle", "--b", "1.0", "--c", "1.2", "--alpha", "0.9"]
# argparse's usage lines at COLUMNS=80, which a usage error prints byte for
# byte
USAGE = {
    "hyplobe": "usage: hyplobe [-h] [--version]\n"
               "               {triangle,optimize,steiner,isoperimetric,verify} ...\n",
    "triangle": "usage: hyplobe triangle [-h] --b B --c C --alpha ALPHA [--format {json,svg}]\n"
                "                        [--output OUTPUT]\n",
    "steiner": "usage: hyplobe steiner [-h] --n N --seed SEED [--tol TOL]\n"
               "                       [--trace-csv TRACE_CSV] [--output OUTPUT]\n",
    "isoperimetric":
        "usage: hyplobe isoperimetric [-h] [--n-min N_MIN] [--n-max N_MAX] --perimeter\n"
        "                             PERIMETER [--output OUTPUT]\n",
}


def run_main(argv, capsys):
    """cli.main(argv) in process: (exit code, stdout, stderr)."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _value_texts(kind):
    """Strings the option of this kind takes as they are."""
    if isinstance(kind, list):
        return st.sampled_from(kind)
    if kind is float:
        return st.one_of(st.floats(min_value=0.0).map(lambda x: repr(abs(x))),
                         st.sampled_from(["nan", "inf", "1e-6", " 2.5", "1_000.5", "20"]))
    if kind is int:
        return st.integers(min_value=0, max_value=10**30).map(str)
    return st.text(max_size=12).filter(lambda v: v == "-" or not v.startswith("-"))


# every flag and its abbreviations; then tokens that make a command line
# ill-formed, or leave it well-formed by chance
_OPTIONS = [option for _, _, options in cli._COMMANDS.values() for option in options]
_FLAGS = st.sampled_from(sorted({flag[:k] for flag, *_ in _OPTIONS
                                 for k in range(3, len(flag) + 1)}))
_TOKENS = st.one_of(
    _FLAGS,
    st.sampled_from(["--b=1.0", "--max-sweeps", "-h", "--help", "--version", "--", "-",
                     "-1", "-0.5", "3.0", "pdf", "nan", "", *cli._COMMANDS,
                     *(value for _, kind, *_ in _OPTIONS if isinstance(kind, list)
                       for value in kind)]),
    st.text(max_size=6),
)


@st.composite
def command_lines(draw):
    """(argv, well_formed): a command line drawn from the option table, with
    every required option and some others in any order; then, unless it
    stays well-formed, up to three edits: a token dropped or inserted, a
    flag or a value replaced, or a pair inserted."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    argv = [command]
    for flag, kind, default, _ in draw(st.permutations(cli._COMMANDS[command][2])):
        if default is cli._REQUIRED or draw(st.booleans()):
            argv += [flag, draw(_value_texts(kind))]
    edits = draw(st.integers(0, 3))
    for _ in range(edits):
        edit = draw(st.sampled_from(["drop", "insert", "flag", "value", "pair"]))
        k = draw(st.integers(0, len(argv)))
        if edit == "drop":
            del argv[k:k + 1]
        elif edit == "insert":
            argv.insert(k, draw(_TOKENS))
        elif edit == "pair":
            argv[k | 1:k | 1] = [draw(_FLAGS), draw(_TOKENS)]
        elif edit == "flag" and k % 2:
            argv[k:k + 1] = [draw(_FLAGS)]
        elif edit == "value" and k and not k % 2:
            argv[k:k + 1] = [draw(_TOKENS)]
    return argv, edits == 0


def _reprs(args):
    # repr tells 1 from 1.0, and a NaN equals a NaN
    return {name: repr(value) for name, value in vars(args).items()}


class TestParsing:
    """A command line the fast path reads gives exactly argparse's namespace;
    every other one goes to argparse, with its exit codes and messages."""

    @given(command_lines())
    @settings(max_examples=400, deadline=None)
    def test_fast_path_agrees_with_argparse(self, case):
        argv, well_formed = case
        fast = cli._parse(argv)
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                slow = cli.build_parser().parse_args(argv)
            except SystemExit:
                slow = None
        if fast is not None:
            assert slow is not None and _reprs(fast) == _reprs(slow), argv
        if well_formed:
            assert fast is not None, argv

    @pytest.mark.parametrize("argv, exit_code, stderr", [
        (["triangle", "--b", "1.0", "--c", "1.2", "--alp", "0.9"], 0, ""),
        (["triangle", "--b=1.0", "--c", "1.2", "--alpha", "0.9"], 0, ""),
        # argparse keeps the last of a repeated option
        (["triangle", "--b", "2.0", "--c", "1.2", "--alpha", "0.9", "--b", "1.0"], 0, ""),
        (["steiner", "--n", "6", "--seed", "-1", "--trace-csv", "-"], 2,
         "error: the seed must be a non-negative integer\n"),
        ([*TRIANGLE, "--format", "pdf"], 2, USAGE["triangle"]
         + "hyplobe triangle: error: argument --format: invalid choice: 'pdf' "
           "(choose from 'json', 'svg')\n"),
        (["steiner", "--n", "3.0", "--seed", "0"], 2, USAGE["steiner"]
         + "hyplobe steiner: error: argument --n: invalid int value: '3.0'\n"),
        (["isoperimetric", "--n-max", "5"], 2, USAGE["isoperimetric"]
         + "hyplobe isoperimetric: error: the following arguments are required: --perimeter\n"),
        (["steiner", "--n", "6", "--seed", "3", "--max-sweeps", "500", "--trace-csv", "-"], 2,
         USAGE["hyplobe"] + "hyplobe: error: unrecognized arguments: --max-sweeps 500\n"),
        ([], 2, USAGE["hyplobe"]
         + "hyplobe: error: the following arguments are required: command\n"),
        (["--"], 2, USAGE["hyplobe"]
         + "hyplobe: error: the following arguments are required: command\n"),
    ], ids=["abbreviated", "equals", "repeated", "negative-seed", "bad-choice", "bad-int",
            "missing", "unknown", "empty", "double-dash"])
    def test_fallback_exit_codes_and_messages(self, argv, exit_code, stderr, capsys, monkeypatch):
        # a run that succeeds prints what the spelled-out triangle command
        # prints
        monkeypatch.setenv("COLUMNS", "80")
        assert cli._parse(argv) is None
        code, out, err = run_main(argv, capsys)
        assert (code, err) == (exit_code, stderr)
        if exit_code == 0:
            assert out == run_main(TRIANGLE, capsys)[1]

    @pytest.mark.parametrize("argv, parsers_built", [
        (TRIANGLE, 0),
        (["triangle", "--b=1.0", *TRIANGLE[3:]], 1),
    ], ids=["fast-path", "fallback"])
    def test_console_script_reads_sys_argv(self, argv, parsers_built, capsys, monkeypatch):
        # the `hyplobe` entry point calls main() with no argv
        parsers = []
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: parsers.append(1) or build_parser())
        monkeypatch.setattr(sys, "argv", ["hyplobe", *argv])
        assert run_main(None, capsys) == run_main(TRIANGLE, capsys)
        assert len(parsers) == parsers_built
        monkeypatch.setattr(sys, "argv", ["hyplobe", "--version"])
        assert run_main(None, capsys) == (0, f"hyplobe {cli.__version__}\n", "")
