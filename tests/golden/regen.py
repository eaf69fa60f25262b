"""Regenerate the golden artifacts that tests/test_golden.py compares against.

    python tests/golden/regen.py

Three kinds of artifact live next to this script:

* ``cli/``: the exact bytes of `python -m hyplobe` runs (stdout, and the
  trace CSV of a `steiner` run), one fresh process per case, including the
  `--help` of the program and of each subcommand;
* ``triangle_kernels.json``: a SHA-256 over the reprs of ``solve_sas``,
  ``build_figure1``, ``optimality_certificate`` and ``optimal_alpha`` on
  4,096 seeded inputs plus edge cases and refusals, with the reprs of the
  first inputs and of every refusal spelled out, so a mismatch names the
  first record that differs;
* ``polygon_kernels.json``: the same form for the polygon path: the seeded
  ``random_convex_polygon`` (n = 3-16, seeds 0-11), ``from_vertices``,
  ``steiner_move`` at every vertex, ``circumcircle_fit``,
  ``max_optimality_residual`` and ``steiner_optimize``, plus the polygons
  ``from_vertices`` must refuse.

A change that alters an artifact by design reruns this script and commits
the diff; any other change must leave every file here untouched.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
SRC = GOLDEN.parent.parent / "src"
CLI_DIR = GOLDEN / "cli"
KERNELS = GOLDEN / "triangle_kernels.json"
POLYGON_KERNELS = GOLDEN / "polygon_kernels.json"

# name -> argv after `python -m hyplobe`; a steiner run also writes
# <name>.trace.csv. The suffix of the name is the stdout's format.
CLI_CASES = {
    "triangle_order_one.json": ["triangle", "--b", "1.0", "--c", "1.2", "--alpha", "0.9"],
    "triangle_tiny.json": ["triangle", "--b", "1e-6", "--c", "2e-6", "--alpha", "1.0"],
    "triangle_near_dmax.json": ["triangle", "--b", "19.5", "--c", "20", "--alpha", "0.7"],
    "triangle_order_one.svg": [
        "triangle", "--b", "1.0", "--c", "1.2", "--alpha", "0.9", "--format", "svg"],
    "triangle_obtuse.svg": [
        "triangle", "--b", "0.8", "--c", "1.5", "--alpha", "2.0", "--format", "svg"],
    "optimize_order_one.json": ["optimize", "--b", "1.0", "--c", "1.5"],
    "optimize_tiny.json": ["optimize", "--b", "1e-5", "--c", "3e-5"],
    "optimize_near_dmax.json": ["optimize", "--b", "18", "--c", "20"],
    "steiner_n8_seed42.json": ["steiner", "--n", "8", "--seed", "42"],
    "steiner_n12_seed7.json": ["steiner", "--n", "12", "--seed", "7"],
    "isoperimetric_p6.csv": ["isoperimetric", "--perimeter", "6.0"],
    "isoperimetric_p0.5.csv": [
        "isoperimetric", "--perimeter", "0.5", "--n-min", "3", "--n-max", "24"],
    "verify_seed0.txt": ["verify", "--samples", "200", "--seed", "0"],
    "verify_seed1.txt": ["verify", "--samples", "200", "--seed", "1"],
    "verify_seed2.txt": ["verify", "--samples", "200", "--seed", "2"],
    "help.txt": ["--help"],
    **{f"help_{command}.txt": [command, "--help"]
       for command in ("triangle", "optimize", "steiner", "isoperimetric", "verify")},
}

KERNEL_SEED = 11
KERNEL_RANDOM = 4096
KERNEL_SPELLED_OUT = 64

POLYGON_SIZES = range(3, 17)
POLYGON_SEEDS = range(12)
# steiner_optimize runs to the end on every polygon up to POLYGON_OPTIMIZED_N
POLYGON_OPTIMIZED_N = 12


def writes_trace(argv: list[str]) -> bool:
    """Whether a case is a steiner run, which writes a trace CSV."""
    return argv[0] == "steiner" and "--help" not in argv


def run_cli_case(name: str, outdir: Path) -> dict[str, bytes]:
    """Run one case in a fresh interpreter; return {file name: bytes}."""
    argv = list(CLI_CASES[name])
    trace = None
    if writes_trace(argv):
        trace = outdir / (name.rsplit(".", 1)[0] + ".trace.csv")
        argv += ["--trace-csv", str(trace)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["COLUMNS"] = "80"  # argparse wraps --help to the terminal's width
    res = subprocess.run(
        [sys.executable, "-m", "hyplobe", *argv], capture_output=True, env=env, timeout=300
    )
    if res.returncode != 0:
        raise RuntimeError(f"{name}: exit {res.returncode}: {res.stderr.decode()}")
    files = {name: res.stdout}
    if trace is not None:
        files[trace.name] = trace.read_bytes()
    return files


def kernel_inputs() -> list[tuple[float, float, float]]:
    """Seeded (b, c, alpha): sides log-uniform on [1e-6, 20], alpha uniform on
    (0.01, pi - 0.01); then edge cases and inputs every kernel must refuse."""
    import numpy as np

    from hyplobe.disk import D_MAX
    from hyplobe.triangle import ALPHA_EPS

    rng = np.random.default_rng(KERNEL_SEED)
    lo, hi = math.log(1e-6), math.log(D_MAX)
    inputs = []
    for _ in range(KERNEL_RANDOM):
        b = math.exp(rng.uniform(lo, hi))
        c = math.exp(rng.uniform(lo, hi))
        inputs.append((b, c, float(rng.uniform(0.01, math.pi - 0.01))))
    near_zero = ALPHA_EPS * (1.0 + 1e-9)
    inputs += [
        (1.0, 1.0, near_zero), (1.0, 1.0, math.pi - near_zero),
        (1e-3, 2.0, near_zero), (D_MAX, D_MAX, math.pi - near_zero),
        (0.5, 0.5, 1.0), (1e-6, 1e-6, 2.0), (7.0, 7.0, 0.3),
        (D_MAX, D_MAX, 1.0), (D_MAX, D_MAX, 0.5 * math.pi), (D_MAX, 1e-6, 1.0),
        (1e-6, 1.0, 3e-6),  # near-collinear: omega's radius is ~3e11
    ]
    for bad in (0.0, -1.0, 21.0, math.nan, math.inf, -math.inf):
        inputs += [(bad, 1.0, 1.0), (1.0, bad, 1.0)]
    inputs += [(1.0, 1.0, 0.0), (1.0, 1.0, math.pi), (1.0, 1.0, math.nan)]
    inputs.append((1e-6, 1.0, 1.5e-6))  # B, C and the center collinear
    # sides so small that the defect is below roundoff and B meets C or the axis
    inputs += [(5e-324, 5e-324, 1.0), (1e-300, 1e-300, 1.0), (5e-324, 1.0, 1.0)]
    return inputs


def _record(fn, *args) -> tuple[str, object]:
    try:
        value = fn(*args)
    except Exception as exc:  # every refusal is part of the record
        return f"!{type(exc).__name__}: {exc}", None
    return repr(value), value


def kernel_line(b: float, c: float, alpha: float) -> str:
    """One input and the reprs (or refusals) of the four triangle kernels,
    with the figure and certificate at alpha and at the optimal alpha."""
    from hyplobe import triangle

    parts = [f"{b!r} {c!r} {alpha!r}"]
    sol, _ = _record(triangle.solve_sas, b, c, alpha)
    parts.append(sol)
    for apex in (alpha, None):
        if apex is None:
            rec, opt = _record(triangle.optimal_alpha, b, c)
            parts.append(rec)
            if opt is None:
                break
            apex = opt.alpha_star
        rec, fig = _record(triangle.build_figure1, b, c, apex)
        parts.append(rec)
        parts.append("-" if fig is None else _record(triangle.optimality_certificate, fig)[0])
    return " | ".join(parts)


def _golden(lines: list[str], **head) -> dict:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode() + b"\n")
    return {
        **head,
        "count": len(lines),
        "sha256": digest.hexdigest(),
        "first": lines[:KERNEL_SPELLED_OUT],
        "refusals": [line for line in lines if " | !" in line],
    }


def kernel_golden() -> dict:
    return _golden([kernel_line(*inp) for inp in kernel_inputs()], seed=KERNEL_SEED)


def polygon_refusal_cases() -> dict[str, list]:
    """Vertex lists from_vertices must refuse; a clockwise case is a triangle
    it accepts forwards, listed reversed."""
    from hyplobe.disk import DiskPoint, point_from_polar

    # the second triangle is thin: clockwise in disk coordinates, but
    # counterclockwise hyperbolically, as its interior angles show
    clockwise = [
        [DiskPoint(0.3, 0.0), DiskPoint(0.0, 0.3), DiskPoint(-0.3, 0.0)],
        [DiskPoint(-0.3715, -0.6989), DiskPoint(-0.2607, -0.6252),
         DiskPoint(0.5413, -0.2888)],
    ]
    return {
        "two_vertices": [DiskPoint(0.1, 0.0), DiskPoint(0.0, 0.1)],
        **{f"clockwise_{k}": tri[::-1] for k, tri in enumerate(clockwise)},
        "dented": [DiskPoint(0.4, 0.0), DiskPoint(0.0, 0.4), DiskPoint(-0.4, 0.0),
                   DiskPoint(0.0, 0.02)],
        # every turn is a left turn, but it winds twice
        "pentagram": [point_from_polar(1.0, 4.0 * math.pi * k / 5) for k in range(5)],
    }


def polygon_lines() -> list[str]:
    """One line per kernel call: the call, then the repr (or the refusal)."""
    from hyplobe import polygon

    lines = []
    for n in POLYGON_SIZES:
        for seed in POLYGON_SEEDS:
            rec, poly = _record(polygon.random_convex_polygon, n, seed)
            lines.append(f"{n} {seed} random_convex_polygon | {rec}")
            if poly is None:
                continue
            calls = [("from_vertices", polygon.HyperbolicPolygon.from_vertices, poly.vertices)]
            calls += [(f"steiner_move {i}", polygon.steiner_move, poly, i) for i in range(n)]
            calls += [
                ("max_optimality_residual", polygon.max_optimality_residual, poly),
                ("circumcircle_fit", polygon.circumcircle_fit, poly),
            ]
            if n <= POLYGON_OPTIMIZED_N:
                calls.append(("steiner_optimize", polygon.steiner_optimize, poly))
            lines += [f"{n} {seed} {name} | {_record(fn, *args)[0]}" for name, fn, *args in calls]
    for name, vertices in polygon_refusal_cases().items():
        parts = [f"{name} from_vertices"]
        if name.startswith("clockwise"):
            parts.append(_record(polygon.HyperbolicPolygon.from_vertices, vertices[::-1])[0])
        parts.append(_record(polygon.HyperbolicPolygon.from_vertices, vertices)[0])
        lines.append(" | ".join(parts))
    return lines


def polygon_golden() -> dict:
    return _golden(
        polygon_lines(), sizes=[POLYGON_SIZES[0], POLYGON_SIZES[-1]], seeds=len(POLYGON_SEEDS)
    )


def main() -> int:
    sys.path.insert(0, str(SRC))
    CLI_DIR.mkdir(exist_ok=True)
    for old in CLI_DIR.iterdir():
        old.unlink()
    for name in CLI_CASES:
        for fname, data in run_cli_case(name, CLI_DIR).items():
            (CLI_DIR / fname).write_bytes(data)
    KERNELS.write_text(json.dumps(kernel_golden(), indent=1) + "\n", encoding="utf-8")
    POLYGON_KERNELS.write_text(json.dumps(polygon_golden(), indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
