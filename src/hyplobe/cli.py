"""Command-line front end.

Subcommands: triangle, optimize, steiner, isoperimetric, verify. Reports are
JSON from the standard library's json (triangle can write an SVG instead);
traces and sweeps are CSV with '.' decimals and '\n' newlines. Every float is
printed as its repr, the shortest string that parses back to the same double,
so repeated runs diff byte-for-byte.

Each subcommand and its options are one entry of `_COMMANDS`. A well-formed
command line, the subcommand and then `--option VALUE` pairs with each option
spelled out once, is read straight from that table without argparse. Any
other command line (-h, --version, an abbreviated, unknown, repeated or
missing option, `--option=VALUE`, a value that begins with '-' or does not
convert) goes to the argparse parser built from the same table, so help,
--version and usage errors are argparse's own, and only they import it.

Exit codes: 0 success, 1 verification failure, 2 bad input or an output path
that cannot be written, 3 non-convergence (steiner only: the final residual
is above tol times the mean side); a non-finite output value also exits 3.
"""

from __future__ import annotations

import math
import os
import sys
from types import SimpleNamespace

from . import __version__
from .errors import DomainError, HyplobeError

# Each command imports the modules it runs, and nothing else: triangle, svg
# and optimize never load polygon, and the whole package needs only the
# standard library, so no command loads numpy.


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise HyplobeError(f"non-finite value {x} in output (internal bug)")
    return repr(x)


def _write(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror}") from None


def _write_json(report: dict, path: str | None) -> None:
    import json  # only the JSON-writing commands load it

    try:
        text = json.dumps(report, indent=2, allow_nan=False)
    except ValueError as exc:
        raise HyplobeError(f"non-finite value in output (internal bug): {exc}") from None
    _write(text + "\n", path)


def cmd_triangle(args) -> int:
    from . import triangle

    sol = triangle.solve_sas(args.b, args.c, args.alpha)
    fig = triangle.build_figure1(args.b, args.c, args.alpha)
    if args.format == "svg":
        from . import svgfig

        _write(svgfig.figure1_svg(fig), args.output)
        return 0
    report = {
        "inputs": {"b": args.b, "c": args.c, "alpha": args.alpha},
        "solution": sol._asdict(),
        "figure": {**fig._asdict(), "omega": fig.omega._asdict(), "psi": fig.psi._asdict()},
        "area_defect": sol.area,
    }
    _write_json(report, args.output)
    return 0


def cmd_optimize(args) -> int:
    from . import triangle
    from .oracle import grid_search_max_area

    opt = triangle.optimal_alpha(args.b, args.c)
    cert = triangle.optimality_certificate(
        triangle.build_figure1(args.b, args.c, opt.alpha_star)
    )
    grid = grid_search_max_area(args.b, args.c, 100_000)
    report = {
        "inputs": {"b": args.b, "c": args.c},
        "alpha_star": opt.alpha_star,
        "solution": opt.solution._asdict(),
        "certificates": {
            "right_angle_residual": abs(cert.acb_angle - math.pi / 2),
            "tangency_gap": cert.tangency_gap,
            "alpha_plus_tau_residual": cert.residual,
        },
        "grid_check": {
            "alpha_hat": grid.alpha_hat,
            "grid_step": grid.grid_step,
            "gap": abs(grid.alpha_hat - opt.alpha_star),
        },
    }
    _write_json(report, args.output)
    return 0


def _trace_csv(trace) -> str:
    lines = ["iter,vertex,area,perimeter,residual"]
    for step in trace:
        lines.append(
            f"{step.iteration},{step.vertex},{_fmt_float(step.area_after)},"
            f"{_fmt_float(step.perimeter)},{_fmt_float(step.residual)}"
        )
    return "\n".join(lines) + "\n"


def _destination(path: str | None) -> str | None:
    """None for stdout (no path or -), else the file's resolved path."""
    return None if path in (None, "-") else os.path.realpath(path)


def cmd_steiner(args) -> int:
    # on stdout the CSV and the JSON run together; in one file the report overwrites the trace
    if _destination(args.trace_csv) == _destination(args.output):
        raise DomainError("--trace-csv and --output must name different destinations")
    from . import polygon

    poly = polygon.random_convex_polygon(args.n, args.seed)
    result = polygon.steiner_optimize(poly, tol=args.tol)
    area0, perim0 = poly.area, polygon.polygon_perimeter(poly)
    area1, perim1 = result.polygon.area, polygon.polygon_perimeter(result.polygon)
    regular = polygon.regular_polygon_for_perimeter(args.n, perim1)
    _write(_trace_csv(result.trace), args.trace_csv)
    report = {
        "n": args.n,
        "seed": args.seed,
        "tol": args.tol,
        "sweeps": result.sweeps,
        "converged": result.converged,
        "moves_accepted": len(result.trace),
        "moves_rejected": result.moves_rejected,
        "initial": {
            "area": area0,
            "perimeter": perim0,
            "deficit": polygon.isoperimetric_deficit(perim0, area0),
        },
        "final": {
            "area": area1,
            "perimeter": perim1,
            "deficit": polygon.isoperimetric_deficit(perim1, area1),
            "residual": result.residual,
            "area_gap_to_regular": regular.area - area1,
        },
        "vertices": result.polygon.vertices,
    }
    _write_json(report, args.output)
    return 0 if result.converged else 3


def cmd_isoperimetric(args) -> int:
    from . import polygon

    if args.n_max < args.n_min:  # an n-min below 3 is refused by the first row
        raise DomainError("need n-min <= n-max")
    lines = ["n,area,deficit"]
    for n in range(args.n_min, args.n_max + 1):
        regular = polygon.regular_polygon_for_perimeter(n, args.perimeter)
        # a non-finite area is an internal fault (exit 3), checked before
        # isoperimetric_deficit refuses it as input
        area = _fmt_float(regular.area)
        deficit = polygon.isoperimetric_deficit(regular.perimeter, regular.area)
        lines.append(f"{n},{area},{_fmt_float(deficit)}")
    _, circumference, area = polygon.circle_for_circumference(args.perimeter)
    deficit = polygon.isoperimetric_deficit(circumference, area)
    lines.append(f"circle,{_fmt_float(area)},{_fmt_float(deficit)}")
    _write("\n".join(lines) + "\n", args.output)
    return 0


def cmd_verify(args) -> int:
    from . import verify

    results = verify.run_all(samples=args.samples, seed=args.seed, fault=args.inject_fault)
    print(f"verify: samples={args.samples} seed={args.seed}")
    failed = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.detail}")
        if not r.passed:
            failed.append(r.name)
    if failed:
        print(f"FAILED properties: {', '.join(failed)}", file=sys.stderr)
        return 1
    print("all properties passed")
    return 0


_REQUIRED = object()  # the default of an option that must be given
_HIDDEN = object()  # the help of an option that --help does not list

# command -> (handler, help, options); each option is (flag, kind, default,
# help), where kind is the value's type (float or int), the list of values
# allowed, or None for the string as given.
_COMMANDS = {
    "triangle": (cmd_triangle, "solve a SAS triangle and its disk construction", (
        ("--b", float, _REQUIRED, "side |AC|"),
        ("--c", float, _REQUIRED, "side |AB|"),
        ("--alpha", float, _REQUIRED, "apex angle at A (radians)"),
        ("--format", ["json", "svg"], "json", None),
        ("--output", None, None, None),
    )),
    "optimize": (cmd_optimize, "maximal-area apex angle for two fixed sides", (
        ("--b", float, _REQUIRED, None),
        ("--c", float, _REQUIRED, None),
        ("--output", None, None, None),
    )),
    "steiner": (cmd_steiner, "perimeter-preserving polygon improvement run", (
        ("--n", int, _REQUIRED, "number of vertices"),
        ("--seed", int, _REQUIRED, "non-negative integer seed (random.Random stream)"),
        ("--tol", float, 1e-8, "converged once every residual <= tol * perimeter / n"),
        ("--trace-csv", None, "steiner_trace.csv", "path for the per-move CSV trace"),
        ("--output", None, None, None),
    )),
    "isoperimetric": (cmd_isoperimetric, "regular-polygon deficit sweep at fixed perimeter", (
        ("--n-min", int, 3, None),
        ("--n-max", int, 96, None),
        ("--perimeter", float, _REQUIRED, None),
        ("--output", None, None, None),
    )),
    "verify": (cmd_verify, "run the oracle/property suite", (
        ("--samples", int, 200, None),
        ("--seed", int, 0, None),
        # verify.FAULT_TAU_SIGN, spelled out so that the table loads no verify
        ("--inject-fault", ["tau-sign"], None, _HIDDEN),
    )),
}


def build_parser():
    """The argparse parser of `_COMMANDS`, for help, --version and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="hyplobe",
        description="Maximal-area hyperbolic triangles and Steiner-style "
        "isoperimetric experiments in the Poincare disk.",
    )
    parser.add_argument("--version", action="version", version=f"hyplobe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, command_help, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        for flag, kind, default, option_help in options:
            choices = kind if isinstance(kind, list) else None
            p.add_argument(
                flag,
                type=None if choices else kind,
                choices=choices,
                required=default is _REQUIRED,
                default=None if default is _REQUIRED else default,
                help=argparse.SUPPRESS if option_help is _HIDDEN else option_help,
            )
        p.set_defaults(func=func)
    return parser


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse returns for `COMMAND (--option VALUE)*`, or None
    for any command line outside that form or that argparse would refuse.

    Every option must be the table's exact flag, given at most once, with a
    value that is a bare '-' or does not begin with '-', and that converts
    with the option's type or is one of its choices; every required option
    must be given.
    """
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    func, _, options = _COMMANDS[argv[0]]
    kinds = {flag: kind for flag, kind, _, _ in options}
    given = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        if flag not in kinds or flag in given or (value.startswith("-") and value != "-"):
            return None
        kind = kinds[flag]
        if isinstance(kind, list):
            if value not in kind:
                return None
        elif kind is not None:
            try:
                value = kind(value)
            except ValueError:
                return None
        given[flag] = value
    args = {"command": argv[0], "func": func}
    for flag, _, default, _ in options:
        value = given.get(flag, default)
        if value is _REQUIRED:
            return None
        args[flag[2:].replace("-", "_")] = value
    return SimpleNamespace(**args)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HyplobeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
