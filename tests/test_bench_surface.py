"""The library names and command-line options the benchmark reaches into.

bench/ is kept unchanged while the library it times changes, so a name the
library drops, or an option the CLI drops, would break only the benchmark
run. The first check reads the benchmark's files with ast and changes
nothing; the second runs the benchmark's self-test outside the checkout.
"""

import ast
import importlib
import shutil
import subprocess
import sys
from pathlib import Path

from hyplobe import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
MISSING = object()


def _bound_by_imports(tree):
    """local name -> object for each `from hyplobe[.module] import name`;
    a name that does not resolve maps to MISSING."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "hyplobe":
            for alias in node.names:
                try:  # a submodule, such as `from hyplobe import polygon`
                    value = importlib.import_module(f"{node.module}.{alias.name}")
                except ImportError:
                    value = getattr(importlib.import_module(node.module), alias.name, MISSING)
                bound[alias.asname or alias.name] = value
    return bound


def _reached(tree, bound):
    """(spelling, attribute path) of each name the tree reaches through an
    imported name: attribute chains such as polygon.HyperbolicPolygon.from_vertices,
    getattr with a string, and getattr with the variable of a loop over a
    tuple of strings."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            path, base = [node.attr], node.value
            while isinstance(base, ast.Attribute):
                path.insert(0, base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id in bound:
                yield base.id, path
        elif isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            names = [n.value for n in getattr(node.iter, "elts", []) if _is_str(n)]
            if not names or len(names) != len(node.iter.elts):
                continue
            for call in ast.walk(node):
                if (_getattr_on(call, bound)
                        and getattr(call.args[1], "id", None) == node.target.id):
                    yield from ((call.args[0].id, [name]) for name in names)
        elif _getattr_on(node, bound) and _is_str(node.args[1]):
            yield node.args[0].id, [node.args[1].value]


def _is_str(node):
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def _getattr_on(node, bound):
    """Whether node is a call getattr(M, x, ...) with M an imported name."""
    return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
            and len(node.args) >= 2 and getattr(node.args[0], "id", None) in bound)


def _argvs(tree):
    """Each list literal of strings that begins with a subcommand or an --option."""
    for node in ast.walk(tree):
        if isinstance(node, ast.List) and node.elts:
            head = node.elts[0]
            if _is_str(head) and (head.value in cli._COMMANDS or head.value.startswith("--")):
                yield [e.value if _is_str(e) else None for e in node.elts]


def test_the_benchmark_reaches_only_names_and_options_that_exist():
    # every name child.py reaches on a hyplobe import resolves: the layers it
    # times, HyperbolicPolygon.from_vertices among them, and the oracle
    # searches traced_verify wraps by string
    child = ast.parse((BENCH / "child.py").read_text())
    bound = _bound_by_imports(child)
    assert {"cli", "disk", "oracle", "polygon", "svgfig", "triangle", "verify"} <= set(bound)
    missing = sorted(name for name, value in bound.items() if value is MISSING)
    reached = list(_reached(child, bound))
    for name, path in reached:
        value = bound[name]
        for attr in path:
            value = getattr(value, attr, MISSING)
        if value is MISSING:
            missing.append(".".join([name, *path]))
    assert missing == []
    spelled = {".".join([name, *path]) for name, path in reached}
    assert {"polygon.regular_polygon_for_perimeter", "polygon.HyperbolicPolygon.from_vertices",
            "oracle.grid_search_max_area", "oracle.geodesic_length_by_sampling"} <= spelled

    # every --option of an argv the benchmark sends is an option of its
    # subcommand: a list that begins with an option extends an argv built
    # elsewhere, and its options must belong to some subcommand
    options = {command: {flag for flag, *_ in spec[2]} for command, spec in cli._COMMANDS.items()}
    every_option = set().union(*options.values())
    argvs = {name: list(_argvs(ast.parse((BENCH / name).read_text())))
             for name in ("child.py", "inputs.py", "selftest.py")}
    unknown = [
        (name, argv, flag)
        for name, found in argvs.items()
        for argv in found
        for flag in argv
        if flag is not None and flag.startswith("--")
        and flag not in options.get(argv[0], every_option)
    ]
    assert unknown == []
    assert ["verify", "--samples", "50", "--seed", "0", "--inject-fault", "tau-sign"] in (
        argvs["selftest.py"]
    )
    assert {argv[0] for argv in argvs["inputs.py"]} == set(options)


def test_the_benchmark_self_test_passes(tmp_path):
    # every workload emits its declared metrics, traced and untraced, and the
    # checkers fail a wrong answer (verify --inject-fault tau-sign among them).
    # The self-test runs from a root holding this checkout's src and
    # BENCHMARK.json, so its output directory lands there, not in the checkout
    (tmp_path / "src").symlink_to(BENCH.parent / "src")
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    res = subprocess.run([sys.executable, str(BENCH / "selftest.py")], cwd=tmp_path,
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.endswith("selftest: all checks passed\n")
