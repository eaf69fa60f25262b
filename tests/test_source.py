"""The package's own source, read with ast."""

import ast
import inspect
import sys
from pathlib import Path

import hyplobe
from hyplobe.disk import _TINY

PACKAGE = Path(hyplobe.__file__).resolve().parent


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _definitions(body):
    """(statement, name) for each name the statements bind at module level,
    also inside module-level if, try and with blocks."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield node, name.id
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            for block in ("body", "orelse", "finalbody"):
                yield from _definitions(getattr(node, block, []))
            for handler in getattr(node, "handlers", []):
                yield from _definitions(handler.body)


def _package_module(node, modules):
    """The package module a `from` import reads from (`.disk` or
    `hyplobe.disk`), '' for the package itself, or None."""
    dotted = node.module or ""
    if node.level == 0:
        if dotted.partition(".")[0] != "hyplobe":
            return None
        dotted = dotted.removeprefix("hyplobe").removeprefix(".")
    elif node.level > 1:
        return None
    return dotted if dotted == "" or dotted in modules else None


def _uses(module, tree, modules):
    """(node, (module, name)) for each Name and Attribute node of a module
    that reads a name: a bare name reads its own module's, or the one a
    `from` import of the package brought in under it; an attribute of a
    package module bound by a `from` import reads that module's name."""
    imported, aliases = {}, {}  # local name -> (module, name); local name -> module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _package_module(node, modules)
            for alias in node.names:
                local = alias.asname or alias.name
                if source == "" and alias.name in modules:
                    aliases[local] = alias.name
                elif source:
                    imported[local] = (source, alias.name)
    for node in ast.walk(tree):
        if not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        if isinstance(node, ast.Name):
            yield node, imported.get(node.id, (module, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                yield node, (aliases[node.value.id], node.attr)


def test_every_private_module_name_is_used():
    # A module-level _name (dunders aside) that no module of the package reads
    # outside its own definition is dead code; the tests do not count as
    # readers. Limits: imports and names are matched by spelling, whatever
    # their scope, so a local variable or parameter spelt like a module-level
    # name of its own module counts as a use of it; plain `import`
    # statements, getattr and strings are not followed.
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = {}  # (module, name) -> ids of the nodes that read it
    for module, tree in trees.items():
        for node, key in _uses(module, tree, trees):
            used.setdefault(key, set()).add(id(node))
    dead = []
    for module, tree in trees.items():
        for statement, name in _definitions(tree.body):
            own = {id(n) for n in ast.walk(statement)}
            if _is_private(name) and not used.get((module, name), set()) - own:
                dead.append(f"{module}.{name}")
    assert dead == []


def test_polygon_reads_four_private_disk_helpers():
    # the polygon core measures, walks and aims through these four alone;
    # the fan area takes its radii from _distance and its turns from _turn,
    # and each walk goes to a chart image (_step) aimed by one (_direction).
    # _distance is handed each vertex's _g, formed once per function, and
    # _TINY is the floor the fan areas are held to, as every guard is
    tree = ast.parse((PACKAGE / "polygon.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and _package_module(node, {"disk"}) == "disk"
        for alias in node.names
        if _is_private(alias.name)
    }
    assert imported == {"_TINY", "_direction", "_distance", "_g", "_step", "_turn"}


def _parents(tree):
    return {id(child): node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}


def test_the_coincidence_bound_is_relative_everywhere():
    # _COINCIDENT_TOL is read only as a factor of a product, the bound on one
    # length relative to another, never compared on its own as an absolute
    # distance or modulus
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    reads = []
    for module, tree in trees.items():
        parents = _parents(tree)
        for node, key in _uses(module, tree, trees):
            if key == ("disk", "_COINCIDENT_TOL"):
                parent = parents[id(node)]
                relative = isinstance(parent, ast.BinOp) and isinstance(parent.op, ast.Mult)
                reads.append((module, node.lineno, relative))
    assert {module for module, _, _ in reads} == {"disk"}
    assert all(relative for _, _, relative in reads), reads


def _constant_value(node):
    """The value of an expression built from number literals alone, or None."""
    for sub in ast.walk(node):
        if not isinstance(sub, (ast.Constant, ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop)):
            return None
    value = eval(compile(ast.Expression(node), "<constant>", "eval"))  # literals only
    return value if isinstance(value, (int, float)) else None


def test_the_normal_float_floor_is_read_from_disk():
    # disk._TINY, the smallest normal float, is the one floor: no module
    # spells it as a literal such as 2.0**-1022, or reads sys.float_info,
    # outside disk's definition of _TINY
    assert _TINY == sys.float_info.min
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        body = tree.body
        tree.body = [
            node for node in body
            if path.stem != "disk" or _spelled(getattr(node, "targets", [None])[0]) != "_TINY"
        ]
        found += [("disk", "_TINY")] * (len(body) - len(tree.body))  # the definition
        found += [
            (path.stem, node.lineno, ast.unparse(node))
            for node in ast.walk(tree)
            if isinstance(node, ast.expr)
            and (_constant_value(node) == sys.float_info.min or _spelled(node) == "float_info")
        ]
    assert found == [("disk", "_TINY")]


def _spelled(node):
    """The name a Name, Attribute, import alias or string constant spells."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def test_no_run_calls_the_circumcircle_fit():
    # the fit is kept for callers of the library alone: outside their own
    # definitions in polygon, circumcircle_fit and CircumcircleFit occur in
    # no name, attribute, import or string but the package's export table
    names = {"circumcircle_fit", "CircumcircleFit"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names:
                found.append((path.stem, "def", node.name))
                inside |= {id(n) for n in ast.walk(node)}
        found += [
            (path.stem, type(node).__name__, _spelled(node))
            for node in ast.walk(tree)
            if id(node) not in inside and _spelled(node) in names
        ]
    assert sorted(found) == [
        ("__init__", "Constant", "circumcircle_fit"),
        ("polygon", "def", "CircumcircleFit"),
        ("polygon", "def", "circumcircle_fit"),
    ]


def test_only_cli_and_verify_import_the_oracle():
    # the oracles are references for judging the solvers, so no solver or
    # certificate may call one: within the package, only the cli, for the
    # grid cross-check that optimize prints, and verify import oracle
    importers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {alias.name for alias in getattr(node, "names", [])}
            if isinstance(node, ast.ImportFrom):
                source = _package_module(node, {"oracle"})
                if source == "oracle" or (source == "" and "oracle" in names):
                    importers.add(path.stem)
            elif isinstance(node, ast.Import) and "hyplobe.oracle" in names:
                importers.add(path.stem)
    assert sorted(importers) == ["cli", "verify"]


def test_polygons_are_measured_where_they_are_made():
    # a polygon is measured once, where it is made: from_vertices measures a
    # new one (the checked constructor goes through it) and steiner_move a
    # move's; every other function reads the record's fields as they are
    calls, callers = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        calls += sum(
            isinstance(node, ast.Call) and _spelled(node.func) == "_measure"
            for node in ast.walk(tree)
        )
        callers += [
            (path.stem, func.name)
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
            if isinstance(node, ast.Call) and _spelled(node.func) == "_measure"
        ]
    assert sorted(callers) == [("polygon", "from_vertices"), ("polygon", "steiner_move")]
    assert calls == len(callers)


def test_every_verify_line_is_judged_by_one_function():
    # each check_* returns _judge's line, made from its (label, value, side,
    # bound) terms, and only _judge builds a CheckResult: a new line is one
    # more check of that form, so every line shows its bound
    tree = ast.parse((PACKAGE / "verify.py").read_text())
    checks = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("check_")
    ]
    returns = [
        (check.name, _spelled(node.value.func) if isinstance(node.value, ast.Call) else None)
        for check in checks
        for node in ast.walk(check)
        if isinstance(node, ast.Return)
    ]
    assert returns == [(check.name, "_judge") for check in checks]
    makers = {"CheckResult", "_make", "_replace"}
    builders = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and _spelled(node.func) in makers
    }
    assert builders == {"_judge"}


def test_every_verify_check_has_a_docstring():
    # each check_* says in its docstring what it compares against what, and
    # whether its bound is absolute
    tree = ast.parse((PACKAGE / "verify.py").read_text())
    bare = [
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("check_")
        and not ast.get_docstring(node)
    ]
    assert bare == []


def test_triangle_keeps_only_the_kernels():
    # triangle takes from disk only the records and constants its kernels
    # build, and defines the kernels, their helpers and records alone: Figure 1
    # step by step is the oracle's witness, and no public name resolves to an
    # oracle function, so no kernel can quietly go back to calling it
    tree = ast.parse((PACKAGE / "triangle.py").read_text())
    from_disk = {
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and _package_module(node, {"disk"}) == "disk"
        for alias in node.names
    }
    assert from_disk == {"_TINY", "D_MAX", "ORIGIN", "DiskPoint", "EuclideanCircle"}
    assert {node.name for node in tree.body if isinstance(node, ast.FunctionDef)} == {
        "_check_b_prime", "_check_sas_domain", "_check_solution", "_sas",
        "build_figure1", "optimal_alpha", "optimality_certificate", "solve_sas",
    }
    public = {name: getattr(hyplobe, name) for name in hyplobe.__all__}
    assert [
        name for name, value in public.items()
        if inspect.isfunction(value) and value.__module__ == "hyplobe.oracle"
    ] == []


def _raise_sites():
    """(module, line, message) for each raise in the package whose exception
    is a call with a str or f-string message, the message as ast.unparse
    spells it."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
                message = node.exc.args[0]
                str_constant = isinstance(message, ast.Constant) and isinstance(message.value, str)
                if str_constant or isinstance(message, ast.JoinedStr):
                    yield path.stem, node.lineno, ast.unparse(message)


def test_every_refusal_message_has_one_owner():
    # a refusal is written once, in the function that owns its rule: every
    # other caller of the rule calls that function, so class, message and
    # order cannot drift apart between copies
    sites = {}
    for module, line, message in _raise_sites():
        sites.setdefault(message, []).append(f"{module}:{line}")
    assert {m: where for m, where in sites.items() if len(where) > 1} == {}


def test_build_figure1_refuses_through_the_owners_of_its_rules():
    # the kernel checks inline, but a failing check hands its input to the
    # function that owns the rule (_check_sas_domain, _sas's floor,
    # _check_b_prime), whose refusal is raised: the kernel raises nothing
    tree = ast.parse((PACKAGE / "triangle.py").read_text())
    (kernel,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "build_figure1"
    ]
    assert [node.lineno for node in ast.walk(kernel) if isinstance(node, ast.Raise)] == []


def _enclosing_function(node, parents):
    """The name of the innermost function around node, or None at module level."""
    while id(node) in parents:
        node = parents[id(node)]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node.name
    return None


def test_each_input_rule_is_decided_by_its_owner():
    # a vertex count (at least 3), a positive and finite quantity (below
    # math.inf) and a radius (at most D_MAX / 2) are each decided by one
    # comparison in polygon, in the rule's owner, which every entry calls; and
    # only the seed owner turns a seed into an int, after refusing a negative one
    orderings = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    bounds = {"3", "math.inf", "D_MAX / 2"}
    compares, seeds = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        parents = _parents(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Compare) and path.stem in ("polygon", "cli")
                    and any(isinstance(op, orderings) for op in node.ops)):
                compares += [
                    (path.stem, _enclosing_function(node, parents), ast.unparse(operand))
                    for operand in [node.left, *node.comparators]
                    if ast.unparse(operand) in bounds
                ]
            elif (isinstance(node, ast.Call) and _spelled(node.func) == "index"
                  and any("seed" in ast.unparse(arg) for arg in node.args)):
                seeds.append((path.stem, _enclosing_function(node, parents)))
    assert sorted(compares) == [
        ("polygon", "_positive", "math.inf"),
        ("polygon", "_radius", "D_MAX / 2"),
        ("polygon", "_vertex_count", "3"),
    ]
    assert seeds == [("polygon", "_seed")]
