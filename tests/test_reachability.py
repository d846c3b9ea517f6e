"""No library code that only the tests call, and no parameter a function
never reads.

Every module-level function and class of the package, and every public
method, must be reached from `cli.main` or a target of the benchmark's
spans (`perfbench/spans.py`) through code references.  A reference
checker written for the tests, or a lemma only they run, lives in the
tests.  Each module's syntax tree is read, so a name in a docstring or in
any other string is no reference.  References resolve by name:
- a bare name to the module's own definition or to the one it imports;
- `module.name` through an imported module;
- any other `.name` to every method of that name, so a method is reached
  as soon as reached code reads an attribute of its name.
Module-level assignments pass their references on but need not be reached.

A parameter of a library function or lambda is a setting its callers must
pass; one the body never reads (nested functions included) sets nothing.
`self`, `cls` and `_`-prefixed names are exempt.
"""

import ast
import importlib.util
from collections import defaultdict
from pathlib import Path

from test_import_boundaries import package_imports

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hexcount"
SPANS_PATH = ROOT / "perfbench" / "spans.py"

# named exception: the pathdet lemmas, which only tests/test_pathdet.py runs
# until a lemma suite runs them as checks
LEMMAS = {"pathdet.lower_poly_entry_alt", "pathdet.pulled_row_factor",
          "pathdet.factor_chain_matrix", "pathdet.factor_chain_det"}


def reference_graph(package: Path) -> tuple:
    """(edges, checked): each definition's key -> the keys it references,
    and the keys of the functions, classes and public methods."""
    bodies, checked, imports, methods = {}, set(), {}, defaultdict(set)
    for path in sorted(package.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text())
        # alias -> (module, name), or (module, None) for a module
        imports[module] = {name or source: (source, name)
                           for source, name, _ in package_imports(module, package)}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                key = f"{module}.{node.name}"
                checked.add(key)
                bodies[key] = [node]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        bodies[f"{module}.{target.id}"] = [node.value]
            if not isinstance(node, ast.ClassDef):
                continue
            # a public method is a definition of its own; everything else
            # in the class body belongs to the class
            bodies[key] = []
            for item in node.body:
                public = (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                          and not item.name.startswith("_"))
                if public:
                    bodies[f"{key}.{item.name}"] = [item]
                    checked.add(f"{key}.{item.name}")
                    methods[item.name].add(f"{key}.{item.name}")
                else:
                    bodies[key].append(item)
            bodies[key].extend(node.decorator_list + node.bases)

    def resolve(module: str, name: str) -> set:
        if f"{module}.{name}" in bodies:
            return {f"{module}.{name}"}
        source, imported = imports.get(module, {}).get(name, (None, None))
        if source in imports and imported is not None:
            return resolve(source, imported)
        return set()

    edges = {}
    for key, nodes in bodies.items():
        module = key.split(".")[0]
        refs = set()
        for node in nodes:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    refs |= resolve(module, sub.id)
                elif isinstance(sub, ast.Attribute):
                    owner = sub.value.id if isinstance(sub.value, ast.Name) else None
                    source, imported = imports[module].get(owner, (None, ""))
                    if source and imported is None:
                        refs |= resolve(source, sub.attr)
                    else:
                        refs |= methods.get(sub.attr, set())
        edges[key] = refs - {key}
    return edges, checked


def unreached(package: Path, roots: set) -> set:
    """The functions, classes and public methods no root reaches."""
    edges, checked = reference_graph(package)
    assert roots <= set(edges), roots - set(edges)
    seen, todo = set(roots), list(roots)
    while todo:
        for ref in edges[todo.pop()]:
            if ref not in seen:
                seen.add(ref)
                todo.append(ref)
    return checked - seen


def span_targets() -> set:
    spec = importlib.util.spec_from_file_location("perfbench_spans_for_reach", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {f"{source}.{name}" for source, names in module.SPANS.values() for name in names}


def test_every_library_definition_is_reached_from_the_cli_or_a_span():
    assert unreached(PACKAGE, {"cli.main"} | span_targets()) == LEMMAS


def test_a_planted_unused_function_and_method_are_found(tmp_path):
    (tmp_path / "cli.py").write_text(
        "from . import parts\n"
        "from .parts import Shape\n"
        "def main():\n"
        "    '''Calls parts.unused in its docstring only.'''\n"
        "    return parts.used(Shape().area())\n"
    )
    (tmp_path / "parts.py").write_text(
        "def used(x):\n"
        "    return _helper(x)\n"
        "def _helper(x):\n"
        "    return x\n"
        "def unused():\n"
        "    return used(1)\n"
        "class Shape:\n"
        "    def __init__(self):\n"
        "        self.side = 2\n"
        "    def area(self):\n"
        "        return self.side ** 2\n"
        "    def perimeter(self):\n"
        "        return 4 * self.side\n"
        "class Orphan:\n"
        "    pass\n"
    )
    assert unreached(tmp_path, {"cli.main"}) == {"parts.unused", "parts.Shape.perimeter",
                                                 "parts.Orphan"}


def unread_parameters(package: Path) -> set:
    """`module.function(parameter)` for each parameter of a function or
    lambda whose body never reads it; a lambda is named `<lambda>`."""
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {sub.id for stmt in body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            found |= {f"{path.stem}.{name}({p})" for p in params
                      if p not in read and p not in ("self", "cls") and not p.startswith("_")}
    return found


def test_every_library_parameter_is_read():
    assert unread_parameters(PACKAGE) == set()


def test_a_planted_unread_parameter_is_found(tmp_path):
    (tmp_path / "parts.py").write_text(
        "def report(p, n, s, *rest, _spare=0, **opts):\n"
        "    '''Names s in its docstring only.'''\n"
        "    def inner(q):\n"
        "        return q + n\n"
        "    return inner(p), opts\n"
        "pick = lambda x, y: x\n"
        "class Shape:\n"
        "    def area(self, unit):\n"
        "        return 4\n"
    )
    assert unread_parameters(tmp_path) == {"parts.report(s)", "parts.report(rest)",
                                           "parts.<lambda>(y)", "parts.area(unit)"}
