"""Which hexcount modules each module imports, read from its syntax tree.

The routes stay independent only if their modules do not reach into each
other: the closed forms and the matching oracle import nothing of the
package, the region code takes only the graph type from the oracle, and the
path determinants take only arithmetic primitives from the formulas.  No
module imports another inside a function, and the imports form no cycle.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hexcount"

# the primitives pathdet may take from formulas
PATHDET_FROM_FORMULAS = {"Rational", "binomial", "pochhammer"}
# named exception: the closed-form constant behind `lower_half_det_count`,
# allowed until that function moves out of pathdet
PATHDET_EXCEPTIONS = {"lower_half_prefactor"}


def package_imports(module: str, package: Path = PACKAGE) -> list:
    """(imported module, imported name or None, inside a function) for each
    hexcount import in the module."""
    tree = ast.parse((package / f"{module}.py").read_text())
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            inner = in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                      ast.Lambda))
            if isinstance(child, ast.ImportFrom):
                source = child.module or ""
                if child.level == 0 and not source.startswith("hexcount"):
                    continue
                source = source.removeprefix("hexcount").lstrip(".")
                for alias in child.names:
                    if source:
                        found.append((source, alias.name, inner))
                    else:
                        found.append((alias.name, None, inner))
            elif isinstance(child, ast.Import):
                found.extend((alias.name.removeprefix("hexcount."), None, inner)
                             for alias in child.names if alias.name.startswith("hexcount"))
            visit(child, inner)

    visit(tree, False)
    return found


def import_graph(package: Path = PACKAGE) -> dict:
    """Each module -> the hexcount modules it imports, at module level or
    inside a function."""
    return {path.stem: {source for source, _, _ in package_imports(path.stem, package)}
            for path in sorted(package.glob("*.py"))}


def find_cycle(graph: dict) -> list:
    """One import cycle of the graph as a list of modules that starts and
    ends with the same one, or [] if there is none."""
    done, path = set(), []

    def visit(module):
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return []
        path.append(module)
        for target in sorted(graph.get(module, ())):
            cycle = visit(target)
            if cycle:
                return cycle
        path.pop()
        done.add(module)
        return []

    for module in sorted(graph):
        cycle = visit(module)
        if cycle:
            return cycle
    return []


def test_formulas_imports_no_hexcount_module():
    assert package_imports("formulas") == []


def test_no_import_cycle_and_no_import_inside_a_function():
    graph = import_graph()
    assert {"cli", "formulas", "geometry", "matchcount", "routes"} <= set(graph)
    assert find_cycle(graph) == []
    inside = [(module, source) for module in graph
              for source, _, inner in package_imports(module) if inner]
    assert inside == []


def test_a_planted_import_cycle_is_found(tmp_path):
    # the cycle closes through an import inside a function
    (tmp_path / "first.py").write_text("from . import second\n")
    (tmp_path / "second.py").write_text("def f():\n    from .first import g\n")
    (tmp_path / "third.py").write_text("from .first import h\n")
    graph = import_graph(tmp_path)
    assert graph == {"first": {"second"}, "second": {"first"}, "third": {"first"}}
    assert find_cycle(graph) == ["first", "second", "first"]
    del graph["second"]
    assert find_cycle(graph) == []


# the exponent tables of the lower-half determinant's linear factors
FACTOR_TABLES = {"half_factor_requirements", "integer_factor_requirements"}


def defined_functions(module: str) -> set:
    """The names of the functions defined anywhere in the module."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def test_the_factor_tables_live_in_formulas_alone():
    # polyfactor certifies the tables the closed form multiplies: it imports
    # them and defines no table of its own
    assert FACTOR_TABLES <= defined_functions("formulas")
    assert not {name for name in defined_functions("polyfactor") if "requirements" in name}
    assert FACTOR_TABLES <= {name for source, name, _ in package_imports("polyfactor")
                             if source == "formulas"}


def test_matchcount_imports_no_hexcount_module():
    # the oracle counts graphs: the regions and their dual graphs live in
    # geometry, the region-level counts in routes
    assert package_imports("matchcount") == []


def test_geometry_imports_only_the_graph_type_from_matchcount():
    assert package_imports("geometry") == [("matchcount", "DualGraph", False)]


def test_pathdet_takes_only_arithmetic_primitives_from_formulas():
    found = package_imports("pathdet")
    assert {source for source, _, _ in found} == {"formulas"}
    names = {name for _, name, _ in found}
    assert names <= PATHDET_FROM_FORMULAS | PATHDET_EXCEPTIONS


def test_the_reader_sees_relative_and_absolute_imports(tmp_path):
    source = (
        "from . import geometry\n"
        "from .formulas import binomial\n"
        "import hexcount.pathdet\n"
        "import math\n"
        "def f():\n"
        "    from hexcount.geometry import UP\n"
    )
    (tmp_path / "planted.py").write_text(source)
    assert package_imports("planted", tmp_path) == [
        ("geometry", None, False), ("formulas", "binomial", False),
        ("pathdet", None, False), ("geometry", "UP", True),
    ]
