"""Which hexcount modules each module imports, read from its syntax tree.

The routes stay independent only if their modules do not reach into each
other: the closed forms import nothing of the package, the oracle and the
region code import only each other, and the path determinants take only
arithmetic primitives from the formulas.
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


def test_formulas_imports_no_hexcount_module():
    assert package_imports("formulas") == []


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


def test_matchcount_imports_geometry_names_only_inside_functions():
    found = package_imports("matchcount")
    assert found, "matchcount reads lattice triangles and regions through geometry"
    assert {(source, inner) for source, _, inner in found} == {("geometry", True)}
    assert all(name is not None for _, name, _ in found)


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
