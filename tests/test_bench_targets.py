"""The benchmark's trace targets and CLI entry points exist under their names.

`perfbench/spans.py` finds the functions it times by name.  A renamed or
deleted target is not an error there: its span just reads zero.  This test
loads that file (without installing anything) and checks every name.  The
benchmark scripts also call `hexcount.cli` attributes (`cli.main`,
`cli.verify_grid` in `make_refs.py`), which fail only when those scripts
run; their names are read from the scripts' syntax trees and checked too.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS_PATH = PERFBENCH / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans_under_test", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def test_every_span_target_is_defined_in_its_module():
    spans = _spans()
    assert spans
    missing = []
    for span, (module_name, fn_names) in spans.items():
        module = importlib.import_module(f"hexcount.{module_name}")
        for fn_name in fn_names:
            fn = getattr(module, fn_name, None)
            if not callable(fn) or getattr(fn, "__module__", None) != module.__name__:
                missing.append(f"{span}: hexcount.{module_name}.{fn_name}")
    assert missing == []


def test_every_cli_attribute_the_benchmark_uses_resolves():
    cli = importlib.import_module("hexcount.cli")
    used = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "cli"):
                used.add((path.name, node.attr))
    assert {"main", "verify_grid"} <= {attr for _, attr in used}
    assert [f"{name}: cli.{attr}" for name, attr in sorted(used) if not hasattr(cli, attr)] == []
