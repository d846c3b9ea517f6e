"""The benchmark's trace targets exist under the names it looks them up by.

`perfbench/spans.py` finds the functions it times by name.  A renamed or
deleted target is not an error there: its span just reads zero.  This test
loads that file (without installing anything) and checks every name.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
