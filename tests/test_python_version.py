"""The package parses under the oldest Python that pyproject.toml declares."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OLDEST = (3, 10)


def test_declared_minimum_is_the_checked_one():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert 'requires-python = ">=%d.%d"' % OLDEST in text


def test_every_module_parses_as_oldest_python():
    modules = sorted((ROOT / "src" / "hexcount").glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)
