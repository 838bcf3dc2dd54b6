"""The package imports only the standard library, numpy and jsonschema."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "tiltgen").glob("*.py"))
RUNTIME_DEPENDENCIES = {"numpy", "jsonschema"}


def _imported_top_level_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_found():
    assert any(path.name == "__init__.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_stdlib_numpy_jsonschema(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = set(sys.stdlib_module_names) | RUNTIME_DEPENDENCIES
    assert sorted(set(_imported_top_level_names(tree)) - allowed) == []
