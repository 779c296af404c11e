"""The package's public names: ``__all__`` is sorted, unique and resolves,
and the README's library quick start imports only exported names."""

import ast
from pathlib import Path

import geomhuffman

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start_imports() -> list:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    code = section.split("```python", 1)[1].split("```", 1)[0]
    return [
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "geomhuffman"
        for alias in node.names
    ]


def test_all_sorted_and_unique():
    assert geomhuffman.__all__ == sorted(set(geomhuffman.__all__))


def test_all_entries_resolve():
    missing = [name for name in geomhuffman.__all__ if not hasattr(geomhuffman, name)]
    assert missing == []


def test_readme_quick_start_names_are_exported():
    names = _quick_start_imports()
    assert names
    assert sorted(set(names) - set(geomhuffman.__all__)) == []
