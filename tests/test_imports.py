"""The tests reach the library only through its public names."""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(source: str) -> list[str]:
    """Every ``_``-prefixed name imported from the qdrepeater package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            parts = node.module.split(".")
            if parts[0] == "qdrepeater":
                found += [f"{node.module}.{p}" for p in parts[1:] if _is_private(p)]
                found += [f"{node.module}.{a.name}" for a in node.names if _is_private(a.name)]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "qdrepeater" and any(_is_private(p) for p in parts[1:]):
                    found.append(alias.name)
    return found


def test_scan_flags_private_imports():
    assert private_imports("from qdrepeater.protocols import pcd, _helper") == ["qdrepeater.protocols._helper"]
    assert private_imports("def f():\n    import qdrepeater._impl\n") == ["qdrepeater._impl"]
    assert private_imports("from qdrepeater import __version__, pcd") == []


def test_tests_import_no_private_names():
    files = sorted(TESTS.glob("*.py"))
    assert files
    found = {f.name: private_imports(f.read_text(encoding="utf-8")) for f in files}
    assert {name: names for name, names in found.items() if names} == {}
