"""Module boundaries of the `patchcc` package."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "patchcc"


def private_imports(path: pathlib.Path) -> list[str]:
    """`module.name` for each `_`-prefixed name that `path` imports from
    another `patchcc` module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "patchcc"
                                                 or (node.module or "").startswith("patchcc.")):
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_no_module_imports_another_modules_private_names():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 10
    offenders = {p.name: private_imports(p) for p in paths}
    assert {name: found for name, found in offenders.items() if found} == {}
