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


def test_the_package_has_one_thread_pool():
    # every thread goes through `network.spread`, so the CPUs cap the threads
    calls = [(path.name, node.lineno) for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ThreadPoolExecutor"]
    assert [name for name, _ in calls] == ["network.py"], calls
