"""Module boundaries of the `patchcc` package."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "patchcc"


def imported_modules(path: pathlib.Path) -> set[str]:
    """The `patchcc` modules that `path` imports anywhere, in function
    bodies too: `from .network import x`, `from . import network` and
    `import patchcc.network` all name `network`."""
    dotted = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["patchcc" if node.level else None, node.module]))
            dotted += [base] + [f"{base}.{alias.name}" for alias in node.names]
    return {name.split(".")[1] for name in dotted if name.startswith("patchcc.")}


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
    # every thread goes through `lanes.spread`, so the CPUs cap the threads
    calls = [(path.name, node.lineno) for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ThreadPoolExecutor"]
    assert [name for name, _ in calls] == ["lanes.py"], calls


def test_the_lanes_stand_apart_from_the_network():
    # the CPUs' module needs no other; decoding, patches and the benchmark
    # run their strips and images through it, not through the network
    assert imported_modules(PACKAGE / "lanes.py") == set()
    for name in ("image.py", "patches.py", "benchmark.py"):
        assert "network" not in imported_modules(PACKAGE / name), name
