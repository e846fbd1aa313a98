"""Layering guard: the library layers never import the layers above them.

``repro.runtime`` builds jobs out of ``repro.stream``, ``repro.core``
and friends; ``repro.serve``, ``repro.cli`` and ``repro.experiments``
sit on top of the runtime.  An arrow the other way (a stream module
reaching up into the runtime, even from inside a function) would
recreate the driver-over-runtime tangle, so this test walks every
import statement of the lower layers and rejects upward edges.  The
one sanctioned exception is the leaf :mod:`repro.runtime.registry`,
which the streaming-algorithm adapters register into.

Inside the lower layers, the sequential scan path (the reader, the
shard format, the counting/metrics sweeps, the external sort and the
metrics package) never imports the worker machinery
(:mod:`repro.stream.workers`, :mod:`repro.parallel`): those sweeps run
in process, and a worker fan-out must not creep back under them.
"""

import ast
import importlib
import inspect
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent

#: the layers below the runtime
LOWER = (
    "stream", "core", "partition", "graph", "parallel", "metrics", "_ds",
    "obs",
)

#: modules the lower layers must not import
UPPER = ("repro.runtime", "repro.serve", "repro.cli", "repro.experiments")

#: the leaf the adapters may import despite living under repro.runtime
ALLOWED = ("repro.runtime.registry",)


def _imported_modules(tree: ast.AST, package: str):
    """Every module named by an import statement, at any depth.

    ``package`` is the dotted package of the file, used to resolve
    relative imports.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                parts = parts[: len(parts) - node.level + 1]
                base = ".".join(parts + ([base] if base else []))
            yield node.lineno, base
            # ``from repro import runtime`` names a subpackage, too.
            for alias in node.names:
                yield node.lineno, f"{base}.{alias.name}"


def _is_under(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


def _file_edges(path: Path):
    """``(file, line, module)`` for every import in one source file."""
    name = path.relative_to(PACKAGE).as_posix()
    package = "repro." + ".".join(Path(name).parent.parts)
    tree = ast.parse(path.read_text(encoding="utf-8"), name)
    for line, module in _imported_modules(tree, package):
        yield name, line, module


def _edges():
    """``(file, line, module)`` for every import in the lower layers."""
    for layer in LOWER:
        for path in sorted((PACKAGE / layer).rglob("*.py")):
            yield from _file_edges(path)


#: the sequential scan path, relative to the package
SCAN_PATH = (
    "stream/scan.py", "stream/extsort.py", "stream/reader.py",
    "stream/shard.py", "metrics",
)

#: the worker machinery the scan path must not import
WORKER_MACHINERY = ("repro.stream.workers", "repro.parallel")


def _defining_module(module: str) -> str:
    """The module that defines ``module`` when it names a re-export.

    ``from repro.stream import PersistentWorkerPool`` names
    ``repro.stream.PersistentWorkerPool``, which is no module; the
    object's ``__module__`` says where it really comes from.
    """
    if not module.startswith("repro."):
        return module
    parent, _, attr = module.rpartition(".")
    try:
        obj = getattr(importlib.import_module(parent), attr, None)
    except ImportError:
        return module
    if obj is None or inspect.ismodule(obj):
        return module
    return getattr(obj, "__module__", None) or module


def _worker_edges(paths):
    """Imports of the worker machinery from ``paths`` (files or dirs)."""
    for path in paths:
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in files:
            for name, line, module in _file_edges(file):
                target = _defining_module(module)
                if any(_is_under(target, w) for w in WORKER_MACHINERY):
                    yield f"{name}:{line} imports {module}"


def test_lower_layers_do_not_import_upward():
    upward = [
        f"{name}:{line} imports {module}"
        for name, line, module in _edges()
        if any(_is_under(module, upper) for upper in UPPER)
        and not any(_is_under(module, allowed) for allowed in ALLOWED)
    ]
    assert upward == []


def test_registry_is_the_only_edge_into_the_runtime():
    """The walker sees the one sanctioned edge, and nothing else."""
    edges = {
        name for name, _, module in _edges()
        if _is_under(module, "repro.runtime")
    }
    assert edges == {"stream/driver.py"}


def test_scan_path_does_not_import_worker_machinery():
    assert list(_worker_edges(PACKAGE / p for p in SCAN_PATH)) == []


def test_worker_guard_sees_the_worker_path():
    """The walker does find worker imports where they legitimately are."""
    found = list(_worker_edges([PACKAGE / "runtime" / "executor.py"]))
    assert any("repro.stream.workers" in edge for edge in found)
