"""Names that code outside the package looks up: the benchmark's spans, and the benchmark's and demos' imports.

Deleting or moving one of them breaks that code without failing any other test.
"""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _lookup(module: str, name: str):
    """What `from module import name` binds, an attribute or a submodule, or None."""
    found = getattr(importlib.import_module(module), name, None)
    if found is None:
        try:
            found = importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError:
            pass
    return found


def test_every_benchmark_span_resolves():
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    (layers,) = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets)]
    missing = []
    for layer, fns in layers.items():
        target = importlib.import_module(f"evchargelab.{layer}")
        for fn in fns:
            found = target
            for part in fn.split("."):
                found = getattr(found, part, None)
            if not callable(found):
                missing.append(f"{layer}.{fn}")
    assert layers and not missing


def test_every_name_imported_by_the_benchmark_and_demos_resolves():
    # Also `module.name` where `module` came from such an import, as in `rl.load_policy`.
    imported, missing = 0, []
    for path in sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py")):
        tree, modules = ast.parse(path.read_text()), {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "evchargelab":
                imported += len(node.names)
                for alias in node.names:
                    found = _lookup(node.module, alias.name)
                    if found is None:
                        missing.append(f"{path.relative_to(ROOT)}: {node.module}.{alias.name}")
                    elif isinstance(found, types.ModuleType):
                        modules[alias.asname or alias.name] = found.__name__
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
                if _lookup(modules[node.value.id], node.attr) is None:
                    missing.append(f"{path.relative_to(ROOT)}: {modules[node.value.id]}.{node.attr}")
    assert imported and not missing


def test_the_product_does_not_load_projections():
    # Only the benchmark and the tests use `projections`; the product's solvers own the kernel it wraps.
    code = ("import sys, evchargelab, evchargelab.harness, evchargelab.rl, evchargelab.cli; "
            "sys.exit('evchargelab.projections' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(importlib.import_module("evchargelab").__file__).parents[1]))
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0
