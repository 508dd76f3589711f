"""The scripts under scripts/ import neelwall by name, and no test runs
them, so a deleted or renamed public name would break only a script run.
Every name a script imports from neelwall must exist."""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def _neelwall_imports(tree):
    """(line, module, name) of every `from neelwall... import name`, and
    (line, module, None) of every `import neelwall...`."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "neelwall"):
            for alias in node.names:
                yield node.lineno, node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "neelwall":
                    yield node.lineno, alias.name, None


def test_scripts_are_found():
    assert {p.name for p in SCRIPTS} >= {"convergence_study.py",
                                          "drift_spectrum_study.py"}


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_imports_resolve(script):
    imports = list(_neelwall_imports(ast.parse(script.read_text())))
    assert imports, f"scripts/{script.name} imports nothing from neelwall"
    for lineno, module, name in imports:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), (
            f"scripts/{script.name}:{lineno} imports {name} from {module}")
