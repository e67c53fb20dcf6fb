"""Every object of the package has one home.

``goalkit`` imports each class and function from the module that defines
it, and no module but the package imports ``capabilities``, which holds
only the enabledness functions that the benchmark tracer reads.
"""

import ast
import importlib
from pathlib import Path

import goalkit

SRC = Path(goalkit.__file__).resolve().parent


def imports_from(path):
    """(module, name) for each name a ``from goalkit... import`` brings
    into ``path``, the module relative to the package (``None`` for the
    package itself)."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0:
            if module != "goalkit" and not module.startswith("goalkit."):
                continue
            module = module[len("goalkit."):]
        for alias in node.names:
            yield module or None, alias.name


def test_the_package_imports_each_object_from_the_module_defining_it():
    checked = []
    for module, name in imports_from(SRC / "__init__.py"):
        obj = getattr(importlib.import_module(f"goalkit.{module}"), name)
        if callable(obj):
            assert obj.__module__ == f"goalkit.{module}", (module, name)
            checked.append(name)
    assert {"CapabilitySpec", "Verdict", "insert", "apply_M",
            "enabled_cap", "main"} <= set(checked)


def test_no_module_but_the_package_imports_capabilities():
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        sources = {name if module is None else module
                   for module, name in imports_from(path)}
        assert "capabilities" not in sources, path.name
