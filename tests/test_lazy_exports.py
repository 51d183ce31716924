"""Package exports resolved on first use (``repro._lazy``).

Every ``repro`` package keeps its public names and ``__all__`` but loads
a submodule only when one of its names, or the submodule itself, is
first reached through the package.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
#: Every package under ``src/repro``, by dotted name.
PACKAGES = sorted(".".join(path.parent.relative_to(SRC).parts)
                  for path in (SRC / "repro").rglob("__init__.py"))

#: Imports only ``package`` in a fresh interpreter, then reaches each of
#: its submodules as an attribute; prints what the import alone loaded
#: and what each attribute resolved to.
_FRESH_CHILD = """
import importlib, json, pkgutil, sys
sys.path.insert(0, sys.argv[1])
package = importlib.import_module(sys.argv[2])
loaded = sorted(name for name in sys.modules if name.startswith("repro"))
resolved = {}
for info in pkgutil.iter_modules(package.__path__):
    if not info.name.startswith("__"):
        value = getattr(package, info.name)
        resolved[info.name] = getattr(value, "__name__", None)
print(json.dumps({"loaded": loaded, "resolved": resolved}))
"""


def test_every_package_is_covered():
    assert "repro" in PACKAGES and "repro.experiments.figures" in PACKAGES


@pytest.mark.parametrize("package", PACKAGES)
class TestLazyExports:
    def test_each_export_resolves_through_the_package(self, package):
        module = importlib.import_module(package)
        assert module.__all__
        for name in module.__all__:
            value = getattr(module, name)
            # Bound on the package once resolved.
            assert vars(module)[name] is value

    def test_star_import_binds_every_export(self, package):
        module = importlib.import_module(package)
        namespace = {}
        exec(f"from {package} import *", namespace)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name)

    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        for name in ("no_such_name", "__no_such_dunder__", "not.a.name"):
            with pytest.raises(AttributeError, match=repr(name)):
                getattr(module, name)
            assert getattr(module, name, None) is None

    def test_dir_lists_the_exports(self, package):
        module = importlib.import_module(package)
        listed = dir(module)
        assert set(module.__all__) <= set(listed)
        assert listed == sorted(listed)

    def test_submodule_resolves_as_attribute_in_a_fresh_process(
            self, package):
        child = subprocess.run(
            [sys.executable, "-c", _FRESH_CHILD, str(SRC), package],
            capture_output=True, text=True, timeout=120, check=True)
        report = json.loads(child.stdout)
        # Importing a package loads its parents and the export helper,
        # none of its own submodules.
        parts = package.split(".")
        parents = {".".join(parts[:depth]) for depth in
                   range(1, len(parts) + 1)}
        assert set(report["loaded"]) <= parents | {"repro._lazy"}
        assert report["resolved"]
        for name, module_name in report["resolved"].items():
            assert module_name == f"{package}.{name}"
