"""Public API surface tests: exports resolve, docstrings exist.

Guards against export rot (symbols listed in ``__all__`` that do not
exist) and undocumented public surface.
"""

from __future__ import annotations

import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

PACKAGES = [
    "repro",
    "repro.core",
    "repro.algorithms",
    "repro.simulation",
    "repro.optimum",
    "repro.workloads",
    "repro.analysis",
    "repro.experiments",
    "repro.heterogeneous",
    "repro.orchestration",
]

MODULES = [
    "repro.core.vectors",
    "repro.core.intervals",
    "repro.core.items",
    "repro.core.instance",
    "repro.core.bins",
    "repro.core.packing",
    "repro.core.events",
    "repro.core.errors",
    "repro.algorithms.base",
    "repro.algorithms.registry",
    "repro.algorithms.predictions",
    "repro.simulation.engine",
    "repro.simulation.instrumentation",
    "repro.simulation.metrics",
    "repro.simulation.parallel",
    "repro.simulation.trace",
    "repro.simulation.billing",
    "repro.optimum.lower_bounds",
    "repro.optimum.vbp_solver",
    "repro.optimum.opt_cost",
    "repro.optimum.offline_assignment",
    "repro.workloads.uniform",
    "repro.workloads.adversarial",
    "repro.workloads.composite",
    "repro.workloads.describe",
    "repro.analysis.theory",
    "repro.analysis.sweep",
    "repro.analysis.proofs",
    "repro.analysis.competitive",
    "repro.analysis.augmentation",
    "repro.experiments.figure4",
    "repro.experiments.table1",
    "repro.experiments.driver",
    "repro.orchestration.checkpoint",
    "repro.orchestration.faults",
    "repro.orchestration.sweep",
    "repro.heterogeneous.types",
    "repro.heterogeneous.engine",
    "repro.cli",
]


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_module_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_all_exports_resolve(name):
    mod = importlib.import_module(name)
    for symbol in getattr(mod, "__all__", []):
        assert hasattr(mod, symbol), f"{name}.__all__ lists missing {symbol!r}"


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_module_docstrings(name):
    mod = importlib.import_module(name)
    assert mod.__doc__ and mod.__doc__.strip(), f"{name} lacks a module docstring"


@pytest.mark.parametrize("name", MODULES)
def test_public_callables_documented(name):
    mod = importlib.import_module(name)
    for symbol in getattr(mod, "__all__", []):
        obj = getattr(mod, symbol)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if obj.__module__ != name:
                continue  # re-export; documented at home
            assert obj.__doc__ and obj.__doc__.strip(), (
                f"{name}.{symbol} lacks a docstring"
            )


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_top_level_convenience_symbols():
    import repro

    for sym in ("Instance", "Item", "simulate", "run", "MoveToFront",
                "UniformWorkload", "height_lower_bound", "make_algorithm"):
        assert hasattr(repro, sym)


#: Run in a fresh interpreter: refuse every top-level module that lives in
#: site-packages unless its distribution is declared (argv[1]) or is a
#: requirement of a declared one, then ``import repro``.  Optional
#: imports that a dependency guards (numpy tries ``charset_normalizer``)
#: degrade as they would on a clean install; a hard import of an
#: undeclared package fails the import.
_BLOCKED_IMPORT = """
import importlib.abc, importlib.machinery, re, site, sys, sysconfig
from importlib import metadata

def norm(name):
    return re.sub(r"[-_.]+", "_", name).lower()

allowed, todo = {"repro"}, [norm(n) for n in sys.argv[1].split(",")]
while todo:
    name = todo.pop()
    if name in allowed:
        continue
    allowed.add(name)
    try:
        reqs = metadata.requires(name) or []
    except metadata.PackageNotFoundError:
        continue
    todo += [norm(re.split(r"[ ;<>=!~\\[(]", r, 1)[0])
             for r in reqs if "extra ==" not in r]
paths = sysconfig.get_paths()
site_dirs = tuple({paths["purelib"], paths["platlib"],
                   *site.getsitepackages(), site.getusersitepackages()})

class Undeclared(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if path is not None or norm(name) in allowed:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name)
        if spec is not None and (spec.origin or "").startswith(site_dirs):
            raise ImportError(f"import repro needs undeclared {name!r}")
        return None

sys.meta_path.insert(0, Undeclared())
import repro
"""


def _declared_dependencies():
    text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
    return [re.split(r"[ ;<>=!~\[(]", spec, 1)[0]
            for spec in re.findall(r'"([^"]+)"', block.group(1))]


def test_import_needs_only_declared_dependencies():
    declared = _declared_dependencies()
    assert "numpy" in declared and "scipy" in declared
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _BLOCKED_IMPORT, ",".join(declared)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
