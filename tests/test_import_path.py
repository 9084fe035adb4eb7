"""Importing mbrlab loads no scipy: only `stats.welch_t` and
`fvi.error_histogram_check` reach for `scipy.special`, and only when called,
so every CLI call and every worker process starts without it. Nor does it
load `multiprocessing` or `concurrent.futures`: `workers.map_units` imports
them only when it starts workers. No function imports an mbrlab module, so
the module graph is what the module-level imports say. Every random stream
is a Generator from `np.random.default_rng`, spawned from a run's root."""

import ast
import json
import subprocess
import sys
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

_CHILD = """
import importlib, json, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import mbrlab
names = sorted("mbrlab." + m.name for m in pkgutil.iter_modules(mbrlab.__path__))
for name in names:
    importlib.import_module(name)
loaded_on_import = "scipy.special" in sys.modules
pools_on_import = sorted({"multiprocessing", "concurrent.futures"} & set(sys.modules))

import numpy as np
from mbrlab import fvi
from mbrlab.stats import welch_t
t, p = welch_t([1.0, 2.5, 3.1, 4.7, 2.2, 3.9], [0.3, 1.1, 0.9, 2.0, 1.6])
ks = fvi.error_histogram_check(1.0, 10_000, 10, np.random.default_rng(0))["ks_distance"]
print(json.dumps({"modules": names, "scipy_special_on_import": loaded_on_import,
                  "pools_on_import": pools_on_import,
                  "t": t.hex(), "p": p.hex(), "ks": ks.hex()}))
"""


def test_importing_mbrlab_loads_no_scipy_and_values_are_unchanged():
    res = subprocess.run([sys.executable, "-c", _CHILD, str(SRC_DIR)],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert {"mbrlab.cli", "mbrlab.harness", "mbrlab.fvi", "mbrlab.stats"} <= set(out["modules"])
    assert not out["scipy_special_on_import"]
    assert out["pools_on_import"] == []
    # recorded before scipy moved off the import path
    assert out["t"] == "0x1.69e8804ab11d5p+1"
    assert out["p"] == "0x1.80018b5ba4ccfp-6"
    assert out["ks"] == "0x1.30cfdca4964c0p-7"


def _imports_mbrlab(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "mbrlab"
    return isinstance(node, ast.Import) and any(
        alias.name.split(".")[0] == "mbrlab" for alias in node.names)


def test_no_function_imports_an_mbrlab_module():
    found = []
    for path in sorted((SRC_DIR / "mbrlab").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [f"{path.name}:{node.lineno} in {getattr(func, 'name', 'lambda')}"
                          for node in ast.walk(func) if _imports_mbrlab(node)]
    assert not found, f"deferred mbrlab imports: {found}"


def _numpy_random_call(node) -> str | None:
    """The name `x` of a call `np.random.x(...)` or `numpy.random.x(...)`."""
    func = node.func if isinstance(node, ast.Call) else None
    if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute)
            and func.value.attr == "random" and isinstance(func.value.value, ast.Name)
            and func.value.value.id in ("np", "numpy")):
        return func.attr
    return None


def test_streams_come_only_from_default_rng():
    # no global-state draws (np.random.normal, ...) and no Generator built by
    # hand (np.random.Generator, PCG64, SeedSequence)
    found = []
    for path in sorted((SRC_DIR / "mbrlab").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            name = _numpy_random_call(node)
            if name is not None and name != "default_rng":
                found.append(f"{path.name}:{node.lineno} np.random.{name}")
            if isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
                found.append(f"{path.name}:{node.lineno} from numpy.random import")
    assert not found, f"streams not from np.random.default_rng: {found}"
