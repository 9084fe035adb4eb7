"""Importing mbrlab loads no scipy: only `stats.welch_t` and
`fvi.error_histogram_check` reach for `scipy.special`, and only when called,
so every CLI call and every worker process starts without it."""

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

from mbrlab import fvi
from mbrlab.rng import SeededRng
from mbrlab.stats import welch_t
t, p = welch_t([1.0, 2.5, 3.1, 4.7, 2.2, 3.9], [0.3, 1.1, 0.9, 2.0, 1.6])
ks = fvi.error_histogram_check(1.0, 10_000, 10, SeededRng.from_seed(0))["ks_distance"]
print(json.dumps({"modules": names, "scipy_special_on_import": loaded_on_import,
                  "t": t.hex(), "p": p.hex(), "ks": ks.hex()}))
"""


def test_importing_mbrlab_loads_no_scipy_and_values_are_unchanged():
    res = subprocess.run([sys.executable, "-c", _CHILD, str(SRC_DIR)],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert {"mbrlab.cli", "mbrlab.harness", "mbrlab.fvi", "mbrlab.stats"} <= set(out["modules"])
    assert not out["scipy_special_on_import"]
    # recorded before scipy moved off the import path
    assert out["t"] == "0x1.69e8804ab11d5p+1"
    assert out["p"] == "0x1.80018b5ba4ccfp-6"
    assert out["ks"] == "0x1.30cfdca4964c0p-7"
