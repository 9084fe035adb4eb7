import os
import sys

# one BLAS thread, as perfbench/run.py, set before numpy loads: pinned bits do
# not depend on the core count, and a busy second core cannot stall the suite
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest  # noqa: E402

sys.path.insert(0, os.path.dirname(__file__))


def pytest_collection_modifyitems(config, items):
    if os.environ.get("MBRLAB_NIGHTLY"):
        return
    skip = pytest.mark.skip(reason="nightly statistical check; set MBRLAB_NIGHTLY=1")
    for item in items:
        if "nightly" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="module")
def nightly_outdir(tmp_path_factory):
    """Where a nightly test's run directories go: $MBRLAB_OUTDIR when it is
    set, so that they outlive the session, else a fresh temporary directory."""
    return os.environ.get("MBRLAB_OUTDIR") or str(tmp_path_factory.mktemp("nightly"))
