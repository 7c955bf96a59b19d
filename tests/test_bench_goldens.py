"""The benchmark's workloads reproduce their golden CSVs byte for byte.

``bench/workloads.py`` is loaded from the checkout as a plain module and only
read: each workload runs at the golden scale and seeds, and its CSV must
equal the file ``bench/make_goldens.py`` wrote under ``bench/golden/``.
Loading it sets the BLAS thread variables to 1 for processes started later
and puts this checkout's ``src/`` first on ``sys.path``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.byte_identity

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("seed", workloads.GOLDEN_SEEDS)
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_csv_matches_golden(name, seed):
    golden = workloads.golden_path(name, seed).read_text()
    assert workloads.WORKLOADS[name].run(seed, workloads.GOLDEN_SCALE) == golden
