"""Traced benchmark runs keep the call contract ``bench/run.py --trace 1`` checks.

``bench/tracer.py`` rebinds the layer functions the harness looks up at call
time (``onebit_mimo.sim``'s imports and its ``_HARD_DECODERS`` table).  A
harness that captured one of them early, say as a default argument, would
still reproduce every golden but record no calls.  Both bench modules are
loaded from the checkout as plain modules and only read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracer = _load("tracer")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_runs_meet_the_call_contract(name):
    wl = workloads.WORKLOADS[name]
    tr = tracer.Tracer()
    counts = []
    for _ in range(2):
        tr.reset()
        with tr.installed():
            wl.run(1)
        trace = tr.summarize(0)
        tracer.check_calls(trace, wl.expected_calls())
        # a detector call gets its arm from the very array preprocess returned
        assert not [key for key in trace.arms if key[1] == "unattributed"]
        counts.append(trace.exact_counts())
    assert counts[0] == counts[1]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_setup_runs(name):
    # bench/run.py times setup() as setup_s; it reads config attributes such as ldpc_rate
    workloads.WORKLOADS[name].setup()
