"""Span tracer for the simulator's layers, installed from outside the package.

While installed it rebinds the names the harness actually calls to wrappers
that record one span per call: layer function, parent span, start, end, the
sweep arm where one applies, and a per-call count.  The harness resolves
most layer functions through ``onebit_mimo.sim``'s own imports, the hard
decoders through its ``_HARD_DECODERS`` table (bound at import, so patching
``onebit_mimo.sim.wmd_decode`` would record nothing) and ``kmeans_hamming``
inside ``onebit_mimo.partition``.  Spans stay in memory until the run is summarized.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

# (span name = "<layer module>.<public function>", module whose binding the
# harness calls, attribute there, key when the attribute is a dispatch table)
HOOKS = (
    ("channel.sample_rayleigh", "onebit_mimo.sim", "sample_rayleigh", None),
    ("channel.transmit", "onebit_mimo.sim", "transmit", None),
    ("spatial_code.build_code", "onebit_mimo.sim", "build_code", None),
    ("partition.build_partition_tree", "onebit_mimo.sim", "build_partition_tree", None),
    ("partition.kmeans_hamming", "onebit_mimo.partition", "kmeans_hamming", None),
    ("partition.preprocess", "onebit_mimo.sim", "preprocess", None),
    ("detector.wmd_decode", "onebit_mimo.sim", "_HARD_DECODERS", "wmd"),
    ("detector.compute_llrs", "onebit_mimo.sim", "compute_llrs", None),
    ("ldpc.encode", "onebit_mimo.sim", "encode", None),
    ("ldpc.decode_bp", "onebit_mimo.sim", "decode_bp", None),
)
LAYER_NAMES = tuple(h[0] for h in HOOKS)
FULL_ARM = "full"


class TraceError(RuntimeError):
    """A hooked name is missing, or the recorded calls break an expectation."""


@dataclass
class LayerStats:
    calls: int = 0
    busy_ns: int = 0
    child_ns: int = 0  # time covered by this layer's child spans
    count: int = 0  # sum of the per-call counts

    def add(self, duration_ns: int, count: int) -> None:
        self.calls += 1
        self.busy_ns += duration_ns
        self.count += count

    def merge(self, other: "LayerStats") -> None:
        self.calls += other.calls
        self.busy_ns += other.busy_ns
        self.child_ns += other.child_ns
        self.count += other.count


@dataclass
class RunTrace:
    """Aggregate of one traced run."""

    wall_ns: int
    top_ns: int  # time covered by spans with no traced parent
    layers: dict  # span name -> LayerStats
    arms: dict  # (span name, arm) -> LayerStats

    @property
    def sim_self_ns(self) -> int:
        return self.wall_ns - self.top_ns

    def merge(self, other: "RunTrace") -> None:
        """Add another run into this one."""
        self.wall_ns += other.wall_ns
        self.top_ns += other.top_ns
        for name, stats in other.layers.items():
            self.layers[name].merge(stats)
        for key, stats in other.arms.items():
            self.arms.setdefault(key, LayerStats()).merge(stats)

    def exact_counts(self) -> dict:
        """Every call count and per-call count sum; they must repeat exactly."""
        out = {name: (s.calls, s.count) for name, s in self.layers.items()}
        out.update({key: (s.calls, s.count) for key, s in self.arms.items()})
        return out


def _scored(args) -> int:
    """Codewords a detector call scores: its candidate set or the codebook."""
    code = args[1]
    cand = args[2] if len(args) > 2 else None
    return code.size if cand is None else len(cand)


class Tracer:
    def __init__(self):
        self.spans = []  # [hook index, parent span or -1, start ns, end ns, arm, count]
        self._stack = []
        self._last_prune = None  # (candidate array, arm) of the latest preprocess

    def _note(self, name: str, args, result):
        """(arm, count) recorded for one call of the named layer function."""
        if name == "partition.preprocess":
            arm = args[1].params.label()
            self._last_prune = (result, arm)
            return arm, len(result)
        if name in ("detector.wmd_decode", "detector.compute_llrs"):
            cand = args[2] if len(args) > 2 else None
            if cand is None:
                arm = FULL_ARM
            elif self._last_prune is not None and cand is self._last_prune[0]:
                arm = self._last_prune[1]
            else:
                arm = "unattributed"
            return arm, _scored(args)
        if name == "partition.kmeans_hamming":
            return None, len(result.objective)
        if name == "spatial_code.build_code":
            arrays = (result.codewords, result.crossover, result.weights, result.digits)
            return None, sum(a.nbytes for a in arrays)
        if name == "ldpc.decode_bp":
            return None, int(bool(result[1]))
        return None, 0

    def _wrap(self, index: int, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [index, stack[-1] if stack else -1, clock(), 0, None, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            span[4], span[5] = self._note(name, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every hooked name for the duration of the block."""
        restore = []
        try:
            for index, (name, module_name, attr, key) in enumerate(HOOKS):
                module = importlib.import_module(module_name)
                table = vars(module) if key is None else getattr(module, attr, None)
                slot = attr if key is None else key
                if table is None or slot not in table:
                    raise TraceError(f"{module_name}.{attr}{'' if key is None else [key]} is gone")
                layer, func = name.split(".")
                public = getattr(importlib.import_module(f"onebit_mimo.{layer}"), func, None)
                if table[slot] is not public:
                    raise TraceError(f"{module_name}.{attr} no longer binds onebit_mimo.{name}")
                restore.append((table, slot, table[slot]))
                table[slot] = self._wrap(index, name, table[slot])
            yield self
        finally:
            for table, slot, original in reversed(restore):
                table[slot] = original

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self._last_prune = None

    def summarize(self, wall_ns: int) -> RunTrace:
        layers = {name: LayerStats() for name in LAYER_NAMES}
        arms = {}
        top_ns = 0
        for index, parent, start, end, arm, count in self.spans:
            duration = end - start
            layers[LAYER_NAMES[index]].add(duration, count)
            if parent < 0:
                top_ns += duration
            else:
                layers[LAYER_NAMES[self.spans[parent][0]]].child_ns += duration
            if arm is not None:
                arms.setdefault((LAYER_NAMES[index], arm), LayerStats()).add(duration, count)
        return RunTrace(wall_ns=wall_ns, top_ns=top_ns, layers=layers, arms=arms)

    def write_spans(self, path, start_ns: int) -> None:
        """Dump the current spans as CSV, times relative to the run start."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("span,parent,layer,arm,start_ns,end_ns,count\n")
            for i, (index, parent, start, end, arm, count) in enumerate(self.spans):
                fh.write(
                    f"{i},{parent},{LAYER_NAMES[index]},{arm or ''},"
                    f"{start - start_ns},{end - start_ns},{count}\n"
                )


def check_calls(trace: RunTrace, expected: dict) -> None:
    """Raise unless each expected layer was called, exactly as often when fixed."""
    for name, calls in expected.items():
        got = trace.layers[name].calls
        if got == 0:
            raise TraceError(f"{name} recorded no calls on a workload that runs it")
        if calls is not None and got != calls:
            raise TraceError(f"{name} was called {got} times, expected {calls}")
