#!/usr/bin/env python3
"""Benchmark of the one-bit MU-MIMO simulator, one workload per call.

    python3 bench/run.py --workload sweep-pruned-k4 --seed 3 --seconds 50 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
Each call first runs the workload, with GOLDEN_SCALE times its trial budget,
at both golden seeds and compares the CSVs byte for byte with
``bench/golden/``.  It then repeats the short workload at ``--seed`` for
``--seconds``.  Every repeat must reproduce the same CSV, with each row's
``trials`` equal to the budget rounded up to whole waves.

``--trace 0`` reports the end-to-end metrics: ``trials_per_s`` (the trials
of one run over the median untraced run's wall time, scaled to the nominal
speed of a fixed reference workload timed between the runs; see
``end_to_end``),
``setup_s`` (median over fresh processes, spread over the call, of the
import plus one-off set-up) and ``peak_rss_mib`` (a fresh process running
the workload once at ``--seed``; its CSV must match too).
``--trace 1`` alternates untraced and traced runs and reports the per-layer
metrics: low medians over the traced runs, call counts that must repeat
exactly, and the tracing overhead.  It prints where the traced time went
and, for the sweep, the analytic comparison counts beside measured
candidates and times, and writes the last traced run's spans to
``bench/out/``.  Metric names and units are those of ``BENCHMARK.json``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` (workload runs that raised or whose output differed from what was
expected) and ``metrics``.  Exit status 0 means every output checked out,
1 that some did not, 2 that the simulator could not be imported or the
arguments were bad.  Importing ``workloads`` pins BLAS and OpenMP to one
thread, for this process and the fresh ones it starts.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import LayerStats, Tracer, check_calls

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

try:
    import workloads  # first: it pins BLAS threads before numpy loads
except ImportError as exc:
    print(f"cannot import the simulator from {ROOT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(2)
import numpy  # noqa: E402
import scipy  # noqa: E402
SETUP_PROBES = 8
MIN_RUNS = 3
CHILD_TIMEOUT_S = 120


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def git_sha() -> str:
    """HEAD's commit from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def csv_trials(csv: str) -> list:
    """The trials column of each data row."""
    header, *rows = csv.splitlines()
    col = header.split(",").index("trials")
    return [int(row.split(",")[col]) for row in rows]


class Ledger:
    """Counts workload runs and those that raised or gave a wrong output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, fn, *args):
        """(result, seconds), or (None, 0) after counting a failure."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None, 0.0
        return result, time.perf_counter() - start

    def check(self, ok: bool, message: str) -> bool:
        """Count the latest run as failed unless ok; call at most once per run."""
        if not ok:
            self.failed += 1
            print(f"FAILED: {message}", file=sys.stderr)
        return ok


def child(*argv):
    """Run bench/probe.py in a fresh process and return its JSON."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), *map(str, argv)],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe {' '.join(map(str, argv))} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


class Bench:
    """One workload at one seed: its runs, their checks and their ledger."""

    def __init__(self, workload, seed):
        self.wl = workload
        self.seed = seed
        self.ledger = Ledger()
        self.reference = None  # the CSV every run at --seed must reproduce
        self.expected_trials = [workload.trials_per_row()] * max(1, len(workload.arms))

    def golden_gate(self) -> None:
        """Compare a long run at each golden seed with its golden CSV.

        These runs also warm every cache before anything is timed.
        """
        for seed in workloads.GOLDEN_SEEDS:
            csv, _ = self.ledger.run(self.wl.run, seed, workloads.GOLDEN_SCALE)
            if csv is not None:
                path = workloads.golden_path(self.wl.name, seed)
                golden = path.read_text() if path.exists() else None
                self.ledger.check(
                    csv == golden, f"CSV at seed {seed} differs from {path.relative_to(ROOT)}:\n{csv}"
                )

    def check_repeat(self, csv) -> None:
        """The first CSV at --seed must hold the budgeted trials; later ones repeat it."""
        if self.reference is None:
            self.reference = csv
            self.ledger.check(
                csv_trials(csv) == self.expected_trials,
                f"trials {csv_trials(csv)} != the budget {self.expected_trials}",
            )
        else:
            self.ledger.check(csv == self.reference, f"CSV differs from the first run:\n{csv}")

    def timed_run(self):
        """One untraced run at --seed; its wall seconds, or None if it raised."""
        csv, wall = self.ledger.run(self.wl.run, self.seed)
        if csv is None:
            return None
        self.check_repeat(csv)
        return wall

    @property
    def trials(self) -> int:
        return sum(self.expected_trials)


def end_to_end(bench, seconds) -> dict:
    """trials_per_s, setup_s and peak_rss_mib of one workload.

    trials_per_s is the trials of one run over the median run's wall time,
    scaled by how much slower than nominal the median reference ran: other
    tenants of a shared host slow both alike, for seconds or minutes at a
    time.  On a 2-vCPU shared VM, over ten 50 s calls per workload with
    different seeds, the quartile distance over the median was 35 % (sweep)
    and 12 % (coded) unscaled, 7 % and 4 % scaled.
    """
    wl = bench.wl
    bench.golden_gate()
    reference = workloads.Reference()
    walls, refs, setups = [], [], []
    start = time.perf_counter()
    while (
        len(walls) < MIN_RUNS
        or len(setups) < SETUP_PROBES
        or time.perf_counter() - start < seconds
    ):
        # set-up probes are spread over the call, to sample it as the runs do
        due = seconds * len(setups) / SETUP_PROBES
        if len(setups) < SETUP_PROBES and time.perf_counter() - start >= due:
            got, _ = bench.ledger.run(child, "setup", wl.name)
            if got is None:
                break
            setups.append(got["setup_s"])
            continue
        wall = bench.timed_run()
        if wall is None:
            break
        walls.append(wall)
        refs.append(reference.time())
    got, _ = bench.ledger.run(child, "run", wl.name, bench.seed)
    metrics = {}
    if got is not None:
        bench.check_repeat(got["csv"])
        metrics["peak_rss_mib"] = got["peak_rss_mib"]
    if walls:
        slowdown = statistics.median(refs) / workloads.REFERENCE_NOMINAL_S
        unscaled = bench.trials / statistics.median(walls)
        metrics["trials_per_s"] = unscaled * slowdown
        print(
            f"trials_per_s: {bench.trials} trials / median wall of {len(walls)} runs "
            f"= {unscaled:.2f}, times reference slowdown {slowdown:.4f}; "
            f"unscaled at the fastest wall {bench.trials / min(walls):.2f}"
        )
    if setups:
        metrics["setup_s"] = statistics.median(setups)
        print(f"setup_s: median of {len(setups)} fresh processes, {sorted(setups)}")
    return metrics


def layer_metrics(trace, wl, pruned_arms) -> dict:
    """The per-layer metrics of one traced run, named as in BENCHMARK.json."""
    layers = trace.layers

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    out = {}
    for name, s in layers.items():
        out[f"{name}.calls"] = s.calls
        out[f"{name}.busy_s"] = s.busy_ns / 1e9
    # drawing a channel is a sliver of block set-up; its call count is the
    # block count, which is what is worth reporting
    del out["channel.sample_rayleigh.busy_s"]
    for name in ("detector.wmd_decode", "detector.compute_llrs"):
        out[f"{name}.codewords_scored"] = layers[name].count
        out[f"{name}.ns_per_codeword"] = ratio(layers[name].busy_ns, layers[name].count)
    # one multiply and one add per observation bit of each scored codeword
    out["detector.wmd_decode.gflop_computed"] = (
        2 * 2 * wl.config["n_rx"] * layers["detector.wmd_decode"].count / 1e9
    )
    for name in ("partition.preprocess", "channel.transmit"):
        out[f"{name}.us_per_call"] = ratio(layers[name].busy_ns, layers[name].calls, 1e-3)
    for arm in pruned_arms:
        s = trace.arms.get(("partition.preprocess", arm), LayerStats())
        out[f"partition.preprocess.{arm}.us_per_call"] = ratio(s.busy_ns, s.calls, 1e-3)
        out[f"partition.preprocess.{arm}.cand_mean"] = ratio(s.count, s.calls)
        out[f"partition.preprocess.{arm}.cand_ratio"] = ratio(s.count, s.calls * wl.codebook_size)
    tree = layers["partition.build_partition_tree"]
    out["partition.build_partition_tree.self_s"] = (tree.busy_ns - tree.child_ns) / 1e9
    km = layers["partition.kmeans_hamming"]
    out["partition.kmeans_hamming.lloyd_iters_mean"] = ratio(km.count, km.calls)
    code = layers["spatial_code.build_code"]
    out["spatial_code.build_code.mib_computed"] = ratio(code.count, code.calls, 2.0**-20)
    bp = layers["ldpc.decode_bp"]
    out["ldpc.decode_bp.converged_ratio"] = ratio(bp.count, bp.calls)
    out["sim.self_s"] = trace.sim_self_ns / 1e9
    return out


def print_breakdown(trace) -> None:
    """Where the traced runs' wall time went, by layer."""
    wall = trace.wall_ns
    print(f"traced runs' wall {wall / 1e9:.4f} s:")
    rows = sorted(trace.layers.items(), key=lambda kv: -kv[1].busy_ns)
    for name, s in rows:
        if s.calls:
            self_ns = s.busy_ns - s.child_ns
            print(
                f"  {name:32s} calls {s.calls:7d}  busy {s.busy_ns / 1e9:8.4f} s"
                f"  self {self_ns / 1e9:8.4f} s  {100 * s.busy_ns / wall:5.1f}% of wall"
            )
    print(f"  {'sim (harness self time)':32s} {trace.sim_self_ns / 1e9:8.4f} s  "
          f"{100 * trace.sim_self_ns / wall:5.1f}% of wall")
    print(f"  top-level layer spans {trace.top_ns / 1e9:.4f} s + sim self "
          f"{trace.sim_self_ns / 1e9:.4f} s = wall {wall / 1e9:.4f} s")
    top = max((s for s in rows if s[1].calls), key=lambda kv: kv[1].busy_ns - kv[1].child_ns)
    print(f"  dominant layer by self time: {top[0]}")


def print_complexity(trace, bench) -> None:
    """estimate_complexity's counts beside measured candidates and times."""
    wl = bench.wl
    print("arm         n_pre  n_wmd n_total  cand_mean  prune_us/slot  detect_us/slot  sum_us/slot")
    for spec in wl.arms:
        arm = workloads.arm_label(spec)
        n_pre, n_wmd, n_total = workloads.arm_complexity(wl, spec)
        det = trace.arms.get(("detector.wmd_decode", arm), LayerStats())
        pre = trace.arms.get(("partition.preprocess", arm), LayerStats())
        slots = det.calls or 1
        prune_us, det_us = pre.busy_ns / slots / 1e3, det.busy_ns / slots / 1e3
        print(
            f"{arm:10s} {n_pre:6} {n_wmd:6} {n_total:7} {det.count / slots:10.2f}"
            f" {prune_us:14.2f} {det_us:15.2f} {prune_us + det_us:12.2f}"
        )


def traced_run(tr, bench):
    """One run with every layer hooked: (CSV, RunTrace, start in ns)."""
    tr.reset()
    with tr.installed():
        t0 = time.perf_counter_ns()
        csv = bench.wl.run(bench.seed)
        wall_ns = time.perf_counter_ns() - t0
    trace = tr.summarize(wall_ns)
    check_calls(trace, bench.wl.expected_calls())
    return csv, trace, t0


def per_layer(bench, seconds) -> dict:
    wl = bench.wl
    bench.golden_gate()
    tr = Tracer()
    plain, traced, values = [], [], []
    total = counts = None
    start = time.perf_counter()
    while len(traced) < MIN_RUNS or time.perf_counter() - start < seconds:
        wall = bench.timed_run()
        if wall is None:
            break
        plain.append(wall)
        got, _ = bench.ledger.run(traced_run, tr, bench)
        if got is None:
            break
        csv, trace, t0 = got
        if counts is None:
            counts = trace.exact_counts()
        if bench.ledger.check(
            trace.exact_counts() == counts, "call counts differ between traced runs"
        ):
            bench.check_repeat(csv)
        traced.append(trace.wall_ns / 1e9)
        values.append(layer_metrics(trace, wl, workloads.PRUNED_ARMS))
        if total is None:
            total = trace
        else:
            total.merge(trace)
    if len(traced) < 2:
        return {}
    print(f"{len(traced)} traced runs, each after an untraced one")
    print_breakdown(total)
    if wl.arms:
        print_complexity(total, bench)
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"{wl.name}.seed{bench.seed}.spans.csv"
    tr.write_spans(spans, t0)
    print(f"spans of the last traced run: {spans.relative_to(ROOT)}")
    metrics = {name: statistics.median_low([v[name] for v in values]) for name in values[0]}
    metrics["trace_overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return metrics


def main() -> int:
    args = parse_args()
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "thread_pin": {var: os.environ[var] for var in workloads.THREAD_PIN},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
    }
    print("env " + json.dumps(env, sort_keys=True))

    bench = Bench(workloads.WORKLOADS[args.workload], args.seed)
    measure = per_layer if args.trace else end_to_end
    values = measure(bench, args.seconds)
    ledger = bench.ledger
    missing = [m["name"] for m in declared if m["name"] not in values]
    extra = sorted(set(values) - {m["name"] for m in declared})
    correct = ledger.failed == 0 and not missing and not extra
    if missing or extra:
        print(f"metrics missing {missing}, undeclared {extra}", file=sys.stderr)
    metrics = {}
    for m in declared:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"metric {m['name']} = {values[m['name']]} {m['unit']}")
    print(f"failed_frac = {ledger.failed / max(1, ledger.attempted)} "
          f"({ledger.failed} of {ledger.attempted} runs)")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
