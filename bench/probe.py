"""Fresh-process measurements for bench/run.py, which starts this script with
BLAS threads pinned.  Prints one JSON object on stdout.

    python3 bench/probe.py setup <workload>        -> {"setup_s": ...}
    python3 bench/probe.py run <workload> <seed>   -> {"csv": ..., "peak_rss_mib": ...}

``setup`` times the package import plus the workload's one-off set-up;
``run`` runs the workload once and reports the process's peak resident set.
"""

import json
import resource
import sys
import time


def main() -> int:
    mode, name = sys.argv[1], sys.argv[2]
    start = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[name]
    if mode == "setup":
        workload.setup()
        out = {"setup_s": time.perf_counter() - start}
    elif mode == "run":
        csv = workload.run(int(sys.argv[3]))
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        out = {"csv": csv, "peak_rss_mib": peak_kib / 1024}
    else:
        raise SystemExit(f"unknown probe mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
