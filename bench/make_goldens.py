"""Write bench/golden/<workload>.seed<n>.csv for every workload and golden seed.

    python3 bench/make_goldens.py

Run it only at a commit whose CSVs are the accepted reference; bench/run.py
compares every later run against these files byte for byte.
"""

import workloads


def main() -> None:
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS.values():
        for seed in workloads.GOLDEN_SEEDS:
            path = workloads.golden_path(workload.name, seed)
            path.write_text(workload.run(seed, workloads.GOLDEN_SCALE))
            print(path)


if __name__ == "__main__":
    main()
