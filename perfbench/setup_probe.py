"""Set-up alone, for setup_s: import codecat and build one workload's inputs.

    python3 perfbench/setup_probe.py --workload census --seed 1

run.py starts this several times and times each start to exit.
"""

import argparse

import workloads

if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    workloads.build(args.workload, args.seed)
