"""One set-up of a workload in a fresh interpreter: import toriceig, then make
and parse the seeded inputs.  Prints the CLOCK_MONOTONIC time at which the
set-up finished, so the caller can time it from before the process started.

    python3 perfbench/setup_probe.py --workload ritz --seed 1
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import perfbench  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    perfbench.use_checkout_src()
    import toriceig  # noqa: F401

    from perfbench import workloads

    workloads.build(args.workload, args.seed, perfbench.OUT)
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
