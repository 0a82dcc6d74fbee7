"""Set-up probe: a fresh interpreter through import, input generation and parsing.

Prints the CLOCK_MONOTONIC reading taken where the benchmark would make its
first experiment call; the parent subtracts its own reading from just before
it started this process.

Usage: python3 perfbench/probe.py WORKLOAD SEED DIRECTORY
"""

import sys
import time

import env


def main(argv):
    workload, seed, directory = argv
    trapswitch = env.import_package()
    from workloads import write_specs

    for path in write_specs(workload, int(seed), directory):
        trapswitch.load_spec(path)
    print(time.monotonic())


if __name__ == "__main__":
    main(sys.argv[1:])
