"""One fresh-interpreter set-up: import the CLI, write and load the scenario,
and for ``extract`` generate and write the timestamp file.

The parent times this process from spawn to exit, so ``setup_s`` covers
interpreter start-up and everything a first op needs.  Run from run.py:

    python3 perfbench/setup_child.py ROOT WORKLOAD SEED SIZE DIRECTORY
"""

import sys
from pathlib import Path


def main(argv) -> int:
    root, workload, seed, size, directory = argv
    import workloads

    workloads.import_cli(Path(root))
    workloads.write_inputs(workload, int(seed), workloads.SIZES[size], Path(directory))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
