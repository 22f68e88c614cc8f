"""One set-up in a fresh interpreter: import moq, parse the specs, build the distributions.

Usage: python3 setup_child.py <workload> <seed> <size> <workdir> <checkout root>

The parent times this process from spawn to exit; the inputs were
written to <workdir> beforehand.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    name, seed, size, workdir, root = sys.argv[1:6]
    sys.path.insert(0, f"{root}/src")
    from workloads import WORKLOADS

    WORKLOADS[name](int(seed), size, Path(workdir), Path(root)).setup()
