"""Capture the reference reports that perfbench checks outputs against.

    python3 perfbench/capture_reference.py

Runs every referenced command (verify, constants) of every workload on
each size of its config, at seed 0 with the sources in ./src, and stores
each report that exits 0 under perfbench/reference/.  Run it only on a
commit whose reports are known to be right: the benchmark treats these
files as ground truth.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

import workloads
from run import ROOT, child_env


def main() -> int:
    env = child_env()
    referenced = {(config, command) for ops in workloads.WORKLOADS.values()
                  for config, command, _ in ops if command in workloads.REFERENCED}
    os.makedirs(os.path.dirname(workloads.reference_path("x", "full", "x")), exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        for config, command in sorted(referenced):
            for size in workloads.CONFIGS[config]:
                path = workloads.write_config(config, size, 0, workdir)
                out = workloads.reference_path(config, size, command)
                code = subprocess.run([sys.executable, "-m", "mtcover", command,
                                       "--config", path, "--out", out], env=env).returncode
                if code != 0 and os.path.exists(out):
                    os.remove(out)
                print(f"{config} {size} {command}: exit {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
