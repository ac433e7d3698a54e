"""Set-up probe: one fresh process that imports symsplit and warms a workload.

``run.py`` times this script from spawn to exit; that wall time is one
``setup_s`` sample (interpreter start, import, and the first-use lazy
set-up of the workload: word expansion, cold ``tables_for``, first CLI
parse).

    python3 perfbench/probe.py WORKLOAD
"""

import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the path above)


def main(name: str) -> int:
    workdir = ROOT / ".perfbench" / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workloads.WORKLOADS[name]().warmup(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
