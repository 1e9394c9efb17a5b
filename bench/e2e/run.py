#!/usr/bin/env python3
"""Build pfbench from source and run it; every argument goes to pfbench.

    python3 bench/e2e/run.py --workload zipf-smp4 --seed 1 --seconds 30 --trace 0

The repository root is found from this file's location. Build output goes
to standard error, so the last line of standard output is pfbench's JSON
result. Exits nonzero without running anything when the build fails or
this directory is not inside the packet filter repository.
"""

import os
import subprocess
import sys

root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if not os.path.isdir(os.path.join(root, "lib")):
    sys.exit(f"run.py: {root} holds no packet filter sources to build")
build = subprocess.run(
    ["dune", "build", "--root", root, "--cache=disabled", "--no-print-directory",
     "-j", "2", "./bench/e2e/pfbench.exe"],
    cwd=root, stdout=sys.stderr, check=False)
if build.returncode != 0:
    sys.exit(build.returncode)
exe = os.path.join(root, "_build", "default", "bench", "e2e", "pfbench.exe")
os.execv(exe, [exe] + sys.argv[1:])
