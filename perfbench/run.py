#!/usr/bin/env python3
"""Serve benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds perso_cli and pbench
(the benchmark program) with dune, then runs one workload; pbench's last
line of output is the JSON result.  Exits non-zero without a result when
the checkout is incomplete, the build fails or the run fails.
"""
import os
import shutil
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170
PBENCH = os.path.join("_build", "default", "perfbench", "pbench.exe")


def main():
    for needed in ("dune-project", os.path.join("bin", "perso_cli.ml"), "lib"):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} missing; run from a source checkout",
                  file=sys.stderr)
            return 2
    if shutil.which("dune") is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    # Build output goes to stderr: stdout's last line is the result.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "bin/perso_cli.exe", "perfbench/pbench.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        return build.returncode
    # pbench and the server it starts share a new process group, so
    # a timeout stops both.
    proc = subprocess.Popen([PBENCH] + sys.argv[1:], start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
