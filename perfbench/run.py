#!/usr/bin/env python3
"""Build and run the ptsto benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune (the first run in a fresh checkout
compiles the library), then runs one workload and passes its output and
exit code through. The last line of standard output is the result object
{correct, attempted, failed, metrics}. Build output goes to standard
error. Exits non-zero, printing no result, when the checkout holds no
ptsto sources or the build fails.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, **kw):
    # subprocess.run kills the child on timeout and waits for it to end
    try:
        return subprocess.run(cmd, timeout=timeout, **kw).returncode
    except subprocess.TimeoutExpired:
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a ptsto checkout (no dune-project or lib/ here)")
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        fail("dune is not on PATH")
    # keep the build inside the checkout: no shared dune cache
    env = dict(os.environ, DUNE_CACHE="disabled")
    code = run(
        dune + ["build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
        BUILD_TIMEOUT_S,
        env=env,
        stdout=sys.stderr,
    )
    if code != 0 or not os.path.isfile(EXE):
        fail("build failed")
    sys.stdout.flush()
    sys.exit(run([EXE] + sys.argv[1:], RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
