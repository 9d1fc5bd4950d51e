#!/usr/bin/env python3
"""Build the perfbench program from source and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload day-discrete --seed 1 --seconds 20 --trace 0

Every argument is passed to the program (see perfbench/main.go). The build
and its Go caches live in .bench_build/ under the repository root, so the
benchmark reads and writes nothing outside the checkout. The program's
last line of standard output is the JSON result; the exit code is the
program's, or 1 when the build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(root, ".bench_build")
    for sub in ("go-cache", "go-mod", "tmp"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "go-cache"),
        "GOMODCACHE": os.path.join(build, "go-mod"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOENV": "off",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."],
                           cwd=os.path.join(root, "perfbench"), env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    ran = subprocess.run([binary, "--root", root] + sys.argv[1:], env=env)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
