#!/usr/bin/env python3
"""Build the SliceLine benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census-l3 --seed 1 --seconds 20 --trace 0

All arguments are passed to the benchmark binary (see perfbench/main.go);
`--workload all` runs every workload in turn, one process each. The build
output and the Go build cache stay under .bench_build/ in the checkout.
The last line of standard output is the result JSON of the (last) workload.
"""

import os
import subprocess
import sys

WORKLOADS = ["census-l3", "criteo-wide", "kdd-fleet", "adult-monitor"]


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        # Telemetry counters and go env settings live under the user config
        # directory; keep them in the checkout too.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    args = sys.argv[1:]
    if "--workload" in args and args[args.index("--workload") + 1 :][:1] == ["all"]:
        i = args.index("--workload")
        code = 0
        for w in WORKLOADS:
            code |= subprocess.run([binary] + args[:i] + ["--workload", w] + args[i + 2 :]).returncode
        return code
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
