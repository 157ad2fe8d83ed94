#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload cell_pathfinder --seed 1 --seconds 30 --trace 0

Every argument is passed to the benchmark binary (see main.go). The Go
build cache, module cache, temporary files and the binary all live under
.bench_build/ at the repository root, so a run writes nothing outside the
checkout. Build output goes to standard error; the benchmark's last line
of standard output is its JSON result. The exit code is the benchmark's,
or the build's when the build fails.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(os.path.dirname(here), ".bench_build")
    dirs = {
        "GOCACHE": "gocache",
        "GOMODCACHE": "gomodcache",
        "GOPATH": "gopath",
        "GOTMPDIR": "tmp",
        "XDG_CONFIG_HOME": "config",
    }
    env = dict(os.environ)
    for var, sub in dirs.items():
        path = os.path.join(build, sub)
        os.makedirs(path, exist_ok=True)
        env[var] = path
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", CGO_ENABLED="0")

    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return built.returncode
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
