#!/usr/bin/env python3
"""Build the perfbench binary from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-matrix --seed 1 --seconds 20 --trace 0

The Go build cache, temporary files and the binary all live under
.bench_build/ in the checkout, so nothing is read from or written to the
user's Go caches. All arguments are passed through to the binary, whose
last line of standard output is the JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    binary = os.path.join(BUILD, "perfbench")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "go-cache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        # The go command keeps telemetry counters under the user config
        # directory; keep them in the checkout too.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOENV": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # Replace this process with the benchmark, so no wrapper outlives it.
    os.chdir(ROOT)
    args = [binary, "-trace-dir", os.path.join(BUILD, "traces")] + sys.argv[1:]
    os.execv(binary, args)


if __name__ == "__main__":
    sys.exit(main())
