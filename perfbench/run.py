#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

The Go build cache, the binary, the service's result store and any span
dumps all live under .bench_build/ in the repository root, so a run reads
and writes nothing outside the checkout. All arguments are passed through to
the benchmark binary (see perfbench/README.md).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.stderr.write("perfbench: no go.mod at %s; run from a full checkout\n" % ROOT)
        return 2
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(OUT, "gocache"),
        "GOPATH": os.path.join(OUT, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(OUT, "config"),
        "GOENV": "off",
        "GOWORK": "off",
        "GOFLAGS": "-mod=readonly",
        "GOTOOLCHAIN": "local",
    })
    binary = os.path.join(OUT, "perfbench", "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed (exit %d)\n" % build.returncode)
        return 2
    args = [binary, "--workdir", os.path.join(OUT, "perfbench")] + sys.argv[1:]
    # Replace this process with the benchmark, so no child outlives a signal
    # sent to the launcher. The benchmark stops every goroutine, server and
    # worker it starts before it exits.
    os.chdir(ROOT)
    os.execv(binary, args)


if __name__ == "__main__":
    sys.exit(main())
