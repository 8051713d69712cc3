#!/usr/bin/env python3
"""Build the benchmark from source and run it, from the root of a checkout.

    python3 perfbench/run.py --workload table1-backedge --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

The Go program in perfbench/ is compiled into .bench_build/, with Go's
build cache and configuration there too, so nothing is written outside
the checkout. Every other argument is passed to it unchanged. The last
line of standard output is the result of the run as one JSON object.

--workload all runs every workload BENCHMARK.json lists in turn,
printing each one's full report, and exits nonzero if any of them fails;
its last line is a JSON object mapping each workload to its result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
        GOWORK="off",
        GOENV="off",
        CGO_ENABLED="0",
    )
    return env


def build():
    os.makedirs(BUILD, exist_ok=True)
    done = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env())
    if done.returncode != 0:
        sys.exit("perfbench: build failed")


def workload_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def run(args):
    """Runs the program once; returns its exit code and result line."""
    proc = subprocess.Popen([BINARY, *args, "-workdir", os.path.join(BUILD, "work")],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    last = ""
    for line in proc.stdout:
        sys.stdout.write(line)
        last = line
    return proc.wait(), last


def main(argv):
    build()
    flags = [j for j, a in enumerate(argv[:-1]) if a in ("--workload", "-workload")]
    if not flags or argv[flags[-1] + 1] != "all":
        code, _ = run(argv)
        return code
    i = flags[-1] + 1
    results, code = {}, 0
    for name in workload_names():
        rc, last = run(argv[:i] + [name] + argv[i + 1:])
        if rc != 0:
            code = rc
            results[name] = None
        else:
            results[name] = json.loads(last)
    print(json.dumps(results))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
