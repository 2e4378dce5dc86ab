#!/usr/bin/env python3
"""Build and run the wheels benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark binary (a Go module of its own that drives the
simulator's packages) into .bench_build/, with the Go build cache, module
cache and temporary files kept there too, then runs it. The binary prints
one JSON result line last; traced runs also write their span tree to
.bench_build/spans/<workload>-seed<N>.json. Exits non-zero, printing no
result, when the simulator's sources are missing or the run fails.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=23)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "go.mod").is_file() or not (ROOT / "internal").is_dir():
        sys.exit("perfbench: the simulator's sources (go.mod, internal/) are not next to perfbench/")

    tmp = BUILD / "tmp"
    for d in (BUILD / "gocache", BUILD / "gopath", tmp, BUILD / "spans"):
        d.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=str(BUILD / "gocache"),
        GOPATH=str(BUILD / "gopath"),
        GOMODCACHE=str(BUILD / "gopath" / "pkg" / "mod"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        TMPDIR=str(tmp),
    )
    binary = BUILD / "perfbench"
    # Build with the simulator's committed CPU profile, as its CI does.
    pgo = ROOT / "default.pgo"
    build = ["go", "build", "-pgo=" + (str(pgo) if pgo.is_file() else "off"), "-o", str(binary), "."]
    done = subprocess.run(build, cwd=HERE, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")

    cmd = [
        str(binary),
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
    ]
    if args.trace:
        cmd += ["-spans", str(BUILD / "spans" / f"{args.workload}-seed{args.seed}.json")]
    done = subprocess.run(cmd, cwd=ROOT, env=env)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
