#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout and runs one workload.

    python3 e2ebench/run.py --workload pair-rw --seed 1 --seconds 15 --trace 0
    python3 e2ebench/run.py --selftest

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under e2ebench/; build output goes to stderr so the
last line of stdout is the driver's JSON result. All other arguments are
passed to the load driver (see loadgen.cc). For a workload listed in
BENCHMARK.json the result line holds exactly the manifest's metrics:
`end_to_end` with --trace 0, `per_layer` with --trace 1. --selftest builds
everything, runs the driver's unit tests and a short smoke run of each
workload.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORKLOADS = ["pair-rw", "grid-mix", "pair-merge"]


def build(build_dir, targets):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4", "--target"]
                   + targets, check=True, stdout=sys.stderr)


def emit_args(workload, trace):
    """--emit for a manifest workload: the metrics its result line holds."""
    with open(MANIFEST) as f:
        manifest = json.load(f)
    if workload not in [w["name"] for w in manifest["workloads"]]:
        return []
    metrics = manifest["per_layer" if trace == "1" else "end_to_end"]
    return ["--emit", ",".join(m["name"] + ":" + m["unit"] for m in metrics)]


def flag(args, name, default):
    return args[args.index(name) + 1] if name in args[:-1] else default


def main():
    args = sys.argv[1:]
    target_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                 ".bench_build"))
    build_dir = os.path.join(target_root, "e2ebench")
    servers = ["loadgen", "tardisd", "tardis_router"]
    try:
        if args == ["--selftest"]:
            build(build_dir, servers + ["bench_lib_test"])
            subprocess.run([os.path.join(build_dir, "bench_lib_test")],
                           check=True, stdout=sys.stderr)
            for w in WORKLOADS:
                for trace in ("0", "1"):
                    subprocess.run([os.path.join(build_dir, "loadgen"),
                                    "--workload", w, "--seed", "1",
                                    "--seconds", "1", "--trace", trace,
                                    "--smoke", "--bin-dir", build_dir]
                                   + emit_args(w, trace),
                                   check=True, stdout=sys.stderr)
            print("selftest passed")
            return 0
        build(build_dir, servers)
        emit = emit_args(flag(args, "--workload", ""), flag(args, "--trace", "0"))
    except (subprocess.CalledProcessError, OSError, ValueError, KeyError) as e:
        print("e2ebench: set-up failed: %s" % e, file=sys.stderr)
        return 2
    loadgen = os.path.join(build_dir, "loadgen")
    os.execv(loadgen, [loadgen] + args + emit + ["--bin-dir", build_dir])


if __name__ == "__main__":
    sys.exit(main())
