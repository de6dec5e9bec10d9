#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is the Rust package next to this file. It is built in
release mode, offline, into $CARGO_TARGET_DIR (default: `.bench_build` in
the working directory), then run with the same arguments. Its standard
output passes through unchanged; the last line is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`. The exit code is the
benchmark's, or 1 when the build fails, the run times out, or the printed
metrics do not match BENCHMARK.json.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
# Past `--seconds`, a run spends time on its reference batch, its set-up
# probes and the batch that straddles the deadline (an untraced run), or on
# its fixed sequence of batches and layer drivers (a traced run).
RUN_MARGIN_S = 145


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is present."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def flag(args, name):
    """The value after `name` in `args`, or None."""
    if name in args and args.index(name) + 1 < len(args):
        return args[args.index(name) + 1]
    return None


def main():
    args = sys.argv[1:]
    trace = flag(args, "--trace") == "1"
    seconds = flag(args, "--seconds")
    timeout_s = RUN_MARGIN_S + (int(seconds) if seconds and seconds.isdigit() else 0)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.abspath(".bench_build"))
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "aero-benchmark")
    try:
        ran = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        print(f"run.py: the benchmark ran past {timeout_s} s", file=sys.stderr)
        return 1
    sys.stdout.write(ran.stdout)
    sys.stdout.flush()
    if ran.returncode != 0:
        return ran.returncode
    expected = expected_metrics(trace)
    result = json.loads(ran.stdout.strip().splitlines()[-1])
    if expected is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != expected:
            print(f"run.py: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
