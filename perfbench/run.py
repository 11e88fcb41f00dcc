#!/usr/bin/env python3
"""Build and run the DAS simulator benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

Run from the repository root. The first form builds `perfbench/` (a
standalone Cargo package that depends on the repository's crates by path)
in release mode, runs one workload, and relays its output: one
`name value unit` line per metric on stderr and, as the last line of stdout,
the JSON result. The target directory is `$CARGO_TARGET_DIR`, or
`.bench_build` when unset.

`--self-check` runs every workload for a few seconds in both modes and
checks that every metric named in BENCHMARK.json is printed with its unit,
that the correctness gate passes, and that the simulated metrics repeat
exactly across two invocations with the same seed.
"""

import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
# The benchmark itself stops within this many seconds; this is a backstop.
RUN_TIMEOUT_S = 175
# Units of metrics that are functions of the simulation alone.
SIM_UNITS = {"sim_ms", "ratio", "frac", "B/event"}


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    """Builds the benchmark binary; returns its path or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot start cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return None
    exe = os.path.join(target_dir(), "release", "perfbench")
    return exe if os.path.isfile(exe) else None


def run(exe, args):
    """Runs the binary; returns (exit code, stdout)."""
    try:
        done = subprocess.run(
            [exe] + args, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_check(exe):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, metrics in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            outs = []
            for attempt in range(2 if trace == "0" else 1):
                args = ["--workload", name, "--seed", "7", "--seconds", "2", "--trace", trace]
                code, stdout = run(exe, args)
                res = result_of(stdout)
                if code != 0 or res is None:
                    problems.append(f"{name} trace={trace}: exit {code}")
                    break
                if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                    problems.append(f"{name} trace={trace}: correctness gate failed")
                for m in metrics:
                    got = res["metrics"].get(m["name"])
                    if got is None or got.get("unit") != m["unit"]:
                        problems.append(f"{name} trace={trace}: {m['name']} missing or wrong unit")
                    elif trace == "0" and not got["value"]:
                        problems.append(f"{name}: end-to-end metric {m['name']} is 0")
                if set(res["metrics"]) != {m["name"] for m in metrics}:
                    problems.append(f"{name} trace={trace}: unexpected metric names")
                outs.append(res)
            if len(outs) == 2:
                for m in metrics:
                    if m["unit"] in SIM_UNITS:
                        a = outs[0]["metrics"][m["name"]]["value"]
                        b = outs[1]["metrics"][m["name"]]["value"]
                        if a != b:
                            problems.append(f"{name}: {m['name']} differs across runs ({a} vs {b})")
        print(f"self-check: {name} done", file=sys.stderr)
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    print("self-check: " + ("FAILED" if problems else "ok"), file=sys.stderr)
    return 1 if problems else 0


def main():
    args = sys.argv[1:]
    exe = build()
    if exe is None:
        return 1
    if args == ["--self-check"]:
        return self_check(exe)
    code, stdout = run(exe, args)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
