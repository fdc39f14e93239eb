#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload fanout-sync --seed 1 --seconds 30 \
        --trace 0

Run from the repository root. Builds the TPS libraries and the perfbench
binary into .bench_build/perfbench (CMake, Release), checks that the
per-layer map in perfbench/layers.json covers BENCHMARK.json, runs the
binary's self-tests, then one measurement. --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer ledger. The last line of standard output
is the JSON result; nothing is printed there when any step fails, and the
exit code is then non-zero.

    python3 perfbench/run.py --selftest   # self-tests only
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def check_layer_map(bench, layers):
    """Every per-layer metric names end-to-end metrics and workloads that
    exist, and the map names no metric the benchmark does not report.
    Returns a list of problems (empty when complete)."""
    problems = []
    e2e = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    for name in sorted(per_layer - set(layers)):
        problems.append(f"{name}: not in layers.json")
    for name in sorted(set(layers) - per_layer):
        problems.append(f"{name}: in layers.json but not in BENCHMARK.json")
    for name, entry in sorted(layers.items()):
        moves = entry.get("moves") or []
        on = entry.get("workloads") or []
        if not moves or not on:
            problems.append(f"{name}: needs 'moves' and 'workloads'")
        problems += [f"{name}: moves unknown metric {m}"
                     for m in moves if m not in e2e]
        problems += [f"{name}: names unknown workload {w}"
                     for w in on if w not in workloads]
    return problems


def selftest_layer_map(bench, layers):
    """The completeness check must pass on the real map and catch each
    kind of hole in a fabricated one."""
    errors = []
    if check_layer_map(bench, layers):
        errors.append("real layer map incomplete")
    name = bench["per_layer"][0]["name"]
    holes = {
        "missing metric": {k: v for k, v in layers.items() if k != name},
        "extra metric": {**layers, "no.such_metric": layers[name]},
        "unknown e2e": {**layers, name: {**layers[name], "moves": ["nope"]}},
        "unknown workload": {**layers,
                             name: {**layers[name], "workloads": ["nope"]}},
        "empty entry": {**layers, name: {}},
    }
    for kind, broken in holes.items():
        if not check_layer_map(bench, broken):
            errors.append(f"layer map check missed: {kind}")
    return errors


def build():
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def validate(result, expected, units):
    """The result line carries exactly the expected metrics, in their units."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys"
    if result["attempted"] < 1:
        return "nothing attempted"
    if set(result["metrics"]) != set(expected):
        return "metrics differ from BENCHMARK.json: " + ", ".join(
            sorted(set(result["metrics"]) ^ set(expected)))
    for name, m in result["metrics"].items():
        if m.get("unit") != units[name]:
            return f"{name}: unit {m.get('unit')} is not {units[name]}"
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        with open(os.path.join(HERE, "layers.json")) as f:
            layers = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read the benchmark definition: {e}")
    problems = check_layer_map(bench, layers)
    problems += selftest_layer_map(bench, layers)
    if problems:
        fail("per-layer map: " + "; ".join(problems))

    build()
    if subprocess.run([BINARY, "--selftest"], stdout=sys.stderr).returncode:
        fail("self-tests failed")
    if args.selftest:
        return

    section = bench["per_layer" if args.trace else "end_to_end"]
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # The measurement never outlives this script: on a timeout or a
    # SIGTERM it is killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        fail(f"run exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("no result line")
    problem = validate(result, [m["name"] for m in section],
                       {m["name"]: m["unit"] for m in section})
    if problem:
        fail(f"bad result: {problem}")
    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
