#!/usr/bin/env python3
"""End-to-end benchmark of the Zhuge simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The script checks BENCHMARK.json
against perfbench/glossary.json, builds perfbench/ (and the simulator
libraries under src/) into $CARGO_TARGET_DIR or .bench_build, then runs the
zhuge_perfbench binary. The binary's last stdout line is the JSON result;
the script checks that it reports exactly the metrics BENCHMARK.json
declares for the mode, with their units, then prints the binary's output
and passes its exit code through. Exit 2 means a usage, self-check, build
or result-format error, with no result printed.
"""

import argparse
import fcntl
import json
import os
import re
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
DEADLINE_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def self_check():
    """Every metric of BENCHMARK.json is in the glossary under the same kind,
    every name is well formed, and every per-layer metric names the
    end-to-end metrics and workloads it should move."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        with open(os.path.join(HERE, "glossary.json")) as f:
            glossary = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json or glossary.json: {e}")
    workloads = {w["name"] for w in bench["workloads"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    entries = {m["name"]: m for m in glossary["metrics"]}
    errors = []
    for name in sorted(workloads) + [m["name"] for m in glossary["metrics"]]:
        if not NAME_RE.match(name):
            errors.append(f"bad name {name!r}")
    for kind in ("end_to_end", "per_layer"):
        for m in bench[kind]:
            g = entries.get(m["name"])
            if g is None:
                errors.append(f"{m['name']}: missing from glossary.json")
            elif g["kind"] != kind:
                errors.append(f"{m['name']}: listed as {kind}, glossary says {g['kind']}")
    for g in glossary["metrics"]:
        if g["time"] not in ("host", "sim", "none"):
            errors.append(f"{g['name']}: time must be host, sim or none")
        if g["kind"] != "per_layer":
            continue
        if g["name"] not in {m["name"] for m in bench["per_layer"]}:
            errors.append(f"{g['name']}: in glossary.json but not in BENCHMARK.json")
        moves = set(g.get("moves", []))
        where = set(g.get("workloads", []))
        if g["role"] == "cause" and (not moves or not where):
            errors.append(f"{g['name']}: a cause must name what it moves and where")
        if not moves <= e2e:
            errors.append(f"{g['name']}: moves undeclared metrics {sorted(moves - e2e)}")
        if not where <= workloads:
            errors.append(f"{g['name']}: names undeclared workloads {sorted(where - workloads)}")
    if errors:
        fail("self-check failed:\n  " + "\n  ".join(errors))
    return bench


def check_result(stdout, declared):
    """The last line is the JSON result and reports exactly the `declared`
    metrics ({name: unit}), each with its declared unit."""
    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = result["metrics"]
        got = {name: m["unit"] for name, m in metrics.items()}
    except (IndexError, ValueError, KeyError, TypeError, AttributeError) as e:
        fail(f"the benchmark printed no well-formed result line: {e}")
    errors = [f"{n}: not reported" for n in sorted(declared.keys() - got.keys())]
    errors += [f"{n}: not declared in BENCHMARK.json" for n in sorted(got.keys() - declared.keys())]
    errors += [f"{n}: unit {got[n]!r}, BENCHMARK.json says {declared[n]!r}"
               for n in sorted(declared.keys() & got.keys()) if got[n] != declared[n]]
    if errors:
        fail("result does not match BENCHMARK.json:\n  " + "\n  ".join(errors))


def build(build_dir):
    """Configure once, then build incrementally. Build output goes to
    stderr so the result stays the last line of stdout."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
                cache = os.path.join(build_dir, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)  # reconfigure next time
                fail("configure failed")
        cmd = ["cmake", "--build", build_dir, "--target", "zhuge_perfbench", "-j", "4"]
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed")
    return os.path.join(build_dir, "zhuge_perfbench")


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    bench = self_check()
    workloads = {w["name"] for w in bench["workloads"]}
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; expected one of {sorted(workloads)}")
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]")

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(os.path.join(ROOT, build_dir))
    build_s = time.monotonic() - start
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spec-dir", os.path.join(HERE, "specs")]
    # A no-op build counts against the deadline; the first run in a
    # checkout, which compiles everything, gets the whole deadline for the
    # run itself.
    timeout = DEADLINE_S if build_s > 60 else DEADLINE_S - build_s
    try:
        res = subprocess.run(cmd, cwd=ROOT, timeout=timeout, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    if res.returncode == 2:  # usage or input error: no result to check
        sys.exit(2)
    kind = "per_layer" if args.trace else "end_to_end"
    check_result(res.stdout, {m["name"]: m["unit"] for m in bench[kind]})
    sys.stdout.write(res.stdout)
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
