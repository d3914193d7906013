#!/usr/bin/env python3
"""Build and run the PFPL repository benchmark.

    python3 benchmark/run.py                  # build, run all four workloads once
    python3 benchmark/run.py --workload codec --seed 3 --seconds 20 --trace 0
    python3 benchmark/run.py --smoke          # ~1 s per workload, traced and untraced
    bash benchmark/calibrate.sh               # repeatability study, rewrites BENCHMARK.json

The build compiles ../src with the root flags into build/benchmark/ (the
first run builds; later runs only check it is current). Each workload run prints
the run header, per-round lines and every metric by name with its unit; the
metrics BENCHMARK.json does not list are printed as diagnostics, and the last
line of standard output is one JSON object {correct, attempted, failed,
metrics} holding the listed end-to-end metrics (--trace 0) or per-layer
metrics (--trace 1). Traced runs also write
build/benchmark_out/trace-<workload>.json.
Exit status is 0 only when every output matched its reference.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build" / "benchmark"
OUT = ROOT / "build" / "benchmark_out"
BINARY = BUILD / "pfpl_bench"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ["codec", "serve_small", "serve_large", "pack"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("run.py: no src/ beside benchmark/; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout is reserved for the results.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            raise SystemExit("run.py: build failed: " + " ".join(cmd))


def run_binary(workload, seed, seconds, trace, extra=()):
    """Run one workload; returns (exit code, stdout lines, parsed final JSON or None)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--out-dir", str(OUT), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=90 + 4 * float(seconds))
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} did not finish in time")
        return 124, [], None
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    return proc.returncode, lines, result


def load_spec():
    return json.loads(SPEC.read_text())


def listed(spec, trace):
    return spec["per_layer" if trace else "end_to_end"]


def listed_result(result, spec, trace):
    """Keep the metrics BENCHMARK.json lists; the rest are diagnostics."""
    metrics = {}
    for m in listed(spec, trace):
        got = result["metrics"].get(m["name"])
        if got is None:
            raise SystemExit(f"run.py: listed metric {m['name']} missing from the run")
        metrics[m["name"]] = got
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def run_workloads(args, spec):
    rc = 0
    for wl in [args.workload] if args.workload else WORKLOADS:
        code, lines, result = run_binary(wl, args.seed, args.seconds, args.trace)
        print("\n".join(lines[:-1] if result else lines), flush=True)
        if result is None:
            log(f"run.py: {wl} printed no result (exit {code})")
            return code or 1
        if args.all_metrics:
            print(json.dumps(result), flush=True)
        else:
            names = {m["name"] for m in listed(spec, args.trace)}
            for name, m in result["metrics"].items():
                if name not in names:
                    print(f"  diagnostic {name} = {m['value']:.6g} {m['unit']}")
            print(json.dumps(listed_result(result, spec, args.trace)), flush=True)
        rc = rc or code
    return rc


def smoke(spec):
    """~1 s per workload, traced and untraced: the result line parses, every
    listed metric is present with its unit, nothing failed — and a flipped
    reference byte makes the checker fail."""
    problems = []
    for wl in WORKLOADS:
        for trace in (0, 1):
            code, _, result = run_binary(wl, 1, 1, trace)
            tag = f"{wl} trace={trace}"
            before = len(problems)
            if result is None or set(result) != RESULT_KEYS:
                problems.append(f"{tag}: no well-formed result line (exit {code})")
                log(f"smoke: {tag} FAILED")
                continue
            if code != 0 or result["failed"] != 0 or not result["correct"]:
                problems.append(f"{tag}: exit {code}, failed {result['failed']}")
            if not isinstance(result["attempted"], int) or result["attempted"] < 1:
                problems.append(f"{tag}: attempted {result['attempted']}")
            for m in listed(spec, trace):
                got = result["metrics"].get(m["name"])
                if got is None:
                    problems.append(f"{tag}: metric {m['name']} missing")
                elif got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{tag}: metric {m['name']} is {got}, want unit {m['unit']}")
            log(f"smoke: {tag} {'ok' if len(problems) == before else 'FAILED'}")
    code, _, result = run_binary("codec", 1, 1, 0, ["--inject-fault"])
    if code == 0 or result is None or result["correct"] or result["failed"] < 1:
        problems.append(f"inject-fault: the checker did not report the flipped byte (exit {code})")
    else:
        log(f"smoke: inject-fault detected ({result['failed']} failed of {result['attempted']})")
    for p in problems:
        log("smoke: " + p)
    print(json.dumps({"smoke": "ok" if not problems else "failed", "problems": problems}))
    return 1 if problems else 0


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--build-only", action="store_true")
    ap.add_argument("--all-metrics", action="store_true",
                    help="print every measured metric in the result line (calibration)")
    args = ap.parse_args()
    build()
    if args.build_only:
        return 0
    OUT.mkdir(parents=True, exist_ok=True)
    return smoke(spec) if args.smoke else run_workloads(args, spec)


if __name__ == "__main__":
    sys.exit(main())
