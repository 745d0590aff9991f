#!/usr/bin/env python3
"""CityMesh benchmark runner.

Builds the benchmark binary from this directory's CMake package (into
.bench_build/ at the repository root), runs each requested workload in a
fresh process, checks its behavioural digest and prints every metric with its
unit and label. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload hotspot --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload
    python3 perfbench/run.py --record 0-15 909 7001           # re-record digests

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run (BENCHMARK.json lists both). Set PERFBENCH_BIN to run an already
built binary instead of building.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
DIGESTS = BENCH_DIR / "digests.json"
WORKLOADS = ["hotspot", "metro", "qfgeo", "paper-eval"]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def valid_metric_name(name):
    return bool(NAME_RE.match(name))


def load_json(path, default=None):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        if default is not None:
            return default
        raise


def save_json(path, data):
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this kind of run."""
    spec = load_json(ROOT / "BENCHMARK.json")
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def build():
    """Returns the benchmark binary, configuring and building it if needed."""
    if os.environ.get("PERFBENCH_BIN"):
        return Path(os.environ["PERFBENCH_BIN"])
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"library sources not found under {ROOT / 'src'}")
    BUILD_DIR.mkdir(exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release", "-DPERFBENCH_TESTS=OFF"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", "4", "--target", "perfbench"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the results.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if done.returncode != 0:
            raise BenchError(f"build step failed ({done.returncode}): {' '.join(cmd)}")
    return BUILD_DIR / "perfbench"


def check_digest(workload, seed, digest):
    """Compares against the digest recorded in digests.json, if any. Returns a
    list of problems."""
    recorded = load_json(DIGESTS).get("digests", {}).get(workload, {}).get(str(seed))
    if recorded is not None and recorded != digest:
        return [f"digest {digest} != recorded {recorded} for seed {seed}"]
    return []


def run_workload(binary, workload, seed, seconds, trace, check_digests=True):
    """Runs one workload in its own process; returns the checked report."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--trace-out", str(Path(binary).parent / f"spans-{workload}-{seed}.jsonl")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload}: no result within {RUN_TIMEOUT_S} s") from e
    if done.returncode != 0:
        raise BenchError(f"{workload}: benchmark exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: benchmark printed no report")
    report = json.loads(lines[-1])

    problems = [] if report["correct"] else [f"{workload}: a check in the run failed"]
    want = expected_metrics(trace)
    got = report["metrics"]
    if [name for name, _ in want] != list(got):
        problems.append(f"{workload}: metric names differ from BENCHMARK.json")
    for name, unit in want:
        if name in got and got[name]["unit"] != unit:
            problems.append(f"{workload}: {name} unit {got[name]['unit']} != {unit}")
        if not valid_metric_name(name):
            problems.append(f"{workload}: invalid metric name {name!r}")
    if check_digests:
        problems += [f"{workload}: {p}"
                     for p in check_digest(workload, seed, report["digest"])]
    if problems:
        report["correct"] = False
        report["failed"] = report["attempted"]
    report["problems"] = problems
    return report


def print_report(report):
    print(f"== {report['workload']} seed {report['seed']} trace {report['trace']}: "
          f"{'correct' if report['correct'] else 'INCORRECT'}, "
          f"{report['attempted']} attempted, {report['failed']} failed, "
          f"digest {report['digest']}, {report['reps']} repetitions")
    for note in report["notes"] + report["problems"]:
        print(f"   {note}")
    for name, m in report["metrics"].items():
        print(f"   {name:28s} {m['value']:>18.6g} {m['unit']:8s} [{m['label']}]")


def result_line(reports, prefix):
    metrics = {}
    for r in reports:
        for name, m in r["metrics"].items():
            key = f"{r['workload']}.{name}" if prefix else name
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    return {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }


def parse_seeds(items):
    seeds = []
    for item in items:
        lo, _, hi = item.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def record(binary, seeds):
    """Re-records the digests of `seeds` (plus the held-out seeds) for every
    workload. Only for a change that is meant to alter simulated behaviour."""
    data = load_json(DIGESTS, default={"digests": {}, "held_out": {}})
    for workload in WORKLOADS:
        held = data["held_out"].get(workload)
        todo = list(seeds) + ([held] if held is not None else [])
        for seed in todo:
            report = run_workload(binary, workload, seed, 1, False, check_digests=False)
            if report["problems"]:
                raise BenchError("; ".join(report["problems"] + report["notes"]))
            data["digests"].setdefault(workload, {})[str(seed)] = report["digest"]
            log(f"recorded {workload} seed {seed}: {report['digest']}")
    save_json(DIGESTS, data)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measurement window per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", nargs="+", metavar="SEEDS",
                        help="re-record digests for seeds (N or LO-HI) and exit")
    args = parser.parse_args(argv)

    try:
        binary = build()
        if args.record:
            record(binary, parse_seeds(args.record))
            return 0
        seconds = args.seconds or load_json(ROOT / "BENCHMARK.json")["run_seconds"]
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        reports = []
        for workload in workloads:
            report = run_workload(binary, workload, args.seed, seconds, args.trace == 1)
            print_report(report)
            reports.append(report)
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 2
    print(json.dumps(result_line(reports, prefix=len(reports) > 1)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
