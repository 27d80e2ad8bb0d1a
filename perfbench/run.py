#!/usr/bin/env python3
"""Builds and runs the Tango benchmark (see perfbench/README.md).

Run from the root of the repository:

    python3 perfbench/run.py --workload lapd_valid_long --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

The first call configures and builds perfbench/CMakeLists.txt (the library
layers from src/ plus the benchmark binary) as a Release build under
.bench_build/perfbench; later calls only re-check it. The binary does the
measuring; this script stamps each result with the host and the build,
checks the exact counters against earlier runs of the same binary and
seed, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
BINARY = BUILD_DIR / "perfbench"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configures once, then builds incrementally. Build output goes to
    stderr so that stdout stays the result."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no Tango sources under {ROOT / 'src'}; nothing to build")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, nproc())))
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def file_digest(paths):
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_sha():
    """HEAD of the checkout, or None when it is not a git work tree (git
    must not find a repository above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def host_stamp(build_info):
    sources = [p for p in (ROOT / "src").rglob("*") if p.is_file()]
    return {
        "cpus": os.cpu_count(),
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "build_type": build_info.get("type"),
        "compiler": build_info.get("compiler"),
        "assertions": build_info.get("assertions"),
        "git_sha": git_sha(),
        "source_sha256": file_digest(sources),
    }


def run_binary(workload, seed, seconds, trace, smoke):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--traces-dir", str(ROOT / "traces"), "--out-dir", str(OUT_DIR)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload}: benchmark binary exited with {proc.returncode}")
    return json.loads(lines[-1])


def check_counters(record, key):
    """Exact counters must repeat across runs of one binary on one seed."""
    path = OUT_DIR / "counters.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    if key in known:
        if known[key] != record["counters"]:
            print(f"perfbench: counters drifted for {key}: "
                  f"{known[key]} then {record['counters']}", file=sys.stderr)
            return False
        return True
    known[key] = record["counters"]
    path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return True


def check_metrics(record, wanted):
    """Every declared metric is present, with its declared unit."""
    ok = True
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            print(f"perfbench: metric {m['name']} missing or not in "
                  f"{m['unit']}: {got}", file=sys.stderr)
            ok = False
    return ok


def measure(workload, seed, seconds, trace, smoke):
    """One run: build, measure, stamp, check. Returns the full record."""
    spec = declared()
    names = [w["name"] for w in spec["workloads"]]
    if workload not in names:
        fail(f"unknown workload {workload}; one of {', '.join(names)}")
    build()
    OUT_DIR.mkdir(exist_ok=True)
    record = run_binary(workload, seed, seconds, trace, smoke)
    record["host"] = host_stamp(record.get("build", {}))
    record["workload"] = workload
    record["seed"] = seed
    record["trace"] = int(trace)
    wanted = spec["per_layer" if trace else "end_to_end"]
    key = "|".join([workload, f"seed={seed}", f"trace={int(trace)}",
                    f"smoke={int(smoke)}", file_digest([BINARY])])
    counters_ok = check_counters(record, key)
    record["correct"] = bool(record["correct"] and counters_ok and
                             check_metrics(record, wanted))
    # Keep exactly the declared metrics, in declared order.
    record["metrics"] = {m["name"]: record["metrics"][m["name"]]
                         for m in wanted if m["name"] in record["metrics"]}
    suffix = "traced" if trace else "timed"
    (OUT_DIR / f"result-{workload}-{suffix}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return record


def rationale_matches():
    """rationale.json explains exactly the declared workloads and metrics."""
    spec = declared()
    why = json.loads((HERE / "rationale.json").read_text())
    ok = True
    for section in ("workloads", "end_to_end", "per_layer"):
        want = {m["name"] for m in spec[section]}
        if set(why[section]) != want:
            print(f"perfbench: rationale.json {section} differ from "
                  f"BENCHMARK.json: {sorted(set(why[section]) ^ want)}",
                  file=sys.stderr)
            ok = False
    return ok


def smoke():
    """Tiny inputs, every workload once, timed and traced."""
    ok = rationale_matches()
    for w in declared()["workloads"]:
        for trace in (False, True):
            r = measure(w["name"], 1, 1, trace, smoke=True)
            good = r["correct"] and r["failed"] == 0 and r["attempted"] > 0
            print(f"smoke {w['name']:<22} trace={int(trace)} "
                  f"attempted={r['attempted']:<6} "
                  f"{'ok' if good else 'FAILED'}")
            ok = ok and good
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        fail("--workload is required (or --smoke)")
    seconds = args.seconds
    if seconds is None:
        seconds = declared()["run_seconds"]
    r = measure(args.workload, args.seed, seconds, bool(args.trace), False)
    print("perfbench host: " + json.dumps(r["host"], sort_keys=True))
    print("perfbench counters: " + json.dumps(r["counters"], sort_keys=True))
    print(json.dumps({k: r[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
