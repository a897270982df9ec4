#!/usr/bin/env python3
"""Simulator benchmark: builds the library from source and runs one workload.

    python3 perfbench/run.py --workload torus-10k --seed 7 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
library (the repository's own CMake build, default build type) and the
benchmark program (perfbench/CMakeLists.txt) under .bench_build/ (or
$CARGO_TARGET_DIR); later runs rebuild incrementally. Workloads, metrics and
the per-layer -> end-to-end map are described in BENCHMARK.json and
perfbench/README.md.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ledger. A correctness failure prints the result with
"correct": false, names the workload on stderr and exits 1.

    python3 perfbench/run.py --record-golden     # re-record golden.json

re-records the reference digests the correctness gate compares against
(only when a change is meant to alter seeded simulator output).
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("torus-10k", "sweep-robustness")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base)


def cmake_build(source, binary, configure_args, targets, log):
    if not os.path.exists(os.path.join(binary, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", source, "-B", binary] + generator + configure_args
        if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", binary, "-j", jobs, "--target"] + targets
    return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode == 0


def cache_value(binary, key):
    with open(os.path.join(binary, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def build():
    """Builds libabe + abe_scenarios, then the benchmark program; returns
    (perfbench path, abe_scenarios path)."""
    for required in ("CMakeLists.txt", "src/CMakeLists.txt",
                     "examples/abe_scenarios.cpp"):
        if not os.path.exists(os.path.join(ROOT, required)):
            fail(f"{required} not found: run from a full checkout of the repository")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    # Compiler temporaries and any ccache stay inside the checkout.
    os.environ.setdefault("CCACHE_DIR", os.path.join(out, "ccache"))
    os.environ["TMPDIR"] = os.path.join(out, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    program = os.path.join(out, "abe")
    bench = os.path.join(out, "perfbench")
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        ok = cmake_build(ROOT, program,
                         ["-DABE_BUILD_TESTS=OFF", "-DABE_BUILD_BENCHES=OFF",
                          "-DABE_BUILD_EXAMPLES=ON", "-DABE_WERROR=OFF"],
                         ["abe", "abe_scenarios"], log)
        ok = ok and cmake_build(
            HERE, bench,
            [f"-DABE_ROOT={ROOT}",
             f"-DABE_LIBRARY={os.path.join(program, 'src', 'libabe.a')}",
             f"-DCMAKE_BUILD_TYPE={cache_value(program, 'CMAKE_BUILD_TYPE')}"],
            ["perfbench"], log)
    if not ok:
        with open(log_path) as f:
            sys.stderr.write(f.read()[-4000:])
        fail(f"build failed (log: {log_path})", 1)
    return (os.path.join(bench, "perfbench"),
            os.path.join(program, "examples", "abe_scenarios"))


def provenance():
    sha = "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()[:16],
            "nproc": len(os.sched_getaffinity(0))}


def run_program(cmd):
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(cmd[0])} timed out after {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{os.path.basename(cmd[0])} printed no result "
             f"(exit {proc.returncode})", proc.returncode or 1)
    try:
        return proc.returncode, json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"unparseable result line: {lines[-1][:200]}", 1)


def sweep_cross_check(abe_scenarios, first_pass, seed, trials, width, out):
    """The benchmark's first sweep pass against `abe_scenarios sweep
    robustness` for the same trials and seed: counts and the message/time
    summaries of every cell must be identical."""
    reference = os.path.join(out, "abe-scenarios-sweep.json")
    proc = subprocess.run(
        [abe_scenarios, "sweep", "robustness", "--trials", str(trials),
         "--seed", str(seed), "--threads", str(width), "--json", reference],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        return [f"abe_scenarios sweep robustness failed: {proc.stderr[-400:]}"]
    keys = ("cell", "trials", "failures", "stalled", "safety_violations",
            "messages", "time")
    with open(first_pass) as f:
        ours = [{k: c[k] for k in keys} for c in json.load(f)["cells"]]
    with open(reference) as f:
        theirs = [{k: c[k] for k in keys} for c in json.load(f)["cells"]]
    if ours != theirs:
        return ["first sweep pass differs from `abe_scenarios sweep robustness "
                f"--trials {trials} --seed {seed}`"]
    return []


def record_golden(perfbench, args):
    golden = {}
    for workload in WORKLOADS:
        cmd = [perfbench, "--workload", workload, "--record",
               "--sweep-trials", str(args.sweep_trials)]
        if args.n:
            cmd += ["--n", str(args.n)]
        code, result = run_program(cmd)
        if code != 0:
            fail(f"recording {workload} failed", 1)
        golden[workload] = {k: result[k] for k in ("n", "reference_digest")}
    with open(args.golden, "w") as f:
        json.dump(golden, f, indent=2, sort_keys=True)
        f.write("\n")
    print(json.dumps(golden))


def main():
    parser = argparse.ArgumentParser(description="simulator benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", default=os.path.join(HERE, "golden.json"))
    parser.add_argument("--record-golden", action="store_true")
    # Smaller shapes for the self-check (perfbench/selfcheck.py).
    parser.add_argument("--n", type=int, default=0)
    parser.add_argument("--sweep-trials", type=int, default=64)
    args = parser.parse_args()
    if not args.record_golden and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    perfbench, abe_scenarios = build()
    if args.record_golden:
        record_golden(perfbench, args)
        return 0

    with open(args.golden) as f:
        golden = json.load(f).get(args.workload, {})
    out = os.path.join(build_dir(), "out", args.workload)
    os.makedirs(out, exist_ok=True)
    cmd = [perfbench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--sweep-trials", str(args.sweep_trials), "--out-dir", out,
           "--expect-digest", golden.get("reference_digest", "missing")]
    if args.n:
        cmd += ["--n", str(args.n)]
    code, result = run_program(cmd)
    errors = list(result.get("errors", []))
    info = result.get("info", {})
    if code == 0 and args.workload == "sweep-robustness" and not args.trace:
        errors += [f"{args.workload}: {e}" for e in sweep_cross_check(
            abe_scenarios, os.path.join(out, "sweep-first-pass.json"),
            info["first_pass_seed"], args.sweep_trials, info["pool_width"], out)]
    correct = code == 0 and result.get("correct", False) and not errors

    info.update(provenance())
    print("provenance: " + json.dumps(info, sort_keys=True))
    if "tail_percentile" in info:
        print(f"trial_ms_tail is p{info['tail_percentile']:.4g} of "
              f"{info['tail_samples']} samples")
    for e in errors:
        print(f"perfbench: FAILED {e}", file=sys.stderr)
    print(json.dumps({"correct": correct,
                      "attempted": result.get("attempted", 0),
                      "failed": result.get("failed", 0),
                      "metrics": result.get("metrics", {})}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
