#!/usr/bin/env python3
"""Fast self-check of the simulator benchmark (tiny n, few trials).

    python3 perfbench/selfcheck.py

Run from the repository root; takes about a minute after the build. It
checks that:
  * every workload prints, in both modes, exactly the result keys and every
    metric BENCHMARK.json names, each with its unit;
  * a corrupted reference digest trips the correctness gate: the run exits
    non-zero and names the workload;
  * run.py refuses, without printing a result, in a directory holding only
    BENCHMARK.json and the benchmark's own files.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402
TINY = ["--n", "16", "--sweep-trials", "8"]


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def check(condition, message):
    if not condition:
        print(f"selfcheck FAIL: {message}")
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    workloads = list(WORKLOADS)
    check(workloads == [w["name"] for w in spec["workloads"]],
          f"run.py defines {workloads}, BENCHMARK.json lists "
          f"{[w['name'] for w in spec['workloads']]}")

    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        golden = os.path.join(tmp, "golden.json")
        p = run([RUN, "--record-golden", "--golden", golden] + TINY)
        check(p.returncode == 0, f"recording tiny golden failed:\n{p.stderr[-2000:]}")

        for workload in workloads:
            for trace in (0, 1):
                p = run([RUN, "--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", str(trace),
                         "--golden", golden] + TINY)
                check(p.returncode == 0,
                      f"{workload} --trace {trace} exited {p.returncode}:\n"
                      f"{p.stderr[-2000:]}")
                result = json.loads(p.stdout.strip().splitlines()[-1])
                check(sorted(result) == ["attempted", "correct", "failed",
                                         "metrics"],
                      f"{workload}: result keys {sorted(result)}")
                check(result["correct"] is True and result["failed"] == 0
                      and result["attempted"] >= 1,
                      f"{workload} --trace {trace}: {result}")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                check(got == expected[trace],
                      f"{workload} --trace {trace}: metrics/units differ: "
                      f"missing {set(expected[trace]) - set(got)}, extra "
                      f"{set(got) - set(expected[trace])}, units "
                      f"{ {k: (got[k], u) for k, u in expected[trace].items() if got.get(k, u) != u} }")
                check(all(isinstance(v["value"], (int, float))
                          for v in result["metrics"].values()),
                      f"{workload}: non-numeric metric value")
            print(f"selfcheck: {workload} prints every metric with its unit")

        with open(golden) as f:
            records = json.load(f)
        for workload in workloads:
            corrupt = json.loads(json.dumps(records))
            digest = corrupt[workload]["reference_digest"]
            corrupt[workload]["reference_digest"] = (
                ("0" if digest[0] != "0" else "1") + digest[1:])
            bad = os.path.join(tmp, f"corrupt-{workload}.json")
            with open(bad, "w") as f:
                json.dump(corrupt, f)
            p = run([RUN, "--workload", workload, "--seed", "3", "--seconds",
                     "1", "--trace", "0", "--golden", bad] + TINY)
            check(p.returncode != 0, f"{workload}: corrupted digest passed")
            check(workload in p.stderr,
                  f"{workload}: gate failure does not name the workload")
            print(f"selfcheck: a corrupted {workload} digest trips the gate")

        bare = os.path.join(tmp, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        p = run([spec["command"][1], "--workload", workloads[0], "--seed", "1",
                 "--seconds", "1", "--trace", "0"], cwd=bare)
        check(p.returncode != 0 and not p.stdout.strip(),
              f"bare directory: exit {p.returncode}, stdout {p.stdout[:200]!r}")
        print("selfcheck: a directory without the program is refused")
    print("selfcheck OK")


if __name__ == "__main__":
    main()
