#!/usr/bin/env python3
"""Self-test of the repo benchmark.

    python3 repobench/selftest.py

Run from the checkout root. It checks that
  1. every workload runs briefly, untraced and traced, with no failed
     operation, every output matching its model, and every metric of
     BENCHMARK.json printed with its unit;
  2. each correctness check fires when its input is corrupted: the run
     counts a failure, prints correct=false and exits non-zero;
  3. two same-seed runs of a fixed number of rounds give identical work
     counts;
  4. another seed passes every check.
Exits 0 when all hold, 1 otherwise.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("fs_churn", "kv_commit", "ld_restart")

# (workload, corruption, tag of the check that must report it)
CORRUPTIONS = [
    ("fs_churn", "flip_read", "[read]"),
    ("fs_churn", "drop_commit", "[restart]"),
    ("fs_churn", "smash_meta", "[fsck]"),
    ("kv_commit", "flip_read", "[read]"),
    ("kv_commit", "drop_commit", "[restart]"),
    ("kv_commit", "smash_meta", "[validate]"),
    ("ld_restart", "flip_read", "[read]"),
    ("ld_restart", "drop_commit", "[restart]"),
    ("ld_restart", "keep_orphans", "[orphans]"),
]

# Per-layer metrics that are work counts, not times: equal seeds and
# equal rounds must reproduce them exactly on a single-client workload.
WORK_UNITS = ("count", "B", "ratio")

failures = []


def run(workload, seed, seconds=1, trace=0, rounds=0, corrupt=""):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if rounds:
        cmd += ["--rounds", str(rounds)]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=300)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return result, p.returncode, p.stderr


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }

    # 1. Brief runs print every metric and pass every check.
    for w in WORKLOADS:
        for trace in (0, 1):
            r, code, err = run(w, 1, seconds=2, trace=trace)
            good = (code == 0 and r is not None and r["correct"]
                    and r["failed"] == 0 and r["attempted"] > 0)
            check(good, f"{w} trace={trace} runs clean"
                  + ("" if good else ": " + err.strip()[-300:]))
            if r is None:
                continue
            units = {k: v["unit"] for k, v in r["metrics"].items()}
            check(units == expected[trace],
                  f"{w} trace={trace} prints exactly the metrics of "
                  "BENCHMARK.json with their units")

    # 2. Each check fires on a corrupted output.
    for w, kind, tag in CORRUPTIONS:
        r, code, err = run(w, 1, seconds=1, corrupt=kind)
        check(code != 0 and r is not None and not r["correct"]
              and r["failed"] > 0 and tag in err,
              f"{w} --corrupt {kind} is caught by the {tag} check and "
              "fails the run")

    # 3. Same seed, same rounds: identical work counts.
    for w in WORKLOADS:
        a, code_a, _ = run(w, 5, trace=1, rounds=4)
        b, code_b, _ = run(w, 5, trace=1, rounds=4)
        if code_a != 0 or code_b != 0 or a is None or b is None:
            check(False, f"{w} fixed-round runs complete")
            continue
        diff = [k for k, v in a["metrics"].items()
                if v["unit"] in WORK_UNITS
                and v["value"] != b["metrics"][k]["value"]]
        if a["attempted"] != b["attempted"]:
            diff.append("attempted")
        check(not diff, f"{w} same-seed work counts are identical"
              + ("" if not diff else ": differ in " + ", ".join(diff)))

    # 4. Another seed passes every check.
    for w in WORKLOADS:
        r, code, _ = run(w, 7, seconds=2)
        check(code == 0 and r is not None and r["correct"]
              and r["failed"] == 0,
              f"{w} seed 7 passes every check")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
