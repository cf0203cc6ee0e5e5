"""Smoke check of the harness on tiny corpora (a few minutes).

    python3 perfbench/smoke.py

For every workload, with --trace 0 and 1, it checks that every metric of
BENCHMARK.json prints with its unit, that the record line carries the run
details, and that a deliberately wrong expected value is counted as a
failure.  It also checks that the same seed gives the same corpus, and
that run.py fails without a result where no program sits beside it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8"))
RECORD_KEYS = {"nproc", "cpu", "python", "numpy", "blas", "process_threads_after_import",
               "commit", "seed", "corpus_sha256", "ops_per_pass", "passes"}
# printed on metric lines beside the final JSON; see NOTES.md.  op_p90_ms
# is printed only where a run has at least 100 untraced ops.
EXTRA = {"fail_ratio": ("1", run.WORKLOADS), "resume_p50_ms": ("ms", ("finite",))}


def check(cond: bool, what: str):
    if not cond:
        raise SystemExit(f"smoke: FAILED: {what}")


SECONDS = 5.0


def tiny_run(workload: str, trace: int, wrong: bool = False):
    flags = ["--tiny"] + (["--wrong-expected"] if wrong else [])
    r = run.measure(workload, 1, SECONDS, trace, flags)
    lines, metrics = run.report(workload, 1, SECONDS, trace, r)
    return r, lines, metrics


def main() -> int:
    hashes = {}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            r, lines, metrics = tiny_run(workload, trace)
            check(r["failed"] == 0, f"{workload}: tiny run failed {r['failures']}")
            spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
            want = {m["name"]: m["unit"] for m in spec}
            got = {k: v["unit"] for k, v in metrics.items()}
            check(got == want, f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(want))}")
            record = json.loads(lines[0].split(" ", 1)[1])
            check(RECORD_KEYS <= set(record), f"{workload}: record lacks "
                  f"{sorted(RECORD_KEYS - set(record))}")
            printed = {ln.split()[1]: ln.split()[3] for ln in lines if ln.startswith("metric ")}
            for name, (unit, where) in EXTRA.items():
                if workload in where:
                    check(printed.get(name) == unit, f"{workload}: {name} not printed in {unit}")
            p90 = printed.get("op_p90_ms")
            check(p90 == ("ms" if len(r["latencies"]) >= 100 else None),
                  f"{workload}: op_p90_ms printed {p90} for {len(r['latencies'])} ops")
            for m in SPEC["end_to_end"]:
                check(printed.get(m["name"]) == m["unit"], f"{workload}: {m['name']} line")
            hashes.setdefault(workload, set()).add(r["corpus_sha256"])
        r, _, _ = tiny_run(workload, 0, wrong=True)
        check(r["failed"] >= 1, f"{workload}: a wrong expected value was not counted")
        print(f"smoke: {workload} ok ({r['failed']} deliberate failures counted)")
    check(all(len(h) == 1 for h in hashes.values()), "same seed, different corpus")

    bare = os.path.join(run.HERE, "_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py",
                               "--workload", run.WORKLOADS[0],
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        os.rmdir(os.path.dirname(bare))
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "run.py without a program beside it must fail without a result")
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
