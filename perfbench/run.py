"""Benchmark entry point.

    python3 perfbench/run.py --workload {exact,finite}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the program is imported from
./src).  Each run starts fresh workload processes (perfbench/worker.py):
two that only set up, one that sets up and runs the workload's fixed op
list in passes for about S seconds, then two more that only set up; the
set-up time is the median over all five.  The other times are reported
at the speed of the host-speed reference (reference.py).  The last line of
standard output is one JSON object: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1.  Lines before it restate every metric
with its unit and sample count and record the machine and the corpus.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from reference import BASE_S
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 2          # set-up-only processes before and again after the workload
DEADLINE_S = 170.0        # a run must end well within 180 s

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("steps_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    if name.endswith("ratio"):
        return "1"
    return "count"


class RunError(Exception):
    pass


def _spawn(args: list[str], env: dict, deadline: float, procs: list):
    """Start a worker; return (process, seconds until its READY line, hash)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args], stdout=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    procs.append(proc)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if not line.startswith("READY "):
        raise RunError("workload process failed during set-up")
    if time.perf_counter() > deadline:
        raise RunError("set-up overran the deadline")
    return proc, ready, line.split()[1]


def measure(workload: str, seed: int, seconds: float, trace: int,
            worker_flags=()) -> dict:
    """Run one workload; return the raw worker result plus set-up samples."""
    deadline = time.perf_counter() + DEADLINE_S
    env = dict(os.environ)
    env.pop("ORBITREF_CACHE", None)      # a user's cache must not serve the sweep
    base = os.path.join(HERE, "_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=base)
    procs: list = []
    try:
        common = ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace), *worker_flags]
        setups = []
        hashes = set()

        def setup_probes(tag):
            for k in range(SETUP_PROBES):
                proc, ready, digest = _spawn(
                    common + ["--work", os.path.join(work, f"setup-{tag}{k}"),
                              "--setup-only"], env, deadline, procs)
                proc.communicate()
                setups.append(ready)
                hashes.add(digest)

        setup_probes("a")
        proc, ready, digest = _spawn(common + ["--work", os.path.join(work, "main")],
                                     env, deadline, procs)
        setups.append(ready)
        hashes.add(digest)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            raise RunError("workload overran the deadline")
        if proc.returncode != 0:
            raise RunError(f"workload process exited with {proc.returncode}")
        setup_probes("b")
        lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
        if not lines:
            raise RunError("workload process printed no result")
        if len(hashes) != 1:
            raise RunError("the same seed gave different corpora")
        result = json.loads(lines[-1][len("RESULT "):])
        result["setups"] = setups
        result["corpus_sha256"] = digest
        return result
    finally:
        for proc in procs:             # every worker has ended before we return
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass


def _percentile(values: list[float], q: int) -> float:
    """q-th percentile (statistics.quantiles, n=100, exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _at_reference(samples) -> list[float]:
    """[(measured seconds, reference scale)] -> seconds at the reference speed."""
    return [t * k for t, k in samples]


def report(workload: str, seed: int, seconds: float, trace: int, r: dict):
    """(lines to print, metrics of the final JSON line)."""
    lat, resume = r["latencies"], r["requery"]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "python": platform.python_version(), **r["env"],
        "commit": _commit(), "corpus_sha256": r["corpus_sha256"],
        "ops_per_pass": r["ops_per_pass"], "passes": r["passes"],
        "loop": "closed, one client, in process",
        "reference_base_ms": BASE_S * 1e3,
        "reference_ms": BASE_S * 1e3 / statistics.median(k for _, k in r["walls"]),
    }
    lines = ["record " + json.dumps(record, sort_keys=True)]
    # set-up is mostly starting the interpreter and reading files, which the
    # reference does not follow (NOTES.md), so it is reported as measured
    e2e = {"setup_s": (statistics.median(r["setups"]), len(r["setups"]), "set-ups")}
    measured = {}
    # name -> (samples as (measured, scale), factor to the unit, what a sample is)
    timed = {"wall_s": (r["walls"], 1, "passes"), "op_p50_ms": (lat, 1e3, "ops")}
    for name, (samples, unit, what) in timed.items():
        e2e[name] = (statistics.median(_at_reference(samples)) * unit, len(samples), what)
        measured[name] = statistics.median(t for t, _ in samples) * unit
    e2e["peak_rss_mb"] = (r["peak_rss_mb"], 1, "process tree")
    extra = {"fail_ratio": (r["failed"] / r["attempted"], r["attempted"], "ops", "1")}
    if len(lat) >= 100:
        extra["op_p90_ms"] = (_percentile(_at_reference(lat), 90) * 1e3, len(lat), "ops", "ms")
    if resume:
        extra["resume_p50_ms"] = (statistics.median(_at_reference(resume)) * 1e3,
                                  len(resume), "re-queries", "ms")
    for name, (value, n, what) in e2e.items():
        note = f"; measured {measured[name]:.6g}" if name in measured else ""
        lines.append(f"metric {name} {value:.6g} {END_TO_END[name]} (n={n} {what}{note})")
    for name, (value, n, what, unit) in extra.items():
        lines.append(f"metric {name} {value:.6g} {unit} (n={n} {what})")
    probe = r["probe"]
    if probe["ops"]:
        lines.append("known_defect " + json.dumps(probe, sort_keys=True))
    for failure in r["failures"]:
        lines.append("failure " + failure)
    if trace:
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in r["trace"].items()}
        for name, m in metrics.items():
            lines.append(f"layer {name} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {name: {"value": v[0], "unit": END_TO_END[name]}
                   for name, v in e2e.items()}
    return lines, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "orbitref", "cli.py")):
        print("perfbench: no src/orbitref beside perfbench/; run from a source "
              "checkout", file=sys.stderr)
        return 2
    try:
        r = measure(args.workload, args.seed, args.seconds, args.trace)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    lines, metrics = report(args.workload, args.seed, args.seconds, args.trace, r)
    print("\n".join(lines))
    print(json.dumps({"correct": r["failed"] == 0, "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
