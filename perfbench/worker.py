"""One workload process: import orbitref, write the corpus, run the op
list as a closed loop (one client, each op waits for the previous one).

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --work DIR [--setup-only] [--tiny] [--wrong-expected]

Prints `READY <corpus sha256>` once the first op could start, then, unless
--setup-only, one line `RESULT <json>` with the raw measurements.  The
host-speed reference (reference.py) runs after each op, outside the op's
time, so every op carries the host's speed while it ran.  A
--trace 1 run also writes its spans to perfbench/_out/.  Passes
of the fixed op list repeat until --seconds have elapsed (at least one).
With --trace 1 passes alternate untraced / traced, so the same run gives
the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import orbitref.cli  # noqa: E402

import workloads  # noqa: E402
from reference import Reference, scale  # noqa: E402
from spans import Tracer  # noqa: E402

REF_WINDOW = 10               # an op's scale: the reference runs of ops i-10..i+10


def run_op(op) -> tuple[float, str | None]:
    """(seconds from argv to finished report text, failure or None)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = orbitref.cli.main(list(op.argv))
        text = out.getvalue()
    except SystemExit as exc:          # argparse rejected the argv
        return time.perf_counter() - t0, f"exit via SystemExit({exc.code})"
    elapsed = time.perf_counter() - t0
    if code != 0:
        tail = err.getvalue().strip().splitlines()[-1:] or [""]
        return elapsed, f"exit code {code}: {tail[0]}"
    try:
        return elapsed, op.check(text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return elapsed, f"unreadable report: {exc!r}"


def environment() -> dict:
    """numpy, its BLAS and the process's thread count once numpy is loaded
    (OpenBLAS starts its pool at import, so this is the BLAS thread count)."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    threads = None
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    threads = int(line.split()[1])
    except OSError:
        pass
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS") if k in os.environ}
    return {"numpy": numpy.__version__, "blas": blas,
            "process_threads_after_import": threads, "thread_env": env}


def corrupt(op):
    """Make one expected value wrong (smoke check of the failure count)."""
    truth = op.truth
    if "reference" in truth:
        truth["reference"] = dict(truth["reference"], split=truth["reference"]["split"] + 1)
    else:
        key = next(iter(truth["blocks"]))
        truth["blocks"][key] = [truth["blocks"][key][0] + 1] + truth["blocks"][key][1:]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--wrong-expected", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.realpath(os.path.join(ROOT, "src", "orbitref"))
    if os.path.dirname(os.path.realpath(orbitref.cli.__file__)) != src:
        print(f"orbitref imported from {orbitref.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2

    wl = workloads.build(args.workload, args.seed, os.path.join(args.work, "corpus"),
                         tiny=args.tiny)
    print(f"READY {wl.corpus.sha256}", flush=True)
    if args.setup_only:
        return 0
    # started after READY, so its start-up is not in setup_s
    ref = Reference()
    try:
        result = run_passes(args, wl, ref)
    finally:
        ref.close()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def run_passes(args, wl, ref: Reference) -> dict:
    """Timed passes, the known-defect probe and the raw result.  Peak memory
    is read while the reference helper still runs, so it is not counted
    among the children."""
    # untraced ops only, each as (seconds, its reference scale)
    latencies: list[tuple[float, float]] = []
    requery: list[tuple[float, float]] = []
    walls = {False: [], True: []}            # traced? -> [(pass wall, scale)]
    attempted = failed = 0
    failures: list[str] = []
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    clocks: list[float] = []                 # pass times on the clock
    n = 0
    while True:
        traced = bool(args.trace) and n % 2 == 1
        pass_dir = os.path.join(args.work, f"pass-{n}")
        os.makedirs(pass_dir)
        ops = wl.ops(pass_dir)
        if args.wrong_expected:
            corrupt(ops[0])
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        results, refs = [], []
        try:
            for op in ops:
                results.append(run_op(op))
                refs.append(ref.time())
        finally:
            if traced:
                tracer.uninstall()
        clock = time.perf_counter() - t0
        shutil.rmtree(pass_dir)
        # each op is brought to the reference speed by the reference runs
        # of its neighbours in the pass, which follow the host's speed
        # closer than the pass's median does
        scales = [scale(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
                  for i in range(len(refs))]
        # a pass's wall time is the sum of its op latencies: the checks and
        # the reference runs between ops are not the program's time
        wall = sum(elapsed for elapsed, _ in results)
        at_ref = sum(elapsed * k for (elapsed, _), k in zip(results, scales))
        walls[traced].append((wall, at_ref / wall))
        clocks.append(clock)
        for op, (elapsed, failure) in zip(ops, results):
            attempted += 1
            if failure is not None:
                failed += 1
                failures.append(f"{' '.join(op.argv)}: {failure}")
        if not traced:
            latencies += [(elapsed, k) for (elapsed, _), k in zip(results, scales)]
            requery += [(elapsed, k) for op, (elapsed, _), k in zip(ops, results, scales)
                        if op.requery]
        n += 1
        # start another pass only when it is expected to end within --seconds;
        # a --trace 1 run needs one untraced and one traced pass
        if args.trace and not walls[True]:
            continue
        if time.perf_counter() - start + statistics.median(clocks) > args.seconds:
            break

    trace = None
    if tracer is not None:
        trace = trace_metrics(tracer, len(walls[True]),
                              statistics.median(w * k for w, k in walls[True]),
                              statistics.median(w * k for w, k in walls[False]))
        out = os.path.join(HERE, "_out")
        os.makedirs(out, exist_ok=True)
        tracer.dump(os.path.join(out, f"{args.workload}-seed{args.seed}.spans.jsonl"))
    # the known-defect probe runs once, after the timed passes; under --trace
    # its profile failures join spectra.profile_failures
    probe_tracer = Tracer()
    if args.trace:
        probe_tracer.install()
    try:
        probe = [run_op(op)[1] for op in wl.probe_ops]
    finally:
        probe_tracer.uninstall()
    if trace is not None:
        trace["spectra.profile_failures"] += probe_tracer.counts["spectra.profile_failures"]

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "env": environment(),
        "ops_per_pass": len(ops),
        "passes": len(walls[False]),
        "walls": walls[False],
        "latencies": latencies,
        "requery": requery,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "peak_rss_mb": max(self_kb, child_kb) / 1024.0,
        "probe": {"ops": len(probe), "failed": sum(p is not None for p in probe),
                  "failures": sorted({p for p in probe if p})},
    }
    if trace is not None:
        result["traced_walls"] = walls[True]
        result["trace"] = trace
    return result


def trace_metrics(tracer: Tracer, passes: int, traced_wall: float,
                  untraced_wall: float) -> dict:
    """Per-layer metrics, per traced pass."""
    summary = tracer.summary()
    names, layers = summary["names"], summary["layers"]
    counts = tracer.counts

    def calls(name):
        return names.get(name, [0, 0.0, 0.0])[0] / passes

    def incl(name):
        return names.get(name, [0, 0.0, 0.0])[1] / passes

    def self_s(name):
        return names.get(name, [0, 0.0, 0.0])[2] / passes

    def count(key):
        return counts.get(key, 0) / passes

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "cli.self_s": self_s("cli.main"),
        "fileio.load_matrix_file.s": incl("fileio.load_matrix_file"),
        "fileio.render_report.s": incl("fileio.render_report"),
        "fileio.report_bytes": count("fileio.report_bytes"),
        "linalg.char_poly.s": incl("linalg.char_poly"),
        "linalg.char_poly.calls": calls("linalg.char_poly"),
        "linalg.matmul.s": incl("linalg.matmul"),
        "linalg.matmul.calls": calls("linalg.matmul"),
        "linalg.rank.s": incl("linalg.rank"),
        "linalg.rank.calls": calls("linalg.rank"),
        "linalg.commutator_is_zero.s": incl("linalg.commutator_is_zero"),
        "spectra.eigenvalues.self_s": self_s("spectra.eigenvalues"),
        "spectra.block_profile.self_s": self_s("spectra.block_profile"),
        "spectra.block_profile.calls": calls("spectra.block_profile"),
        "spectra.profile_failures": count("spectra.profile_failures"),
        "deciders.s": layers["deciders"][0] / passes,
        "deciders.oracle_routed": count("deciders.oracle_routed"),
        "deciders.answers_true": count("deciders.answers_true"),
        "deciders.answers_false": count("deciders.answers_false"),
        "deciders.answers_unknown": count("deciders.answers_unknown"),
        "witness.validate_witness.self_s": self_s("witness.validate_witness"),
        "witness.validate_witness.calls": calls("witness.validate_witness"),
        "witness.residual_steps": count("witness.residual_steps"),
        "witness.steps_per_s": ratio(counts.get("witness.residual_steps", 0),
                                     names.get("witness.validate_witness", [0, 0, 0])[2]),
        "oracle.enumerate_orbref0.s": incl("oracle.enumerate_orbref0"),
        "oracle.enumerate_orbref0.calls": calls("oracle.enumerate_orbref0"),
        "oracle.candidates": count("oracle.candidates"),
        "oracle.members": count("oracle.members"),
        "oracle.member_ratio": ratio(counts.get("oracle.members", 0),
                                     counts.get("oracle.candidates", 0)),
        "oracle.orbref0_contains.s": incl("oracle.orbref0_contains"),
        "oracle.orbref0_contains.calls": calls("oracle.orbref0_contains"),
        "oracle.scan_space.sweep_s": count("oracle.scan_space.sweep_s"),
        "oracle.scan_space.requery_s": count("oracle.scan_space.requery_s"),
        "oracle.scan.matrices": count("oracle.scan.matrices"),
        "oracle.scan.from_cache": count("oracle.scan.from_cache"),
        "oracle.cache.bytes_written": count("oracle.cache.bytes_written"),
        "oracle.cache.bytes_read": count("oracle.cache.bytes_read"),
        "oracle.cache.hit_ratio": ratio(counts.get("oracle.scan.from_cache", 0),
                                        counts.get("oracle.scan.matrices", 0)),
        "trace.overhead_ratio": ratio(traced_wall, untraced_wall),
        "trace.ops_s": incl("cli.main"),
    }
    for layer, (_, self_time) in layers.items():
        if layer != "cli":                  # cli.self_s already is the layer's
            m[f"{layer}.layer_self_s"] = self_time / passes
    return m


if __name__ == "__main__":
    sys.exit(main())
