"""Digest the output of every op of a benchmark workload, to check that two
checkouts print the same bytes.

    python3 tools/report_digests.py --workload W --seed N --work DIR [--tiny]

Run from the root of a source checkout: the program is imported from
./src, and the corpus and op list come from perfbench's builders, which
this script only reads.  It writes the corpus of workload W at seed N
under DIR, runs one pass of the ops and then every known-defect probe
through `orbitref.cli.main`, and prints one line per op:

    op|probe <argv> exit=<code> out=<sha256> err=<sha256> cache=<sha256|->

with the paths in argv relative to DIR, and the digests of standard output,
standard error and the op's `--cache` file after it ran.  DIR must be
empty or absent, and is left empty.  An ffscan report embeds its cache
path, so two checkouts compare with `diff` only when both ran with the
same DIR:

    python3 tools/report_digests.py --workload exact --seed 1 --work /tmp/d > a.txt
    (cd ../other && python3 tools/report_digests.py ... --work /tmp/d > b.txt)
    diff a.txt b.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import shlex
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import orbitref.cli  # noqa: E402
import workloads  # noqa: E402


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_line(tag: str, argv: list[str], work: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = orbitref.cli.main(list(argv))
        except SystemExit as exc:      # argparse rejected the argv
            code = exc.code
    cache = "-"
    if "--cache" in argv:
        path = argv[argv.index("--cache") + 1]
        if os.path.exists(path):
            with open(path, "rb") as fh:
                cache = _sha(fh.read())
    shown = shlex.join(os.path.relpath(a, work) if a.startswith(work + os.sep) else a
                       for a in argv)
    return (f"{tag} {shown} exit={code} out={_sha(out.getvalue().encode())} "
            f"err={_sha(err.getvalue().encode())} cache={cache}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True, help="scratch directory, empty or absent")
    ap.add_argument("--tiny", action="store_true", help="the smoke run's small corpus")
    args = ap.parse_args(argv)

    src = os.path.realpath(os.path.join(ROOT, "src", "orbitref"))
    if os.path.dirname(os.path.realpath(orbitref.cli.__file__)) != src:
        print(f"orbitref imported from {orbitref.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    work = os.path.abspath(args.work)
    if os.path.isdir(work) and os.listdir(work):
        print(f"{work} is not empty", file=sys.stderr)
        return 2
    corpus_dir, pass_dir = os.path.join(work, "corpus"), os.path.join(work, "pass")
    try:
        wl = workloads.build(args.workload, args.seed, corpus_dir, tiny=args.tiny)
        os.makedirs(pass_dir)
        for tag, ops in (("op", wl.ops(pass_dir)), ("probe", wl.probe_ops)):
            for op in ops:
                print(digest_line(tag, op.argv, work), flush=True)
    finally:
        for path in (corpus_dir, pass_dir):
            shutil.rmtree(path, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
