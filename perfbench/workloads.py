"""The two workloads: their corpora, op lists and per-op output checks.

An op is one `orbitref.cli.main(argv)` call.  Every op carries a check
that reads the captured report and returns None or a failure message; a
nonzero exit code or an exception is a failure before the check runs.

Why each workload exists (see NOTES.md for the measured splits):
  exact  -- the characteristic-zero lanes: char poly, rank sequences and
            root sieves over Q and Q(i) plus a c64 share (the profile
            part, pooled gap <= 1, no witness), then one residual
            certificate at the CLI defaults (the witness part, pooled
            gap >= 2, so validate_witness runs).
  finite -- the finite-field lanes: per-matrix oracle with finite-field
            routing, enumerate_orbref0 with member decode and
            orbref0_contains (the gf-decide part), then a cold exhaustive
            sweep into an empty cache and re-queries the cache serves in
            full (the ffscan part).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import corpus as C

WORKLOADS = ("exact", "finite")

HORIZON = 2000                         # the CLI's default --powers
RESIDUAL_CEILING = 1e-2                # witness.RESIDUAL_CEILING, restated

# ffscan reference counts, measured on the parent commit of the benchmark
FFSCAN_SPACES = ((2, 7),)              # (d, q)
REQUERY_ROUNDS = 3                     # re-queries are short: take more samples
FFSCAN_REFERENCE = {
    (2, 7): {"split": 1519, "split_equal": 1231, "split_not_equal": 288,
             "nonsplit": 882, "nonsplit_equal": 126, "nonsplit_not_equal": 756,
             "nilpotent": 49, "nilpotent_equal": 49,
             "rigidity_checked": 0, "rigidity_violating": 0},
    # the spaces of the smoke check
    (2, 2): {"split": 14, "split_equal": 11, "split_not_equal": 3,
             "nonsplit": 2, "nonsplit_equal": 0, "nonsplit_not_equal": 2,
             "nilpotent": 4, "nilpotent_equal": 4,
             "rigidity_checked": 0, "rigidity_violating": 0},
    (2, 3): {"split": 63, "split_equal": 47, "split_not_equal": 16,
             "nonsplit": 18, "nonsplit_equal": 0, "nonsplit_not_equal": 18,
             "nilpotent": 9, "nilpotent_equal": 9,
             "rigidity_checked": 0, "rigidity_violating": 0},
}


@dataclass
class Op:
    argv: list[str]
    check: Callable[[str], Optional[str]]       # report text -> failure or None
    truth: dict                                 # the expected values check reads
    requery: bool = False                       # ffscan: served by the cache


# ---------------------------------------------------------------------------
# report helpers
# ---------------------------------------------------------------------------

def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def parse_report(text: str) -> dict:
    """JSON report whose self-excluding report_hash must recompute."""
    report = json.loads(text)
    body = dict(report)
    claimed = body.pop("report_hash", None)
    digest = hashlib.sha256(canonical_json(body).encode()).hexdigest()
    if claimed != digest:
        raise ValueError("report_hash does not recompute")
    return report


def _verdict(report: dict, prop: str) -> dict:
    for v in report.get("verdicts", []):
        if v["property"] == prop:
            return v
    raise ValueError(f"no {prop} verdict")


def _exact_entries(report: dict) -> dict:
    return {e["eigenvalue"]: e["block_sizes"] for e in report["profile"]["entries"]}


def _numeric_entries_match(report: dict, truth: dict) -> bool:
    """c64 profiles: match each expected eigenvalue to one reported entry
    within 1e-6 relative, with equal block sizes."""
    got = [(complex(e["eigenvalue"].replace("i", "j")), e["block_sizes"])
           for e in report["profile"]["entries"]]
    if len(got) != len(truth["values"]):
        return False
    for (re_part, im_part), sizes in truth["values"]:
        lam = complex(float(Fraction(re_part)), float(Fraction(im_part)))
        if not any(abs(z - lam) <= 1e-6 * max(1.0, abs(lam)) and s == sizes
                   for z, s in got):
            return False
    return True


def _gap_rule(blocks: dict) -> bool:
    """Reflexive iff, per eigenvalue, the two largest blocks differ by <= 1."""
    return all(s[0] - (s[1] if len(s) > 1 else 0) <= 1 for s in blocks.values())


# ---------------------------------------------------------------------------
# eigenvalue pools and block structures
# ---------------------------------------------------------------------------

def _modsq(x: tuple) -> Fraction:
    return sum(Fraction(c) * Fraction(c) for c in x)


Q_POOL = [C.q_scalar(v) for v in
          (1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2),
           Fraction(-3, 2), 0)]
QI_POOL = [C.qi_scalar(a, b) for a, b in
           ((1, 0), (-1, 0), (0, 1), (0, -1), (2, 0), (0, 2), (1, 1), (1, -1),
            (-1, 1), (Fraction(1, 2), 0), (0, Fraction(1, 2)), (0, 0))]
# the numeric share uses the spectrum {1, 2, -1, i}
C64_POOL = [C.qi_scalar(1), C.qi_scalar(2), C.qi_scalar(-1), C.qi_scalar(0, 1)]


def _pooled_gap(blocks) -> Optional[int]:
    """Largest minus second-largest block over the eigenvalues of maximal
    nonzero modulus; None for a nilpotent assembly."""
    nonzero = [(lam, s) for lam, s in blocks if _modsq(lam) != 0]
    if not nonzero:
        return None
    top = max(_modsq(lam) for lam, _ in nonzero)
    pooled = sorted((s for lam, s in nonzero if _modsq(lam) == top), reverse=True)
    return pooled[0] - (pooled[1] if len(pooled) > 1 else 0)


def template_blocks(rng: random.Random, pool, d: int, k: int,
                    chain_others: bool) -> list[tuple]:
    """k distinct eigenvalues with near-equal multiplicities.  Those of
    maximal modulus split into two near-equal blocks, so the pooled gap is
    <= 1; the others do the same or form one chain (`chain_others`), which
    makes the reflexive verdict false.  A fixed shape per slot keeps the
    cost of a slot alike across seeds."""
    k = min(k, d)
    while True:
        eigs = rng.sample(pool, k)
        if any(_modsq(lam) for lam in eigs):
            break
    top = max(_modsq(lam) for lam in eigs)
    blocks = []
    for n, lam in enumerate(eigs):
        m = d // k + (1 if n < d % k else 0)
        if chain_others and _modsq(lam) != top:
            blocks.append((lam, m))
        else:
            blocks += [(lam, s) for s in ((m + 1) // 2, m // 2) if s]
    rng.shuffle(blocks)
    return blocks


# ---------------------------------------------------------------------------
# workload builders: (corpus, rng, tiny) -> Workload
# ---------------------------------------------------------------------------

class Workload:
    """A fixed op list built from one corpus.  `ops(pass_dir)` returns the
    ops of one pass; passes differ only in their scratch paths."""

    def __init__(self, corpus: C.Corpus):
        self.corpus = corpus
        self.static_ops: list[Op] = []
        self.probe_ops: list[Op] = []        # known-defect probe, untimed

    def ops(self, pass_dir: str) -> list[Op]:
        return self.static_ops


def _profile_op(kind: str, path: str, truth: dict, numeric: bool) -> Op:
    argv = [kind, "--input", path] + (["--field", "c64"] if numeric else [])

    def check(text: str) -> Optional[str]:
        report = parse_report(text)
        if numeric:
            if not _numeric_entries_match(report, truth):
                return "c64 eigenvalues or block sizes differ from construction"
        elif _exact_entries(report) != truth["blocks"]:
            return "block sizes differ from construction"
        if kind == "decide":
            if _verdict(report, "reflexive")["answer"] != _gap_rule(truth["blocks"]):
                return "reflexive verdict contradicts the per-eigenvalue gap rule"
            if _verdict(report, "c_orbit_reflexive")["answer"] is not True:
                return "c-orbit verdict is not True for pooled gap <= 1"
            if "witness" in report:
                return "witness built for a gap <= 1 profile"
        return None

    return Op(argv, check, truth)


def _assembly_truth(field: dict, blocks, d: int, form: str) -> dict:
    return {"d": d, "field": field["field"], "form": form,
            "blocks": C.block_truth(field, blocks),
            "values": [[[str(c) for c in lam], s] for lam, s in
                       _merge_sizes(blocks)]}


def _merge_sizes(blocks):
    out: dict[tuple, list[int]] = {}
    for lam, s in blocks:
        out.setdefault(lam, []).append(s)
    return [(lam, sorted(v, reverse=True)) for lam, v in sorted(out.items())]


def build_profile(corpus: C.Corpus, rng: random.Random, tiny: bool) -> Workload:
    wl = Workload(corpus)
    q_field, qi_field = {"field": "q"}, {"field": "qi"}
    # 10 exact ops per d in 3..12 (slots 5..9 conjugated), a thin tail 13..16
    # in Jordan form, then the c64 share
    plan = [(d, slot) for d in range(3, 13) for slot in range(10)]
    plan += [(13, 1), (14, 2), (15, 3), (16, 0)]
    if tiny:
        plan = [(3, 0), (4, 1), (5, 2), (6, 3)]
    for n, (d, slot) in enumerate(plan):
        field = qi_field if slot % 2 else q_field
        pool = QI_POOL if slot % 2 else Q_POOL
        form = "conjugated" if slot >= 5 else "jordan"
        kind = "decide" if slot in (0, 3, 4, 5, 8) else "jordan"
        blocks = template_blocks(rng, pool, d, 1 + slot % 3, slot % 2 == 0)
        assert _pooled_gap(blocks) <= 1
        rows = C.jordan_assembly(field, blocks)
        if form == "conjugated":
            rows = C.conjugate_by_shears(field, rows, 2, rng)
        truth = _assembly_truth(field, blocks, d, form)
        path = corpus.add(f"p{n:03d}", C.matrix_data(field, rows), truth)
        wl.static_ops.append(_profile_op(kind, path, truth, numeric=False))
    c64_plan = [(d, k) for d in range(4, 11) for k in ("jordan", "decide")]
    probe_plan = [(d, k) for d in (12, 14, 16) for k in ("jordan", "decide")]
    if tiny:
        c64_plan, probe_plan = [(4, "decide")], [(12, "jordan")]
    for n, (d, kind) in enumerate(c64_plan + probe_plan):
        blocks = template_blocks(rng, C64_POOL, d, 1 + n % 3, n % 2 == 0)
        rows = C.householder_conjugate(qi_field, C.jordan_assembly(qi_field, blocks),
                                     2, rng)
        truth = _assembly_truth(qi_field, blocks, d, "unitary")
        path = corpus.add(f"c{n:03d}", C.matrix_data(qi_field, rows), truth)
        op = _profile_op(kind, path, truth, numeric=True)
        (wl.static_ops if n < len(c64_plan) else wl.probe_ops).append(op)
    return wl


# dominant spectrum -> (field, eigenvalues at the spectral radius, smaller ones)
WITNESS_VARIANTS = {
    "mod1": ("q", [(1,)], [(Fraction(1, 2),), (Fraction(-1, 3),), (0,)]),
    "mod2": ("q", [(-2,)], [(1,), (Fraction(1, 2),), (0,)]),
    "mod1/2": ("q", [(Fraction(1, 2),)], [(Fraction(1, 3),), (Fraction(-1, 4),), (0,)]),
    "tie-1-i": ("qi", [(1, 0), (0, 1)], [(Fraction(1, 2), 0), (0, Fraction(-1, 3)), (0, 0)]),
}
# One witness op per pass, at the CLI defaults: either `decide` on a
# Jordan-form input whose dominant modulus is 2 or 1, or `witness` on a
# conjugated one whose dominant spectrum is the 1/i tie or 1/2.  The seed
# picks the slot, the variant and d; the op costs about the same (some
# 3.2 s) whichever it picks.
WITNESS_SLOTS = (("decide", ("mod2", "mod1")), ("witness", ("tie-1-i", "mod1/2")))
WITNESS_DIMS = (4, 5, 6, 7)
# largest dominant block per variant.  The residual certificate decays
# like (m-1)/n on a dominant chain of size m, so at the default horizon
# it holds for m <= 3 (m <= 2 at |lam| = 2); longer chains are the probe.
WITNESS_CHAIN = {"mod2": 2, "mod1": 3, "tie-1-i": 3, "mod1/2": 3}
WITNESS_PROBE = [("decide", 8, "mod2", 5)]


def witness_blocks(rng: random.Random, d: int, variant: str, m: int) -> list[tuple]:
    """A dominant chain of size m, a second dominant block of size <= m - 2
    (always for the tie, where it sits on the second eigenvalue), and the
    rest of the dimension in blocks of smaller modulus."""
    code, dominant, lower = WITNESS_VARIANTS[variant]
    width = 2 if code == "qi" else 1
    dom = [tuple(Fraction(c) for c in x) for x in dominant]
    low = [tuple(Fraction(c) for c in x) + (Fraction(0),) * (width - len(x))
           for x in lower]
    blocks = [(dom[0], m)]
    room = d - m
    if len(dom) > 1 or (m >= 3 and room and rng.random() < 0.5):
        size = min(room, m - 2) if len(dom) > 1 else rng.randint(1, min(room, m - 2))
        blocks.append((dom[-1], size))
    room = d - sum(s for _, s in blocks)
    while room:
        size = rng.randint(1, room)
        blocks.append((rng.choice(low), size))
        room -= size
    rng.shuffle(blocks)
    return blocks


def _witness_op(kind: str, path: str, truth: dict) -> Op:
    argv = [kind, "--input", path]

    def check(text: str) -> Optional[str]:
        report = parse_report(text)
        if _exact_entries(report) != truth["blocks"]:
            return "block sizes differ from construction"
        if _verdict(report, "c_orbit_reflexive")["answer"] is not False:
            return "c-orbit verdict is not False for pooled gap >= 2"
        w = report.get("witness")
        if not w:
            return "no witness in the report"
        if not (w["commutator_nonzero"] and w["verdict_supported"]):
            return "witness certificate does not support the verdict"
        worst = max(row["checkpoints"][str(HORIZON)] for row in w["membership_residuals"])
        if not worst < RESIDUAL_CEILING:
            return f"horizon residual {worst:.3e} >= {RESIDUAL_CEILING}"
        return None

    return Op(argv, check, truth)


def build_witness(corpus: C.Corpus, rng: random.Random, tiny: bool) -> Workload:
    wl = Workload(corpus)
    kind, variants = rng.choice(WITNESS_SLOTS)
    variant = rng.choice(variants)
    plan = [(kind, rng.choice(WITNESS_DIMS), variant, WITNESS_CHAIN[variant])]
    for n, (kind, d, variant, m) in enumerate(plan + WITNESS_PROBE):
        field = {"field": WITNESS_VARIANTS[variant][0]}
        blocks = witness_blocks(rng, d, variant, m)
        assert _pooled_gap(blocks) >= 2
        rows = C.jordan_assembly(field, blocks)
        if kind == "witness":
            rows = C.conjugate_by_shears(field, rows, 1, rng)
        truth = _assembly_truth(field, blocks, d, variant)
        path = corpus.add(f"w{n:03d}", C.matrix_data(field, rows), truth)
        op = _witness_op(kind, path, truth)
        (wl.static_ops if n < len(plan) else wl.probe_ops).append(op)
    return wl


class FfscanWorkload(Workload):
    """Cold sweeps into a fresh cache per pass, then cache-served re-queries
    (plain, --nilpotent-only, --format table) of each space."""

    def __init__(self, corpus: C.Corpus, spaces, workers: int):
        super().__init__(corpus)
        self.spaces = spaces
        self.workers = workers

    def ops(self, pass_dir: str) -> list[Op]:
        cache = os.path.join(pass_dir, "ffscan.jsonl")
        sweeps: dict = {}
        ops = []
        for d, q in self.spaces:
            truth = {"d": d, "q": q, "reference": dict(FFSCAN_REFERENCE[(d, q)])}
            ops.append(Op(self._argv(d, q, cache, "--workers", str(self.workers)),
                          _sweep_check(truth, sweeps), truth))
        for d, q in self.spaces * REQUERY_ROUNDS:
            for extra in ([], ["--nilpotent-only"], ["--format", "table"]):
                truth = {"d": d, "q": q}
                ops.append(Op(self._argv(d, q, cache, *extra),
                              _requery_check(d, q, sweeps, extra), truth,
                              requery=True))
        return ops

    @staticmethod
    def _argv(d, q, cache, *extra):
        return ["ffscan", "--d", str(d), "--q", str(q), "--cache", cache, *extra]


def _sweep_check(truth: dict, sweeps: dict):
    d, q = truth["d"], truth["q"]

    def check(text: str) -> Optional[str]:
        scan = parse_report(text)["scan"]
        counts = scan["counts"]
        sweeps[(d, q)] = counts
        if counts["split"] + counts["nonsplit"] != q ** (d * d):
            return "split + nonsplit != q^(d^2)"
        if scan["from_cache"] != 0:
            return "cold sweep read cached rows"
        if counts != truth["reference"]:
            return "sweep counts differ from the recorded reference"
        return None
    return check


def _requery_check(d: int, q: int, sweeps: dict, extra: list):
    def check(text: str) -> Optional[str]:
        full = sweeps.get((d, q))
        if full is None:
            return "no sweep to compare with"
        if "table" in extra:
            lines = text.splitlines()
            head = f"scan GF({q}) d={d}: {q ** (d * d)} matrices ({q ** (d * d)} cached)"
            if head not in lines:
                return "table head shows a partial cache hit"
            got = {}
            for line in lines:
                parts = line.split()
                if len(parts) == 2 and parts[0] in full and parts[1].isdigit():
                    got[parts[0]] = int(parts[1])
            return None if got == full else "table counts differ from the sweep"
        scan = parse_report(text)["scan"]
        if scan["from_cache"] != scan["scanned"]:
            return "re-query not served in full by the cache"
        if "--nilpotent-only" in extra:
            counts = scan["counts"]
            if (scan["scanned"], counts["nilpotent"], counts["nilpotent_equal"]) != (
                    full["nilpotent"], full["nilpotent"], full["nilpotent_equal"]):
                return "nilpotent re-query differs from the sweep"
            return None
        return None if scan["counts"] == full else "re-query counts differ from the sweep"
    return check


def build_ffscan(corpus: C.Corpus, rng: random.Random, tiny: bool) -> Workload:
    spaces = ((2, 2), (2, 3)) if tiny else FFSCAN_SPACES
    # the sweep itself has no seeded input; the seed only orders the spaces
    spaces = tuple(rng.sample(spaces, len(spaces)))
    return FfscanWorkload(corpus, spaces, workers=2)


# (q, d) -> ops per pass, cycling through the stratum's class shapes
GF_STRATA = {(2, 2): 8, (3, 2): 8, (4, 2): 10, (5, 2): 10, (7, 2): 10,
             (8, 2): 10, (9, 2): 10, (2, 3): 12, (3, 3): 12, (2, 4): 10}


def _gf_shape(field: dict, d: int, shape: str, rng: random.Random):
    """(rows, blocks or None when the class does not split)."""
    elems = C.gf_elements(field)
    a, b, c = (rng.sample(elems, 3) if len(elems) >= 3
               else rng.sample(elems, 2) + [elems[0]])
    zero = C.zero(field)
    if shape.startswith("irred"):
        deg = int(shape[5])
        comp = C.companion(field, C.gf_primitive(field, deg, rng))
        rows = [r + [zero] * (d - deg) for r in comp]
        for i in range(deg, d):                 # a in the remaining diagonal
            rows.append([zero] * i + [a] + [zero] * (d - i - 1))
        return rows, None
    sizes = {"diag": [(a, 1), (b, 1), (c, 1), (a, 1)][:d],
             "scalar": [(a, 1)] * d,
             "chain": [(a, d)],
             "j2+": [(a, 2)] + [(b, 1)] * (d - 2),
             "j2a+": [(a, 2)] + [(a, 1)] * (d - 2),
             "j22": [(a, 2), (b, 2)]}[shape]
    return C.jordan_assembly(field, sizes), sizes


GF_SHAPES = {2: ["diag", "chain", "scalar", "diag", "chain", "irred2"],
             3: ["chain", "j2+", "j2a+", "diag", "irred2", "irred3"],
             4: ["chain", "j22", "j2+", "j2a+", "irred2"]}


def _gf_matmul(field, x, y):
    cols = list(zip(*y))
    return [[C.gf_dot(field, r, c) for c in cols] for r in x]


def _gf_op(kind: str, argv: list[str], truth: dict) -> Op:
    def check(text: str) -> Optional[str]:
        report = parse_report(text)
        if kind == "oracle-candidate":
            if report["oracle"]["contains"] is not True:
                return "orbref0_contains rejects a member of OrbRef0"
            return None
        if kind == "oracle":
            sizes = report["oracle"]
        else:
            verdict = _verdict(report, "algebraic_orbit_reflexive")
            if verdict["answer"] is None:
                return "algebraic verdict left unknown"
            sizes = (verdict["certificate"] or {}).get("enumeration")
            profile = report["profile"]
            if truth["blocks"] is None:
                if profile["split"]:
                    return "non-split class reported split"
            elif _exact_entries(report) != truth["blocks"]:
                return "block sizes differ from construction"
        if sizes and sizes["orbref0_size"] < sizes["forb_size"]:
            return "OrbRef0 smaller than the scaled power orbit"
        return None

    return Op(argv, check, truth)


def build_gf_decide(corpus: C.Corpus, rng: random.Random, tiny: bool) -> Workload:
    wl = Workload(corpus)
    strata = {(2, 2): 3, (3, 3): 2} if tiny else GF_STRATA
    n = 0
    for (q, d), count in strata.items():
        field = C.gf_field(q)
        shapes = GF_SHAPES[d]
        for slot in range(count):
            shape = shapes[slot % len(shapes)]
            kind = ("decide", "oracle", "decide", "oracle-candidate")[slot % 4]
            rows, blocks = _gf_shape(field, d, shape, rng)
            truth = {"d": d, "q": q, "shape": shape,
                     "blocks": None if blocks is None else C.block_truth(field, blocks)}
            cand = None
            if kind == "oracle-candidate":
                if field["k"] == 1 and d == 2:
                    # the prime-field shear pair T = [[1,1],[0,1]], S = [[0,1],[0,1]]
                    one = C.one(field)
                    rows = [[one, one], [C.zero(field), one]]
                    cand = [[C.zero(field), one], [C.zero(field), one]]
                    truth.update(shape="shear-pair", blocks={"1": [2]})
                else:
                    # S = c T^2 always lies in OrbRef0(T)
                    c = rng.choice(C.gf_elements(field))
                    sq = _gf_matmul(field, rows, rows)
                    cand = [[C.gf_mul(field, c, x) for x in r] for r in sq]
            if slot % 3 != 2 and shape != "scalar":
                seed = rng.random()
                rows = C.conjugate_by_shears(field, rows, 1, random.Random(seed))
                if cand is not None:
                    cand = C.conjugate_by_shears(field, cand, 1, random.Random(seed))
            path = corpus.add(f"g{n:03d}", C.matrix_data(field, rows), truth)
            argv = ["oracle" if kind.startswith("oracle") else "decide", "--input", path]
            if cand is not None:
                cpath = corpus.add(f"g{n:03d}s", C.matrix_data(field, cand),
                                   {"candidate_for": f"g{n:03d}"})
                argv += ["--candidate", cpath]
            wl.static_ops.append(_gf_op(kind, argv, truth))
            n += 1
    return wl


class Combined(Workload):
    """Parts run one after another in each pass, on one corpus."""

    def __init__(self, corpus: C.Corpus, parts: list[Workload]):
        super().__init__(corpus)
        self.parts = parts
        self.probe_ops = [op for part in parts for op in part.probe_ops]

    def ops(self, pass_dir: str) -> list[Op]:
        return [op for part in self.parts for op in part.ops(pass_dir)]


def build_exact(corpus: C.Corpus, rng: random.Random, tiny: bool) -> Workload:
    return Combined(corpus, [build_profile(corpus, rng, tiny),
                             build_witness(corpus, rng, tiny)])


def build_finite(corpus: C.Corpus, rng: random.Random, tiny: bool) -> Workload:
    return Combined(corpus, [build_gf_decide(corpus, rng, tiny),
                             build_ffscan(corpus, rng, tiny)])


BUILDERS = {"exact": build_exact, "finite": build_finite}


def build(name: str, seed: int, root: str, tiny: bool = False) -> Workload:
    corpus = C.Corpus(root)
    rng = random.Random(f"{name}:{seed}")
    return BUILDERS[name](corpus, rng, tiny)
