"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 3's M_3(GF(2)) half asserts the proven split of the 64
nilpotent matrices: the 22 with T^2 = 0 have OrbRef0 equal to the scaled
power orbit and are rigid, while the 42 similar to a lone nilpotent 3-chain
carry the two-entry operator of
test_oracle.test_lone_3_chain_defeats_rigidity_and_equality and fail both.
"""

import json
import random
import time
from fractions import Fraction

from orbitref import (
    ComplexFloats,
    FiniteField,
    Matrix,
    QI,
    QQ,
    Scalar,
    SpectralProfile,
    block_profile,
    build_c_orbit_witness,
    canonical_jordan,
    commutator_is_zero,
    decide_c_orbit_reflexive,
    decide_reflexive,
    enumerate_orbref0,
    orbref0_contains,
    validate_witness,
)
from orbitref.cli import main
from orbitref.linalg import to_ndarray
from orbitref.oracle import scan_space

from test_deciders import GOLDEN_TABLE
from test_witness import build_prime_field_counterexample


def _line(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{extra}")
    return ok


def test_criterion_1_prime_field_pair_strict_inclusion():
    ok = True
    details = []
    for p in (2, 3, 5, 7):
        t0 = time.monotonic()
        T, S = build_prime_field_counterexample(p)
        result = enumerate_orbref0(T)
        member, _ = orbref0_contains(T, S)
        commutes, _ = commutator_is_zero(S, T)
        elapsed = time.monotonic() - t0
        ok &= (not result.equal and member
               and any(D == S for D in result.difference)
               and not commutes and elapsed < 1.0)
        details.append(f"p={p}: {result.orbref0_size}>{result.forb_size} "
                       f"in {elapsed:.2f}s")
    assert _line(1, "prime-field shear: OrbRef0 strictly exceeds the scaled "
                    "power orbit", ok, "; ".join(details))


def test_criterion_2_gf4_exhaustive_scan(tmp_path):
    cache = str(tmp_path / "gf4.jsonl")
    field = FiniteField(2, 2)
    t0 = time.monotonic()
    result = scan_space(field, 2, dedup=False, workers=2, cache_path=cache)
    elapsed = time.monotonic() - t0
    pair_space = result.total * field.q ** 4
    t1 = time.monotonic()
    rerun = scan_space(field, 2, dedup=False, workers=2, cache_path=cache)
    rerun_elapsed = time.monotonic() - t1
    ok = (result.counts["split_not_equal"] == 0
          and result.counts["split"] + result.counts["nonsplit"] == 256
          and pair_space == 65536
          and elapsed < 300.0
          and rerun.from_cache == rerun.scanned
          and rerun_elapsed < 5.0
          and rerun.counts == result.counts)
    assert _line(2, "GF(4) 2x2 exhaustive: split minimal polynomial implies "
                    "OrbRef0 = scaled orbit", ok,
                 f"{result.counts['split']} split all equal, 65536 candidate "
                 f"pairs in {elapsed:.1f}s, cached rerun {rerun_elapsed:.1f}s")


def _gf2_nilpotent_3_chain_indices():
    """Scan indices of the 3x3 matrices over GF(2) with T^3 = 0 and T^2 != 0,
    by plain mod-2 integer arithmetic (entry (i, j) is bit 3i + j)."""
    def mul(A, B):
        return [[sum(A[i][k] * B[k][j] for k in range(3)) % 2 for j in range(3)]
                for i in range(3)]

    zero = [[0] * 3 for _ in range(3)]
    chains = set()
    for idx in range(2 ** 9):
        T = [[(idx >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
        T2 = mul(T, T)
        if T2 != zero and mul(T2, T) == zero:
            chains.add(idx)
    return chains


def test_criterion_3_nilpotent_equality_and_rigidity():
    t0 = time.monotonic()
    part_a = scan_space(FiniteField(3), 2, nilpotent_only=True, rigidity=True,
                        cache_path=None)
    part_b = scan_space(FiniteField(2), 3, nilpotent_only=True, rigidity=True,
                        cache_path=None)
    elapsed = time.monotonic() - t0
    a_ok = (part_a.counts["nilpotent"] == 9
            and part_a.counts["nilpotent_equal"] == 9
            and part_a.counts["rigidity_violating"] == 0)
    # M3(GF(2)): the 22 nilpotents with T^2 = 0 (zero and the J2+J1 class)
    # have T x = x0 e1 in Jordan coordinates, which forces S = aT, so they are
    # equal and rigid.  The 42 with T^2 != 0 form the lone 3-chain class,
    # where x -> (<x,e0>+<x,e1>) e2 lies in OrbRef0 (exactly, with positive
    # powers) but is no scaled power.  Each of them must be reported as both
    # an equality and a rigidity violation, and no other matrix may be.
    chains = _gf2_nilpotent_3_chain_indices()
    b_ok = (part_b.counts["nilpotent"] == 64
            and part_b.counts["nilpotent_equal"] == 22
            and part_b.counts["rigidity_violating"] == 42
            and len(chains) == 42
            and {v["i"] for v in part_b.violations} == chains
            and {v["i"] for v in part_b.rigidity_violations} == chains)
    detail = (f"M2(GF(3)): 9/9 equal+rigid; M3(GF(2)): "
              f"{part_b.counts['nilpotent_equal']}/64 equal, "
              f"{part_b.counts['rigidity_violating']} rigidity violations, "
              f"all on the {len(chains)}-matrix 3-chain class; {elapsed:.1f}s")
    ok = a_ok and b_ok and elapsed < 30.0
    _line(3, "nilpotent scan: OrbRef0 = scaled orbit with scaled-power "
             "rigidity exactly off the 3-chain class", ok, detail)
    assert ok, ("nilpotent scan verdicts differ from the proven split: "
                "M2(GF(3)) 9/9 equal and rigid; M3(GF(2)) 22/64 equal, "
                "42 rigidity violations, all on the lone 3-chain class "
                "(proof in CHANGES.md; see test_oracle.py::"
                "test_lone_3_chain_defeats_rigidity_and_equality)")


def test_criterion_4_criterion_table():
    ok = len(GOLDEN_TABLE) >= 12
    for blocks, expect_reflexive, expect_c in GOLDEN_TABLE:
        prof = SpectralProfile.from_blocks(QI, blocks)
        ok &= decide_reflexive(prof).answer is expect_reflexive
        ok &= decide_c_orbit_reflexive(prof, attach_witness=False).answer is expect_c
    assert _line(4, "criterion table: decider outputs match the derived "
                    "table exactly", ok, f"{len(GOLDEN_TABLE)} profiles")


def test_criterion_5_witness_validity():
    false_rows = [blocks for blocks, _, expect_c in GOLDEN_TABLE if not expect_c]
    ok = True
    details = []
    for blocks in false_rows:
        prof = SpectralProfile.from_blocks(QI, blocks)
        T, _ = canonical_jordan(prof)
        S = build_c_orbit_witness(prof)
        t0 = time.monotonic()
        report = validate_witness(S, T, samples=100, horizon=2000, seed=0)
        elapsed = time.monotonic() - t0
        row_ok = report.commutator_nonzero and elapsed < 10.0
        for row in report.membership_residuals:
            cps = row["checkpoints"]
            row_ok &= cps["2000"] < 1e-2
            if row["nonzero_e0_or_e1"]:
                row_ok &= cps["2000"] <= max(cps["100"] / 5.0, 1e-12)
        ok &= row_ok and report.verdict_supported
        details.append(f"d={T.n}: {elapsed:.1f}s")
    assert _line(5, "witness validity: exact commutator + residual decay on "
                    "every sampled vector", ok,
                 f"{len(false_rows)} matrices; " + "; ".join(details))


def test_criterion_6_normal_operators():
    rng = random.Random(0)
    pool = []
    for num_re in range(-2, 3):
        for num_im in range(-2, 3):
            for den in (1, 1, 1, 2):
                pool.append(Scalar(QI, (Fraction(num_re, den),
                                        Fraction(num_im, den))))
    t0 = time.monotonic()
    ok = True
    for _ in range(1000):
        d = rng.randint(1, 8)
        diag = [pool[rng.randrange(len(pool))] for _ in range(d)]
        M = Matrix(QI, [[diag[i] if i == j else QI.zero() for j in range(d)]
                        for i in range(d)])
        verdict = decide_c_orbit_reflexive(block_profile(M), attach_witness=False)
        ok &= verdict.answer is True
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    assert _line(6, "normal operators: 1000 random diagonals all C-orbit "
                    "reflexive", ok, f"{elapsed:.1f}s")


def _unimodular(rng, n, shears=6):
    """A product P of shears I + c E_ij (i != j) and P^-1, the product of
    the I - c E_ij in reverse order."""
    P = Pinv = Matrix.identity(QI, n)
    for _ in range(shears):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = Scalar(QI, (Fraction(rng.randint(-1, 1)),
                        Fraction(rng.randint(-1, 1))))
        rows = [list(r) for r in Matrix.identity(QI, n).rows]
        rows[i][j] = c
        P = P @ Matrix(QI, rows)
        rows[i][j] = -c
        Pinv = Matrix(QI, rows) @ Pinv
    return P, Pinv


def test_criterion_7_profile_correctness():
    rng = random.Random(7)
    palette = ["0", "1", "-1", "2", "i", "1+i"]  # pairwise separation >> 1e-3
    cc = ComplexFloats()
    t0 = time.monotonic()
    ok = True
    for _ in range(100):
        blocks, dim = [], 0
        target = rng.randint(2, 6)
        while dim < target:
            lam = palette[rng.randrange(len(palette))]
            size = rng.randint(1, min(3, target - dim))
            blocks.append((lam, size))
            dim += size
        J = Matrix.block_diag([Matrix.jordan_block(QI, l, s) for l, s in blocks])
        P, Pinv = _unimodular(rng, J.n)
        M = P @ J @ Pinv
        key = lambda p: sorted((str(e.eigenvalue), e.block_sizes)
                               for e in p.entries)
        ok &= key(block_profile(M)) == key(block_profile(J))
        arr = to_ndarray(M)
        Mf = Matrix(cc, [[Scalar(cc, complex(arr[r][c])) for c in range(J.n)]
                         for r in range(J.n)])
        pf = block_profile(Mf)
        got = sorted((round(e.eigenvalue.value.real, 2),
                      round(e.eigenvalue.value.imag, 2), e.block_sizes)
                     for e in pf.entries)
        want = sorted((round(float(e.eigenvalue.value[0]), 2),
                       round(float(e.eigenvalue.value[1]), 2), e.block_sizes)
                      for e in block_profile(M).entries)
        ok &= got == want
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    assert _line(7, "profiles: 100 conjugated assemblies reproduced exactly, "
                    "float path agrees", ok, f"{elapsed:.1f}s")


def test_criterion_8_truncated_counterexample():
    from orbitref import CounterexampleVector, factorial_truncation_holds
    from orbitref.counterexample import verify_no_single_power

    t0 = time.monotonic()
    ok = True
    for n in range(1, 9):
        for k in range(1, n + 1):
            x = CounterexampleVector.basis_pair(QQ, k)
            ok &= factorial_truncation_holds(x, n)
    no_power, witnesses = verify_no_single_power(8)
    ok &= no_power and len(witnesses) == 8
    ok &= all(w["vector"] == f"e_{w['power'] + 1}+e_{w['power'] + 1}"
              for w in witnesses)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    assert _line(8, "truncation demo: factorial powers match exactly, no "
                    "single scaled power", ok, f"{elapsed:.2f}s")


def test_criterion_9_determinism_across_workers(tmp_path, capsys):
    gap2 = {"field": "q", "rows": [
        ["1", "0", "0", "0"],
        ["1", "1", "0", "0"],
        ["0", "1", "1", "0"],
        ["0", "0", "0", "1"],
    ]}
    path = tmp_path / "gap2.json"
    path.write_text(json.dumps(gap2))
    decide_reports = []
    scan_reports = []
    for w in ("1", "2", "8"):
        code = main(["decide", "--input", str(path), "--powers", "400",
                     "--samples", "16", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        decide_reports.append(out)
        code = main(["ffscan", "--q", "3", "--d", "2", "--no-cache",
                     "--workers", w])
        out = capsys.readouterr().out
        assert code == 0
        scan_reports.append(out)
    ok = (decide_reports[0] == decide_reports[1] == decide_reports[2]
          and scan_reports[0] == scan_reports[1] == scan_reports[2])
    with capsys.disabled():
        assert _line(9, "determinism: decide byte-identical on repeat runs, "
                        "ffscan identical across 1, 2 and 8 workers", ok)
