"""Decision criteria against a hand-derived golden table of profiles.

The lone-block convention (a single block of size m at the spectral radius
compares against 0, so m >= 2 fails) is confirmed here by a d = 2
brute-force check computed before the deciders existed: for T = 1 + J_2 in
chain coordinates and S = [[0,0],[1,1]], every vector's image lies in the
closure of the scaled power orbit (exact at x_0 = 0, limit-fit otherwise),
while ST != TS keeps S outside the closed orbit itself.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from orbitref import (
    ComplexFloats,
    FiniteField,
    FiniteFieldUnsupported,
    Matrix,
    QI,
    QQ,
    Scalar,
    SpectralProfile,
    block_profile,
    commutator_is_zero,
    decide_algebraic_f_orbit_reflexive,
    decide_c_orbit_reflexive,
    decide_orbit_reflexive,
    decide_reflexive,
    upgrade_algebraic_verdict,
)
from orbitref.linalg import to_ndarray
from orbitref.oracle import _space
from orbitref.witness import _residual_minima

# (blocks, reflexive, c_orbit): every entry hand-derived from the block-gap
# rules; lone-block rows confirmed by the d = 2 oracle below.
GOLDEN_TABLE = [
    ([("0", [5, 2])], False, False),           # nilpotent: zero blocks pool, gap 3
    ([("1", [1, 1]), ("i", [1])], True, True),  # diagonal, unimodular tie
    ([("1", [2, 1])], True, True),             # gap 1
    ([("1", [3, 1])], False, False),           # gap 2
    ([("1", [2])], False, False),              # lone block size 2 (oracle)
    ([("1", [1])], True, True),                # lone block size 1
    ([("2", [2]), ("1", [3])], False, False),  # mixed moduli, lone top block
    ([("2", [2, 2])], True, True),             # gap 0
    ([("1", [3, 2]), ("0", [4])], False, True),   # top gap 1, nilpotent lone 4
    ([("1", [3, 1]), ("0", [2])], False, False),  # top gap 2, nilpotent spectator
    ([("1", [3]), ("-1", [2])], False, True),     # equal-modulus pooling, gap 1
    ([("1", [2]), ("-1", [2])], False, True),     # pooled gap 0, per-eig lone 2
    ([("1", [3]), ("i", [1])], False, False),     # pooled gap 2
    ([("3/5+4/5i", [2]), ("1", [1])], False, True),  # exact norm tie pools sizes
    ([("0", [1])], True, True),                # 1x1 zero operator
    ([("2", [3]), ("-2", [2]), ("1", [1])], False, True),  # pooled {3,2} gap 1
    ([("1", [1]), ("i", [1]), ("1/2", [1])], True, True),  # diagonal, sub-radius entry
]


@pytest.mark.parametrize("blocks,expect_reflexive,expect_c", GOLDEN_TABLE)
def test_golden_table(blocks, expect_reflexive, expect_c):
    prof = SpectralProfile.from_blocks(QI, blocks)
    assert decide_reflexive(prof).answer is expect_reflexive
    v = decide_c_orbit_reflexive(prof, attach_witness=False)
    assert v.answer is expect_c


def test_false_c_orbit_verdicts_carry_witness():
    prof = SpectralProfile.from_blocks(QI, [("1", [3, 1])])
    v = decide_c_orbit_reflexive(prof)
    assert v.answer is False
    w = v.certificate["witness"]
    assert w["witness_rows"] == [
        ["0", "0", "0", "0"],
        ["0", "0", "0", "0"],
        ["1", "1", "0", "0"],
        ["0", "0", "0", "0"],
    ]
    assert v.certificate["criterion_trace"]["gap"] == 2


def test_reflexive_criterion_trace():
    prof = SpectralProfile.from_blocks(QI, [("1", [3, 1]), ("0", [1])])
    v = decide_reflexive(prof)
    trace = {t["eigenvalue"]: t["gap"] for t in v.certificate["criterion_trace"]}
    assert trace == {"1": 2, "0": 1}


def test_orbit_reflexive_always_true():
    assert decide_orbit_reflexive(Matrix.jordan_block(QQ, 0, 2)).answer is True
    assert decide_orbit_reflexive(Matrix.zeros(QQ, 3)).answer is True
    rng = random.Random(2)
    M = Matrix(QQ, [[Scalar(QQ, Fraction(rng.randint(-9, 9))) for _ in range(6)]
                    for _ in range(6)])
    assert decide_orbit_reflexive(M).answer is True


def test_near_double_float_eigenvalue_is_fragile():
    # at d = 2 the cluster band is about 4.8e-5: 1 and 1.0002 stay two
    # clusters, which a 10x wider band would merge
    M = Matrix.from_values(ComplexFloats(), [["1", "0"], ["0", "1.0002"]])
    prof = block_profile(M)
    assert len(prof.entries) == 2
    assert prof.fragile and prof.as_dict()["fragile"] is True
    # every verdict read off the profile carries the flag
    assert decide_reflexive(prof).fragile
    assert decide_c_orbit_reflexive(prof).fragile


def test_c_orbit_rejects_finite_fields():
    prof = SpectralProfile.from_blocks(FiniteField(3), [(1, [2])])
    with pytest.raises(FiniteFieldUnsupported):
        decide_c_orbit_reflexive(prof)


def test_scaling_invariance():
    J = Matrix.block_diag([Matrix.jordan_block(QI, 1, 3),
                           Matrix.jordan_block(QI, 1, 1),
                           Matrix.jordan_block(QI, 0, 2)])
    base = decide_c_orbit_reflexive(block_profile(J), attach_witness=False).answer
    for c in ("2", "i", "3/5+4/5i", "-1/2"):
        scaled = J.scale(QI.parse(c))
        v = decide_c_orbit_reflexive(block_profile(scaled), attach_witness=False)
        assert v.answer is base


def test_diagonal_always_c_orbit_reflexive():
    rng = random.Random(4)
    pool = ["1", "-1", "i", "2", "1/2+1/2i", "-3", "0", "2i"]
    for _ in range(50):
        d = rng.randint(1, 6)
        entries = [pool[rng.randrange(len(pool))] for _ in range(d)]
        M = Matrix.from_values(QI, [[entries[i] if i == j else 0 for j in range(d)]
                                    for i in range(d)])
        v = decide_c_orbit_reflexive(block_profile(M), attach_witness=False)
        assert v.answer is True


def test_agreement_on_single_nonzero_eigenvalue_profiles():
    # with one eigenvalue entry at nonzero modulus, the pooled gap equals the
    # per-eigenvalue gap, so the two criteria coincide
    rng = random.Random(6)
    for _ in range(40):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        prof = SpectralProfile.from_blocks(QI, [("1", sizes)])
        assert (decide_reflexive(prof).answer
                is decide_c_orbit_reflexive(prof, attach_witness=False).answer)


def test_pooling_splits_the_two_criteria():
    # documented counterexample to any blanket agreement claim: both
    # eigenvalues sit at max modulus, each with a lone block of size 2
    prof = SpectralProfile.from_blocks(QI, [("1", [2]), ("-1", [2])])
    assert decide_reflexive(prof).answer is False
    assert decide_c_orbit_reflexive(prof, attach_witness=False).answer is True


# -- d = 2 brute-force confirmation of the lone-block convention ---------------

def test_lone_block_oracle_d2():
    T = Matrix.from_values(QQ, [[1, 0], [1, 1]])   # 1 + J_2, chain basis
    S = Matrix.from_values(QQ, [[0, 0], [1, 1]])
    zero, _ = commutator_is_zero(S, T)
    assert not zero  # S is outside the SOT closure of the scaled orbit
    rng = np.random.default_rng(0)
    vectors = [np.array([1.0, 0.0], dtype=complex),
               np.array([0.0, 1.0], dtype=complex)]
    vectors += [rng.standard_normal(2) + 1j * rng.standard_normal(2)
                for _ in range(40)]
    X = np.stack(vectors, axis=1)
    # the running minimum of dist(Sx, C * T^n x) over n <= 4000, per column
    finals = _residual_minima(to_ndarray(T), to_ndarray(S) @ X, X, [4000])[0]
    for x, final in zip(vectors, finals):
        if abs(x[0]) > 1e-12:
            # T^n x = (x0, n x0 + x1): the line tilts onto e1, residual ~ C/n
            assert final < 5e-3
        else:
            # Sx = x1 e1 = x itself: exact membership at n = 1 (T e1 = e1)
            assert final < 1e-12


def test_lone_block_size_one_is_reflexive():
    # d = 1: every operator is a scalar, and C-Orb(T) is a full line, so the
    # verdict must be true; the profile rule agrees
    prof = SpectralProfile.from_blocks(QI, [("5", [1])])
    assert decide_c_orbit_reflexive(prof, attach_witness=False).answer is True


# -- floor-0 brute force on nilpotent profiles ----------------------------------

def nilpotent_partitions(d, top=None):
    """The block-size partitions of d, each in descending order."""
    top = d if top is None else top
    if d == 0:
        yield ()
        return
    for s in range(min(d, top), 0, -1):
        for rest in nilpotent_partitions(d - s, s):
            yield (s,) + rest


def _floor0_reflexive(field, sizes):
    """Over GF(q), does {S : S x in {lam T^n x : n >= 0} for every x} equal
    {lam T^n : n >= 0} for the nilpotent T with these Jordan blocks?

    Exponents start at 0 here, the C-orbit definition, not at 1 as in
    OrbRef0.  Columns are fixed depth-first: column j ranges over the floor-0
    orbit set of e_j, and fixing it checks every vector whose highest
    nonzero coordinate is j."""
    d = sum(sizes)
    sp = _space(field, d)
    T = Matrix.block_diag([Matrix.jordan_block(field, 0, s) for s in sizes])
    timg = sp.vector_map(sp.encode(T))
    # the lines through x, Tx, ..., T^d x = 0
    masks = []
    for x in range(sp.n):
        m = 0
        for _ in range(d + 1):
            m |= sp.line[x]
            x = timg[x]
        masks.append(m)
    powers = [tuple(sp.q ** j for j in range(d))]
    for _ in range(d):
        powers.append(tuple(timg[c] for c in powers[-1]))
    scaled = {tuple(sp.scale[c][lam] for c in P)
              for P in powers for lam in range(sp.q)}
    members = set()

    def walk(j, cols, img):
        if j == d:
            members.add(cols)
            return
        for col in range(sp.n):
            if not masks[sp.q ** j] >> col & 1:
                continue
            img = list(img)
            for x, rest, c in sp.levels[j]:
                img[x] = sp.vadd[img[rest]][sp.scale[col][c]]
                if not masks[x] >> img[x] & 1:
                    break
            else:
                walk(j + 1, cols + (col,), img)

    walk(0, (), [0] * sp.n)
    assert scaled <= members
    return members == scaled


@pytest.mark.parametrize("field,max_d", [
    (FiniteField(2), 6),
    (FiniteField(3), 4), (FiniteField(2, 2), 4), (FiniteField(5), 4),
    (FiniteField(7), 3), (FiniteField(2, 3), 3), (FiniteField(3, 2), 3),
])
def test_nilpotent_gap_rule_matches_floor0_brute_force(field, max_d):
    # the nilpotent C-orbit verdict is the pooled gap of the zero blocks,
    # checked against the definition with exponents from 0 over GF(q)
    for d in range(1, max_d + 1):
        for sizes in nilpotent_partitions(d):
            prof = SpectralProfile.from_blocks(QQ, [(0, list(sizes))])
            expect = decide_c_orbit_reflexive(prof, attach_witness=False).answer
            assert _floor0_reflexive(field, sizes) is expect, (field.q, sizes)


# -- algebraic verdicts over finite fields -------------------------------------

def test_algebraic_gf4_extension_field():
    g4 = FiniteField(2, 2)
    M = Matrix.from_values(g4, [[1, 1], [0, 1]])
    v = decide_algebraic_f_orbit_reflexive(M)
    assert v.answer is True
    assert "split" in v.certificate


def test_algebraic_gf3_delegated_then_false():
    g3 = FiniteField(3)
    M = Matrix.from_values(g3, [[1, 1], [0, 1]])
    v = decide_algebraic_f_orbit_reflexive(M)
    assert v.answer is None
    v2 = upgrade_algebraic_verdict(v, M)
    assert v2.answer is False
    assert v2.certificate["enumeration"]["equal"] is False
    assert v2.certificate["difference_sample"]


def test_algebraic_zero_matrix_gf2_delegated_then_true():
    g2 = FiniteField(2)
    M = Matrix.zeros(g2, 2)
    v = decide_algebraic_f_orbit_reflexive(M)
    assert v.answer is None
    v2 = upgrade_algebraic_verdict(v, M)
    assert v2.answer is True


def test_algebraic_nonsplit_extension_field_delegated():
    # x^2 + x + 1 is irreducible over GF(2) but splits over GF(4); over GF(2)
    # the companion matrix has non-split minimal polynomial, and over GF(4)
    # with k >= 2 the criterion applies directly.  Build the GF(4) matrix
    # whose char poly is irreducible over GF(4): t^2 + t + x.
    g4 = FiniteField(2, 2)
    M = Matrix.from_values(g4, [[0, "x"], [1, 1]])
    v = decide_algebraic_f_orbit_reflexive(M)
    assert v.answer is None
    assert v.certificate["reason"] == "minimal polynomial does not split over the field"
    v2 = upgrade_algebraic_verdict(v, M)
    assert v2.answer in (True, False)  # settled exactly either way
