"""Witness construction and validation certificates."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from orbitref import (
    ComplexFloats,
    CriterionHolds,
    FiniteField,
    Matrix,
    MixedFields,
    NotPrime,
    QI,
    QQ,
    SpectralProfile,
    block_profile,
    build_c_orbit_witness,
    canonical_jordan,
    commutator_is_zero,
    decide_c_orbit_reflexive,
    embed_matrix,
    enumerate_orbref0,
    max_modulus_gap,
    orbref0_contains,
    validate_witness,
)
from orbitref.linalg import to_ndarray
from orbitref.witness import _residual_minima, _vector_batch
from test_deciders import nilpotent_partitions


def _witness_pattern(S, m):
    rows = S.to_strings()
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            expected = "1" if (i == m - 1 and j in (0, 1)) else "0"
            if v != expected:
                return False
    return True


def _witness_of(T):
    """The witness of T's profile, for a T built as that profile's Jordan
    model, in whose coordinates the witness is."""
    prof = block_profile(T)
    assert canonical_jordan(prof)[0] == T
    return build_c_orbit_witness(prof)


def test_witness_unimodular_3_plus_1():
    T = Matrix.block_diag([Matrix.jordan_block(QQ, 1, 3),
                           Matrix.jordan_block(QQ, 1, 1)])
    S = _witness_of(T)
    assert _witness_pattern(S, 3)
    # S e0 = e2 and S e1 = e2, everything else dies
    e0 = [QQ.one(), QQ.zero(), QQ.zero(), QQ.zero()]
    e1 = [QQ.zero(), QQ.one(), QQ.zero(), QQ.zero()]
    assert [str(v) for v in S.apply(e0)] == ["0", "0", "1", "0"]
    assert [str(v) for v in S.apply(e1)] == ["0", "0", "1", "0"]


def test_witness_lone_block_d2():
    T = Matrix.jordan_block(QQ, 1, 2)
    S = _witness_of(T)
    assert S == Matrix.from_values(QQ, [[0, 0], [1, 1]])


def test_witness_scaled_block_with_nilpotent_tail():
    T = Matrix.block_diag([Matrix.jordan_block(QQ, 2, 3),
                           Matrix.jordan_block(QQ, 0, 2)])
    S = _witness_of(T)
    assert _witness_pattern(S, 3)


def test_witness_commutator_identity():
    # (T - lam) S e0 = 0 while S (T - lam) e0 = S e1 = e_{m-1} != 0
    T = Matrix.block_diag([Matrix.jordan_block(QQ, 1, 3),
                           Matrix.jordan_block(QQ, 1, 1)])
    S = _witness_of(T)
    lam = Matrix.identity(QQ, 4)
    A = T - lam
    e0 = [QQ.one(), QQ.zero(), QQ.zero(), QQ.zero()]
    assert all(v.is_zero for v in A.apply(S.apply(e0)))
    out = S.apply(A.apply(e0))
    assert [str(v) for v in out] == ["0", "0", "1", "0"]


def test_witness_requires_failed_criterion():
    T = Matrix.jordan_block(QQ, 1, 1)
    with pytest.raises(CriterionHolds):
        build_c_orbit_witness(block_profile(T))
    N = Matrix.block_diag([Matrix.jordan_block(QQ, 0, 2),
                           Matrix.jordan_block(QQ, 0, 1)])
    with pytest.raises(CriterionHolds):
        build_c_orbit_witness(block_profile(N))


def _is_multiple(y, z):
    """Is y = lam z for some lam?  Exact, on lists of Fractions."""
    if not any(y):
        return True
    i = next((i for i, c in enumerate(z) if c), None)
    return i is not None and all(yk == y[i] / z[i] * zk for yk, zk in zip(y, z))


def test_nilpotent_witness_membership_is_exact():
    # every nilpotent profile of d <= 6 that fails the gap: S x is an exact
    # scalar multiple of some T^n x, n < d, on basis vectors, vectors with
    # x_0 = 0 != x_1, and seeded rational vectors
    rng = random.Random(7)

    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

    failing = 0
    for d in range(1, 7):
        for sizes in nilpotent_partitions(d):
            prof = SpectralProfile.from_blocks(QQ, [(0, list(sizes))])
            if decide_c_orbit_reflexive(prof, attach_witness=False).answer:
                continue
            failing += 1
            T, _ = canonical_jordan(prof)
            S = build_c_orbit_witness(prof)
            Tq, Sq = ([[e.value for e in row] for row in M.rows] for M in (T, S))
            vectors = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
            vectors += [[Fraction(0), Fraction(k)] + [rational() for _ in range(d - 2)]
                        for k in (1, -2, 3)]
            vectors += [[rational() for _ in range(d)] for _ in range(30)]
            for x in vectors:
                y = [sum(a * b for a, b in zip(row, x)) for row in Sq]
                z = x
                for _ in range(d):
                    if _is_multiple(y, z):
                        break
                    z = [sum(a * b for a, b in zip(row, z)) for row in Tq]
                else:
                    pytest.fail(f"S x leaves the scaled orbit of x: {sizes}, {x}")
    assert failing == 12


@pytest.mark.parametrize("field,blocks,m", [
    # modulus ties at 2 over Q, the largest pooled block on either sign,
    # with tail blocks at 1 and 0 larger than m
    (QQ, [(2, [4, 1]), (-2, [2]), (1, [5]), (0, [6])], 4),
    (QQ, [(2, [1]), (-2, [3, 1]), (1, [4]), (0, [2])], 3),
    (QI, [(2, [2]), ("2i", [4, 2]), (1, [5])], 4),
    (QI, [(2, [3]), ("2i", [1])], 3),
    (ComplexFloats(), [(2, [1]), ("2i", [3]), (1, [4]), (0, [2])], 3),
], ids=["q-lead-plus", "q-lead-minus", "qi-lead-2i", "qi-lead-2", "c64"])
def test_witness_sits_on_the_leading_pooled_block(field, blocks, m):
    # what build_c_orbit_witness takes on trust: the Jordan model leads with
    # the largest pooled block, and S on it commutes with no such T
    prof = SpectralProfile.from_blocks(field, blocks)
    T, layout = canonical_jordan(prof)
    assert layout[0][1] == max_modulus_gap(prof).pooled_sizes[0] == m
    S = build_c_orbit_witness(prof)
    assert S.field == T.field and S.n == T.n
    nonzero = {(i, j): str(S[i, j]) for i in range(S.n) for j in range(S.n)
               if not S[i, j].is_zero}
    assert nonzero == {(m - 1, 0): str(field.one()), (m - 1, 1): str(field.one())}
    assert commutator_is_zero(S, T)[0] is False


def test_canonical_jordan_orders_dominant_block_first():
    prof = SpectralProfile.from_blocks(QI, [("1", [1, 3]), ("0", [2])])
    T, layout = canonical_jordan(prof)
    assert [(str(e), s) for e, s in layout] == [("1", 3), ("1", 1), ("0", 2)]
    S = build_c_orbit_witness(prof)
    assert _witness_pattern(S, 3)


def test_canonical_jordan_orders_c64_tail_by_float_modulus():
    # the tail's smaller modulus has the larger block, so the block size
    # alone would order the tail the other way
    prof = SpectralProfile.from_blocks(ComplexFloats(),
                                       [(3, [3]), (1, [2]), ("2i", [1])])
    _, layout = canonical_jordan(prof)
    assert [(e.value, s) for e, s in layout] == [(3, 3), (2j, 1), (1, 2)]


def build_prime_field_counterexample(p):
    """The 2x2 unipotent shear T and the operator S that is in OrbRef0(T)
    but not in the scaled power orbit, over GF(p); FiniteField raises
    NotPrime for a p that is no prime."""
    field = FiniteField(p)
    T = Matrix.from_values(field, [[1, 1], [0, 1]])
    S = Matrix.from_values(field, [[0, 1], [0, 1]])
    return T, S


def test_prime_field_pair_entries():
    for p in (2, 3, 5):
        T, S = build_prime_field_counterexample(p)
        assert T.to_strings() == [["1", "1"], ["0", "1"]]
        assert S.to_strings() == [["0", "1"], ["0", "1"]]
        assert T.field == FiniteField(p)
    with pytest.raises(NotPrime):
        build_prime_field_counterexample(6)


def test_prime_field_pair_certificates():
    # S sits in OrbRef0(T) (all p^2 vectors) but outside the scaled orbit
    for p in (2, 3, 5):
        T, S = build_prime_field_counterexample(p)
        ok, failing = orbref0_contains(T, S)
        assert ok and failing is None
        zero, _ = commutator_is_zero(S, T)
        assert not zero
        result = enumerate_orbref0(T)
        assert S in set(result.members)
        assert any(D == S for D in result.difference)


def test_validate_witness_closed_form_decay():
    # T = (1+J3) + (1+J1); for x = e0: T^n e0 = e0 + n e1 + C(n,2) e2, so the
    # orthogonal component of e2 against it has norm ~ sqrt(1+n^2)/C(n,2)
    T = Matrix.block_diag([Matrix.jordan_block(QQ, 1, 3),
                           Matrix.jordan_block(QQ, 1, 1)])
    S = _witness_of(T)
    report = validate_witness(S, T, samples=100, horizon=2000, seed=0)
    assert report.commutator_nonzero
    assert report.verdict_supported
    e0_row = next(r for r in report.membership_residuals if r["vector"] == "e0")
    r100 = e0_row["checkpoints"]["100"]
    r2000 = e0_row["checkpoints"]["2000"]
    predicted_100 = math.sqrt(1 + 100 ** 2) / math.comb(100, 2)
    predicted_2000 = math.sqrt(1 + 2000 ** 2) / math.comb(2000, 2)
    assert abs(r100 - predicted_100) < 0.2 * predicted_100
    assert abs(r2000 - predicted_2000) < 0.2 * predicted_2000
    assert r2000 < 1e-2
    assert 3.0 < r100 / r2000


def test_validate_witness_every_vector_converges():
    T = Matrix.block_diag([Matrix.jordan_block(QQ, 2, 3),
                           Matrix.jordan_block(QQ, 0, 2)])
    S = _witness_of(T)
    report = validate_witness(S, T, samples=50, horizon=2000, seed=1)
    assert report.verdict_supported
    for row in report.membership_residuals:
        assert row["checkpoints"]["2000"] < 1e-2
        # running minima read at increasing checkpoints never increase
        values = list(row["checkpoints"].values())
        assert values == sorted(values, reverse=True)


def _reference_residuals(Tf, sx, x, checkpoints):
    """The per-vector loop the batched kernel replaced, kept as its
    reference: running minimum of dist(Sx, C * T^n x) at each checkpoint."""
    horizon = max(checkpoints)
    norm_sx = float(np.linalg.norm(sx))
    out = {}
    best = float("inf")
    y = x.astype(complex)
    for n in range(horizon + 1):
        ny = float(np.linalg.norm(y))
        if ny == 0.0:
            res = norm_sx
        else:
            proj = abs(np.vdot(y / ny, sx))
            res = float(np.sqrt(max(norm_sx * norm_sx - proj * proj, 0.0)))
        best = min(best, res)
        if n in checkpoints:
            out[n] = best
        if n < horizon:
            y = Tf @ y
            ny = float(np.linalg.norm(y))
            if ny > 0.0:
                y = y / ny
    return out


def test_residual_kernel_matches_per_vector_loop():
    T = Matrix.block_diag([Matrix.jordan_block(QQ, 1, 3),
                           Matrix.jordan_block(QQ, 1, 1)])
    S = _witness_of(T)
    Tf, Sf = to_ndarray(T), to_ndarray(S)
    checkpoints = (100, 500, 2000)
    _, X = _vector_batch(T.n, 100, 0)
    minima = _residual_minima(Tf, Sf @ X, X, checkpoints)
    assert minima.shape == (len(checkpoints), 104)
    for j in range(X.shape[1]):
        ref = _reference_residuals(Tf, Sf @ X[:, j], X[:, j], checkpoints)
        for i, n in enumerate(checkpoints):
            assert abs(minima[i, j] - ref[n]) < 1e-11


def test_validate_widens_the_witness_to_the_operator_field():
    T = Matrix.block_diag([Matrix.jordan_block(QI, "i", 3),
                           Matrix.jordan_block(QI, 0, 1)])
    S = Matrix.from_values(QQ, [[0] * 4, [0] * 4, [1, 1, 0, 0], [0] * 4])
    widened = validate_witness(S, T, samples=5, horizon=40, seed=2)
    embedded = validate_witness(embed_matrix(S, QI), T, samples=5, horizon=40, seed=2)
    assert widened.witness.field == QI
    assert widened.as_dict() == embedded.as_dict()
    # GF(q) widens to no field, and Q(i) not to Q
    with pytest.raises(MixedFields):
        validate_witness(Matrix.from_values(FiniteField(5), S.to_strings()), T)
    with pytest.raises(MixedFields):
        validate_witness(embed_matrix(S, QI), Matrix.jordan_block(QQ, 1, 4))


def test_validate_rejects_shape_mismatch():
    from orbitref import ShapeMismatch

    T = Matrix.jordan_block(QQ, 1, 3)
    S = Matrix.zeros(QQ, 2)
    with pytest.raises(ShapeMismatch):
        validate_witness(S, T)
