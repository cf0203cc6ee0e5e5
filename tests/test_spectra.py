"""Eigenvalue discovery and Jordan block profiles."""

import random
from fractions import Fraction

import pytest

from orbitref import (
    ComplexFloats,
    FiniteField,
    Matrix,
    Nilpotent,
    NotSplit,
    Polynomial,
    QI,
    QQ,
    Scalar,
    SpectralProfile,
    block_profile,
    conjugate,
    eigenvalues,
    rank,
)
from orbitref.linalg import to_ndarray
from orbitref.spectra import radius_selection


def _profile_dict(profile):
    return {str(e.eigenvalue): list(e.block_sizes) for e in profile.entries}


# -- eigenvalues ---------------------------------------------------------------

def test_eigenvalues_gf2_shear():
    g2 = FiniteField(2)
    M = Matrix.from_values(g2, [[1, 1], [0, 1]])
    eig = eigenvalues(M)
    assert eig.split
    assert [(str(r), m) for r, m in eig.roots] == [("1", 2)]


def test_eigenvalues_companion_not_split_over_q():
    C = Matrix.companion(Polynomial.from_ints(QQ, [1, 0, 1]))
    eig = eigenvalues(C)
    assert not eig.split
    assert str(eig.residual) == "t^2+1"


def test_eigenvalues_companion_splits_over_qi():
    C = Matrix.companion(Polynomial.from_ints(QI, [1, 0, 1]))
    eig = eigenvalues(C)
    assert eig.split
    roots = sorted((str(r), m) for r, m in eig.roots)
    assert roots == [("-i", 1), ("i", 1)]


def test_eigenvalues_rational_roots():
    M = Matrix.from_values(QQ, [["1/2", 0], [1, "-3"]])
    eig = eigenvalues(M)
    assert eig.split
    assert sorted((str(r), m) for r, m in eig.roots) == [("-3", 1), ("1/2", 1)]


def test_eigenvalues_gaussian_divisor_search():
    M = Matrix.from_values(QI, [["3/5+4/5i", 0], [0, "3/5+4/5i"]])
    eig = eigenvalues(M)
    assert eig.split
    assert [(str(r), m) for r, m in eig.roots] == [("3/5+4/5i", 2)]


# -- block profiles --------------------------------------------------------------

def test_profile_nilpotent_rank_sequence():
    M = Matrix.block_diag([Matrix.jordan_block(QQ, 0, 3),
                           Matrix.jordan_block(QQ, 0, 1)])
    prof = block_profile(M)
    assert prof.nilpotent and prof.split
    assert _profile_dict(prof) == {"0": [3, 1]}
    assert prof.spectral_radius_sq is None


def test_profile_diagonal():
    M = Matrix.from_values(QQ, [[2, 0, 0], [0, 2, 0], [0, 0, 5]])
    prof = block_profile(M)
    assert _profile_dict(prof) == {"2": [1, 1], "5": [1]}
    assert prof.spectral_radius_sq == Fraction(25)


def test_profile_unimodular_pair():
    M = Matrix.block_diag([Matrix.jordan_block(QQ, 1, 3),
                           Matrix.jordan_block(QQ, 1, 1)])
    prof = block_profile(M)
    assert _profile_dict(prof) == {"1": [3, 1]}
    assert prof.spectral_radius_sq == Fraction(1)
    assert not prof.nilpotent


def test_profile_not_split_raises():
    C = Matrix.companion(Polynomial.from_ints(QQ, [1, 0, 1]))
    with pytest.raises(NotSplit) as exc:
        block_profile(C)
    assert str(exc.value.residual) == "t^2+1"


def test_profile_similarity_invariant():
    rng = random.Random(5)
    palette = ["0", "1", "-1", "2", "i"]
    for _ in range(30):
        blocks = []
        dim = 0
        while dim < 4:
            lam = palette[rng.randrange(len(palette))]
            size = rng.randint(1, 3)
            blocks.append(Matrix.jordan_block(QI, lam, size))
            dim += size
        J = Matrix.block_diag(blocks)
        n = J.n
        while True:
            P = Matrix(QI, [[Scalar(QI, (Fraction(rng.randint(-2, 2)), Fraction(0)))
                             for _ in range(n)] for _ in range(n)])
            if rank(P) == n:
                break
        assert _profile_dict(block_profile(conjugate(J, P))) == _profile_dict(block_profile(J))


# -- spectral radius -------------------------------------------------------------

def test_radius_entries_simple():
    prof = SpectralProfile.from_blocks(QI, [(1, [2]), (0, [3])])
    sel, fragile = radius_selection(prof)
    assert [str(e.eigenvalue) for e in sel] == ["1"]
    assert not fragile


def test_radius_entries_sign_tie():
    prof = SpectralProfile.from_blocks(QI, [(2, [1]), (-2, [3])])
    sel, _ = radius_selection(prof)
    assert sorted(str(e.eigenvalue) for e in sel) == ["-2", "2"]


def test_radius_entries_exact_norm_tie():
    prof = SpectralProfile.from_blocks(QI, [(1, [2]), ("3/5+4/5i", [3])])
    sel, _ = radius_selection(prof)
    assert sorted(str(e.eigenvalue) for e in sel) == ["1", "3/5+4/5i"]
    assert all(e.modulus_sq == Fraction(1) for e in sel)


def test_radius_entries_nilpotent_raises():
    prof = SpectralProfile.from_blocks(QQ, [(0, [2, 1])])
    with pytest.raises(Nilpotent):
        radius_selection(prof)


# -- numeric path ----------------------------------------------------------------

def test_float_profile_matches_exact_on_assembly():
    c = ComplexFloats()
    J = Matrix.block_diag([Matrix.jordan_block(QI, 1, 3),
                           Matrix.jordan_block(QI, "i", 2),
                           Matrix.jordan_block(QI, 0, 1)])
    arr = to_ndarray(J)
    Mf = Matrix(c, [[Scalar(c, complex(arr[i, j])) for j in range(J.n)]
                    for i in range(J.n)])
    prof = block_profile(Mf)
    assert prof.split and not prof.fragile
    sizes = sorted(tuple(e.block_sizes) for e in prof.entries)
    assert sizes == [(1,), (2,), (3,)]
    assert prof.nilpotent is False


def test_float_profile_modulus_tie_fragile():
    c = ComplexFloats()
    Mf = Matrix(c, [[Scalar(c, complex(1.0)), Scalar(c, complex(0.0))],
                    [Scalar(c, complex(0.0)), Scalar(c, complex(0.0, 1.0 + 5e-9))]])
    prof = block_profile(Mf)
    # moduli differ by 5e-9: beyond tol, inside the 10x band
    assert prof.fragile
    sel, fragile = radius_selection(prof)
    assert len(sel) == 1 and fragile


def test_float_nilpotent_detection():
    c = ComplexFloats()
    J = Matrix.jordan_block(QQ, 0, 3)
    arr = to_ndarray(J)
    Mf = Matrix(c, [[Scalar(c, complex(arr[i, j])) for j in range(3)]
                    for i in range(3)])
    prof = block_profile(Mf)
    assert prof.nilpotent
    assert _profile_dict(prof) == {str(prof.entries[0].eigenvalue): [3]}


def test_profile_from_blocks_dim_and_sorting():
    prof = SpectralProfile.from_blocks(QI, [(1, [1, 3]), (0, [4])])
    assert prof.dim == 8
    assert prof.entries[0].block_sizes == (3, 1)
    assert [str(e.eigenvalue) for e in prof.entries] == ["1", "0"]
