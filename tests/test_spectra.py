"""Eigenvalue discovery and Jordan block profiles."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbitref import (
    ComplexFloats,
    FiniteField,
    Matrix,
    NotSplit,
    QI,
    QQ,
    Scalar,
    SpectralProfile,
    block_profile,
    char_poly,
    eigenvalues,
)
from orbitref._gaussint import simple_roots_mod_p
from orbitref.linalg import to_ndarray
from orbitref.spectra import radius_selection


def _profile_dict(profile):
    return {str(e.eigenvalue): list(e.block_sizes) for e in profile.entries}


def _companion(field, coeffs):
    """Companion matrix of the monic polynomial with these lower
    coefficients, constant term first: ones on the subdiagonal and the
    negated coefficients in the last column."""
    d = len(coeffs)
    return Matrix.from_values(field, [[int(j == i - 1) for j in range(d - 1)] + [-c]
                                      for i, c in enumerate(coeffs)])


def _shears(rng, field, n, count, entry):
    """A product P of `count` shears I + c E_ij (i != j), c = entry(rng), and
    P^-1, the product of the I - c E_ij in reverse order."""
    P = Pinv = Matrix.identity(field, n)
    for _ in range(count):
        i, j = rng.sample(range(n), 2)
        rows = [list(r) for r in Matrix.identity(field, n).rows]
        rows[i][j] = c = entry(rng)
        P = P @ Matrix(field, rows)
        rows[i][j] = -c
        Pinv = Matrix(field, rows) @ Pinv
    return P, Pinv


# -- eigenvalues ---------------------------------------------------------------

def test_eigenvalues_gf2_shear():
    g2 = FiniteField(2)
    M = Matrix.from_values(g2, [[1, 1], [0, 1]])
    eig = eigenvalues(M)
    assert eig.split
    assert [(str(r), m) for r, m in eig.roots] == [("1", 2)]


def test_eigenvalues_companion_not_split_over_q():
    C = _companion(QQ, [1, 0])
    eig = eigenvalues(C)
    assert not eig.split
    assert str(eig.residual) == "t^2+1"


def test_eigenvalues_companion_splits_over_qi():
    C = _companion(QI, [1, 0])
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


def _poly_mul(a, b):
    """Product of two coefficient lists, constant term first."""
    out = [a[0].field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _poly_at(coeffs, x):
    acc = x.field.zero()
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


M61, M89 = 2 ** 61 - 1, 2 ** 89 - 1
SIEVE_ROOTS = {
    # one root per denominator 2, 3, 2310 and 1009*1013, a double one and 0
    "q": [("1/2", 2), ("-2/3", 1), ("5/2310", 1), ("-3/1022117", 1), ("0", 1)],
    "qi": [("1/2+1/2i", 2), ("-2/3i", 1), ("1/770+1/2310i", 1),
           ("2-5/1022117i", 1), ("0", 1)],
    # denominators (2^61 - 1)^2 (2^89 - 1), above the Miller-Rabin bound,
    # and 2^3 3 (2^61 - 1) and 1009 1013^2 (2^61 - 1)
    "q-large": [(f"1/{M61 ** 2 * M89}", 1), (f"-5/{24 * M61}", 2),
                (f"7/{1009 * 1013 ** 2 * M61}", 1)],
    "qi-large": [(f"1/{M61 ** 2 * M89}-{M89}i", 1), (f"-5/{24 * M61}i", 2),
                 (f"3+7/{1009 * 1013 ** 2 * M61}i", 1)],
    # 0 and 3 7 11 19 coincide modulo 3, 7, 11 and 19: the sieve prime is 23
    "q-collide": [("0", 1), ("4389", 2)],
    "qi-collide": [("4389+4389i", 1), ("0", 2)],
}
# the order of `eigenvalues`: ascending over Q, by modulus, real and
# imaginary part over Q(i)
SIEVE_ORDER = {
    "q": ["-2/3", "-3/1022117", "0", "1/462", "1/2"],
    "qi": ["0", "1/770+1/2310i", "-2/3i", "1/2+1/2i", "2-5/1022117i"],
    "q-large": [f"-5/{24 * M61}", f"1/{M61 ** 2 * M89}",
                f"7/{1009 * 1013 ** 2 * M61}"],
    "qi-large": [f"-5/{24 * M61}i", f"3+7/{1009 * 1013 ** 2 * M61}i",
                 f"1/{M61 ** 2 * M89}-{M89}i"],
    "q-collide": ["0", "4389"],
    "qi-collide": ["0", "4389+4389i"],
}


@pytest.mark.parametrize("residual", [False, True], ids=["split", "residual"])
@pytest.mark.parametrize("field,case", [
    pytest.param(QI if case.startswith("qi") else QQ, case, id=case)
    for case in SIEVE_ROOTS])
def test_sieve_finds_roots_of_known_products(field, case, residual):
    # the companion of prod (t - lam)^m, times t^2 + 1/3 (irreducible over
    # Q and Q(i)) when residual is set
    roots = SIEVE_ROOTS[case]
    poly = [field.one()]
    for lam, mult in roots:
        for _ in range(mult):
            poly = _poly_mul(poly, [-field.parse(lam), field.one()])
    if residual:
        poly = _poly_mul(poly, [field.parse("1/3"), field.zero(), field.one()])
    eig = eigenvalues(_companion(field, poly[:-1]))
    assert {str(r): m for r, m in eig.roots} == {str(field.parse(lam)): m
                                                  for lam, m in roots}
    assert [str(r) for r, _ in eig.roots] == SIEVE_ORDER[case]
    assert eig.split is not residual
    assert str(eig.residual) == ("t^2+1/3" if residual else "None")


@pytest.mark.parametrize("field,rows", [
    (FiniteField(3), [[1, 1], [0, 1]]), (FiniteField(2, 2), [["x", "1"], ["0", "x"]]),
    (QQ, [["1/2", "1"], ["0", "1/2"]])], ids=["gf3", "gf4", "q"])
def test_eigenvalues_kept_on_the_matrix(field, rows):
    M = Matrix.from_values(field, rows)
    assert eigenvalues(M) is eigenvalues(M)
    # an equal matrix built anew is sieved anew, to the same roots
    assert eigenvalues(Matrix.from_values(field, rows)) == eigenvalues(M)


def test_sieve_prime_skips_colliding_roots():
    # t (t - 4389): 0 and 3 7 11 19 coincide modulo each of those primes
    assert simple_roots_mod_p([(1, 0), (-4389, 0), (0, 0)]) == (
        23, [(0, 0), (19, 0)])
    # t^2 + 1 has the simple roots +-i modulo 3
    assert simple_roots_mod_p([(1, 0), (0, 0), (1, 0)]) == (3, [(0, 1), (0, 2)])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_eigenvalues_gf_match_char_poly_evaluation(q):
    # the roots are the elements where char_poly vanishes, and char_poly is
    # prod (t - x)^m times a residual without roots in the field
    p, k = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1),
            8: (2, 3), 9: (3, 2)}[q]
    field = FiniteField(p, k)
    els = field.elements()
    rng = random.Random(q)
    for d in range(1, 5):
        for trial in range(8):
            rows = [[els[rng.randrange(q)] if trial % 2 or j >= i else els[0]
                     for j in range(d)] for i in range(d)]
            M = Matrix(field, rows)
            cp = char_poly(M).coeffs
            eig = eigenvalues(M)
            assert [r for r, _ in eig.roots] == [
                x for x in els if _poly_at(cp, x).is_zero]
            rest = [field.one()] if eig.split else list(eig.residual.coeffs)
            assert not any(_poly_at(rest, x).is_zero for x in els)
            product = rest
            for r, mult in eig.roots:
                for _ in range(mult):
                    product = _poly_mul(product, [-r, field.one()])
            assert tuple(product) == cp



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
    C = _companion(QQ, [1, 0])
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
        P, Pinv = _shears(rng, QI, J.n, 2 * J.n,
                          lambda rng: QI.from_int(rng.choice([-2, -1, 1, 2])))
        assert _profile_dict(block_profile(P @ J @ Pinv)) == _profile_dict(block_profile(J))


def _to_sympy(sympy, s):
    re_part, im_part = (s.value, Fraction(0)) if s.field == QQ else s.value
    return (sympy.Rational(re_part.numerator, re_part.denominator)
            + sympy.I * sympy.Rational(im_part.numerator, im_part.denominator))


def _sympy_jordan_sizes(sympy, M):
    """{eigenvalue: descending block sizes} read off sympy's jordan_form,
    whose blocks carry their ones on the superdiagonal."""
    J = sympy.Matrix([[_to_sympy(sympy, s) for s in r]
                      for r in M.rows]).jordan_form(calc_transform=False)
    sizes = {}
    i = 0
    while i < J.rows:
        j = i + 1
        while j < J.rows and J[j - 1, j] == 1:
            j += 1
        sizes.setdefault(sympy.expand(J[i, i]), []).append(j - i)
        i = j
    return {lam: sorted(v, reverse=True) for lam, v in sizes.items()}


def _fractional_shear(rng, field, n):
    """P and P^-1 for P a product of 4 shears with fractional entries."""
    def entry(rng):
        re_part = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([2, 3, 5]))
        im_part = (Fraction(rng.choice([-1, 1]), rng.choice([2, 3]))
                   if field == QI else Fraction(0))
        return Scalar(field, re_part if field == QQ else (re_part, im_part))
    return _shears(rng, field, n, 4, entry)


@pytest.mark.parametrize("field", [QQ, QI], ids=["q", "qi"])
def test_profile_matches_sympy_jordan_form(field):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(23)
    palette = ["1/2", "-2/3", "5/6", "1/3"]
    if field == QI:
        palette += ["1/2+1/3i", "-1/6i", "5/6-1/2i"]
    for _ in range(6):
        d = rng.randint(2, 5)
        blocks, dim = [], 0
        while dim < d:
            size = rng.randint(1, d - dim)
            blocks.append(Matrix.jordan_block(field, rng.choice(palette), size))
            dim += size
        P, Pinv = _fractional_shear(rng, field, d)
        M = P @ Matrix.block_diag(blocks) @ Pinv
        ours = {sympy.expand(_to_sympy(sympy, e.eigenvalue)): list(e.block_sizes)
                for e in block_profile(M).entries}
        assert ours == _sympy_jordan_sizes(sympy, M)


# monic quadratics over Q, constant term first, without a root in Q(i)
IRREDUCIBLE_QUADRATICS = [("1/3", "0", "1"), ("-2", "0", "1"), ("1", "1", "1"),
                          ("1", "-3", "1")]
_SMALL_FRACTIONS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@pytest.mark.parametrize("field", [QQ, QI], ids=["q", "qi"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_eigenvalues_match_sympy_roots(field, data):
    # prod (t - lam)^m over (Gaussian) rationals lam, optionally times a
    # quadratic irreducible over Q(i): `eigenvalues` of its companion finds
    # exactly the roots that sympy finds in Q or Q(i)
    sympy = pytest.importorskip("sympy")
    imag = _SMALL_FRACTIONS if field == QI else st.just(Fraction(0))
    factors = data.draw(st.lists(st.tuples(_SMALL_FRACTIONS, imag,
                                           st.integers(1, 3)),
                                 min_size=1, max_size=3))
    quadratic = data.draw(st.sampled_from([None] + IRREDUCIBLE_QUADRATICS))
    t = sympy.Symbol("t")
    poly, expr = [field.one()], sympy.Integer(1)
    for re_part, im_part, mult in factors:
        lam = Scalar(field, re_part if field == QQ else (re_part, im_part))
        for _ in range(mult):
            poly = _poly_mul(poly, [-lam, field.one()])
        expr *= (t - _to_sympy(sympy, lam)) ** mult
    if quadratic:
        poly = _poly_mul(poly, [field.parse(c) for c in quadratic])
        expr *= sum(sympy.Rational(c) * t ** k for k, c in enumerate(quadratic))
    eig = eigenvalues(_companion(field, poly[:-1]))
    want = {sympy.expand(r): m
            for r, m in sympy.roots(sympy.Poly(expr, t)).items()
            if sympy.re(r).is_rational and sympy.im(r).is_rational
            and (field == QI or sympy.im(r) == 0)}
    assert {sympy.expand(_to_sympy(sympy, r)): m for r, m in eig.roots} == want
    assert eig.split is (quadratic is None)


@pytest.mark.parametrize("field,blocks", [
    (QQ, [("3", 2), ("3", 1), ("-5", 1)]),
    (QI, [("3", 2), ("3", 1), ("2+i", 1)]),
    (QI, [("3", 2), ("3", 1), ("2+i", 2), ("-1+2i", 1), ("1/2", 1)]),
], ids=["q", "qi", "qi-d7"])
def test_profile_rescaling_divides_eigenvalues(field, blocks):
    # clearing scales M by the lcm c of its denominators, and each
    # eigenvalue g/h by h c; dividing M by large coprime factors must move
    # every eigenvalue to lam/c and keep every block size
    J = Matrix.block_diag([Matrix.jordan_block(field, lam, size)
                           for lam, size in blocks])
    P, Pinv = _fractional_shear(random.Random(29), field, J.n)
    M = P @ J @ Pinv
    want = block_profile(M)
    for c in (2 * 3 * 5 * 7 * 11, 1009 * 1013, 2 ** 10 * 10007):
        inv_c = Scalar(field, Fraction(1, c) if field == QQ
                       else (Fraction(1, c), Fraction(0)))
        got = block_profile(M.scale(inv_c))
        assert _profile_dict(got) == {str(e.eigenvalue * inv_c): list(e.block_sizes)
                                      for e in want.entries}


def _reference_rank(M):
    """Rank by Gaussian elimination with field division on the scalars."""
    rows = [list(r) for r in M.rows]
    rank = 0
    for col in range(M.n):
        piv = next((i for i in range(rank, M.n) if not rows[i][col].is_zero), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, M.n):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _reference_sizes(M, lam):
    """Block sizes at lam from the rank of every full power of M - lam I,
    taken until the rank stops falling."""
    A = M - Matrix.identity(M.field, M.n).scale(lam)
    counts, prev, power = [], M.n, A
    while (r := _reference_rank(power)) < prev:
        counts.append(prev - r)
        prev, power = r, power @ A
    counts.append(0)
    return tuple(sorted((k for k in range(1, len(counts))
                         for _ in range(counts[k - 1] - counts[k])), reverse=True))


# Jordan assemblies as (eigenvalue slot, block sizes): multiplicity 1, one
# chain, [k,k], [k+1,k], [k+2,k], [k,k,k], nilpotent blocks at slot 0 (the
# eigenvalue 0) and distinct simple eigenvalues
WEYR_ASSEMBLIES = [
    [(0, [3, 1]), (1, [1])],
    [(1, [2, 2]), (0, [1]), (2, [3])],
    [(1, [3, 2]), (2, [1])],
    [(1, [4, 2]), (0, [2])],
    [(1, [2, 2, 2])],
    [(0, [2, 1, 1]), (1, [4])],
    [(0, [5])],
    [(1, [1]), (2, [1]), (3, [1]), (0, [1])],
]
WEYR_SLOTS = {QQ: ["0", "1", "-2", "1/2"], QI: ["0", "i", "1-i", "-1/2"]}


@pytest.mark.parametrize("field", [QQ, QI] + [
    FiniteField(p, k) for p, k in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))
], ids=lambda f: f.name)
def test_weyr_sizes_match_full_power_reference(field):
    from orbitref.spectra import _sizes_from_rank_sequence

    rng = random.Random(f"weyr:{field.name}")
    slots = (WEYR_SLOTS[field] if field in WEYR_SLOTS
             else [str(x) for x in field.elements()])
    for assembly in WEYR_ASSEMBLIES:
        mult: dict = {}
        blocks = []
        for slot, sizes in assembly:
            lam = field.parse(slots[slot % len(slots)])
            mult[lam] = mult.get(lam, 0) + sum(sizes)
            blocks += [Matrix.jordan_block(field, lam, size) for size in sizes]
        J = Matrix.block_diag(blocks)
        P, Pinv = _shears(rng, field, J.n, 2 * J.n,
                          lambda rng: field.from_int(rng.choice([-2, -1, 1, 2, 3])))
        M = P @ J @ Pinv
        for lam, m in mult.items():
            assert _sizes_from_rank_sequence(M, lam, m) == _reference_sizes(M, lam), (
                field.name, assembly, str(lam))


@pytest.mark.parametrize("field", [QQ, QI, FiniteField(5)], ids=lambda f: f.name)
def test_weyr_elimination_counts(field, monkeypatch):
    # the counts force the sizes early: a lone chain takes one elimination,
    # a simple eigenvalue none
    from orbitref import linalg
    from orbitref.spectra import _sizes_from_rank_sequence

    calls = []
    kernel = linalg._bareiss

    def counted(*args):
        calls.append(1)
        return kernel(*args)
    monkeypatch.setattr(linalg, "_bareiss", counted)
    for m in (2, 3, 6):
        for lam in ("0", "2"):
            calls.clear()
            J = Matrix.jordan_block(field, field.parse(lam), m)
            assert _sizes_from_rank_sequence(J, field.parse(lam), m) == (m,)
            assert len(calls) == 1
    calls.clear()
    P = Matrix.from_values(field, [[1, 1, 0], [0, 1, 2], [1, 1, 1]])
    Pinv = Matrix.from_values(field, [[-1, -1, 2], [2, 1, -2], [-1, 0, 1]])
    D = P @ Matrix.from_values(field, [[1, 0, 0], [0, 2, 0], [0, 0, 3]]) @ Pinv
    for lam in ("1", "2", "3"):
        assert _sizes_from_rank_sequence(D, field.parse(lam), 1) == (1,)
    assert calls == []


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


def test_radius_entries_nilpotent_selects_zero_blocks():
    # spectral radius 0: the zero-eigenvalue entry is the whole selection
    prof = SpectralProfile.from_blocks(QQ, [(0, [2, 1])])
    sel, fragile = radius_selection(prof)
    assert [(str(e.eigenvalue), e.block_sizes) for e in sel] == [("0", (2, 1))]
    assert not fragile


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
