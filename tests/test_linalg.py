"""Exact matrix arithmetic: ranks, powers, characteristic polynomials,
commutators."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbitref import (
    ComplexFloats,
    FiniteField,
    Matrix,
    NumericKindUnsupported,
    QI,
    QQ,
    Scalar,
    char_poly,
    commutator_is_zero,
    matpow,
    rank,
)
from orbitref._poly import split_roots
from orbitref.errors import OrbitrefError
from orbitref.linalg import (
    ZI,
    ZZ,
    _bareiss,
    _berkowitz,
    _finite_ring,
    _gint_divx,
    _int_divx,
)


def _rand_scalar_qi(rng, span=4):
    return Scalar(QI, (Fraction(rng.randint(-span, span)),
                       Fraction(rng.randint(-span, span))))


def _rand_matrix_qi(rng, n, span=4):
    return Matrix(QI, [[_rand_scalar_qi(rng, span) for _ in range(n)]
                       for _ in range(n)])


def _rand_invertible(rng, field, n, draw):
    """P = E D and P^-1 = D^-1 E^-1 for D diagonal and E a product of 2n
    shears I + c E_ij (i != j), each undone by I - c E_ij; draw(rng) gives
    every diagonal entry and every c, all nonzero."""
    diag = [draw(rng) for _ in range(n)]
    P = Matrix.block_diag(Matrix(field, [[x]]) for x in diag)
    Pinv = Matrix.block_diag(Matrix(field, [[field.one() / x]]) for x in diag)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        shear = [list(r) for r in Matrix.identity(field, n).rows]
        shear[i][j] = c = draw(rng)
        P = Matrix(field, shear) @ P
        shear[i][j] = -c
        Pinv = Pinv @ Matrix(field, shear)
    return P, Pinv


def _rand_invertible_qi(rng, n):
    return _rand_invertible(rng, QI, n, lambda rng: Scalar(QI, (
        Fraction(rng.choice([-2, -1, 1, 2])), Fraction(rng.randint(-2, 2)))))


# -- rank -------------------------------------------------------------------

@pytest.mark.parametrize("field,texts", [
    (QQ, ["0", "1", "1/2", "-3", "2/4"]),
    (QI, ["0", "i", "1/2-i", "3", "-i"]),
    (FiniteField(3, 2), ["0", "x", "x+1", "2", "2x"]),
    (ComplexFloats(1e-9), ["0", "1.25-0.5i", "i", "2", "-1e-3"]),
])
def test_from_values_parses_each_text_once(monkeypatch, field, texts):
    # a 4x4 matrix over at most five distinct texts, plus Scalar and int
    # entries that bypass parsing
    rng = random.Random(7)
    rows = [[rng.choice(texts) for _ in range(4)] for _ in range(4)]
    rows[0][0], rows[3][3] = field.one(), 2
    expected = Matrix(field, [[v if isinstance(v, Scalar) else
                               field.from_int(v) if isinstance(v, int) else
                               field.parse(v) for v in r] for r in rows])
    calls = Counter()
    parse = type(field).parse

    def counting(self, text):
        calls[text] += 1
        return parse(self, text)

    monkeypatch.setattr(type(field), "parse", counting)
    assert Matrix.from_values(field, rows) == expected
    distinct = {v for r in rows for v in r if isinstance(v, str)}
    assert calls == Counter(dict.fromkeys(distinct, 1))


def test_rank_examples():
    assert rank(Matrix.zeros(QQ, 3)) == 0
    assert rank(Matrix.identity(QQ, 4)) == 4
    assert rank(Matrix.jordan_block(QQ, 0, 3)) == 2


def test_rank_numeric_matches_exact():
    rng = random.Random(3)
    c = ComplexFloats()
    for _ in range(20):
        M = _rand_matrix_qi(rng, 4)
        Mf = Matrix(c, [[Scalar(c, complex(float(s.value[0]), float(s.value[1])))
                         for s in row] for row in M.rows])
        assert rank(Mf) == rank(M)


def _assert_image_size_is_q_to_the_rank(field, d):
    # rank-nullity over GF(q): the image {Mx : x in GF(q)^d} of every
    # M in M_d(GF(q)) has exactly q^rank(M) elements
    els = field.elements()
    vectors = list(itertools.product(els, repeat=d))
    for entries in itertools.product(els, repeat=d * d):
        M = Matrix(field, [entries[i * d:(i + 1) * d] for i in range(d)])
        image = {M.apply(x) for x in vectors}
        assert len(image) == field.q ** rank(M), M


def test_rank_nullity_exhaustive_m2_gf2():
    _assert_image_size_is_q_to_the_rank(FiniteField(2), 2)


def test_rank_nullity_exhaustive_m2_gf3():
    _assert_image_size_is_q_to_the_rank(FiniteField(3), 2)


def test_rank_nullity_exhaustive_m3_gf2():
    _assert_image_size_is_q_to_the_rank(FiniteField(2), 3)


def test_rank_nullity_random_qi():
    # P diag(1, .., 1, 0, .., 0) Q with P, Q invertible has an r-dimensional
    # image and an (n - r)-dimensional kernel
    rng = random.Random(7)
    one, zero = QI.one(), QI.zero()
    for _ in range(25):
        r = rng.randint(0, 5)
        D = Matrix(QI, [[one if i == j < r else zero for j in range(5)]
                        for i in range(5)])
        M = _rand_invertible_qi(rng, 5)[0] @ D @ _rand_invertible_qi(rng, 5)[0]
        assert rank(M) == r


# -- powers -----------------------------------------------------------------

def test_exact_division_checks_survive_optimisation():
    # the kernels' exact divisions raise, not assert, so python -O keeps them
    assert _int_divx(-12, 4) == -3
    assert _gint_divx((0, 2), (1, 1)) == (1, 1)  # 2i = (1+i)^2
    for divx, a, b in ((_int_divx, 7, 2), (_gint_divx, (1, 0), (1, 1)),
                       (_gint_divx, (3, 1), (2, 0))):
        with pytest.raises(OrbitrefError, match="does not divide"):
            divx(a, b)


def test_matpow_examples():
    J2 = Matrix.jordan_block(QQ, 0, 2)
    assert matpow(J2, 2).is_zero
    I4 = Matrix.identity(QQ, 4)
    assert matpow(I4, 10 ** 6) == I4
    g5 = FiniteField(5)
    shear = Matrix.from_values(g5, [[1, 1], [0, 1]])
    assert matpow(shear, 5) == Matrix.identity(g5, 2)
    M = Matrix.from_values(QQ, [[1, 1], [0, 1]])
    assert matpow(M, 3) == Matrix.from_values(QQ, [[1, 3], [0, 1]])


def test_matpow_additive():
    rng = random.Random(11)
    M = _rand_matrix_qi(rng, 3, span=2)
    for a, b in [(0, 3), (2, 2), (1, 4)]:
        assert matpow(M, a + b) == matpow(M, a) @ matpow(M, b)


# -- characteristic polynomial ----------------------------------------------

def _poly_at(coeffs, M):
    """sum_i c_i M^i for coefficients from the constant term up."""
    acc = Matrix.zeros(M.field, M.n)
    for i, c in enumerate(coeffs):
        acc = acc + matpow(M, i).scale(c)
    return acc


def test_char_poly_examples():
    assert str(char_poly(Matrix.jordan_block(QQ, 0, 2))) == "t^2"
    assert str(char_poly(Matrix.from_values(QQ, [[1, 0], [0, 2]]))) == "t^2-3t+2"
    g2 = FiniteField(2)
    shear = Matrix.from_values(g2, [[1, 1], [0, 1]])
    # p = 2 <= d = 2: a char poly that divided by d would fail here
    assert str(char_poly(shear)) == "t^2+1"


def test_char_poly_small_characteristic_cayley_hamilton():
    # GF(3) with p <= d = 3, where dividing by d is impossible: the
    # result must still annihilate the matrix
    g3 = FiniteField(3)
    rng = random.Random(13)
    els = g3.elements()
    for _ in range(30):
        M = Matrix(g3, [[els[rng.randrange(3)] for _ in range(3)]
                        for _ in range(3)])
        poly = char_poly(M)
        assert poly.coeffs[-1] == g3.one() and len(poly.coeffs) == 4
        assert _poly_at(poly.coeffs, M).is_zero  # Cayley-Hamilton


def _rand_triangular(rng, field, d):
    els = field.elements()
    return Matrix(field, [[els[rng.randrange(field.q)] if j <= i else els[0]
                           for j in range(d)] for i in range(d)])


def test_char_poly_small_characteristic_triangular_conjugates():
    # p <= d throughout: det(tI - P T P^-1) = prod (t - T_ii) for triangular
    # T, so the root kernel finds each diagonal entry with its count and
    # leaves exactly 1
    rng = random.Random(29)
    for field in (FiniteField(2), FiniteField(3), FiniteField(2, 2)):
        for d in range(4, 8):
            for _ in range(4):
                T = _rand_triangular(rng, field, d)
                P, Pinv = _rand_invertible(rng, field, d, lambda rng: (
                    field.elements()[rng.randrange(1, field.q)]))
                poly = char_poly(P @ T @ Pinv)
                diagonal = Counter(T[i, i] for i in range(d))
                roots, rest = split_roots(poly.coeffs[::-1], list(diagonal),
                                          Scalar.__mul__, Scalar.__add__,
                                          lambda s: s.is_zero)
                assert dict(roots) == diagonal
                assert rest == [field.one()]


_small_fraction = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def _exact_matrices(draw):
    d = draw(st.integers(1, 6))
    gaussian = draw(st.booleans())
    entries = st.tuples(_small_fraction,
                        _small_fraction if gaussian else st.just(Fraction(0)))
    rows = draw(st.lists(st.lists(entries, min_size=d, max_size=d),
                         min_size=d, max_size=d))
    if gaussian:
        return Matrix(QI, [[Scalar(QI, v) for v in r] for r in rows])
    return Matrix(QQ, [[Scalar(QQ, v[0]) for v in r] for r in rows])


@settings(max_examples=60, deadline=None)
@given(_exact_matrices())
def test_char_poly_matches_sympy(M):
    sympy = pytest.importorskip("sympy")

    def to_sympy(s):
        if M.field == QQ:
            return sympy.Rational(s.value.numerator, s.value.denominator)
        re_part, im_part = s.value
        return (sympy.Rational(re_part.numerator, re_part.denominator)
                + sympy.I * sympy.Rational(im_part.numerator, im_part.denominator))

    ref = sympy.Matrix([[to_sympy(s) for s in r] for r in M.rows]).charpoly()
    ours = [to_sympy(c) for c in reversed(char_poly(M).coeffs)]
    assert len(ours) == M.n + 1
    assert all(sympy.expand(a - b) == 0 for a, b in zip(ours, ref.all_coeffs()))


def test_char_poly_pairwise_coprime_denominators():
    # every entry denominator is a distinct prime, so the clearing factor c
    # is their product and coefficient t^(n-k) carries c^k exactly
    sympy = pytest.importorskip("sympy")
    primes = iter([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61])
    q_rows = [[Fraction(k + 1, next(primes)) for k in range(3)] for _ in range(3)]
    qi_rows = [[(Fraction(-1, next(primes)), Fraction(2, next(primes)))
                for _ in range(2)] for _ in range(2)]
    for M in (Matrix(QQ, [[Scalar(QQ, v) for v in r] for r in q_rows]),
              Matrix(QI, [[Scalar(QI, v) for v in r] for r in qi_rows])):
        def to_sympy(s):
            re_part, im_part = (s.value, Fraction(0)) if M.field == QQ else s.value
            return (sympy.Rational(re_part.numerator, re_part.denominator)
                    + sympy.I * sympy.Rational(im_part.numerator, im_part.denominator))

        ref = sympy.Matrix([[to_sympy(s) for s in r] for r in M.rows]).charpoly()
        ours = [to_sympy(c) for c in reversed(char_poly(M).coeffs)]
        assert all(sympy.expand(a - b) == 0 for a, b in zip(ours, ref.all_coeffs()))
        assert len(ours) == len(ref.all_coeffs()) == M.n + 1


def test_char_poly_similarity_invariant():
    rng = random.Random(17)
    for n in (2, 3, 4, 5, 6):
        for _ in range(6):
            M = _rand_matrix_qi(rng, n, span=3)
            P, Pinv = _rand_invertible_qi(rng, n)
            assert char_poly(P @ M @ Pinv) == char_poly(M)


def test_cayley_hamilton_qi():
    rng = random.Random(19)
    for n in (2, 3, 4, 5, 6):
        M = _rand_matrix_qi(rng, n, span=3)
        assert _poly_at(char_poly(M).coeffs, M).is_zero


def test_companion_round_trip():
    # the companion matrix of t^2 + 1: ones on the subdiagonal, minus the
    # coefficients in the last column
    C = Matrix.from_values(QQ, [[0, -1], [1, 0]])
    assert str(char_poly(C)) == "t^2+1"


# -- commutators and exact-only routines ------------------------------------

def test_commutator_examples():
    T = Matrix.from_values(QQ, [[1, 0], [1, 1]])
    assert commutator_is_zero(T, T)[0]
    assert commutator_is_zero(Matrix.identity(QQ, 2), T)[0]
    S = Matrix.from_values(QQ, [[0, 0], [1, 1]])
    zero, C = commutator_is_zero(S, T)
    assert not zero and not C.is_zero


def test_conjugate_preserves_nilpotency():
    rng = random.Random(23)
    J = Matrix.block_diag([Matrix.jordan_block(QI, 0, 3),
                           Matrix.jordan_block(QI, 0, 2)])
    for _ in range(10):
        P, Pinv = _rand_invertible_qi(rng, 5)
        assert matpow(P @ J @ Pinv, 5).is_zero


def test_exact_only_routines_reject_complex():
    c = ComplexFloats()
    with pytest.raises(NumericKindUnsupported):
        char_poly(Matrix.identity(c, 2))


@given(st.integers(0, 12), st.integers(0, 12),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_matpow_additive_property(a, b, entries):
    M = Matrix.from_values(QQ, [entries[:2], entries[2:]])
    assert matpow(M, a + b) == matpow(M, a) @ matpow(M, b)


# -- zero-aware kernels ----------------------------------------------------------

def _eager_bareiss(rows, mul, sub, divx, is_zero):
    """The elimination `_bareiss` replaced, kept as its reference: every
    row left is updated at every step, divided by the previous pivot."""
    live = [(i, list(r)) for i, r in enumerate(rows)]
    pivots = []
    prev = None
    while live:
        for pos, (i, prow) in enumerate(live):
            j = next((j for j, x in enumerate(prow) if not is_zero(x)), None)
            if j is not None:
                break
        else:
            break
        del live[:pos + 1]
        pivots.append(i)
        piv = prow.pop(j)
        for t, (k, row) in enumerate(live):
            a = row.pop(j)
            if prev is None:
                row = [sub(mul(piv, x), mul(a, y)) for x, y in zip(row, prow)]
            else:
                row = [divx(sub(mul(piv, x), mul(a, y)), prev)
                       for x, y in zip(row, prow)]
            live[t] = (k, row)
        prev = piv
    return len(pivots), pivots


def _krylov_berkowitz(rows, dot, neg, one, is_zero=None):
    """Berkowitz's recursion with every Krylov product made, the reference
    for `_berkowitz`'s zero-border rule; is_zero is not read."""
    poly = [one]
    for k in range(len(rows)):
        col = [rows[i][k] for i in range(k)]
        toeplitz = [one, neg(rows[k][k])]
        for step in range(k):
            if step:
                col = [dot(rows[i], col) for i in range(k)]
            toeplitz.append(neg(dot(rows[k], col)))
        poly = [dot(poly, toeplitz[j::-1]) for j in range(k + 2)]
    return poly


_SMALL_GAUSSIANS = [(a, b) for a in range(-2, 3) for b in range(-2, 3) if a or b]

# ring, its zero, and a draw of a nonzero element
_KERNEL_RINGS = {
    "Z": (ZZ, 0, lambda rng: rng.choice([-3, -2, -1, 1, 2, 3])),
    "Z[i]": (ZI, (0, 0), lambda rng: rng.choice(_SMALL_GAUSSIANS)),
    "GF(5)": (_finite_ring(FiniteField(5)), 0, lambda rng: rng.randrange(1, 5)),
    "GF(7)": (_finite_ring(FiniteField(7)), 0, lambda rng: rng.randrange(1, 7)),
    "GF(9)": (_finite_ring(FiniteField(3, 2)), 0, lambda rng: rng.randrange(1, 9)),
}


def _sparse_rows(rng, name, m, n, density):
    ring, zero, draw = _KERNEL_RINGS[name]
    return [[draw(rng) if rng.random() < density else zero for _ in range(n)]
            for _ in range(m)]


def _bareiss_on(name, rows, kernel):
    ring = _KERNEL_RINGS[name][0]
    return kernel(rows, ring.mul, ring.sub, ring.divx, ring.is_zero)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["Z", "Z[i]", "GF(7)", "GF(9)"]), st.integers(1, 7),
       st.integers(1, 7), st.sampled_from([0.1, 0.2, 0.35, 0.5, 0.75, 1.0]),
       st.lists(st.sampled_from(["zero", "repeat", "combine"]), max_size=3),
       st.randoms(use_true_random=False))
def test_lazy_bareiss_matches_eager(name, m, n, density, extras, rng):
    ring, zero, draw = _KERNEL_RINGS[name]
    rows = _sparse_rows(rng, name, m, n, density)
    for extra in extras:  # zero, repeated and dependent rows
        if extra == "zero":
            row = [zero] * n
        elif extra == "repeat":
            row = list(rng.choice(rows))
        else:
            (a, r), (b, s) = ((draw(rng), rng.choice(rows)) for _ in range(2))
            row = [ring.add(ring.mul(a, x), ring.mul(b, y)) for x, y in zip(r, s)]
        rows.insert(rng.randrange(len(rows) + 1), row)
    assert (_bareiss_on(name, rows, _bareiss)
            == _bareiss_on(name, rows, _eager_bareiss))


@pytest.mark.parametrize("name", ["Z", "Z[i]", "GF(7)", "GF(9)"])
def test_lazy_bareiss_edge_shapes(name):
    rng = random.Random(41)
    zero = _KERNEL_RINGS[name][1]
    for m, n in ((1, 6), (6, 1), (1, 1)):
        for density in (0.3, 1.0):
            rows = _sparse_rows(rng, name, m, n, density)
            assert (_bareiss_on(name, rows, _bareiss)
                    == _bareiss_on(name, rows, _eager_bareiss))
    for m, n in ((1, 1), (1, 5), (5, 1), (4, 4)):
        assert _bareiss_on(name, [[zero] * n for _ in range(m)], _bareiss) == (0, [])


def _jordan_rows(rng, name, sizes):
    """A lower-chain Jordan assembly over the named ring."""
    ring, zero, draw = _KERNEL_RINGS[name]
    n = sum(sizes)
    rows = [[zero] * n for _ in range(n)]
    off = 0
    for m in sizes:
        lam = draw(rng) if rng.random() < 0.8 else zero
        for i in range(off, off + m):
            rows[i][i] = lam
            if i > off:
                rows[i][i - 1] = ring.one
        off += m
    return rows


def _block_triangular_rows(rng, name, sizes):
    """Dense diagonal blocks, sparse blocks above them and zeros below."""
    zero = _KERNEL_RINGS[name][1]
    n = sum(sizes)
    rows = _sparse_rows(rng, name, n, n, 0.4)
    starts = [sum(sizes[:b]) for b in range(len(sizes))]
    full = _sparse_rows(rng, name, n, n, 1.0)
    for start, m in zip(starts, sizes):
        for i in range(start, start + m):
            rows[i][:start] = [zero] * start
            rows[i][start:start + m] = full[i][start:start + m]
    return rows


@pytest.mark.parametrize("name", ["Z", "Z[i]", "GF(5)"])
def test_berkowitz_zero_border_matches_krylov(name):
    ring = _KERNEL_RINGS[name][0]
    rng = random.Random(43)
    cases = []
    for _ in range(12):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        for rows in (_jordan_rows(rng, name, sizes),
                     _block_triangular_rows(rng, name, sizes)):
            cases += [rows, [list(col) for col in zip(*rows)]]
        n = rng.randint(1, 8)
        cases += [_sparse_rows(rng, name, n, n, density)
                  for density in (0.1, 0.25, 0.5, 1.0)]
    for rows in cases:
        ops = (ring.dot, ring.neg, ring.one)
        assert (_berkowitz(rows, *ops, ring.is_zero)
                == _krylov_berkowitz(rows, *ops)), (name, rows)


def test_char_poly_matches_sympy_on_triangular_qi():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(47)

    def value(s):
        re_part, im_part = s.value
        return (sympy.Rational(re_part.numerator, re_part.denominator)
                + sympy.I * sympy.Rational(im_part.numerator, im_part.denominator))

    def entry():
        return Scalar(QI, tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                for _ in range(2)))

    for d in range(1, 9):
        for lower in (True, False):
            M = Matrix(QI, [[entry() if (j <= i if lower else j >= i) else QI.zero()
                             for j in range(d)] for i in range(d)])
            ref = sympy.Matrix([[value(s) for s in r] for r in M.rows]).charpoly()
            ours = [value(c) for c in reversed(char_poly(M).coeffs)]
            assert all(sympy.expand(a - b) == 0
                       for a, b in zip(ours, ref.all_coeffs(), strict=True))


def test_zero_aware_kernels_do_less_work(monkeypatch):
    # on J_12(2) - 2 I and its transpose, and on J_12(2) and its transpose,
    # the kernels make under half the products of their eager references,
    # so a silent return to dense work fails here
    from orbitref import linalg

    products = []

    def mul(x, y):
        products.append(1)
        return x * y

    def dot(row, col):
        pairs = list(zip(row, col))
        products.append(len(pairs))
        return sum(x * y for x, y in pairs)

    monkeypatch.setitem(linalg._RINGS, QQ.kind, ZZ._replace(mul=mul, dot=dot))

    def count(kernels, call):
        monkeypatch.setattr(linalg, "_bareiss", kernels[0])
        monkeypatch.setattr(linalg, "_berkowitz", kernels[1])
        products.clear()
        call()
        return sum(products)

    lazy, eager = (_bareiss, _berkowitz), (_eager_bareiss, _krylov_berkowitz)
    lam = QQ.from_int(2)
    for transpose in (False, True):
        def jordan():
            # a fresh matrix each call: its integer form is kept on it
            J = Matrix.jordan_block(QQ, lam, 12)
            return Matrix(QQ, zip(*J.rows)) if transpose else J

        for call in (lambda: next(linalg.power_ranks(jordan(), lam)),
                     lambda: char_poly(jordan())):
            assert count(lazy, call) < count(eager, call) / 2, transpose
