"""Scalar arithmetic over Q, Q(i), GF(p^k) and complex floats."""

import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from orbitref import (
    ComplexFloats,
    CounterexampleVector,
    DivisionByZero,
    FiniteField,
    Matrix,
    MixedFields,
    NotPrime,
    ParseError,
    QI,
    QQ,
    Scalar,
    SpectralProfile,
    WrongField,
)
from orbitref._gaussint import is_prime
from orbitref.fields import CONWAY_POLYNOMIALS, _is_irreducible_modp, to_digits


def test_rational_add():
    assert str(QQ.parse("1/2") + QQ.parse("1/3")) == "5/6"


def test_gaussian_norm_identity():
    prod = QI.parse("1+1i") * QI.parse("1-1i")
    assert str(prod) == "2"


def test_gf4_generator_square():
    g4 = FiniteField(2, 2)
    x = g4.parse("x")
    assert str(x * x) == "x+1"


def test_norm_sq_examples():
    # |a|^2 of an exact scalar is an exact Fraction, so modulus ties are
    # decided with no rounding
    assert QI.modulus_sq(QI.parse("3+4i").value) == 25
    assert QI.modulus_sq(QI.parse("1").value) == 1
    assert QI.modulus_sq(QI.parse("1/2+1/2i").value) == Fraction(1, 2)
    assert QQ.modulus_sq(QQ.parse("-2/3").value) == Fraction(4, 9)
    g5 = FiniteField(5)
    assert g5.modulus_sq(g5.parse("2").value) is None


def test_mixed_fields_rejected():
    with pytest.raises(MixedFields):
        QQ.parse("1") + QI.parse("1")
    g5, g7 = FiniteField(5), FiniteField(7)
    for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
        with pytest.raises(MixedFields):
            getattr(QQ.one(), op)(QI.one())
        with pytest.raises(MixedFields):
            getattr(g5.one(), op)(g7.one())


def test_division_by_zero():
    for field in (QQ, QI, FiniteField(5), FiniteField(2, 2), ComplexFloats()):
        with pytest.raises(DivisionByZero):
            field.one() / field.zero()
    with pytest.raises(DivisionByZero):
        1 / QQ.zero()


def test_unicode_minus_accepted():
    assert QQ.parse("−3/4") == QQ.parse("-3/4")
    assert QI.parse("−3/4+1/2i") == QI.parse("-3/4+1/2i")


@pytest.mark.parametrize("text", ["-3/4", "0", "5", "22/7"])
def test_rational_round_trip(text):
    assert str(QQ.parse(text)) == text


@pytest.mark.parametrize("text", [
    "-3/4+1/2i", "1/2i", "i", "-i", "3", "-2/5-7i", "5/6+i",
])
def test_gaussian_round_trip(text):
    s = QI.parse(text)
    assert QI.parse(str(s)) == s


@pytest.mark.parametrize("text", ["x+1", "2x^2+x+2", "x", "0", "2"])
def test_gf_poly_round_trip(text):
    g27 = FiniteField(3, 3)
    s = g27.parse(text)
    assert g27.parse(str(s)) == s


def test_c64_round_trip():
    c = ComplexFloats()
    s = c.parse("1.25-0.5i")
    assert s.value == complex(1.25, -0.5)
    assert c.parse(str(s)) == s
    assert c.parse("1e-9+2.5i").value == complex(1e-9, 2.5)


@given(st.fractions(), st.fractions(), st.fractions(), st.fractions())
def test_gaussian_parse_format_round_trip(a, b, c, d):
    s = Scalar(QI, (a, b))
    t = Scalar(QI, (c, d))
    assert QI.parse(str(s)) == s
    assert QI.parse(str(s * t)) == s * t


def _random_scalar(field, rng):
    if field is QQ:
        return Scalar(QQ, Fraction(rng.randint(-50, 50), rng.randint(1, 20)))
    if field is QI:
        return Scalar(QI, (Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                           Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
    els = field.elements()
    return els[rng.randrange(len(els))]


@pytest.mark.parametrize("field", [QQ, QI, FiniteField(5), FiniteField(2, 2),
                                   FiniteField(3, 2)])
def test_field_axioms_random_triples(field):
    rng = random.Random(0)
    one = field.one()
    for _ in range(1000):
        a, b, c = (_random_scalar(field, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == field.zero()
        if not a.is_zero:
            assert a * (one / a) == one


def test_norm_sq_multiplicative():
    rng = random.Random(1)
    for _ in range(300):
        a = _random_scalar(QI, rng)
        b = _random_scalar(QI, rng)
        ab = a * b
        assert QI.modulus_sq(ab.value) == QI.modulus_sq(a.value) * QI.modulus_sq(b.value)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)])
def test_gf_every_nonzero_element_invertible(p, k):
    field = FiniteField(p, k)
    els = field.elements()
    assert len(els) == p ** k
    assert len(set(e.value for e in els)) == p ** k
    for e in els:
        if e.is_zero:
            continue
        assert e * (field.one() / e) == field.one()


class _Schoolbook:
    """Reference GF(p^k) arithmetic on little-endian coefficient lists: a
    sum coefficient by coefficient, a product by the schoolbook rule then
    reduced mod the monic modulus term by term, an inverse by search.  It
    shares no code with the package."""

    def __init__(self, p, k, modulus):
        self.p, self.k, self.m = p, k, modulus

    def coeffs(self, i):
        out = []
        for _ in range(self.k):
            i, c = divmod(i, self.p)
            out.append(c)
        return out

    def index(self, coeffs):
        return sum(c * self.p ** e for e, c in enumerate(coeffs))

    def add(self, a, b):
        return self.index([(x + y) % self.p for x, y in zip(self.coeffs(a), self.coeffs(b))])

    def neg(self, a):
        return self.index([-x % self.p for x in self.coeffs(a)])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        p, k, m = self.p, self.k, self.m
        raw = [0] * (2 * k - 1)
        bs = self.coeffs(b)
        for i, x in enumerate(self.coeffs(a)):
            for j, y in enumerate(bs):
                raw[i + j] += x * y
        for e in range(2 * k - 2, k - 1, -1):  # x^e = x^(e-k) (x^k - m)
            c = raw[e]
            for j in range(k + 1):
                raw[e - k + j] -= c * m[j]
        return self.index([c % p for c in raw[:k]])

    def inverse(self, a):
        # a^(q-2) by square and multiply
        out, base, e = 1, a, self.p ** self.k - 2
        while e:
            if e & 1:
                out = self.mul(out, base)
            base, e = self.mul(base, base), e >> 1
        return out


def _check_against_schoolbook(field, pairs):
    ref = _Schoolbook(field.p, field.k, field.modulus or (0, 1))
    inverses = {b: ref.inverse(b) for b in {b for _, b in pairs if b}}
    for b, inv in inverses.items():
        assert ref.mul(b, inv) == 1
        assert (field.one() / field.scalar(b)).value == inv
    for a, b in pairs:
        x, y = field.scalar(a), field.scalar(b)
        assert (x + y).value == ref.add(a, b)
        assert (x - y).value == ref.sub(a, b)
        assert (x * y).value == ref.mul(a, b)
        assert (-x).value == ref.neg(a)
        if b:
            assert (x / y).value == ref.mul(a, inverses[b])
        else:
            with pytest.raises(DivisionByZero):
                x / y


_X12_X9_1 = (1,) + (0,) * 8 + (1, 0, 0, 1)          # x^12 + x^9 + 1 over GF(2)
_X13_X4_X3_X_1 = (1, 1, 0, 1, 1) + (0,) * 8 + (1,)  # x^13 + x^4 + x^3 + x + 1


@pytest.mark.parametrize("p,k,modulus", [(p, k, None) for p, k in CONWAY_POLYNOMIALS]
                         + [(3, 2, (1, 0, 1)), (2, 4, (1, 1, 1, 1, 1)),
                            (2, 12, _X12_X9_1)],
                         ids=lambda v: str(v) if not isinstance(v, tuple) else "m")
def test_gf_arithmetic_matches_schoolbook(p, k, modulus):
    # every pair of every stock field; x is not primitive mod x^2 + 1 over
    # GF(3) (order 4) nor mod x^4 + x^3 + x^2 + x + 1 over GF(2) (order 5);
    # random pairs of GF(2^12) mod x^12 + x^9 + 1
    field = FiniteField(p, k, modulus)
    q = field.q
    if q <= 169:
        pairs = [(a, b) for a in range(q) for b in range(q)]
    else:
        rng = random.Random(12)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(1000)]
        pairs += [(0, rng.randrange(q)), (rng.randrange(q), 0), (1, 1)]
    _check_against_schoolbook(field, pairs)
    els = field.elements()
    assert [e.value for e in els] == list(range(q))
    for e in els if q <= 169 else (els[a] for a, _ in pairs):
        assert field.parse(str(e)) == e
    # the operations are closures, so a copy must look them up again
    assert pickle.loads(pickle.dumps(els[-1])) * els[-1] == els[-1] * els[-1]


def test_extension_field_size_bound(tmp_path, capsys, monkeypatch):
    from orbitref import fields
    from orbitref.cli import main

    def no_tables(*args):
        raise AssertionError("tables built for a field past the bound")

    with monkeypatch.context() as patch:
        patch.setattr(fields, "_gf_ops", no_tables)
        with pytest.raises(ValueError) as exc:
            FiniteField(2, 13, _X13_X4_X3_X_1)
    message = str(exc.value)
    assert "4096" in message
    path = tmp_path / "gf8192.json"
    path.write_text('{"field": "gf", "p": 2, "k": 13, '
                    '"modulus": "x^13+x^4+x^3+x+1", "rows": [["1"]]}')
    assert main(["jordan", "--input", str(path)]) == 2
    assert capsys.readouterr().err == f"orbitref: parse error: {message}\n"
    assert FiniteField(2, 12, _X12_X9_1).q == 4096


def test_conway_modulus_recorded():
    g4 = FiniteField(2, 2)
    assert g4.describe() == {"field": "gf", "p": 2, "k": 2, "modulus": "x^2+x+1"}
    g9 = FiniteField(3, 2)
    assert g9.describe()["modulus"] == "x^2+2x+2"


def test_is_prime_matches_trial_division():
    for n in range(-3, 3000):
        assert is_prime(n) == (n > 1 and all(n % f for f in range(2, int(n ** 0.5) + 1)))


def test_is_prime_large():
    # Mersenne primes, a Carmichael number, and strong pseudoprimes to the
    # bases 2, 3, 5, 7, to every prime base up to 23 and up to 37
    for n in (2 ** 31 - 1, 2 ** 61 - 1, 2 ** 79 - 67):
        assert is_prime(n)
    for n in (561, 3215031751, 3825123056546413051, (2 ** 31 - 1) ** 2,
              318665857834031151167461):
        assert not is_prime(n)


def test_is_prime_raises_above_the_miller_rabin_bound():
    # no base decides there; a factor up to 41 still does
    for n in (3317044064679887385961981, 2 ** 89 - 1, (2 ** 61 - 1) ** 2):
        with pytest.raises(ValueError):
            is_prime(n)
    assert not is_prime(3 * (2 ** 89 - 1))


def test_bad_field_parameters():
    with pytest.raises(NotPrime):
        FiniteField(4)
    with pytest.raises(ValueError):
        FiniteField(2, 2, (0, 0, 1))  # x^2 is reducible
    for tol in (0.0, 1.0, 1e300, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            ComplexFloats(tol=tol)


def _monic_polys(p, deg):
    """Every monic polynomial of this degree over GF(p), little-endian."""
    return [to_digits(i, p, deg) + (1,) for i in range(p ** deg)]


def _product_modp(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


@pytest.mark.parametrize("p,top", [(2, 8), (3, 5), (5, 3), (7, 3)])
def test_modulus_validation_matches_factor_search(p, top):
    # a monic polynomial is reducible exactly when it is the product of two
    # monic ones of degree >= 1; FiniteField refuses exactly those moduli
    for deg in range(1, top + 1):
        reducible = {_product_modp(f, g, p)
                     for low in range(1, deg // 2 + 1)
                     for f in _monic_polys(p, low) for g in _monic_polys(p, deg - low)}
        for m in _monic_polys(p, deg):
            assert _is_irreducible_modp(m, p) == (m not in reducible), m
            if deg >= 2 and m in reducible:
                with pytest.raises(ValueError, match="reducible"):
                    FiniteField(p, deg, m)


def test_parse_errors():
    with pytest.raises(ParseError):
        QQ.parse("3/4/5")
    with pytest.raises(ParseError):
        FiniteField(3, 2).parse("x^5")
    with pytest.raises(ParseError):
        ComplexFloats().parse("1.2.3")


# (text, then the Q, Q(i) and c64 values, None for a ParseError); "1_0",
# "٣", "+3/4" and "٣/٤" read as Fraction and float read them, since only
# ASCII integers and ratios take the int path of Q and Q(i)
PARSE_TABLE = [
    ("1_0", Fraction("1_0"), (Fraction("1_0"), 0), float("1_0")),
    ("+5", 5, (5, 0), 5),
    ("٣", Fraction("٣"), (Fraction("٣"), 0), float("٣")),
    ("3/0", None, None, None),
    ("", None, None, None),
    ("−2", -2, (-2, 0), -2),
    ("-i", None, (0, -1), -1j),
    ("2i", None, (0, 2), 2j),
    ("-7+5i", None, (-7, 5), -7 + 5j),
    ("-0042", -42, (-42, 0), -42),
    ("3/4", Fraction(3, 4), (Fraction(3, 4), 0), None),
    ("-3/4", Fraction(-3, 4), (Fraction(-3, 4), 0), None),
    ("+3/4", Fraction(3, 4), (Fraction(3, 4), 0), None),
    ("3/-4", None, None, None),
    ("03/04", Fraction(3, 4), (Fraction(3, 4), 0), None),
    ("1/2+3/4i", None, (Fraction(1, 2), Fraction(3, 4)), None),
    ("-1/2-3/4i", None, (Fraction(-1, 2), Fraction(-3, 4)), None),
    ("٣/٤", Fraction(3, 4), (Fraction(3, 4), 0), None),
    ("i", None, (0, 1), 1j),
    ("+i", None, (0, 1), 1j),
    ("3+i", None, (3, 1), 3 + 1j),
    ("3-i", None, (3, -1), 3 - 1j),
    ("1e-5i", None, None, 1e-05j),
    ("2.5e+3+1e-2i", None, None, 2500 + 0.01j),
    ("1/2i", None, (0, Fraction(1, 2)), None),
    ("ii", None, None, None),
    ("1+", None, None, None),
    ("+", None, None, None),
    ("i/2", None, None, None),
    ("5i+1", None, None, None),
]


@pytest.mark.parametrize("text,q_value,qi_value,c64_value", PARSE_TABLE)
def test_parse_table(text, q_value, qi_value, c64_value):
    for field, value, name, kind in (
            (QQ, q_value, "rational", Fraction),
            (QI, qi_value, "Gaussian-rational", Fraction),
            (ComplexFloats(), c64_value, "complex", complex)):
        if value is None:
            with pytest.raises(ParseError) as exc:
                field.parse(text)
            assert str(exc.value) == (
                f"bad {name} scalar {text.replace('−', '-')!r}")
        else:
            payload = field.parse(text).value
            assert payload == value
            assert {type(x) for x in (payload if field is QI else (payload,))} == {kind}


# the five constructors that take Python values, each as the Scalar it
# stores for the value v over a field
CONSTRUCTORS = {
    "from_values": lambda f, v: Matrix.from_values(f, [[v]])[0, 0],
    "jordan_block": lambda f, v: Matrix.jordan_block(f, v, 2)[1, 1],
    "scale": lambda f, v: Matrix.identity(f, 2).scale(v)[1, 1],
    "from_blocks": lambda f, v: SpectralProfile.from_blocks(
        f, [(v, [2])]).entries[0].eigenvalue,
    "from_coeffs": lambda f, v: CounterexampleVector.from_coeffs(f, [v, 1], [v]).shift[0],
}

# per field: the values every constructor takes, and a Scalar of another field
COERCE_TABLE = [
    pytest.param(QQ, [QQ.parse("-2/3"), 3, -1, "5", "1/2", Fraction(7, 2)], QI.one(),
                 id="q"),
    pytest.param(QI, [QI.parse("1+i"), 3, -1, "5", "1/2-i"], QQ.one(), id="qi"),
    pytest.param(FiniteField(5), [FiniteField(5).parse("4"), 3, -1, "7"],
                 FiniteField(7).one(), id="gf5"),
    pytest.param(FiniteField(2, 2), [FiniteField(2, 2).parse("x"), 3, -1, "x+1"],
                 FiniteField(2).one(), id="gf4"),
    pytest.param(ComplexFloats(), [ComplexFloats().parse("1.5-2i"), 3, -1, "2.5e-1+i"],
                 QQ.one(), id="c64"),
]


@pytest.mark.parametrize("name", CONSTRUCTORS)
@pytest.mark.parametrize("field,values,foreign", COERCE_TABLE)
def test_constructors_coerce_as_from_values(name, field, values, foreign):
    build = CONSTRUCTORS[name]
    for v in values:
        s = build(field, v)
        assert s.field == field
        assert s.value == Matrix.from_values(field, [[v]])[0, 0].value
    with pytest.raises(MixedFields):
        build(field, foreign)
    refused = [0.1, 1j] + ([] if field is QQ else [Fraction(1, 2), Fraction(7)])
    for v in refused:
        with pytest.raises(TypeError, match=f"cannot coerce .* into {re.escape(field.name)}"):
            build(field, v)


def test_scalar_is_flags():
    assert QQ.zero().is_zero and QQ.from_int(1) == QQ.one()
    g4 = FiniteField(2, 2)
    assert g4.parse("x") * g4.parse("x") + g4.parse("x") == g4.one()


def test_embed_chain():
    from orbitref import embed

    half = QQ.parse("1/2")
    as_qi = embed(half, QI)
    assert str(as_qi) == "1/2" and as_qi.field is QI
    c = ComplexFloats()
    as_c = embed(as_qi, c)
    assert as_c.value == complex(0.5, 0.0)
    with pytest.raises(WrongField):
        embed(as_c, QQ)
