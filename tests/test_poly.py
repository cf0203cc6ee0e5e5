"""The polynomial layer: products, pseudo-division and the one formatter."""

import pytest
from hypothesis import given, settings, strategies as st

from orbitref import FiniteField
from orbitref._poly import format_poly, pmul, pseudo_divmod
from orbitref.linalg import ZI, ZZ, _finite_ring

# (ring, its zero, a strategy for its elements)
RINGS = {
    "ZZ": (ZZ, 0, st.integers(-9, 9)),
    "ZI": (ZI, (0, 0), st.tuples(st.integers(-5, 5), st.integers(-5, 5))),
    "GF7": (_finite_ring(FiniteField(7)), 0, st.integers(0, 6)),
    "GF9": (_finite_ring(FiniteField(3, 2)), 0, st.integers(0, 8)),
}


def _schoolbook(a, b, ring, zero):
    """sum over i, j of a_i b_j at position i + j, leading first."""
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = ring.add(out[i + j], ring.mul(x, y))
    return out


def _padd(a, b, ring, zero):
    """a + b, leading first, the shorter padded with leading zeros."""
    n = max(len(a), len(b))
    a = [zero] * (n - len(a)) + list(a)
    b = [zero] * (n - len(b)) + list(b)
    return [ring.add(x, y) for x, y in zip(a, b)]


def _trimmed(a, ring):
    a = list(a)
    while a and ring.is_zero(a[0]):
        a.pop(0)
    return a


@pytest.mark.parametrize("name", sorted(RINGS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pmul_matches_schoolbook(name, data):
    ring, zero, elements = RINGS[name]
    a, b = (data.draw(st.lists(elements, min_size=1, max_size=6)) for _ in range(2))
    assert pmul(a, b, ring.mul, ring.add) == _schoolbook(a, b, ring, zero)


@pytest.mark.parametrize("name", sorted(RINGS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_pseudo_divmod_identity(name, data):
    # lead(b)^e a = q b + r with e = max(deg a - deg b + 1, 0) and
    # deg r < deg b, for any b with a nonzero leading coefficient
    ring, zero, elements = RINGS[name]
    a = data.draw(st.lists(elements, min_size=1, max_size=7))
    b = [data.draw(elements.filter(lambda x: not ring.is_zero(x)))]
    b += data.draw(st.lists(elements, max_size=4))
    quot, rest = pseudo_divmod(a, b, ring.mul, ring.sub)
    assert len(rest) < len(b)
    e = max(len(a) - len(b) + 1, 0)
    assert len(quot) == e
    scaled = list(a)
    for _ in range(e):
        scaled = [ring.mul(b[0], x) for x in scaled]
    product = _schoolbook(quot, b, ring, zero) if quot else []
    assert _trimmed(scaled, ring) == _trimmed(_padd(product, rest, ring, zero), ring)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_monic_division_makes_deg_b_products_a_step(name):
    ring, _, _ = RINGS[name]
    calls = []

    def mul(x, y):
        calls.append(1)
        return ring.mul(x, y)

    one = ring.one
    a = [one] * 9
    for b in ([one, one], [one, one, one, one], [one, ring.neg(one), one]):
        calls.clear()
        quot, rest = pseudo_divmod(a, b, mul, ring.sub)
        assert (quot, rest) == pseudo_divmod(a, b, ring.mul, ring.sub)
        deg_a, deg_b = len(a) - 1, len(b) - 1
        assert len(calls) <= (deg_a - deg_b + 1) * deg_b + 1


def test_format_poly_gf9_element_texts():
    g9 = FiniteField(3, 2)
    assert [g9.format(i) for i in range(9)] == [
        "0", "1", "2", "x", "x+1", "x+2", "2x", "2x+1", "2x+2"]


@pytest.mark.parametrize("texts,text", [
    (["1", "0", "1"], "t^2+1"),
    (["1", "0", "1/3"], "t^2+1/3"),
    (["-1", "-3", "-1"], "-t^2-3t-1"),
    (["1", "1/2-i", "0"], "t^2+(1/2-i)t"),
    (["-2+i", "i", "-1"], "(-2+i)t^2+it-1"),
    (["0"], "0"),
    ([], "0"),
])
def test_format_poly_pinned(texts, text):
    assert format_poly(texts, "t") == text
