"""The package's one copy of polynomial arithmetic, over a ring given by
the operations each function takes.  A polynomial is the list of its
coefficients, leading first: [1, 0, -2] is t^2 - 2.  `linalg`, `spectra`
and `oracle` run it on Z, Z[i] and the GF(q) ring of element indices;
`fields` runs it on Z and reduces mod p after each monic division, which
is exact.  It imports nothing of the package, so `fields` and `linalg`
can both stand on it.
"""

from __future__ import annotations

from functools import reduce
from itertools import dropwhile


def pmul(a, b, mul, add) -> list:
    """The product a b, term by term on the ring operations mul and add."""
    out = [mul(a[0], y) for y in b]
    for i, x in enumerate(a[1:], 1):
        # x b lands on the coefficients i .. i + deg b; the last is new
        out.append(mul(x, b[-1]))
        for j, y in enumerate(b[:-1], i):
            out[j] = add(out[j], mul(x, y))
    return out


def pseudo_divmod(a, b, mul, sub) -> tuple[list, list]:
    """(q, r) with lead(b)^e a = q b + r, e = max(deg a - deg b + 1, 0), by
    pseudo-division on the ring operations mul and sub; for a monic b they
    are the plain quotient and remainder.  r keeps the len(b) - 1
    coefficients below deg b, leading zeros included, or is a itself when
    deg a < deg b.  A lead with lead^2 = lead is one, the only nonzero
    idempotent of an integral domain, and scales nothing: a step then
    makes deg b products."""
    lead = b[0]
    monic = mul(lead, lead) == lead
    quot, rest = [], list(a)
    for _ in range(len(a) - len(b) + 1):
        # lead rest = top t^m b + (lead rest - top t^m b), m = deg rest - deg b
        top = rest[0]
        if monic:
            quot.append(top)
            rest = rest[1:]
        else:
            quot = [mul(lead, x) for x in quot] + [top]
            rest = [mul(lead, x) for x in rest[1:]]
        for j, y in enumerate(b[1:]):
            rest[j] = sub(rest[j], mul(top, y))
    return quot, rest


def split_roots(poly, candidates, mul, add, is_zero) -> tuple[list, list]:
    """Divide t - x out of poly as often as it divides, for each candidate
    x in turn, by synthetic division on the ring operations `mul`, `add` and
    `is_zero`.  Returns the roots found with their multiplicities, in
    candidate order, and the quotient left over ([lead] when poly splits
    over the candidates)."""
    roots = []
    rest = list(poly)
    for x in candidates:
        if len(rest) == 1:
            break  # split: no candidate is left to divide out
        mult = 0
        while len(rest) > 1:
            acc = rest[0]
            quot = [acc]
            for c in rest[1:]:
                acc = add(mul(acc, x), c)
                quot.append(acc)
            if not is_zero(quot.pop()):  # the remainder rest(x)
                break
            rest = quot
            mult += 1
        if mult:
            roots.append((x, mult))
    return roots, rest


def squarefree_part(poly, ring) -> list:
    """poly / gcd(poly, poly') for a monic poly over Z or Z[i], whose ring
    gives mul, sub, divx (exact division), scale (by an int), one and
    is_zero: monic, with the same roots, each simple.  The gcd is the last
    term of the subresultant remainder sequence (Brown and Traub, JACM 18,
    1971), made monic; every divx is exact, the monic gcd of a monic
    polynomial having integral coefficients by Gauss's lemma."""
    mul, sub, divx, one = ring.mul, ring.sub, ring.divx, ring.one

    def power(x, k):
        return reduce(mul, [x] * k, one)

    n = len(poly) - 1
    a = poly
    b = [ring.scale(n - k, x) for k, x in enumerate(poly[:-1])]
    g = h = one
    while True:
        delta = len(a) - len(b)
        rest = list(dropwhile(ring.is_zero, pseudo_divmod(a, b, mul, sub)[1]))
        if not rest:
            break
        a, b = b, [divx(x, mul(g, power(h, delta))) for x in rest]
        g = a[0]
        if delta:
            h = divx(power(g, delta), power(h, delta - 1))
    gcd = [divx(x, b[0]) for x in b]
    return pseudo_divmod(poly, gcd, mul, sub)[0]


def format_poly(texts, var: str) -> str:
    """The polynomial in var with these coefficient texts, leading first,
    such as "t^2+(1/2-i)t-3": zero terms are left out, a unit coefficient
    prints as the bare power or its negative, and one with a sign past its
    first character is bracketed; "0" when no term is left."""
    deg, out = len(texts) - 1, ""
    for i, text in enumerate(texts):
        if text == "0":
            continue
        e = deg - i
        if e:
            if text in ("1", "-1"):
                text = text[:-1]  # the bare power, or its negative
            elif "+" in text[1:] or "-" in text[1:]:
                text = f"({text})"
            text += var if e == 1 else f"{var}^{e}"
        out += text if not out or text.startswith("-") else "+" + text
    return out or "0"
