"""Seeded input corpus, built without calling the program under test.

Every matrix is a Jordan assembly B (eigenvalues and block sizes chosen
here, so the expected profile is known by construction) or a conjugate
P B P^-1 where P is a product of integer elementary shears.  A shear
E = I + c e_i e_j^T acts on rows and E^-1 = I - c e_i e_j^T on columns, so
conjugation needs nothing but "add a multiple of one line to another",
done here on plain int / Fraction coordinates; the numeric share uses
rational Householder reflections the same way.  Finite-field
inputs carry their own arithmetic (coefficient tuples modulo p and an
explicit modulus), and non-split finite-field classes are companion
matrices of polynomials checked irreducible here.

Scalars are coordinate tuples: Q -> (Fraction,), Q(i) -> (re, im),
GF(p^k) -> k coefficients, little-endian.  Files follow the README's JSON
matrix format; each `<name>.json` has its ground truth in
`<name>.truth.json` beside it.  The same seed gives a byte-identical corpus.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction

# ---------------------------------------------------------------------------
# scalar coordinates and their text form (the README's scalar syntax)
# ---------------------------------------------------------------------------


def q_scalar(v) -> tuple:
    return (Fraction(v),)


def qi_scalar(re, im=0) -> tuple:
    return (Fraction(re), Fraction(im))


def format_scalar(field: dict, x: tuple) -> str:
    kind = field["field"]
    if kind == "q":
        return str(x[0])
    if kind == "qi":
        a, b = x
        if b == 0:
            return str(a)
        imag = "i" if b == 1 else "-i" if b == -1 else f"{b}i"
        if a == 0:
            return imag
        return f"{a}+{imag}" if b > 0 else f"{a}{imag}"
    # GF(p^k): "2", or "x^2+2x+1" for k >= 2
    if field["k"] == 1:
        return str(x[0])
    terms = []
    for e in range(len(x) - 1, -1, -1):
        c = x[e]
        if c == 0:
            continue
        if e == 0:
            terms.append(str(c))
        else:
            xpart = "x" if e == 1 else f"x^{e}"
            terms.append(xpart if c == 1 else f"{c}{xpart}")
    return "+".join(terms) if terms else "0"


def zero(field: dict) -> tuple:
    return {"q": (0,), "qi": (0, 0)}.get(field["field"]) or (0,) * field["k"]


def one(field: dict) -> tuple:
    return tuple(1 if i == 0 else 0 for i in range(len(zero(field))))


def axpy(field: dict, a: tuple, c: int, b: tuple) -> tuple:
    """a + c*b for an integer (or, over Q and Q(i), rational) c,
    coordinate-wise (mod p over GF)."""
    out = tuple(x + c * y for x, y in zip(a, b))
    if field["field"] == "gf":
        out = tuple(v % field["p"] for v in out)
    return out


# ---------------------------------------------------------------------------
# GF(p^k) multiplication, for companion blocks and candidate operators
# ---------------------------------------------------------------------------

# explicit moduli, written into every GF(p^k) file with k >= 2
GF_MODULI = {4: (2, 2, (1, 1, 1)),        # x^2 + x + 1
             8: (2, 3, (1, 1, 0, 1)),     # x^3 + x + 1
             9: (3, 2, (1, 0, 1))}        # x^2 + 1


def gf_field(q: int) -> dict:
    if q in GF_MODULI:
        p, k, mod = GF_MODULI[q]
        return {"field": "gf", "p": p, "k": k, "q": q, "modulus": mod}
    return {"field": "gf", "p": q, "k": 1, "q": q, "modulus": None}


def gf_elements(field: dict) -> list[tuple]:
    p, k = field["p"], field["k"]
    out = []
    for idx in range(field["q"]):
        digits = []
        for _ in range(k):
            digits.append(idx % p)
            idx //= p
        out.append(tuple(digits))
    return out


def gf_mul(field: dict, a: tuple, b: tuple) -> tuple:
    p, k = field["p"], field["k"]
    if k == 1:
        return ((a[0] * b[0]) % p,)
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    mod = field["modulus"]
    for top in range(len(prod) - 1, k - 1, -1):
        c = prod[top]
        if c:
            for i in range(k + 1):
                prod[top - k + i] = (prod[top - k + i] - c * mod[i]) % p
    return tuple(prod[:k])


def gf_has_root(field: dict, coeffs: list[tuple]) -> bool:
    """coeffs little-endian, monic; Horner evaluation at every element."""
    z = zero(field)
    for x in gf_elements(field):
        acc = z
        for c in reversed(coeffs):
            acc = axpy(field, gf_mul(field, acc, x), 1, c)
        if acc == z:
            return True
    return False


def gf_primitive(field: dict, degree: int, rng: random.Random) -> list[tuple]:
    """A random monic irreducible polynomial of degree 2 or 3 whose
    companion matrix C has a full projective orbit: {lam C^n e_0} holds
    every nonzero vector.  Orbit sizes set the oracle's search cost, so
    fixing them keeps the cost of a non-split slot alike across seeds."""
    elems = gf_elements(field)
    full = (field["q"] ** degree - 1) // (field["q"] - 1)
    while True:
        coeffs = [rng.choice(elems) for _ in range(degree)] + [one(field)]
        if not gf_has_root(field, coeffs) and _projective_orbit(field, coeffs) == full:
            return coeffs


def _projective_orbit(field: dict, coeffs: list[tuple]) -> int:
    """Number of lines through C^n e_0, n >= 1, for C = companion(coeffs)."""
    comp = companion(field, coeffs)
    d = len(comp)
    inverse = {x: y for x in gf_elements(field) for y in gf_elements(field)
               if gf_mul(field, x, y) == one(field)}
    v = tuple(one(field) if i == 0 else zero(field) for i in range(d))
    lines = set()
    for _ in range(field["q"] ** d):
        v = tuple(gf_dot(field, row, v) for row in comp)
        lead = next(x for x in v if x != zero(field))
        lines.add(tuple(gf_mul(field, inverse[lead], x) for x in v))
    return len(lines)


def gf_dot(field: dict, row, v) -> tuple:
    acc = zero(field)
    for a, b in zip(row, v):
        acc = axpy(field, acc, 1, gf_mul(field, a, b))
    return acc


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def jordan_assembly(field: dict, blocks: list[tuple]) -> list[list[tuple]]:
    """Block diagonal of lower-chain Jordan blocks T e_k = lam e_k + e_{k+1};
    `blocks` is a list of (eigenvalue, size)."""
    d = sum(size for _, size in blocks)
    z, o = zero(field), one(field)
    rows = [[z] * d for _ in range(d)]
    off = 0
    for lam, size in blocks:
        for i in range(size):
            rows[off + i][off + i] = lam
            if i:
                rows[off + i][off + i - 1] = o
        off += size
    return rows


def companion(field: dict, coeffs: list[tuple]) -> list[list[tuple]]:
    """Companion matrix of a monic polynomial: ones below the diagonal,
    minus the low coefficients in the last column."""
    d = len(coeffs) - 1
    z, o = zero(field), one(field)
    rows = [[z] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = o
    for i in range(d):
        rows[i][d - 1] = axpy(field, z, -1, coeffs[i])
    return rows


def conjugate_by_shears(field: dict, rows, rounds: int, rng: random.Random):
    """P B P^-1 with P = (U L)^rounds, where U and L are unit bidiagonal:
    products of the shears E_(k,k+1)(c) and E_(k+1,k)(c), c = +-1.  The
    fixed shear pattern keeps entry growth, and so the cost of exact
    arithmetic, alike across seeds; the signs come from the seed."""
    d = len(rows)
    m = [list(r) for r in rows]
    pattern = [(k + 1, k) for k in range(d - 1)] + [(k, k + 1) for k in range(d - 1)]
    for i, j in pattern * rounds:
        c = rng.choice((-1, 1))
        # E M: row_i += c row_j ; then M E^-1: col_j -= c col_i
        m[i] = [axpy(field, a, c, b) for a, b in zip(m[i], m[j])]
        for r in m:
            r[j] = axpy(field, r[j], -c, r[i])
    return m


def householder_conjugate(field: dict, rows, reflections: int,
                          rng: random.Random):
    """H B H for rational Householder reflections H = I - 2 v v^T / v^T v
    (orthogonal, H = H^-1), applied `reflections` times."""
    d = len(rows)
    m = [list(r) for r in rows]
    z = zero(field)
    for _ in range(reflections):
        v = [0] * d
        while not any(v):
            v = [rng.choice((-2, -1, 0, 1, 2)) for _ in range(d)]
        vv = sum(x * x for x in v)

        def reflect_rows(mat):
            out = []
            for r in mat:
                s = z
                for a, vi in zip(r, v):
                    s = axpy(field, s, vi, a)
                out.append([axpy(field, a, Fraction(-2 * vi, vv), s)
                            for a, vi in zip(r, v)])
            return out

        m = reflect_rows(m)                                   # B H
        m = [list(c) for c in zip(*reflect_rows([list(c) for c in zip(*m)]))]  # H (B H)
    return m


def matrix_data(field: dict, rows) -> dict:
    data = {"field": field["field"],
            "rows": [[format_scalar(field, x) for x in r] for r in rows]}
    if field["field"] == "gf":
        data["p"] = field["p"]
        if field["k"] > 1:
            data["k"] = field["k"]
            data["modulus"] = format_scalar(
                {"field": "gf", "k": field["k"] + 1}, field["modulus"])
    return data


def block_truth(field: dict, blocks: list[tuple]) -> dict:
    """{eigenvalue text: block sizes descending} for a Jordan assembly."""
    out: dict[str, list[int]] = {}
    for lam, size in blocks:
        out.setdefault(format_scalar(field, lam), []).append(size)
    return {k: sorted(v, reverse=True) for k, v in sorted(out.items())}


# ---------------------------------------------------------------------------
# the corpus on disk
# ---------------------------------------------------------------------------


class Corpus:
    """Writes `<name>.json` + `<name>.truth.json` pairs into one directory
    and hashes everything it wrote, in write order."""

    def __init__(self, root: str):
        self.root = root
        self.digest = hashlib.sha256()
        os.makedirs(root, exist_ok=True)

    def add(self, name: str, data: dict, truth: dict) -> str:
        path = os.path.join(self.root, name + ".json")
        for target, obj in ((path, data),
                            (os.path.join(self.root, name + ".truth.json"), truth)):
            text = json.dumps(obj, sort_keys=True) + "\n"
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.digest.update(os.path.basename(target).encode() + b"\0")
            self.digest.update(text.encode())
        return path

    @property
    def sha256(self) -> str:
        return self.digest.hexdigest()
