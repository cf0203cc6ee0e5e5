"""Definition-level ground truth for orbit reflexivity questions.

Over a finite field GF(q) the scaled power orbit {lam T^n : n >= 1} is
finite (the power sequence is eventually periodic by pigeonhole), so
membership of S in OrbRef0(T) -- "S x lies in the scaled power orbit of x,
for every x" -- is decidable by brute force, and the full set OrbRef0(T) is
computable by scanning all q^(d^2) candidate matrices.

Exponents start at 1 throughout: orbit sets are {lam T^n : n >= 1}, so the
identity participates exactly when some positive power returns to it (T
invertible).  Including n = 0 would admit, for any Jordan block J_m with
m >= 2, the operator sending e_0 and e_1 both to the end of the chain -- an
operator outside the scaled orbit that passes every per-vector test (on J_2,
T^0 covers the vectors with x_0 = 0).  Starting at n = 1 keeps J_2 and the 2x2
space over GF(4) equal.  It does not help nilpotent chains whose two
largest blocks differ by 2 or more, such as J_3(0): there the same
two-entry operator S x = (x_0 + x_1) e_{m-1} meets the vectors with
x_0 = 0 one power lower, at T^{m-2} x = x_1 e_{m-1} with m - 2 >= 1, so it
stays in OrbRef0 without being a scaled power.

Scaled-power rigidity asks that S f = beta T^k f != 0, for some vector f,
scalar beta and k >= 1, force S = beta T^k.  A member S of OrbRef0(T)
violates it exactly when S is a nonzero matrix outside the scaled orbit, or
S is a scaled power that takes the same nonzero value at some f as a
different scaled power.  Proof: if S is nonzero and no scaled power, pick f
with S f != 0; membership gives S f = beta T^k f with k >= 1 and
S != beta T^k.  If S is a scaled power, a violation is by definition a
different scaled power beta T^k agreeing with S at a nonzero value S f.
So the verdict is read off the enumerated members and the scaled orbit.

The enumeration codes each vector of GF(q)^d as its from_digits index and
reads addition, scaling and lines from tables built once per (field, d)
and process.  The orbit set of x is the OR of the line masks along the
walk x -> Tx -> T^2 x under the vector map of T.  Candidates are searched
depth-first over their columns (the images of the basis vectors), column 0
outermost: column j ranges over the orbit set of e_j, and once it is fixed
every vector x whose highest nonzero coordinate is j is checked, with its
image read as img[x] = img[rest] + c * col_j from a vector already done.
A failed check drops every candidate sharing the prefix at once.  A check
whose orbit set is the whole space can never fail and is dropped; once no
check is left the remaining columns combine freely, so a T transitive on
lines has every candidate as a member without a walk.  The scan only needs
|OrbRef0(T)| and counts the members without listing them;
`enumerate_orbref0` lists them column-coded and decodes Matrix objects
only when a caller reads them.  The scaled orbit must pass the same
checks in both paths, or the module raises an internal error.

`scan_space` sweeps every d x d matrix over GF(q) (d <= 3), classifies the
minimal polynomial, and checks OrbRef0 = scaled-power-orbit per matrix.
Verdicts are similarity invariants, so by default the scan memoises the
expensive enumeration per (characteristic, minimal polynomial) class --
which determines the similarity class for d <= 3 -- and a flag forces the
plain per-matrix scan.  Results persist to a JSON-lines cache keyed by the
field (p, k, modulus), d and the matrix index; re-runs skip finished
matrices.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product
from math import prod
from typing import Iterable, Optional

from .errors import (
    BudgetExceeded,
    MixedFields,
    OrbitrefError,
    ShapeMismatch,
    WrongField,
)
from .fields import KIND_FINITE, FiniteField, Scalar, from_digits, to_digits
from .linalg import Matrix

DEFAULT_CONTAINS_BUDGET = 10 ** 6
DEFAULT_ENUM_BUDGET = 2 ** 24


# ---------------------------------------------------------------------------
# integer-encoded field kernel
# ---------------------------------------------------------------------------

class _Tables:
    """Index-encoded GF(q) arithmetic: elements are 0..q-1 in the field's
    canonical element order, ops are table lookups."""

    def __init__(self, field: FiniteField):
        self.field = field
        els = field.elements()
        self.q = len(els)
        self.scalars = els
        index = {s.value: i for i, s in enumerate(els)}
        self.add = [[index[(a + b).value] for b in els] for a in els]
        self.mul = [[index[(a * b).value] for b in els] for a in els]
        self.neg = [index[(-a).value] for a in els]
        one = index[field.one().value]
        # inv[0] stays None: zero has no inverse
        self.inv = [None] + [row.index(one) for row in self.mul[1:]]

    def vec_add(self, x, y):
        add = self.add
        return tuple(add[a][b] for a, b in zip(x, y))

    def vec_scale(self, s, x):
        row = self.mul[s]
        return tuple(row[a] for a in x)

    def mat_vec(self, cols, x):
        acc = None
        for xi, col in zip(x, cols):
            if xi == 0:
                continue
            term = self.vec_scale(xi, col)
            acc = term if acc is None else self.vec_add(acc, term)
        return acc if acc is not None else (0,) * len(cols[0])

    def mat_mul(self, a_cols, b_cols):
        return tuple(self.mat_vec(a_cols, b) for b in b_cols)


def _encode_matrix(tbl: _Tables, M: Matrix):
    """Matrix -> tuple of column vectors of element indices."""
    field = tbl.field
    return tuple(
        tuple(field.element_index(M[i, j].value) for i in range(M.n))
        for j in range(M.n)
    )


def _decode_matrix(tbl: _Tables, cols, d: int) -> Matrix:
    field = tbl.field
    rows = [[tbl.scalars[cols[j][i]] for j in range(d)] for i in range(d)]
    return Matrix(field, rows)


def _identity_cols(q: int, d: int):
    return tuple(tuple(1 if i == j else 0 for i in range(d)) for j in range(d))


def _all_vectors(q: int, d: int):
    """Every vector of GF(q)^d; vector x sits at position from_digits(x, q)."""
    return [to_digits(idx, q, d) for idx in range(q ** d)]


def _power_cols(tbl: _Tables, Tcols, d: int):
    """Distinct powers T^0, T^1, ... plus (tail, cycle) of the sequence."""
    seen: dict[tuple, int] = {}
    powers = []
    cur = _identity_cols(tbl.q, d)
    k = 0
    while cur not in seen:
        seen[cur] = k
        powers.append(cur)
        cur = tbl.mat_mul(Tcols, cur)
        k += 1
    first_repeat = seen[cur]
    return powers, first_repeat, k - first_repeat


def _positive_powers(powers, tail: int):
    """The distinct matrices among {T^n : n >= 1}.  When the sequence is
    purely cyclic (tail 0) the identity recurs as T^cycle and stays in."""
    return powers if tail == 0 else powers[1:]


def _scaled_orbit_cols(tbl: _Tables, powers, tail: int, d: int) -> frozenset:
    """All matrices lam * T^n with n >= 1 (including 0), column-encoded."""
    q = tbl.q
    out = {tuple(tuple(0 for _ in range(d)) for _ in range(d))}
    for P in _positive_powers(powers, tail):
        for lam in range(1, q):
            out.add(tuple(tbl.vec_scale(lam, col) for col in P))
    return frozenset(out)


# ---------------------------------------------------------------------------
# enumeration kernel on integer-coded vectors
# ---------------------------------------------------------------------------

def _vector_add_table(add, q: int, d: int) -> list[list[int]]:
    """vadd[a][b] is the index of a + b in GF(q)^d.  Built one coordinate at
    a time: with a = a0 + q*a1, the sum has low digit add[a0][b0] and high
    part a1 + b1.  Rows are joined from shared q-long blocks, so the q^(2d)
    entries refer to q^(d+1) int objects."""
    vadd = add
    for _ in range(d - 1):
        blocks = [[[s + q * w for s in row] for w in range(len(vadd))]
                  for row in add]
        vadd = [list(chain.from_iterable(map(blocks[a0].__getitem__, high)))
                for high in vadd for a0 in range(q)]
    return vadd


class _Space:
    """GF(q)^d with each vector coded as its from_digits index, and the
    tables the enumeration kernel reads: vector addition, scaling and the
    bitmask of each vector's line.  `_space` builds one per (field, d) and
    process, on first use."""

    def __init__(self, tbl: _Tables, d: int):
        q = tbl.q
        self.tbl, self.q, self.d, self.n = tbl, q, d, q ** d
        self.vadd = _vector_add_table(tbl.add, q, d)
        # scale[v][c] is the index of c * v
        self.scale = [[from_digits([row[a] for a in to_digits(v, q, d)], q)
                       for row in tbl.mul] for v in range(self.n)]
        self.line = [sum(1 << w for w in set(multiples)) for multiples in self.scale]
        # the vectors whose highest nonzero coordinate is j, as
        # (x, rest, c) with x = rest + c * e_j
        self.levels = [[(x, x % q ** j, x // q ** j) for x in range(q ** j, q ** (j + 1))]
                       for j in range(d)]

    def encode(self, cols) -> tuple[int, ...]:
        q = self.q
        return tuple(from_digits(col, q) for col in cols)

    def decode(self, cols) -> Matrix:
        q, d = self.q, self.d
        return _decode_matrix(self.tbl, [to_digits(c, q, d) for c in cols], d)

    def vector_map(self, cols) -> list[int]:
        """img[x] = index of M x for the matrix with coded columns cols."""
        vadd, scale = self.vadd, self.scale
        img = [0] * self.n
        for level, col in zip(self.levels, cols):
            multiples = scale[col]
            for x, rest, c in level:
                img[x] = vadd[img[rest]][multiples[c]]
        return img


@lru_cache(maxsize=None)
def _space(field: FiniteField, d: int) -> _Space:
    return _Space(_Tables(field), d)


def _orbit_masks(sp: _Space, timg: list[int]) -> list[int]:
    """Bit v of masks[x] says v = lam * T^n x for some lam and n >= 1: the
    OR of the lines met along the walk x -> Tx -> T^2 x -> ... under the
    vector map timg of T, up to its first repeat."""
    line = sp.line
    masks = []
    for x in range(sp.n):
        seen = set()
        m = 0
        y = timg[x]
        while y not in seen:
            seen.add(y)
            m |= line[y]
            y = timg[y]
        masks.append(m)
    return masks


class _ColumnSearch:
    """The candidates S of OrbRef0(T), searched depth-first over columns.

    Column j of S ranges over the orbit set of e_j in index order, so
    members come out in the order of a product over the columns.  Once
    columns 0..j are fixed, every vector x whose highest nonzero coordinate
    is j gets its image img[x] = img[rest] + c * col_j, and x is checked:
    img[x] must lie in the orbit set of x.  A check whose orbit set is the
    whole space never fails and is dropped, and so is every image no kept
    check reads; below the last level with a check, every column
    combination passes.
    """

    def __init__(self, sp: _Space, Tcols):
        tbl, q, d, n = sp.tbl, sp.q, sp.d, sp.n
        powers, self.tail, self.cycle = _power_cols(tbl, Tcols, d)
        self.forb = frozenset(sp.encode(R) for R in
                              _scaled_orbit_cols(tbl, powers, self.tail, d))
        masks = _orbit_masks(sp, sp.vector_map(sp.encode(Tcols)))
        self.col_masks = [masks[q ** j] for j in range(d)]
        self.allowed = [[v for v in range(n) if m >> v & 1] for m in self.col_masks]
        # a vector is checked when its orbit set is not the whole space and
        # it is no multiple of e_j (those pass with their allowed column);
        # its image is needed when it is checked or is the rest of one that is
        full = (1 << n) - 1
        checked = [False] * n
        needed = [False] * n
        for level in reversed(sp.levels):
            for x, rest, _ in level:
                if rest and masks[x] != full:
                    checked[x] = needed[x] = True
                if needed[x]:
                    needed[rest] = True
        # per level the checks come first; a mask of -1 passes every image
        self.items = [[(x, rest, c, masks[x]) for x, rest, c in level if checked[x]]
                      + [(x, rest, c, -1) for x, rest, c in level
                         if needed[x] and not checked[x]]
                      for level in sp.levels]
        self.depth = max((j + 1 for j, items in enumerate(self.items) if items),
                         default=0)
        self.sp = sp
        self.img = [0] * n
        # the scaled orbit sits inside OrbRef0(T); the orbit sets come from
        # the vector map of T and the scaled orbit from its matrix powers,
        # so a scaled power failing the checks is a fault of this module
        if not all(self._passes(R) for R in self.forb):
            raise OrbitrefError("a scaled power of T fails the OrbRef0 column checks")

    def _fits(self, j: int, col: int) -> bool:
        """Fix column j to col: fill the images of level j and check them."""
        vadd, img = self.sp.vadd, self.img
        multiples = self.sp.scale[col]
        for x, rest, c, mask in self.items[j]:
            y = vadd[img[rest]][multiples[c]]
            if not mask >> y & 1:
                return False
            img[x] = y
        return True

    def _passes(self, cols) -> bool:
        return all(m >> col & 1 and self._fits(j, col)
                   for j, (m, col) in enumerate(zip(self.col_masks, cols)))

    def members(self) -> list[tuple[int, ...]]:
        """The members, column-coded, in product order over the columns."""
        out: list[tuple[int, ...]] = []
        free = self.allowed[self.depth:]

        def extend(j: int, prefix: tuple[int, ...]):
            if j == self.depth:
                out.extend(prefix + rest for rest in product(*free))
                return
            for col in self.allowed[j]:
                if self._fits(j, col):
                    extend(j + 1, prefix + (col,))

        extend(0, ())
        return out

    def count(self) -> int:
        """The number of members, without listing them."""
        free = prod(len(cols) for cols in self.allowed[self.depth:])

        def below(j: int) -> int:
            if j == self.depth:
                return free
            return sum(below(j + 1) for col in self.allowed[j] if self._fits(j, col))

        return below(0)


def _clashing(sp: _Space, forb) -> set:
    """The nonzero scaled powers that take the same nonzero value as a
    different scaled power at some vector."""
    first_at: dict[tuple[int, int], tuple] = {}
    clashing = set()
    for R in forb:
        if not any(R):
            continue
        for f, y in enumerate(sp.vector_map(R)):
            if y:
                other = first_at.setdefault((f, y), R)
                if other != R:
                    clashing.update((R, other))
    return clashing


def _rigidity_violators(sp: _Space, members, forb) -> list:
    """The members of OrbRef0 that break scaled-power rigidity, each once and
    in member order: every nonzero member outside the scaled orbit `forb`,
    and every scaled power that shares a nonzero value with another scaled
    power at some vector (the criterion is proved in the module docstring)."""
    clashing = _clashing(sp, forb)
    # the zero matrix lies in forb, so a member outside it is nonzero
    return [S for S in members if S not in forb or S in clashing]



# ---------------------------------------------------------------------------
# public API: orbits, membership, enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitSet:
    """The finite set of distinct powers of T over GF(q), with the tail and
    cycle lengths of the power sequence; scaled multiples are implicit."""

    base: Matrix
    powers: tuple[Matrix, ...]
    tail: int
    cycle: int

    def scaled_matrices(self) -> set[Matrix]:
        """The scaled power orbit {lam T^n : n >= 1} (0 included via lam = 0)."""
        tbl = _Tables(self.base.field)
        d = self.base.n
        powers = [_encode_matrix(tbl, P) for P in self.powers]
        return {_decode_matrix(tbl, cols, d)
                for cols in _scaled_orbit_cols(tbl, powers, self.tail, d)}


def _require_finite(M: Matrix):
    if M.field.kind != KIND_FINITE:
        raise WrongField("orbit oracle operations need a finite-field matrix")


def power_orbit(T: Matrix) -> OrbitSet:
    """Enumerate T^0, T^1, ... until the first repeated matrix."""
    _require_finite(T)
    tbl = _Tables(T.field)
    Tcols = _encode_matrix(tbl, T)
    powers, tail, cycle = _power_cols(tbl, Tcols, T.n)
    return OrbitSet(
        base=T,
        powers=tuple(_decode_matrix(tbl, P, T.n) for P in powers),
        tail=tail,
        cycle=cycle,
    )


def orbref0_contains(T: Matrix, S: Matrix,
                     budget: int = DEFAULT_CONTAINS_BUDGET
                     ) -> tuple[bool, Optional[tuple[Scalar, ...]]]:
    """Exact check that S x lies in {lam T^k x} for every x in GF(q)^d.

    Returns (True, None) or (False, first failing vector in index order).
    """
    _require_finite(T)
    if S.field != T.field:
        raise MixedFields("candidate and base matrix fields differ")
    if S.n != T.n:
        raise ShapeMismatch(f"dims {S.n} vs {T.n}")
    q = T.field.q
    d = T.n
    if q ** d > budget:
        raise BudgetExceeded(
            f"{q}^{d} vector checks exceed the budget of {budget}")
    tbl = _Tables(T.field)
    Tcols = _encode_matrix(tbl, T)
    Scols = _encode_matrix(tbl, S)
    powers, tail, _ = _power_cols(tbl, Tcols, d)
    positive = _positive_powers(powers, tail)
    mul, inv = tbl.mul, tbl.inv
    for x in _all_vectors(q, d):
        y = tbl.mat_vec(Scols, x)
        if all(c == 0 for c in y):
            continue  # lam = 0 always fits
        hit = False
        for P in positive:
            z = tbl.mat_vec(P, x)
            i = next((i for i, c in enumerate(z) if c), None)
            if i is None:
                continue
            lam = mul[y[i]][inv[z[i]]]
            if tbl.vec_scale(lam, z) == y:
                hit = True
                break
        if not hit:
            failing = tuple(tbl.scalars[c] for c in x)
            return False, failing
    return True, None


class _Decoded(Sequence):
    """Column-coded matrices of one space, decoded to Matrix on access, so a
    caller that reads a few of them decodes only those."""

    def __init__(self, sp: _Space, coded: list):
        self._sp = sp
        self._coded = coded

    def __len__(self) -> int:
        return len(self._coded)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._sp.decode, self._coded[i]))
        return self._sp.decode(self._coded[i])


@dataclass(frozen=True)
class Orbref0Result:
    base: Matrix
    members: Sequence[Matrix]
    orbref0_size: int
    forb_size: int
    equal: bool
    difference: Sequence[Matrix]
    tail: int
    cycle: int

    def summary(self) -> dict:
        return {
            "orbref0_size": self.orbref0_size,
            "forb_size": self.forb_size,
            "equal": self.equal,
            "power_tail": self.tail,
            "power_cycle": self.cycle,
        }


def _column_search(T: Matrix, budget: int) -> _ColumnSearch:
    _require_finite(T)
    q = T.field.q
    d = T.n
    if q ** (d * d) > budget:
        raise BudgetExceeded(
            f"{q}^{d * d} candidates exceed the budget of {budget}")
    sp = _space(T.field, d)
    return _ColumnSearch(sp, _encode_matrix(sp.tbl, T))


def enumerate_orbref0(T: Matrix, budget: int = DEFAULT_ENUM_BUDGET) -> Orbref0Result:
    """The exact set OrbRef0(T) by exhaustive candidate scan, with the
    comparison against the scaled power orbit.  `members` and `difference`
    decode their matrices on access."""
    search = _column_search(T, budget)
    members = search.members()
    forb = search.forb
    return Orbref0Result(
        base=T,
        members=_Decoded(search.sp, members),
        orbref0_size=len(members),
        forb_size=len(forb),
        equal=len(members) == len(forb),
        difference=_Decoded(search.sp, [c for c in members if c not in forb]),
        tail=search.tail,
        cycle=search.cycle,
    )


def rigidity_violations(T: Matrix, budget: int = DEFAULT_ENUM_BUDGET) -> list[Matrix]:
    """The members S of OrbRef0(T) that violate scaled-power rigidity
    (S f = beta T^k f != 0 for some f, beta and k >= 1 must force
    S = beta T^k), each once and in enumeration order."""
    search = _column_search(T, budget)
    return [search.sp.decode(cols) for cols in
            _rigidity_violators(search.sp, search.members(), search.forb)]


# ---------------------------------------------------------------------------
# exhaustive space scan with cache
# ---------------------------------------------------------------------------

@dataclass
class ScanResult:
    q: int
    d: int
    total: int
    scanned: int
    from_cache: int
    counts: dict
    violations: list[dict]
    rigidity_violations: list[dict]
    cache_path: Optional[str]

    def as_dict(self) -> dict:
        return {
            "q": self.q,
            "d": self.d,
            "total": self.total,
            "scanned": self.scanned,
            "from_cache": self.from_cache,
            "counts": self.counts,
            "violations": self.violations,
            "rigidity_violations": self.rigidity_violations,
            "cache": self.cache_path,
        }


def matrix_hash(q: int, d: int, digits: Iterable[int]) -> str:
    body = f"{q}:{d}:" + ",".join(str(c) for c in digits)
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def _matrix_cols_from_index(idx: int, q: int, d: int):
    """Row-major base-q digits of idx, returned column-encoded."""
    digits = to_digits(idx, q, d * d)
    cols = tuple(tuple(digits[i * d + j] for i in range(d)) for j in range(d))
    return cols, digits


def _char_poly_int(tbl: _Tables, cols, d: int) -> tuple[int, ...]:
    """Characteristic polynomial coefficients (constant first, monic), by
    explicit minor sums -- division-free, any characteristic, d <= 3."""
    add, mul, neg = tbl.add, tbl.mul, tbl.neg

    def a(i, j):
        return cols[j][i]

    if d == 1:
        return (neg[a(0, 0)], 1)
    if d == 2:
        tr = add[a(0, 0)][a(1, 1)]
        det = add[mul[a(0, 0)][a(1, 1)]][neg[mul[a(0, 1)][a(1, 0)]]]
        return (det, neg[tr], 1)
    if d == 3:
        tr = add[add[a(0, 0)][a(1, 1)]][a(2, 2)]

        def minor2(r1, r2, c1, c2):
            return add[mul[a(r1, c1)][a(r2, c2)]][neg[mul[a(r1, c2)][a(r2, c1)]]]

        m2 = add[add[minor2(0, 1, 0, 1)][minor2(0, 2, 0, 2)]][minor2(1, 2, 1, 2)]
        det = 0
        for perm, sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                           ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
            term = mul[mul[a(0, perm[0])][a(1, perm[1])]][a(2, perm[2])]
            det = add[det][term if sign > 0 else neg[term]]
        return (neg[det], m2, neg[tr], 1)
    raise ValueError("integer char poly implemented for d <= 3 only")


def _poly_deflate_int(tbl: _Tables, coeffs, root: int):
    out = []
    acc = 0
    for c in reversed(coeffs):
        acc = tbl.add[tbl.mul[acc][root]][c]
        out.append(acc)
    rem = out.pop()
    return tuple(reversed(out)), rem


def _splits_int(tbl: _Tables, coeffs) -> bool:
    cur = coeffs
    for x in range(tbl.q):
        while len(cur) > 1:
            quot, rem = _poly_deflate_int(tbl, cur, x)
            if rem != 0:
                break
            cur = quot
    return len(cur) == 1


def _min_poly_int(tbl: _Tables, cols, d: int) -> tuple[int, ...]:
    """Least monic dependence among vec(T^0), vec(T^1), ... by elimination."""
    q = tbl.q
    add, mul, neg = tbl.add, tbl.mul, tbl.neg
    basis: list[tuple[list[int], list[int], int]] = []
    power = _identity_cols(q, d)
    for deg in range(d + 1):
        vec = [power[j][i] for j in range(d) for i in range(d)]
        combo = [0] * (d + 2)
        combo[deg] = 1
        for bvec, bcombo, piv in basis:
            c = vec[piv]
            if c == 0:
                continue
            vec = [add[x][neg[mul[c][y]]] for x, y in zip(vec, bvec)]
            combo = [add[x][neg[mul[c][y]]] for x, y in zip(combo, bcombo)]
        piv = next((i for i, x in enumerate(vec) if x), None)
        if piv is None:
            inv = tbl.inv[combo[deg]]
            return tuple(mul[inv][c] for c in combo[:deg + 1])
        inv = tbl.inv[vec[piv]]
        vec = [mul[inv][x] for x in vec]
        combo = [mul[inv][x] for x in combo]
        basis.append((vec, combo, piv))
        power = tbl.mat_mul(power, cols)
    raise AssertionError("dependence must occur by degree d")


def _classify_chunk(payload) -> list[tuple]:
    """Cheap per-matrix classification: (idx, hash, key, split, nilpotent)."""
    (p, k, modulus, d, start, stop, nilpotent_only) = payload
    field = FiniteField(p, k, modulus)
    tbl = _Tables(field)
    q = tbl.q
    out = []
    for idx in range(start, stop):
        cols, digits = _matrix_cols_from_index(idx, q, d)
        cp = _char_poly_int(tbl, cols, d)
        nil = all(c == 0 for c in cp[:-1])
        if nilpotent_only and not nil:
            continue
        mp = _min_poly_int(tbl, cols, d)
        split = _splits_int(tbl, cp)
        out.append((idx, matrix_hash(q, d, digits), (cp, mp), split, nil))
    return out


def _enumerate_one(payload) -> tuple:
    """Full enumeration of one matrix: (equal, orbref0, forb, rigidity_ok)."""
    (p, k, modulus, d, idx, rigidity) = payload
    sp = _space(FiniteField(p, k, modulus), d)
    cols, _ = _matrix_cols_from_index(idx, sp.q, d)
    search = _ColumnSearch(sp, cols)
    size, forb = search.count(), search.forb
    # forb lies inside OrbRef0, so no member outside it means size == |forb|
    rig_ok = size == len(forb) and not _clashing(sp, forb) if rigidity else None
    return (size == len(forb), size, len(forb), rig_ok)


def _blocks(pending: list[int], workers: int) -> list[list[int]]:
    """Contiguous index blocks for the classification pass."""
    if not pending:
        return []
    nchunks = max(1, min(workers * 4, len(pending)))
    size = (len(pending) + nchunks - 1) // nchunks
    return [pending[pos:pos + size] for pos in range(0, len(pending), size)]


def _fan_out(workers: int, fn, payloads: list) -> list:
    """Run fn over payloads, with a fork pool when workers > 1; output order
    follows payload order regardless of worker count."""
    if not payloads:
        return []
    if workers > 1 and len(payloads) > 1:
        from multiprocessing import get_context

        with get_context("fork").Pool(min(workers, len(payloads))) as pool:
            return pool.map(fn, payloads)
    return [fn(p) for p in payloads]


def default_cache_path() -> str:
    return os.environ.get("ORBITREF_CACHE",
                          os.path.join(".orbitref", "ffscan.jsonl"))


def _field_key(field: FiniteField) -> dict:
    """The row fields naming the scanned field; JSON turns the modulus tuple
    into a list, so it is stored as one."""
    modulus = list(field.modulus) if field.modulus is not None else None
    return {"p": field.p, "k": field.k, "modulus": modulus}


def _load_cache(path: str, field: FiniteField, d: int,
                need_rigidity: bool) -> dict[int, dict]:
    """Rows of this field and dimension; rows of another field, or written
    before rows named their field, count as misses."""
    key = _field_key(field)
    rows: dict[int, dict] = {}
    if not path or not os.path.exists(path):
        return rows
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue
            if row.get("d") != d or any(row.get(f) != v for f, v in key.items()):
                continue
            if need_rigidity and row.get("rigidity_ok") is None:
                continue
            rows[row["i"]] = row
    return rows


def scan_space(field: FiniteField, d: int, *, nilpotent_only: bool = False,
               rigidity: bool = False, dedup: bool = True,
               budget: int = DEFAULT_ENUM_BUDGET, workers: int = 1,
               limit: Optional[int] = None,
               cache_path: Optional[str] = None) -> ScanResult:
    """Classify every d x d matrix over GF(q): does OrbRef0 equal the scaled
    power orbit, and does the minimal polynomial split?

    Two phases: a cheap classification pass over all matrices, then the
    expensive enumeration -- once per (char poly, min poly) similarity class
    under dedup, or once per matrix without it.  Both phases fan out across
    workers; results are identical for any worker count.
    """
    if d > 3:
        raise ValueError("scan_space supports d <= 3")
    q = field.q
    if q ** (d * d) > budget:
        raise BudgetExceeded(
            f"{q}^{d * d} candidates per matrix exceed the budget of {budget}")
    total = q ** (d * d)
    scan_total = min(total, limit) if limit else total
    cached = _load_cache(cache_path, field, d, rigidity) if cache_path else {}
    pending = [i for i in range(scan_total) if i not in cached]

    params = (field.p, field.k, field.modulus, d)
    classification = _fan_out(
        workers,
        _classify_chunk,
        [params + (block[0], block[-1] + 1, nilpotent_only)
         for block in _blocks(pending, workers)],
    )
    info = [item for part in classification for item in part
            if item[0] < scan_total and item[0] not in cached]

    # enumeration targets: the first representative per class, or every matrix
    reps: dict[tuple, int] = {}
    if dedup:
        for idx, _, key, _, _ in info:
            reps.setdefault(key, idx)
        targets = sorted(set(reps.values()))
    else:
        targets = [idx for idx, *_ in info]
    enum_results = _fan_out(workers, _enumerate_one,
                            [params + (idx, rigidity) for idx in targets])
    by_target = dict(zip(targets, enum_results))

    new_rows: dict[int, dict] = {}
    for idx, mhash, key, split, nil in info:
        equal, osize, fsize, rig_ok = by_target[reps[key] if dedup else idx]
        new_rows[idx] = {
            "q": q, **_field_key(field), "d": d, "i": idx, "hash": mhash,
            "split": split, "nilpotent": nil, "equal": equal,
            "orbref0": osize, "forb": fsize, "rigidity_ok": rig_ok,
        }

    if cache_path and new_rows:
        os.makedirs(os.path.dirname(cache_path) or ".", exist_ok=True)
        with open(cache_path, "a", encoding="utf-8") as fh:
            for i in sorted(new_rows):
                fh.write(json.dumps(new_rows[i], sort_keys=True) + "\n")

    counts = {
        "split": 0, "split_equal": 0, "split_not_equal": 0,
        "nonsplit": 0, "nonsplit_equal": 0, "nonsplit_not_equal": 0,
        "nilpotent": 0, "nilpotent_equal": 0,
        "rigidity_checked": 0, "rigidity_violating": 0,
    }
    violations: list[dict] = []
    rigidity_bad: list[dict] = []
    used_cache = 0
    examined = 0
    for i in range(scan_total):
        row = new_rows.get(i) or cached.get(i)
        if row is None:
            continue  # filtered out by nilpotent_only
        if nilpotent_only and not row["nilpotent"]:
            continue  # cached rows from an unfiltered scan
        if i in cached:
            used_cache += 1
        examined += 1
        if row["split"]:
            counts["split"] += 1
            counts["split_equal" if row["equal"] else "split_not_equal"] += 1
            if not row["equal"]:
                violations.append({"i": row["i"], "hash": row["hash"],
                                   "orbref0": row["orbref0"], "forb": row["forb"]})
        else:
            counts["nonsplit"] += 1
            counts["nonsplit_equal" if row["equal"] else "nonsplit_not_equal"] += 1
        if row["nilpotent"]:
            counts["nilpotent"] += 1
            if row["equal"]:
                counts["nilpotent_equal"] += 1
        if row.get("rigidity_ok") is not None:
            counts["rigidity_checked"] += 1
            if not row["rigidity_ok"]:
                counts["rigidity_violating"] += 1
                rigidity_bad.append({"i": row["i"], "hash": row["hash"]})
    return ScanResult(
        q=q, d=d, total=scan_total, scanned=examined, from_cache=used_cache,
        counts=counts, violations=violations, rigidity_violations=rigidity_bad,
        cache_path=cache_path,
    )


def matrix_from_scan_index(field: FiniteField, d: int, idx: int) -> Matrix:
    """Reconstruct the matrix a scan row refers to (row-major digit order)."""
    tbl = _Tables(field)
    cols, _ = _matrix_cols_from_index(idx, field.q, d)
    return _decode_matrix(tbl, cols, d)
