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

GF(q) has one coding in the whole package: an element is its index in
the field's element order, the payload of its Scalar.  A vector of
GF(q)^d is the from_digits index of its coordinates, and a matrix is the
tuple of its coded columns.  Scalar arithmetic is the field's own, on
its ring `linalg._finite_ring`.  `_Space` builds the tables of GF(q)^d
once per (field, d) and process: vector addition, scaling, the bitmask of
each vector's line, and numpy arrays of the scalar operations for the
classify pass's gathers.  T's powers come from walking each column along
the vector map of T, T^(n+1) e_j = T (T^n e_j), and the scaled orbit is
read off the scaling table.  The orbit set of x is the OR of the line
masks along the walk x -> Tx -> T^2 x, so it is the line of Tx joined
to the orbit set of Tx, and a vector on a cycle of x -> Tx has the lines
of its whole cycle: the sets of all vectors come out of one pass that
visits each vector once.  Candidates are searched
depth-first over their columns (the images of the basis vectors), column 0
outermost: column j ranges over the orbit set of e_j, and once it is fixed
every vector x whose highest nonzero coordinate is j is checked, with its
image read as img[x] = img[rest] + c * col_j from a vector already done.
A failed check drops every candidate sharing the prefix at once.  A check
whose orbit set is the whole space can never fail and is dropped; once no
check is left the remaining columns combine freely, so a T transitive on
lines has every candidate as a member without a walk.  |OrbRef0(T)| is counted
without listing the members.  An orbit set is a union of lines, so for
lam != 0, lam S is a member exactly when S is: while columns 0..j-1 are
zero, the count tries column j at zero and at the least nonzero vector of
each line, and counts each such subtree q - 1 times.  `enumerate_orbref0`
walks the search for its members and its difference from the scaled
orbit only as far as a caller reads them, and decodes Matrix objects only
then; a slice reads only the members it returns.  The scaled orbit must
pass the same checks as every candidate, or the module raises an
internal error.

`orbref0_contains` tests one candidate.  The vector-addition table alone
has q^(2d) entries, so it builds no table and walks x -> Tx -> T^2 x ->
... up to the first repeat for one vector at a time, on the rows of
`linalg.integer_form` with the ring's dot, mul and divx.  Each budget
counts its work: for `orbref0_contains` the q^d vectors checked plus
every step of their walks, each up to ord(T) long, and for an
enumeration or a scan the larger of the q^(d^2) candidates and the
q^(2d) entries of the vector tables.  The tables are the larger only at
d = 1, where over GF(10007) they alone would hold 10^8 entries.

`scan_space` sweeps every d x d matrix over GF(q) and classifies each by
the key (cp, r): cp its characteristic polynomial, and r the rank of
T - aI at the repeated root a of cp, or None when cp has no repeated
root.  cp is `linalg._berkowitz`, the loop behind `char_poly`, run once
per block of scan indices on numpy arrays of the block's digits, with
products and sums gathered from the space's scalar arrays.  What depends
on cp alone -- whether it splits (`_poly.split_roots`, as in `eigenvalues`),
whether it is nilpotent, and its repeated root -- is worked out once per
distinct cp of a chunk, on the field's ring `linalg._finite_ring`.  r is
`linalg._bareiss`, the package's one elimination, on that ring.  At
d <= 3 the key fixes the similarity class.  cp has at most one repeated
root.  A cp with none is square-free, since a squared irreducible factor
of degree >= 2 needs d >= 4, so T is cyclic and cp fixes its class.
Otherwise d - r is the number of Jordan blocks at a, and with a's
multiplicity at most 3 that number fixes their sizes.  At d = 4 it does not: the nilpotent [3,1] and
[2,2] both have rank 2, and over GF(3) (t^2 + 1)^2 has no root, yet the
types [2] and [1,1] at t^2 + 1 are two classes.  So the scan stops at
d = 3.  A matrix's row-major scan digits give its coded columns
(`_scan_cols`), so `_space(field, d).decode` rebuilds the matrix of any
scan row.  Then the scan checks OrbRef0 = scaled-power-orbit per matrix.
Verdicts are similarity invariants, and they are scaling invariants too:
for lam != 0 and n >= 1, mu -> mu lam^n is a bijection of GF(q), so
{mu (lam T)^n x} = {mu T^n x} for every x, and lam T has the orbit sets,
OrbRef0, scaled power orbit and rigidity verdict of T.  So by default
the scan runs the expensive enumeration once per scaling class, keyed by
the least lam-scaling of cp with r (lam T - lam a I has the rank of
T - aI), and a flag forces the plain per-matrix scan.

With several workers one fork pool serves both passes, but only when the
pending work pays for it.  The work counts d^2 units per pending matrix
(the entries its classification reads), times q^d without dedup, where
every pending matrix is also enumerated by a search over GF(q)^d; the
pool starts at 2^18 units, with no more workers than the CPUs the
process may use and 4 index blocks per worker.  Cold scans without
cache, each in a fresh process on a 2-CPU Xeon host with Python 3.11, two
workers against one over 5-11 alternating rounds: M3(GF(3)) (177 147
units) 0.24-0.33 against 0.17-0.28 s, M2(GF(16)) (262 144) 0.40-0.50
against 0.50-0.66 s, and the full M3(GF(4)) (2 359 296) 1.4-1.8 against
1.8-2.3 s.

Results persist to a JSON-lines cache.  Each scan that finishes new
matrices appends one line with one write.  The line names the field (p, k
and the modulus) and d, and holds the list "i" of matrix indices and one
list per row field in _COLUMNS order, all of one length.  A row keeps
only what the scan cannot derive: q is p^k, a row's equality verdict is
orbref0 == forb, and a matrix hash follows from q, d and the index, so a
scan hashes just the rows its report prints, whether they come from the
cache or were just scanned.  Lines of the earlier layout also stored q,
"hash" and "equal"; the loader ignores those keys and serves their rows.
Re-runs skip finished matrices, and rows of another field or modulus are
never reused.  The cache is read in one pass with one JSON decoder.  Blank,
malformed, torn and non-object lines are skipped, and so are lines with
trailing text, lines of another field or dimension or naming none,
lines whose columns are missing, are no lists or differ in length,
lines with an index that is no integer, and lines with a value of the
wrong type or an orbref0 below forb or a forb below 1.  A
line of the older one-row-per-line layout holds one index, not a list,
so its matrix is scanned again once.  A row with no rigidity verdict is a
miss for a scan that checks rigidity.  A write that finds the file's last
line torn starts with a newline, so only the torn line is lost.
"""

from __future__ import annotations

import hashlib
import json
import operator
import os
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice, product
from math import prod
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import (
    BudgetExceeded,
    MixedFields,
    OrbitrefError,
    ShapeMismatch,
    WrongField,
)
from .fields import KIND_FINITE, FiniteField, Scalar, from_digits, to_digits
from ._poly import split_roots
from .linalg import Matrix, Ring, _bareiss, _berkowitz, _finite_ring, integer_form

DEFAULT_BUDGET = 2 ** 24
# the row fields of a scan, in row-tuple order; a cache line holds one list
# of each beside the list "i" of matrix indices
_COLUMNS = ("split", "nilpotent", "orbref0", "forb", "rigidity_ok")


# ---------------------------------------------------------------------------
# integer-coded GF(q) and GF(q)^d
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
    """GF(q)^d with each vector coded as the from_digits index of its
    coordinates, its tables (vector addition, scaling, the bitmask of each
    vector's line) and the classify pass's numpy gathers of scalar add, mul
    and neg.  `_space` builds one per (field, d) and process, on first use."""

    def __init__(self, field: FiniteField, d: int):
        q = field.q
        self.field, self.q, self.d, self.n = field, q, d, q ** d
        els = range(q)
        add = [[field._add(a, b) for b in els] for a in els]
        mul = [[field._mul(a, b) for b in els] for a in els]
        self.gathers = tuple(map(np.array, (add, mul, [field._neg(a) for a in els])))
        self.vadd = _vector_add_table(add, q, d)
        # scale[v][c] is the index of c * v
        self.scale = [[from_digits([row[a] for a in to_digits(v, q, d)], q)
                       for row in mul] for v in range(self.n)]
        self.line = [sum(1 << w for w in set(multiples)) for multiples in self.scale]
        # least[v]: v is nonzero and the least index on its line
        self.least = [0 < v == min(multiples[1:]) for v, multiples in enumerate(self.scale)]
        # the vectors whose highest nonzero coordinate is j, as
        # (x, rest, c) with x = rest + c * e_j
        self.levels = [[(x, x % q ** j, x // q ** j) for x in range(q ** j, q ** (j + 1))]
                       for j in range(d)]

    def encode(self, M: Matrix) -> tuple[int, ...]:
        return tuple(from_digits([s.value for s in M.col(j)], self.q)
                     for j in range(M.n))

    def decode(self, cols) -> Matrix:
        q, d, scalar = self.q, self.d, self.field.scalar
        digits = [to_digits(c, q, d) for c in cols]
        return Matrix(self.field, [[scalar(col[i]) for col in digits] for i in range(d)])

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
    return _Space(field, d)


def _charge(q: int, units: int, what: str, budget: int, tables: int = 0):
    """Refuse q^units units of work, or the q^tables vector-table entries
    built for it, past the budget; the message names the larger count."""
    n, what = (units, what) if units >= tables else (tables, "table entries")
    if q ** n > budget:
        raise BudgetExceeded(f"{q}^{n} {what} exceed the budget of {budget}")


def _positive_powers(powers, tail: int):
    """The distinct matrices among {T^n : n >= 1}.  When the sequence is
    purely cyclic (tail 0) the identity recurs as T^cycle and stays in."""
    return powers if tail == 0 else powers[1:]


# ---------------------------------------------------------------------------
# enumeration kernel on integer-coded vectors
# ---------------------------------------------------------------------------

def _orbit_masks(sp: _Space, timg: list[int]) -> list[int]:
    """Bit v of masks[x] says v = lam * T^n x for some lam and n >= 1: the
    OR of the lines met along the walk x -> Tx -> T^2 x -> ... under the
    vector map timg of T, up to its first repeat.  The walk from x goes on
    as the walk from Tx, so masks[x] = line[Tx] | masks[Tx], and a vector
    on a cycle of the map gets the OR of the lines of its whole cycle.
    Each vector is visited once."""
    line = sp.line
    masks = [-1] * sp.n
    walk_of = [-1] * sp.n  # the start of the walk that met each vector
    for x in range(sp.n):
        path = []
        y = x
        while masks[y] < 0 and walk_of[y] != x:
            walk_of[y] = x
            path.append(y)
            y = timg[y]
        if masks[y] < 0:  # the walk closed a cycle at y
            cyc = path[path.index(y):]
            del path[-len(cyc):]
            m = 0
            for v in cyc:
                m |= line[v]
            for v in cyc:
                masks[v] = m
        for v in reversed(path):
            y = timg[v]
            masks[v] = line[y] | masks[y]
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

    def __init__(self, sp: _Space, Tcols: tuple[int, ...]):
        q, d, n = sp.q, sp.d, sp.n
        timg = sp.vector_map(Tcols)
        # the distinct powers T^0, T^1, ... column by column,
        # T^(n+1) e_j = T (T^n e_j), up to the first repeated matrix
        seen: dict[tuple[int, ...], int] = {}
        power = tuple(q ** j for j in range(d))
        while power not in seen:
            seen[power] = len(seen)
            power = tuple(timg[c] for c in power)
        powers = list(seen)
        self.tail = seen[power]
        self.cycle = len(powers) - self.tail
        scale = sp.scale
        self.forb = frozenset([(0,) * d] + [
            tuple(scale[c][lam] for c in P)
            for P in _positive_powers(powers, self.tail) for lam in range(1, q)])
        masks = _orbit_masks(sp, timg)
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
        # the scaled orbit sits inside OrbRef0(T); the orbit sets come from
        # walks of single vectors and the scaled orbit from the column walk
        # of the powers, so a scaled power failing the column checks is a
        # fault of this module
        if not all(self._passes(R) for R in self.forb):
            raise OrbitrefError("a scaled power of T fails the OrbRef0 column checks")

    def _fits(self, j: int, col: int, img: list[int]) -> bool:
        """Fix column j to col: fill the images of level j into img and
        check them."""
        vadd = self.sp.vadd
        multiples = self.sp.scale[col]
        for x, rest, c, mask in self.items[j]:
            y = vadd[img[rest]][multiples[c]]
            if not mask >> y & 1:
                return False
            img[x] = y
        return True

    def _passes(self, cols) -> bool:
        img = [0] * self.sp.n
        return all(m >> col & 1 and self._fits(j, col, img)
                   for j, (m, col) in enumerate(zip(self.col_masks, cols)))

    # the recursions are methods, not nested functions: a nested function
    # that calls itself is a reference cycle, and it would keep the search
    # alive until the next garbage collection.  Each walk fills its own
    # image buffer, so walks of one search may interleave.

    def members(self) -> Iterator[tuple[int, ...]]:
        """The members one at a time, column-coded, in product order over
        the columns.  The walk starts at the first member read."""
        yield from self._walk(0, (), [0] * self.sp.n)

    def _walk(self, j: int, prefix: tuple[int, ...], img: list[int]):
        if j == self.depth:
            yield from (prefix + rest for rest in product(*self.allowed[j:]))
            return
        for col in self.allowed[j]:
            if self._fits(j, col, img):
                yield from self._walk(j + 1, prefix + (col,), img)

    def count(self) -> int:
        """The number of members, without listing them.  Orbit sets are
        unions of lines, so lam S is a member exactly when S is (lam != 0).
        So while columns 0..j-1 are zero, a nonzero column j is tried only
        where it is least on its line, and its subtree counts q - 1 times."""
        q, least, img = self.sp.q, self.sp.least, [0] * self.sp.n
        free = prod(len(cols) for cols in self.allowed[self.depth:])
        total = free  # every column that a check reads is zero
        for j in range(self.depth):
            total += (q - 1) * sum(self._count(j + 1, free, img) for col in self.allowed[j]
                                   if least[col] and self._fits(j, col, img))
            # column j is zero from here on: a zero column always fits
            # below a zero prefix, and it resets level j's images to zero
            self._fits(j, 0, img)
        return total

    def _count(self, j: int, free: int, img: list[int]) -> int:
        # free: the number of ways to fill the columns that no check reads
        if j == self.depth:
            return free
        return sum(self._count(j + 1, free, img)
                   for col in self.allowed[j] if self._fits(j, col, img))


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
        return {P.scale(lam) for P in _positive_powers(self.powers, self.tail)
                for lam in self.base.field.elements()}


def _require_finite(M: Matrix):
    if M.field.kind != KIND_FINITE:
        raise WrongField("orbit oracle operations need a finite-field matrix")


def power_orbit(T: Matrix) -> OrbitSet:
    """Enumerate T^0, T^1, ... until the first repeated matrix."""
    _require_finite(T)
    seen: dict[Matrix, int] = {}
    P = Matrix.identity(T.field, T.n)
    while P not in seen:
        seen[P] = len(seen)
        P = T @ P
    powers = tuple(seen)
    return OrbitSet(base=T, powers=powers, tail=seen[P], cycle=len(powers) - seen[P])


def orbref0_contains(T: Matrix, S: Matrix,
                     budget: int = DEFAULT_BUDGET
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
    _charge(q, d, "vector checks", budget)
    # each check walks up to ord(T) steps, and the budget counts them too
    steps_left = budget - q ** d
    # no tables: those of GF(q)^d would hold q^(2d) entries
    _, Trows, ring = integer_form(T)
    Srows, mul, div, dot = integer_form(S).rows, ring.mul, ring.divx, ring.dot
    for code in range(q ** d):
        x = to_digits(code, q, d)
        y = [dot(row, x) for row in Srows]
        i = next((i for i, c in enumerate(y) if c), None)
        if i is None:
            continue  # lam = 0 always fits
        # walk z = Tx, T^2 x, ... up to the first repeat: y must be a
        # multiple lam * z, and as y_i != 0 at y's first nonzero coordinate
        # i, lam is y_i / z_i
        seen = set()
        z = tuple([dot(row, x) for row in Trows])
        while z not in seen:
            steps_left -= 1
            if steps_left < 0:
                raise BudgetExceeded(f"{q}^{d} vector checks and their walk steps "
                                     f"exceed the budget of {budget}")
            seen.add(z)
            if z[i]:
                lam = div(y[i], z[i])
                if [mul(lam, c) for c in z] == y:
                    break
            z = tuple([dot(row, z) for row in Trows])
        else:
            return False, tuple(map(T.field.scalar, x))
    return True, None


class _Decoded(Sequence):
    """`size` column-coded matrices of one space, drawn from an iterator only
    as far as a caller reads and decoded to Matrix on access, so a caller
    that reads a few of them walks and decodes only those, and an empty
    slice walks nothing."""

    def __init__(self, sp: _Space, size: int, coded: Iterator):
        self._sp, self._size, self._source = sp, size, coded
        self._coded: list = []

    def __len__(self) -> int:
        return self._size

    def _read(self, stop: int):
        if stop > len(self._coded):
            self._coded.extend(islice(self._source, stop - len(self._coded)))

    def __getitem__(self, i):
        if isinstance(i, slice):
            wanted = range(*i.indices(self._size))
            if wanted:
                self._read(max(wanted[0], wanted[-1]) + 1)
            return tuple(self._sp.decode(self._coded[j]) for j in wanted)
        if i < 0:
            i += self._size
        if not 0 <= i < self._size:
            raise IndexError(i)
        self._read(i + 1)
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
    _charge(q, d * d, "candidates", budget, tables=2 * d)
    sp = _space(T.field, d)
    return _ColumnSearch(sp, sp.encode(T))


def enumerate_orbref0(T: Matrix, budget: int = DEFAULT_BUDGET) -> Orbref0Result:
    """The exact set OrbRef0(T) by exhaustive candidate scan, with the
    comparison against the scaled power orbit.  The sizes come from
    counting; `members` and `difference` walk the search and decode their
    matrices only as far as a caller reads them."""
    search = _column_search(T, budget)
    size, forb = search.count(), search.forb
    # forb lies inside OrbRef0, so size - |forb| members lie outside it
    return Orbref0Result(
        base=T,
        members=_Decoded(search.sp, size, search.members()),
        orbref0_size=size,
        forb_size=len(forb),
        equal=size == len(forb),
        difference=_Decoded(search.sp, size - len(forb),
                            (c for c in search.members() if c not in forb)),
        tail=search.tail,
        cycle=search.cycle,
    )


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
    body = f"{q}:{d}:" + ",".join(map(str, digits))
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def _scan_cols(digits, q: int, d: int) -> tuple[int, ...]:
    """The coded columns of the matrix with these row-major scan digits."""
    return tuple(from_digits(digits[j::d], q) for j in range(d))


def _cp_facts(ring: Ring, cp: tuple[int, ...]) -> tuple[bool, bool, Optional[int]]:
    """(split, nilpotent, repeated root) for the characteristic polynomial cp
    (leading first) over the GF(q) ring: the repeated root is the root of
    multiplicity >= 2, or None.  At d <= 3 cp has at most one."""
    roots, rest = split_roots(cp, ring.candidates(cp), ring.mul, ring.add,
                              ring.is_zero)
    return (len(rest) == 1, not any(cp[1:]),
            next((a for a, mult in roots if mult > 1), None))


def _classify_chunk(payload) -> list[tuple]:
    """Cheap per-matrix classification: (idx, key, split, nilpotent).
    Berkowitz's recursion has no divisions and no branches, so one
    `linalg._berkowitz` call runs it on every matrix of the block at once:
    each entry is the array of its scan digits over the block, and a dot
    product is a gather from the space's scalar arrays.  The facts that
    depend only on the characteristic polynomial cp come from `_cp_facts`
    once per distinct cp of the chunk.  The key is the module docstring's
    (cp, r), with r by `linalg._bareiss` on the field's ring."""
    (field, d, start, stop, nilpotent_only) = payload
    sp, ring = _space(field, d), _finite_ring(field)
    q = sp.q
    add, mul, neg = sp.gathers

    def dot(r, c):
        acc = 0
        for a, b in zip(r, c):
            acc = add[acc, mul[a, b]]
        return acc

    idx = np.arange(start, stop)
    entries = [idx // q ** pos % q for pos in range(d * d)]
    # a border is skipped only where it is zero on every matrix of the block
    poly = _berkowitz([entries[i * d:(i + 1) * d] for i in range(d)],
                      dot, neg.__getitem__, 1,
                      lambda digits: not digits.any())
    cps = np.stack(np.broadcast_arrays(*poly), axis=1).tolist()
    sub = ring.sub
    field_ops = (ring.mul, sub, ring.divx, ring.is_zero)
    facts: dict[tuple, tuple[bool, bool, Optional[int]]] = {}
    keys: dict[tuple, tuple] = {}  # one object per key, shared by its rows
    out = []
    for i, digits, cp in zip(range(start, stop), np.stack(entries, axis=1).tolist(),
                             map(tuple, cps)):
        if cp not in facts:
            facts[cp] = _cp_facts(ring, cp)
        split, nil, root = facts[cp]
        if nilpotent_only and not nil:
            continue
        rank = None
        if root is not None:
            rows = [digits[pos:pos + d] for pos in range(0, d * d, d)]
            for j, row in enumerate(rows):
                row[j] = sub(row[j], root)
            rank = _bareiss(rows, *field_ops)[0]
        key = keys.setdefault((cp, rank), (cp, rank))
        out.append((i, key, split, nil))
    return out


def _enumerate_one(payload) -> tuple:
    """Full enumeration of one matrix: (orbref0, forb, rigidity_ok)."""
    (field, d, idx, rigidity) = payload
    sp = _space(field, d)
    search = _ColumnSearch(sp, _scan_cols(to_digits(idx, sp.q, d * d), sp.q, d))
    size, forb = search.count(), search.forb
    # forb lies inside OrbRef0, so no member outside it means size == |forb|
    rig_ok = size == len(forb) and not _clashing(sp, forb) if rigidity else None
    return (size, len(forb), rig_ok)


def _scaling_class(mul, q: int, key) -> tuple:
    """The least lam-scaling of cp over lam in GF(q)*, with the rank r of
    key = (cp, r), on the field's multiplication mul.  det(tI - lam T)
    is lam^m cp(t / lam), so scaling T by lam multiplies coefficient i of
    cp (leading first), that of t^(m-i), by lam^i, and it moves the
    repeated root a to lam a, where lam T - lam a I has the rank of
    T - aI."""
    cp, rank = key
    scalings = []
    for lam in range(1, q):
        powers = [1]  # lam^0, lam^1, ... as element indices
        for _ in cp[1:]:
            powers.append(mul(powers[-1], lam))
        scalings.append(tuple(mul(power, c) for power, c in zip(powers, cp)))
    return min(scalings), rank


# The pending work, in d^2 units per matrix (times q^d without dedup), at
# which a scan starts its fork pool; the module docstring has the rule and
# its measurement.
_FORK_MIN_WORK = 2 ** 18


def _blocks(pending: Sequence[int], workers: int) -> list[Sequence[int]]:
    """Contiguous index blocks for the classification pass."""
    if not pending:
        return []
    nchunks = max(1, min(workers * 4, len(pending)))
    size = (len(pending) + nchunks - 1) // nchunks
    return [pending[pos:pos + size] for pos in range(0, len(pending), size)]


def _pool(workers: int, pending: int, work: int):
    """The fork pool of one scan, or no pool when one process does the
    work or the pending work is too small to pay for the pool."""
    if workers > 1 and work >= _FORK_MIN_WORK:
        from multiprocessing import get_context

        return get_context("fork").Pool(min(workers, pending))
    return nullcontext()


def default_cache_path() -> str:
    return os.environ.get("ORBITREF_CACHE",
                          os.path.join(".orbitref", "ffscan.jsonl"))


def _field_key(field: FiniteField) -> dict:
    """The line fields naming the scanned field; JSON turns the modulus
    tuple into a list, so it is stored as one."""
    modulus = list(field.modulus) if field.modulus is not None else None
    return {"p": field.p, "k": field.k, "modulus": modulus}


def _load_cache(path: str, field: FiniteField, d: int,
                need_rigidity: bool) -> dict[int, tuple]:
    """Rows of this field and dimension, as index -> tuple in _COLUMNS
    order, read in one pass with one decoder.  Blank, malformed and
    non-object lines, lines of another field or with none named, lines
    whose index or _COLUMNS lists are missing, are no lists or differ in
    length, and lines with an index that is no integer are skipped.  So
    is a line with a value of the wrong type: split and nilpotent must be
    bools, orbref0 and forb ints (no bools) with orbref0 >= forb >= 1, and
    rigidity_ok a bool or null.  A line without rigidity_ok serves unrated
    rows, and under need_rigidity an unrated row is a miss."""
    key = _field_key(field)
    want = (d, key["p"], key["k"], key["modulus"])
    decode = json.JSONDecoder().raw_decode
    rows: dict[int, tuple] = {}
    if not path or not os.path.exists(path):
        return rows
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            try:
                scan, end = decode(line)  # a blank line raises too
            except json.JSONDecodeError:
                continue
            if end != len(line) or not isinstance(scan, dict):
                continue
            if (scan.get("d"), scan.get("p"), scan.get("k"), scan.get("modulus")) != want:
                continue
            index = scan.get("i")
            if not isinstance(index, list) or not set(map(type, index)) <= {int}:
                continue
            columns = [scan.get(name) for name in _COLUMNS[:-1]]
            columns.append(scan.get("rigidity_ok", [None] * len(index)))
            if not all(isinstance(c, list) and len(c) == len(index) for c in columns):
                continue
            split, nilpotent, orbref0, forb, rigidity_ok = columns
            # forb holds the zero matrix and lies inside OrbRef0
            if not ({*map(type, split), *map(type, nilpotent)} <= {bool}
                    and {*map(type, orbref0), *map(type, forb)} <= {int}
                    and min(forb, default=1) >= 1 and all(map(operator.ge, orbref0, forb))
                    and set(map(type, rigidity_ok)) <= {bool, type(None)}):
                continue
            served = zip(index, zip(*columns))
            if need_rigidity:
                served = ((i, row) for i, row in served if row[-1] is not None)
            rows.update(served)
    return rows


def _append_line(path: str, line: dict):
    """Append one JSON line with one write.  A file whose last write was
    torn gets a newline first, so the torn line alone is lost."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    text = json.dumps(line, separators=(",", ":")) + "\n"
    with open(path, "ab+") as fh:
        if fh.seek(0, os.SEEK_END):
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                text = "\n" + text
        fh.write(text.encode("utf-8"))


def scan_space(field: FiniteField, d: int, *, nilpotent_only: bool = False,
               rigidity: bool = False, dedup: bool = True,
               budget: int = DEFAULT_BUDGET, workers: int = 1,
               limit: Optional[int] = None,
               cache_path: Optional[str] = None) -> ScanResult:
    """Classify every d x d matrix over GF(q): does OrbRef0 equal the scaled
    power orbit, and does the characteristic polynomial split?

    Two phases: a cheap classification pass over all matrices, then the
    expensive enumeration -- once per scaling class of the key (char poly,
    rank at its repeated root) under dedup, or once per matrix without it.
    When the pending work pays for a pool, both phases fan out across the
    workers of one pool; results are identical for any worker count.
    """
    if d > 3:
        raise ValueError("scan_space supports d <= 3")
    q = field.q
    _charge(q, d * d, "candidates per matrix", budget, tables=2 * d)
    # results do not depend on the worker count, and processes past the
    # CPUs this process may use would only add forks
    workers = min(workers, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count() or 1)
    total = q ** (d * d)
    scan_total = min(total, limit) if limit else total
    cached = _load_cache(cache_path, field, d, rigidity) if cache_path else {}
    pending = ([i for i in range(scan_total) if i not in cached] if cached
               else range(scan_total))

    params = (field, d)
    work = len(pending) * d * d * (1 if dedup else q ** d)  # see _FORK_MIN_WORK
    # one fork pool serves both passes; map keeps payload order, so the
    # results are the same for any worker count
    with _pool(workers, len(pending), work) as pool:
        fan_out = pool.map if pool else lambda fn, payloads: list(map(fn, payloads))
        payloads = [params + (block[0], block[-1] + 1, nilpotent_only)
                    for block in _blocks(pending, workers if pool else 1)]
        info = [item for part in fan_out(_classify_chunk, payloads)
                for item in part if item[0] not in cached]

        # enumeration targets: the first matrix of each scaling class, or
        # every matrix
        reps: dict[tuple, int] = {}
        if dedup:
            mul = _finite_ring(field).mul
            first: dict[tuple, int] = {}
            for idx, key, _, _ in info:
                if key not in reps:
                    reps[key] = first.setdefault(_scaling_class(mul, q, key), idx)
            targets = sorted(first.values())
        else:
            targets = [idx for idx, *_ in info]
        enum_results = fan_out(_enumerate_one,
                               [params + (idx, rigidity) for idx in targets])
    by_target = dict(zip(targets, enum_results))

    # rows in _COLUMNS order, in index order like info
    new_rows = {idx: (split, nil) + by_target[reps[key] if dedup else idx]
                for idx, key, split, nil in info}
    if cache_path and new_rows:
        columns = map(list, zip(*new_rows.values()))
        _append_line(cache_path, {**_field_key(field), "d": d,
                                  "i": list(new_rows), **dict(zip(_COLUMNS, columns))})

    counts = {
        "split": 0, "split_equal": 0, "split_not_equal": 0,
        "nonsplit": 0, "nonsplit_equal": 0, "nonsplit_not_equal": 0,
        "nilpotent": 0, "nilpotent_equal": 0,
        "rigidity_checked": 0, "rigidity_violating": 0,
    }
    violations: list[dict] = []
    rigidity_bad: list[dict] = []

    def printed(i: int) -> dict:
        """A printed row's index and hash; only these rows are hashed."""
        return {"i": i, "hash": matrix_hash(q, d, to_digits(i, q, d * d))}

    used_cache = 0
    examined = 0
    for i in range(scan_total):
        row = new_rows.get(i)
        if row is None:
            row = cached.get(i)
            if row is None:
                continue  # filtered out by nilpotent_only
            if nilpotent_only and not row[1]:
                continue  # cached rows from an unfiltered scan
            used_cache += 1
        split, nil, osize, fsize, rig_ok = row
        equal = osize == fsize
        examined += 1
        if split:
            counts["split"] += 1
            counts["split_equal" if equal else "split_not_equal"] += 1
            if not equal:
                violations.append({**printed(i), "orbref0": osize, "forb": fsize})
        else:
            counts["nonsplit"] += 1
            counts["nonsplit_equal" if equal else "nonsplit_not_equal"] += 1
        if nil:
            counts["nilpotent"] += 1
            if equal:
                counts["nilpotent_equal"] += 1
        if rig_ok is not None:
            counts["rigidity_checked"] += 1
            if not rig_ok:
                counts["rigidity_violating"] += 1
                rigidity_bad.append(printed(i))
    return ScanResult(
        q=q, d=d, total=scan_total, scanned=examined, from_cache=used_cache,
        counts=counts, violations=violations, rigidity_violations=rigidity_bad,
        cache_path=cache_path,
    )
