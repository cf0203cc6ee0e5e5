"""Dense exact/numeric matrix arithmetic: ranks, powers, characteristic
polynomials and commutators.

An exact matrix M is coded once to its integer form c M over a ring of
plain Python values and kept on the matrix: a Q or Q(i) matrix is cleared
to `int` or Gaussian-integer `(int, int)` entries, c the lcm of all entry
denominators, with the ring operations `ZZ` and `ZI`; a GF(q) matrix takes
c = 1, its entries' payloads (each element's index) and the ring that
`_finite_ring` builds once per field from the field's own operations.
Its characteristic polynomial, its eigenvalues and every exact rank run
on that form; only the results are divided back, the t^(n-k) coefficient
by c^k.  Three kernels, one loop each, run on any integral domain given
by its operations: Berkowitz's division-free recursion `_berkowitz` for
characteristic polynomials, fraction-free (Bareiss) elimination
`_bareiss` for exact ranks and pivot rows, and synthetic division
`_poly.split_roots` for the roots among the ring's candidates.  Q, Q(i) and
GF(q) run them on their rings; the oracle's scan runs Berkowitz on numpy
arrays of element indices, gathered from its GF(q) tables, and the other
two on the GF(q) ring.  The first two skip work that is provably zero,
which is most of a Jordan-form input: Berkowitz makes no Krylov product at
a step whose border row or column is zero, and Bareiss leaves a row whose
pivot-column entry is zero as it is, scaling it only when it is next
updated or taken as pivot, so a bidiagonal matrix takes O(n^2) work, not
O(n^3).  `power_ranks` gives the ranks of the
powers of M - lam I along a row chain: the pivot rows of one power times
M - lam I span the next power's row space, so no full power is ever
formed or eliminated.  Over Z and Z[i] the subresultant remainder
sequence `_poly.squarefree_part` gives the square-free part whose roots
the sieve lifts; over GF(q) every element is a candidate.  `_poly` holds
the package's one copy of polynomial arithmetic, coefficients leading
first; a `Polynomial` keeps its coefficients from the constant term up.
Floating complex matrices route rank questions through an SVD whose
threshold comes from the field descriptor, never from call sites.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import lcm
from typing import Any, Callable, NamedTuple

import numpy as np

from . import _gaussint as gi
from ._poly import format_poly, squarefree_part
from .errors import (
    MixedFields,
    NumericKindUnsupported,
    OrbitrefError,
    ShapeMismatch,
    WrongField,
)
from .fields import (
    KIND_COMPLEX,
    KIND_FINITE,
    KIND_GAUSSIAN,
    KIND_RATIONALS,
    Field,
    FiniteField,
    Scalar,
    embed,
)


class Matrix:
    """Immutable dense square matrix of scalars over one field."""

    # the two memos: `integer_form` and `spectra.eigenvalues` fill them
    __slots__ = ("field", "n", "rows", "_integer_form", "_eigenvalues")

    def __init__(self, field: Field, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if n == 0:
            raise ShapeMismatch("empty matrix")
        for r in rows:
            if len(r) != n:
                raise ShapeMismatch("matrix must be square")
            for s in r:
                if not isinstance(s, Scalar):
                    raise TypeError("matrix entries must be Scalars")
                if s.field is not field and s.field != field:
                    raise MixedFields("entry field differs from matrix field")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *args):
        raise AttributeError("Matrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_values(cls, field: Field, rows) -> "Matrix":
        """Build from values that `Field.coerce` takes.  Each distinct
        string is parsed once: matrix files repeat a few texts ("0", "1", an
        eigenvalue) across most entries, and a Scalar is immutable, so equal
        texts share one."""
        parsed: dict[str, Scalar] = {}
        conv = []
        for r in rows:
            out = []
            for v in r:
                if isinstance(v, str):
                    s = parsed.get(v)
                    if s is None:
                        s = parsed[v] = field.coerce(v)
                    out.append(s)
                else:
                    out.append(field.coerce(v))
            conv.append(out)
        return cls(field, conv)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one(), field.zero()
        return cls(field, [[one if i == j else zero for j in range(n)]
                           for i in range(n)])

    @classmethod
    def zeros(cls, field: Field, n: int) -> "Matrix":
        zero = field.zero()
        return cls(field, [[zero] * n for _ in range(n)])

    @classmethod
    def jordan_block(cls, field: Field, eigenvalue, size: int) -> "Matrix":
        """Lower-chain Jordan block: T e_k = lam e_k + e_{k+1}, T e_{m-1} = lam e_{m-1}."""
        lam = field.coerce(eigenvalue)
        one, zero = field.one(), field.zero()
        rows = [[zero] * size for _ in range(size)]
        for i in range(size):
            rows[i][i] = lam
            if i:
                rows[i][i - 1] = one
        return cls(field, rows)

    @classmethod
    def block_diag(cls, blocks) -> "Matrix":
        blocks = list(blocks)
        field = blocks[0].field
        n = sum(b.n for b in blocks)
        zero = field.zero()
        rows = [[zero] * n for _ in range(n)]
        off = 0
        for b in blocks:
            if b.field != field:
                raise MixedFields("all blocks must share one field")
            for i in range(b.n):
                for j in range(b.n):
                    rows[off + i][off + j] = b.rows[i][j]
            off += b.n
        return cls(field, rows)

    # -- access ------------------------------------------------------------

    def __getitem__(self, key) -> Scalar:
        i, j = key
        return self.rows[i][j]

    def col(self, j):
        return tuple(self.rows[i][j] for i in range(self.n))

    def to_strings(self) -> list[list[str]]:
        return [[str(s) for s in r] for r in self.rows]

    # -- arithmetic --------------------------------------------------------

    def _check_same(self, other: "Matrix"):
        if not isinstance(other, Matrix):
            raise TypeError("expected a Matrix")
        if other.field != self.field:
            raise MixedFields("matrices over different fields")
        if other.n != self.n:
            raise ShapeMismatch(f"dims {self.n} vs {other.n}")

    def __add__(self, other):
        self._check_same(other)
        return Matrix(self.field, [[a + b for a, b in zip(r1, r2)]
                                   for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        self._check_same(other)
        return Matrix(self.field, [[a - b for a, b in zip(r1, r2)]
                                   for r1, r2 in zip(self.rows, other.rows)])

    def __matmul__(self, other):
        self._check_same(other)
        n = self.n
        cols = [other.col(j) for j in range(n)]
        out = []
        for i in range(n):
            ri = self.rows[i]
            out.append([_dot(ri, cols[j]) for j in range(n)])
        return Matrix(self.field, out)

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        return Matrix(self.field, [[a if a.is_zero else c * a for a in r]
                                   for r in self.rows])

    def apply(self, vec):
        """Matrix-vector product on a tuple of scalars."""
        if len(vec) != self.n:
            raise ShapeMismatch("vector length mismatch")
        return tuple(_dot(r, vec) for r in self.rows)

    @property
    def is_zero(self) -> bool:
        return all(s.is_zero for r in self.rows for s in r)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and other.field == self.field
                and other.rows == self.rows)

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        body = "; ".join(", ".join(str(s) for s in r) for r in self.rows)
        return f"Matrix({self.field.name}, [{body}])"


def _dot(row, col):
    # skipping zero terms pays off on the block-diagonal matrices that
    # dominate this package's workloads
    acc = None
    for a, b in zip(row, col):
        if a.is_zero or b.is_zero:
            continue
        term = a * b
        acc = term if acc is None else acc + term
    if acc is None:
        return row[0].field.zero()
    return acc


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Polynomial:
    """Coefficients from the constant term up; no trailing zeros."""

    field: Field
    coeffs: tuple[Scalar, ...]

    def __str__(self) -> str:
        return format_poly([str(c) for c in reversed(self.coeffs)], "t")


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def _bareiss(rows, mul, sub, divx, is_zero) -> tuple[int, list[int]]:
    """Rank by fraction-free elimination over any integral domain given by
    its operations, and the indices of the rows taken as pivot rows, which
    are a basis of the row space.  Each step pivots on the first nonzero
    entry of the first nonzero row left and drops that row and column.
    Bareiss (1968) replaces every other row left by piv row - row[j] prow,
    divided by the previous pivot; the division is exact, every entry being
    a minor of the input.  Zero rows stay zero and are dropped when met.

    The scaling is lazy.  A row whose pivot-column entry is zero is left
    as it is, and each row keeps `den`, the pivot of the step that last
    updated it (None, standing for 1, before its first update).  At a step
    it is left alone Bareiss would only multiply the row by piv / prev, so
    when a step starts, prev the pivot of the step before, the true row is
    the stored one times prev / den.  Put into Bareiss's update, that gives
    (piv row - row[j] prow) / den, and the pivot row is first brought up to
    date as prow prev / den, which is nothing to do when den is prev.  So
    every stored row is the true row of some step: its entries are minors,
    every division is exact, and it has the true row's zero pattern, so
    the pivots are Bareiss's own."""
    live = [(i, list(r), None) for i, r in enumerate(rows)]
    pivots = []
    prev = None
    while live:
        for pos, (i, prow, den) in enumerate(live):
            j = next((j for j, x in enumerate(prow) if not is_zero(x)), None)
            if j is not None:
                break
        else:
            break
        del live[:pos + 1]
        pivots.append(i)
        if den is not prev:
            prow = ([mul(x, prev) for x in prow] if den is None
                    else [divx(mul(x, prev), den) for x in prow])
        piv = prow.pop(j)
        for t, (k, row, den) in enumerate(live):
            a = row.pop(j)
            if is_zero(a):
                continue
            if den is None:
                row = [sub(mul(piv, x), mul(a, y)) for x, y in zip(row, prow)]
            else:
                row = [divx(sub(mul(piv, x), mul(a, y)), den)
                       for x, y in zip(row, prow)]
            live[t] = (k, row, piv)
        prev = piv
    return len(pivots), pivots


# ---------------------------------------------------------------------------
# the integer lane: Q and Q(i) matrices cleared to Z and Z[i]
# ---------------------------------------------------------------------------

def _int_dot(row, col) -> int:
    return sum(map(operator.mul, row, col))


def _int_divx(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise OrbitrefError(f"{b} does not divide {a} exactly")
    return q


def _int_clear(values) -> tuple[int, list[int]]:
    c = lcm(*(v.denominator for v in values))
    return c, [v.numerator * (c // v.denominator) for v in values]


def _gint_dot(row, col) -> gi.Gint:
    re_acc = im_acc = 0
    for (a, b), (c, d) in zip(row, col):
        re_acc += a * c - b * d
        im_acc += a * d + b * c
    return re_acc, im_acc


def _gint_divx(z: gi.Gint, w: gi.Gint) -> gi.Gint:
    # z / w = z conj(w) / |w|^2, written out: the kernels' hottest call
    (a, b), (c, d) = z, w
    n = c * c + d * d
    re_part, re_rest = divmod(a * c + b * d, n)
    im_part, im_rest = divmod(b * c - a * d, n)
    if re_rest or im_rest:
        raise OrbitrefError(f"{w} does not divide {z} exactly")
    return re_part, im_part


def _gint_scale(n: int, z: gi.Gint) -> gi.Gint:
    return n * z[0], n * z[1]


def _gint_clear(values) -> tuple[int, list[gi.Gint]]:
    c = lcm(*(f.denominator for v in values for f in v))
    return c, [(re_part.numerator * (c // re_part.denominator),
                im_part.numerator * (c // im_part.denominator))
               for re_part, im_part in values]


def _gint_fraction(z: gi.Gint, d: int) -> tuple[Fraction, Fraction]:
    return Fraction(z[0], d), Fraction(z[1], d)


def _int_candidates(xs) -> list[int]:
    """A superset of the roots in Z of the monic xs over Z (leading first),
    ascending: the real Gaussian-integer roots of its square-free part that
    `_gaussint.gaussian_roots` lifts."""
    square_free = [(x, 0) for x in squarefree_part(xs, ZZ)]
    return sorted(re_part for re_part, im_part in gi.gaussian_roots(square_free)
                  if not im_part)


def _gint_candidates(xs) -> list[gi.Gint]:
    """A superset of the roots in Z[i] of the monic xs over Z[i] (leading
    first), by norm, real and imaginary part: the roots of its square-free
    part that `_gaussint.gaussian_roots` lifts."""
    return sorted(gi.gaussian_roots(squarefree_part(xs, ZI)), key=gi.gkey)


class Ring(NamedTuple):
    """Z, Z[i] or GF(q): the ring operations the exact kernels run on, and
    the bridge to the matrix's field.  `clear(payloads)` gives
    (c, elements), c the lcm of the payloads' denominators and each element
    c times its payload (c = 1 over GF(q)); `fraction(x, d)` is the field
    payload x / d; `candidates(xs)` is a superset of the ring's roots of
    the monic xs (leading first), in the order the roots are reported."""

    dot: Callable       # sum of products over the shorter of row and column
    mul: Callable
    add: Callable
    sub: Callable
    divx: Callable      # exact division
    neg: Callable
    is_zero: Callable
    one: Any
    scale: Callable     # (n, x) -> n x for an int n
    clear: Callable
    fraction: Callable
    candidates: Callable


ZZ = Ring(_int_dot, operator.mul, operator.add, operator.sub, _int_divx,
          operator.neg, operator.not_, 1, operator.mul, _int_clear, Fraction,
          _int_candidates)
ZI = Ring(_gint_dot, gi.gmul, gi.gadd, gi.gsub, _gint_divx, gi.gneg,
          (0, 0).__eq__, (1, 0), _gint_scale, _gint_clear, _gint_fraction,
          _gint_candidates)
_RINGS = {KIND_RATIONALS: ZZ, KIND_GAUSSIAN: ZI}


@lru_cache(maxsize=None)
def _finite_ring(field: FiniteField) -> Ring:
    """The ring of GF(q) on its element indices, with the field's own
    operations; its candidates are all q elements in index order.  An int n
    scales an element as the prime-field element n mod p, which is also
    that element's index."""
    p, mul = field.p, field._mul

    def scale(n, x):
        return mul(n % p, x)

    return Ring(
        dot=field._dot, mul=mul, add=field._add, sub=field._sub,
        divx=field._div, neg=field._neg, is_zero=operator.not_, one=1,
        scale=scale, clear=lambda values: (1, list(values)),
        fraction=lambda x, d: mul(pow(d, -1, p), x),
        candidates=lambda xs: range(field.q))


class IntegerForm(NamedTuple):
    c: int              # lcm of all entry denominators; 1 over GF(q)
    rows: tuple         # c M over the ring
    ring: Ring


def integer_form(M: Matrix) -> IntegerForm:
    """c M over Z for a Q matrix, over Z[i] for a Q(i) one, where c clears
    every entry denominator, and M itself, c = 1, over the ring of its
    GF(q); computed once per matrix and kept on it."""
    try:
        return M._integer_form
    except AttributeError:
        pass
    kind = M.field.kind
    if kind == KIND_FINITE:
        ring = _finite_ring(M.field)
    elif kind in _RINGS:
        ring = _RINGS[kind]
    else:
        raise WrongField(f"{M.field.name} has no integer form")
    c, flat = ring.clear([s.value for r in M.rows for s in r])
    n = M.n
    form = IntegerForm(c, tuple(tuple(flat[i * n:(i + 1) * n])
                                for i in range(n)), ring)
    object.__setattr__(M, "_integer_form", form)
    return form


def to_ndarray(M: Matrix) -> np.ndarray:
    """Complex ndarray view of a Q, Q(i) or complex matrix."""
    to_complex = M.field.to_complex
    out = np.empty((M.n, M.n), dtype=complex)
    for i, r in enumerate(M.rows):
        for j, s in enumerate(r):
            out[i, j] = to_complex(s.value)
    return out


def rank(M: Matrix) -> int:
    """Exact rank via fraction-free elimination over every exact field;
    numeric rank by SVD with the descriptor tolerance for complex matrices."""
    return next(power_ranks(M, M.field.zero()))


def power_ranks(M: Matrix, lam: Scalar):
    """rank(A^k) for k = 1, 2, ... of A = M - lam I, lazily.

    Over an exact field, by `_bareiss` on the ring of M's integer form.  The
    row space of A^k is that of A^(k-1) times A, so step k eliminates the
    pivot rows of step k - 1 times A, an r_(k-1) x n matrix, never a full
    power.  A is cleared to h c A = h B - c g I, with B = c M the integer
    form and lam = g/h; over GF(q), c = h = 1 and B is M on its field's
    ring.

    Over C, by SVD of every full ndarray power, counting the singular
    values above tol * max(smax(A^k), smax(A)^k): anchored at the power of
    A's scale, a power that is numerically zero cannot masquerade as full
    rank relative to its own noise.  At k = 1 the cutoff is tol * smax(A)."""
    if M.field.kind == KIND_COMPLEX:
        A = Ak = to_ndarray(M) - complex(lam.value) * np.eye(M.n)
        for k in count(1):
            s = np.linalg.svd(Ak, compute_uv=False)
            if k == 1:
                base = float(s[0])
            cutoff = M.field.tol * max(float(s[0]), base ** k)
            yield 0 if cutoff == 0.0 else int(np.count_nonzero(s > cutoff))
            Ak = Ak @ A
    c, B, ring = integer_form(M)
    h, (g,) = ring.clear([lam.value])
    shift = ring.scale(c, g)
    A = [[ring.scale(h, x) for x in r] for r in B]
    for i in range(M.n):
        A[i][i] = ring.sub(A[i][i], shift)
    dot, mul, sub, divx, is_zero = (ring.dot, ring.mul, ring.sub, ring.divx,
                                    ring.is_zero)
    cols = list(zip(*A))
    rows = A
    while True:
        r, pivots = _bareiss(rows, mul, sub, divx, is_zero)
        yield r
        rows = [[dot(rows[i], col) for col in cols] for i in pivots]


# ---------------------------------------------------------------------------
# powers and characteristic polynomials
# ---------------------------------------------------------------------------

def matpow(M: Matrix, k: int) -> Matrix:
    """M^k by binary exponentiation; M^0 is the identity."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("exponent must be a nonnegative integer")
    result = Matrix.identity(M.field, M.n)
    base = M
    while k:
        if k & 1:
            result = result @ base
        k >>= 1
        if k:
            base = base @ base
    return result


def _berkowitz(rows, dot, neg, one, is_zero) -> list:
    """Coefficients of det(tI - A), leading first, for the square matrix
    with these rows, by Berkowitz's recursion on the ring operations
    `dot(row, col)` (a sum of products over the shorter length), `neg`,
    `one` and `is_zero`.  Step k borders the leading k x k block with row
    and column k; the new coefficients are the old ones times the Toeplitz
    column 1, -a_kk, -r c, -r A c, ..., -r A^(k-1) c, where r and c are the
    border row and column and A the block.  When r or c is zero every term
    r A^s c is zero, so the column takes k copies of -r c and the Krylov
    products A^s c are skipped: on a triangular matrix, a Jordan form
    among them, no step makes one."""
    poly = [one]
    for k in range(len(rows)):
        col = [rows[i][k] for i in range(k)]
        toeplitz = [one, neg(rows[k][k])]
        # dot cuts row k and rows[i] to the leading block
        if all(map(is_zero, col)) or all(map(is_zero, rows[k][:k])):
            toeplitz += [neg(dot(rows[k], col))] * k
        else:
            for step in range(k):
                if step:  # col = A^step c; A^k c would never be read
                    col = [dot(rows[i], col) for i in range(k)]
                toeplitz.append(neg(dot(rows[k], col)))
        poly = [dot(poly, toeplitz[j::-1]) for j in range(k + 2)]
    return poly


def _divide_back(field: Field, ring: Ring, xs, c: int) -> Polynomial:
    """The polynomial x(c t) / c^m over the field, for the coefficients xs
    (leading first, degree m) of x(t) over its ring: its t^(m-k)
    coefficient is xs[k] / c^k.  Applied to det(tI - c M) it gives
    det(tI - M), and to a factor of it the matching factor; xs[0] is one."""
    coeffs = [Scalar(field, ring.fraction(x, c ** k)) for k, x in enumerate(xs)]
    return Polynomial(field, tuple(reversed(coeffs)))


def char_poly(M: Matrix) -> Polynomial:
    """Monic characteristic polynomial det(tI - M), exactly.

    Berkowitz's recursion uses ring operations only: it runs on the
    integer form c M, over Z or Z[i] for Q and Q(i) and over the field's
    ring for GF(q), where c = 1.
    """
    if M.field.kind == KIND_COMPLEX:
        raise NumericKindUnsupported("char_poly needs an exact matrix")
    c, rows, ring = integer_form(M)
    # det(tI - cM) = c^n det((t/c)I - M)
    return _divide_back(M.field, ring, _berkowitz(rows, ring.dot, ring.neg,
                                                  ring.one, ring.is_zero), c)


# ---------------------------------------------------------------------------
# commutators
# ---------------------------------------------------------------------------

def commutator_is_zero(S: Matrix, T: Matrix) -> tuple[bool, Matrix]:
    """Whether ST = TS; returns the commutator ST - TS alongside.

    Exact for exact kinds.  For complex matrices the test is
    max-entry |ST-TS| <= tol * n * max(1,|S|_max) * max(1,|T|_max).
    """
    S._check_same(T)
    C = (S @ T) - (T @ S)
    if S.field.kind != KIND_COMPLEX:
        return C.is_zero, C
    tol = S.field.tol
    s_max = max((abs(x.value) for r in S.rows for x in r), default=0.0)
    t_max = max((abs(x.value) for r in T.rows for x in r), default=0.0)
    bound = tol * S.n * max(1.0, s_max) * max(1.0, t_max)
    c_max = max((abs(x.value) for r in C.rows for x in r), default=0.0)
    return c_max <= bound, C


def embed_matrix(M: Matrix, target: Field) -> Matrix:
    """Entrywise embedding along Q -> Q(i) -> C."""
    if M.field == target:
        return M
    return Matrix(target, [[embed(s, target) for s in r] for r in M.rows])
