"""Exact scalars over Q, Q(i) and GF(p^k), plus tolerance-tagged complex floats.

Scalar text syntax (shared by the matrix file format and every report):

    Q        "-3/4"
    Q(i)     "-3/4+1/2i"        coefficient form: "1/2i" means (1/2)*i
    GF(p)    "3"
    GF(p^k)  "x+1"              polynomial in x, coefficients reduced mod p
    complex  "1.25-0.5i"        finite IEEE doubles; all comparisons go through tol

Unicode minus signs are accepted on input and normalised to ASCII.  Q and
Q(i) payloads ride on arbitrary-precision ``Fraction``s, so the fraction
blow-up from conjugated matrices cannot overflow.  Exact payloads are
immutable and hashable; equality is exact for exact kinds.  Floating
complex scalars are never compared with ``==`` in decision paths: `linalg`
and `spectra` judge them through the field's ``tol``.

Each kind names its zero payload once, as the class constant ``_ZERO``,
and turns an int into a payload by ``_from_int``; `Field` derives
``zero()``, ``one()`` (``_from_int(1)``) and the zero test from these two.
There is one way to make a scalar from a Python value, ``Field.coerce``:
a Scalar of the field as it is, a Scalar of another field MixedFields, an
int through ``from_int``, a str through ``parse``, a Fraction over Q only,
and anything else, a float or a complex included, TypeError.  Every
constructor of `linalg`, `spectra` and `counterexample` goes through it.
Q(i) and C read their text through one a+bi reader, ``_a_plus_bi``, which
differs between them only in how a part is read: a Fraction, or a finite
float.  Q, Q(i) and C all read exponent text such as "1e-5" in any part.

What differs by kind beyond arithmetic is told by three members of each
field, and no caller tests ``kind`` for it:

    wider           the kinds its matrices can be reinterpreted over, in
                    the order the exit-3 hint offers them: (qi, c64) for Q,
                    (c64,) for Q(i), () for GF(q) and C
    to_complex(x)   the payload's complex value; GF(q) has none
    modulus_sq(x)   |x|^2: a Fraction over Q and Q(i), a float over C,
                    None over GF(q)

A GF(p^k) payload is an int in [0, q): the from_digits index of the
element's k little-endian coefficients, the order of ``elements()``.  The
operations on these ints come from ``_gf_ops``, once per (p, k, modulus)
and process: ints mod p over GF(p), and over GF(p^k), k >= 2, exp/log
tables of a primitive element with Zech's logarithm for sums (XOR when
p = 2), which bound q by GF_TABLE_BOUND.  The tables and the modulus
check take their polynomial products and remainders from `_poly`.
`linalg` and `oracle` run GF(q) on these operations and no others.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import dropwhile
from typing import Any, ClassVar, Optional

from ._gaussint import gadd, gmul, gneg, gsub, is_prime
from ._poly import format_poly, pmul, pseudo_divmod
from .errors import DivisionByZero, MixedFields, NoStockModulus, NotPrime, ParseError, WrongField

KIND_RATIONALS = "q"
KIND_GAUSSIAN = "qi"
KIND_FINITE = "gf"
KIND_COMPLEX = "c64"

DEFAULT_TOL = 1e-9

# Fixed published irreducible (Conway) polynomials per (p, k), little-endian
# coefficient tuples including the leading 1.  Recorded in reports so runs
# against extension fields are reproducible.
CONWAY_POLYNOMIALS: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),        # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),     # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),  # x^4 + x + 1
    (3, 2): (2, 2, 1),        # x^2 + 2x + 2
    (3, 3): (1, 2, 0, 1),     # x^3 + 2x + 1
    (5, 2): (2, 4, 1),        # x^2 + 4x + 2
    (7, 2): (3, 6, 1),        # x^2 + 6x + 3
    (11, 2): (2, 7, 1),       # x^2 + 7x + 2
    (13, 2): (2, 12, 1),      # x^2 + 12x + 2
}


def _normalize_text(text: str) -> str:
    return text.replace("−", "-").replace(" ", "")


# most Q and Q(i) entries, and parts of entries, are plain integers or
# ratios of them: int reads those faster than Fraction's own parser, and
# to the same value
_ASCII_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _fraction(text: str) -> Fraction:
    """Fraction(text), with ASCII integers and ratios read by int."""
    ratio = _ASCII_RATIO.fullmatch(text)
    if ratio is None:
        return Fraction(text)
    if ratio[2] is None:
        return Fraction(int(ratio[1]))
    return Fraction(int(ratio[1]), int(ratio[2]))


def to_digits(n: int, base: int, width: int) -> tuple[int, ...]:
    """The `width` little-endian base-`base` digits of n.  This numbering
    fixes element, vector and scan-index order everywhere."""
    out = []
    for _ in range(width):
        n, r = divmod(n, base)
        out.append(r)
    return tuple(out)


def from_digits(digits, base: int) -> int:
    """Inverse of to_digits: the number with these little-endian digits."""
    n = 0
    for c in reversed(digits):
        n = n * base + c
    return n


# ---------------------------------------------------------------------------
# polynomials over GF(p): `_poly` over Z, reduced mod p, exact for the monic
# divisors here; a modulus is little-endian like an element's digits
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _is_irreducible_modp(m: tuple[int, ...], p: int) -> bool:
    """Brute-force irreducibility of the monic m: no monic divisor of degree
    1..deg//2.  Kept per (m, p), as every FiniteField checks its modulus."""
    deg = len(m) - 1
    mod = m[::-1]
    for dd in range(1, deg // 2 + 1):
        # all monic divisor candidates of degree dd
        for idx in range(p ** dd):
            divisor = (1,) + to_digits(idx, p, dd)[::-1]
            rest = pseudo_divmod(mod, divisor, operator.mul, operator.sub)[1]
            if not any(c % p for c in rest):
                return False
    return True


def _primitive_powers(p: int, k: int, m) -> list[int]:
    """g^0, g^1, ..., g^(q-2) as element indices, g the first element in
    index order whose powers reach all q - 1 nonzero elements, by
    polynomial products mod m.  x is primitive under a Conway modulus, but
    need not be under another: over GF(3), mod x^2 + 1, it has order 4."""
    q = p ** k
    mod = m[::-1]
    for g in range(1, q):
        # g's coefficients leading first, without the zeros above its degree
        g_coeffs = list(dropwhile(operator.not_, reversed(to_digits(g, p, k))))
        powers, power = [1], [1]
        while True:
            product = pmul(power, g_coeffs, operator.mul, operator.add)
            rest = pseudo_divmod(product, mod, operator.mul, operator.sub)[1]
            power = [c % p for c in rest]
            index = from_digits(power[::-1], p)
            if index == 1:
                break
            powers.append(index)
        if len(powers) == q - 1:
            return powers


@lru_cache(maxsize=None)
def _gf_ops(p: int, k: int, m) -> dict:
    """The operations of GF(p^k) = GF(p)[x]/(m) on element indices, under
    the names of the Field methods they are, built once per (p, k, m) and
    process.  GF(p) is ints mod p.  GF(p^k), k >= 2, multiplies and divides
    through the exp/log tables of a primitive element g, and adds with
    Zech's logarithm, zech[n] = log(1 + g^n) (Lidl and Niederreiter,
    Finite Fields, ch. 10), or by XOR when p = 2, where an index's bits are
    its coefficients.  `_div` takes a nonzero divisor; `Scalar` checks."""
    if k == 1:
        return {"_add": lambda a, b: (a + b) % p, "_sub": lambda a, b: (a - b) % p,
                "_neg": lambda a: -a % p, "_mul": lambda a, b: a * b % p,
                "_div": lambda a, b: a * pow(b, -1, p) % p,
                "_dot": lambda r, c: sum(map(operator.mul, r, c)) % p}
    q = p ** k
    exp = _primitive_powers(p, k, m)
    log = [0] * q  # log[0] is never read
    for n, e in enumerate(exp):
        log[e] = n
    # g^n for 0 <= n < 2(q - 1): a sum of two logs indexes it without a
    # mod, and so does a difference, as a negative index
    exp += exp
    negs = [from_digits([-c % p for c in to_digits(a, p, k)], p) for a in range(q)]
    if p == 2:
        add = sub = operator.xor
    else:
        # 1 + e adds 1 to e's constant coefficient, its lowest digit
        zech = [log[one_plus] if one_plus else None
                for one_plus in (e - e % p + (e + 1) % p for e in exp[:q - 1])]

        def add(a, b):
            if not a:
                return b
            if not b:
                return a
            la = log[a]
            # a + b = a (1 + g^(log b - log a)); a negative index reads
            # zech at n + q - 1, g^n having period q - 1
            z = zech[log[b] - la]
            return 0 if z is None else exp[la + z]

        def sub(a, b):
            return add(a, negs[b])

    def mul(a, b):
        return exp[log[a] + log[b]] if a and b else 0

    def div(a, b):
        return exp[log[a] - log[b]] if a else 0

    def dot(r, c):
        acc = 0
        for a, b in zip(r, c):
            if a and b:
                acc = add(acc, exp[log[a] + log[b]])
        return acc

    return {"_add": add, "_sub": sub, "_neg": negs.__getitem__, "_mul": mul,
            "_div": div, "_dot": dot}


# ---------------------------------------------------------------------------
# field descriptors
# ---------------------------------------------------------------------------

class Field:
    """Common surface of the scalar-field descriptors.  The defaults of the
    per-kind members are those of GF(q): it widens to no field, and its
    payloads have no complex value and no modulus."""

    kind: ClassVar[str]
    wider: ClassVar[tuple[str, ...]] = ()
    _ZERO: ClassVar[Any]

    def scalar(self, payload) -> "Scalar":
        return Scalar(self, payload)

    def zero(self) -> "Scalar":
        return self.scalar(self._ZERO)

    def one(self) -> "Scalar":
        return self.scalar(self._from_int(1))

    def _is_zero(self, x) -> bool:
        return x == self._ZERO

    def from_int(self, n: int) -> "Scalar":
        return self.scalar(self._from_int(n))

    def parse(self, text: str) -> "Scalar":
        return self.scalar(self._parse(_normalize_text(str(text))))

    def coerce(self, v) -> "Scalar":
        """v as a scalar of this field: a Scalar of it as it is, an int
        through from_int, a str through parse and a Fraction over Q only.
        A Scalar of another field raises MixedFields, anything else
        TypeError."""
        if isinstance(v, Scalar):
            if v.field is not self and v.field != self:
                raise MixedFields(f"cannot mix {self.name} and {v.field.name} scalars")
            return v
        if isinstance(v, int):
            return self.from_int(v)
        if isinstance(v, str):
            return self.parse(v)
        if isinstance(v, Fraction) and self.kind == KIND_RATIONALS:
            return self.scalar(v)
        raise TypeError(f"cannot coerce {v!r} into {self.name}")

    def describe(self) -> dict:
        return {"field": self.kind}

    def to_complex(self, x) -> complex:
        raise WrongField(f"{self.name} scalar has no complex value")

    def modulus_sq(self, x):
        return None


@dataclass(frozen=True)
class Rationals(Field):
    kind: ClassVar[str] = KIND_RATIONALS
    name: ClassVar[str] = "Q"
    wider: ClassVar[tuple[str, ...]] = (KIND_GAUSSIAN, KIND_COMPLEX)
    _ZERO: ClassVar[Fraction] = Fraction(0)

    def _from_int(self, n):
        return Fraction(n)

    _add = staticmethod(operator.add)
    _sub = staticmethod(operator.sub)
    _mul = staticmethod(operator.mul)
    _div = staticmethod(operator.truediv)
    _neg = staticmethod(operator.neg)

    def _parse(self, text):
        try:
            return _fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational scalar {text!r}") from exc

    def format(self, x) -> str:
        return str(x)

    def to_complex(self, x) -> complex:
        return complex(float(x))

    def modulus_sq(self, x) -> Fraction:
        return x * x


def _a_plus_bi(text: str, part, zero, what: str) -> tuple:
    """The parts (a, b) of the text "a+bi", each read by `part`: "a" alone
    has b = zero, "bi" alone a = zero, and a bare "i", "+i" or "-i" has
    b = +-1.  The cut is the last sign that is not leading and follows no
    e or E, so either part may carry an exponent.  A part that `part`
    refuses raises ParseError("bad <what> scalar ...")."""
    try:
        if not text.endswith("i"):
            return part(text), zero
        body = text[:-1]
        cut = max(body.rfind("+", 1), body.rfind("-", 1), 0)
        while cut and body[cut - 1] in "eE":
            cut = max(body.rfind("+", 1, cut), body.rfind("-", 1, cut), 0)
        re_s, im_s = body[:cut], body[cut:]
        if im_s in ("", "+", "-"):
            im_s += "1"
        return (part(re_s) if re_s else zero), part(im_s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad {what} scalar {text!r}") from exc


@dataclass(frozen=True)
class GaussianRationals(Field):
    kind: ClassVar[str] = KIND_GAUSSIAN
    name: ClassVar[str] = "Q(i)"
    wider: ClassVar[tuple[str, ...]] = (KIND_COMPLEX,)
    _ZERO: ClassVar[tuple[Fraction, Fraction]] = (Fraction(0), Fraction(0))

    def _from_int(self, n):
        return (Fraction(n), Fraction(0))

    _add = staticmethod(gadd)
    _sub = staticmethod(gsub)
    _mul = staticmethod(gmul)
    _neg = staticmethod(gneg)

    def _div(self, x, y):
        (a, b), (c, d) = x, y
        n = c * c + d * d
        return ((a * c + b * d) / n, (b * c - a * d) / n)

    def _parse(self, text):
        return _a_plus_bi(text, _fraction, self._ZERO[0], "Gaussian-rational")

    def format(self, x) -> str:
        a, b = x
        if b == 0:
            return str(a)
        if b == 1:
            imag = "i"
        elif b == -1:
            imag = "-i"
        else:
            imag = f"{b}i"
        if a == 0:
            return imag
        return f"{a}+{imag}" if b > 0 else f"{a}{imag}"

    def to_complex(self, x) -> complex:
        return complex(float(x[0]), float(x[1]))

    def modulus_sq(self, x) -> Fraction:
        a, b = x
        return a * a + b * b


_GF_TERM = re.compile(r"^(-?\d+|-)?\*?x(?:\^(\d+))?$")


def _gf_terms(text: str, error: str):
    """Yield (exponent, coefficient) for each term of a polynomial string
    such as "2x^2-x+1", in order; a malformed or empty term raises
    ParseError(error)."""
    body = text.replace("-", "+-")
    if body.startswith("+"):
        body = body[1:]
    for term in body.split("+"):
        m = _GF_TERM.match(term)
        if m:
            coeff = int(m.group(1)) if m.group(1) not in (None, "-") else (
                -1 if m.group(1) == "-" else 1)
            exp = int(m.group(2)) if m.group(2) else 1
        else:
            try:
                coeff = int(term)
            except ValueError as exc:
                raise ParseError(error) from exc
            exp = 0
        yield exp, coeff


# A field with k >= 2 holds exp/log tables of q - 1 entries each; past
# this size it is refused rather than tabled
GF_TABLE_BOUND = 2 ** 12


@dataclass(frozen=True)
class FiniteField(Field):
    p: int
    k: int = 1
    modulus: Optional[tuple[int, ...]] = None

    kind: ClassVar[str] = KIND_FINITE
    _ZERO: ClassVar[int] = 0

    def __post_init__(self):
        if not is_prime(self.p):
            raise NotPrime(f"GF characteristic {self.p} is not prime")
        if self.k < 1:
            raise ValueError("extension degree must be >= 1")
        if self.k == 1:
            object.__setattr__(self, "modulus", None)
        else:
            # p >= 2, so a k above 12 alone puts q past 2^12
            if self.k > 12 or self.p ** self.k > GF_TABLE_BOUND:
                raise ValueError(f"GF({self.p}^{self.k}) exceeds the bound of "
                                 f"{GF_TABLE_BOUND} elements on an extension field")
            m = self.modulus
            if m is None:
                m = CONWAY_POLYNOMIALS.get((self.p, self.k))
                if m is None:
                    raise NoStockModulus(
                        f"no stock irreducible polynomial for GF({self.p}^{self.k}); "
                        "pass modulus= explicitly"
                    )
            m = tuple(int(c) % self.p for c in m)
            if len(m) != self.k + 1 or m[-1] != 1:
                raise ValueError("modulus must be monic of degree k")
            if not _is_irreducible_modp(m, self.p):
                raise ValueError(f"modulus {m} is reducible over GF({self.p})")
            object.__setattr__(self, "modulus", m)
        # the operations on element indices, shared by every descriptor of
        # this field
        vars(self).update(_gf_ops(self.p, self.k, self.modulus))

    def __reduce__(self):
        # the operations are closures; a copy looks them up again
        return FiniteField, (self.p, self.k, self.modulus)

    @property
    def q(self) -> int:
        return self.p ** self.k

    @property
    def name(self) -> str:
        return f"GF({self.p})" if self.k == 1 else f"GF({self.p}^{self.k})"

    def describe(self) -> dict:
        out = {"field": self.kind, "p": self.p, "k": self.k}
        if self.k > 1:
            out["modulus"] = format_gf_poly(self.modulus)
        return out

    # payload: the element's index in [0, q), the from_digits number of its
    # k little-endian coefficients; _add, _sub, _neg, _mul, _div and _dot
    # come from _gf_ops

    def _from_int(self, n):
        # the prime-field element n mod p has that index
        return n % self.p

    def _parse(self, text):
        if self.k == 1:
            try:
                return int(text) % self.p
            except ValueError as exc:
                raise ParseError(f"bad GF({self.p}) scalar {text!r}") from exc
        coeffs = [0] * self.k
        for exp, coeff in _gf_terms(text, f"bad {self.name} scalar {text!r}"):
            if exp >= self.k:
                raise ParseError(
                    f"term degree {exp} too large for {self.name} scalar {text!r}")
            coeffs[exp] = (coeffs[exp] + coeff) % self.p
        return from_digits(coeffs, self.p)

    def format(self, x) -> str:
        if self.k == 1:
            return str(x)
        return format_gf_poly(to_digits(x, self.p, self.k))

    def elements(self) -> list["Scalar"]:
        """All q field elements in index order."""
        return [self.scalar(i) for i in range(self.q)]


@lru_cache(maxsize=None)
def format_gf_poly(coeffs: tuple[int, ...]) -> str:
    """The polynomial in x with these little-endian GF(p) coefficients: an
    element's text, or a modulus's, kept per coefficient tuple."""
    return format_poly([str(c) for c in reversed(coeffs)], "x")


def parse_gf_modulus(p: int, text: str) -> tuple[int, ...]:
    """Parse a monic modulus polynomial string like "x^2+2x+2" over GF(p)."""
    text = _normalize_text(text)
    coeffs: dict[int, int] = {}
    for exp, coeff in _gf_terms(text, f"bad modulus polynomial {text!r}"):
        coeffs[exp] = (coeffs.get(exp, 0) + coeff) % p
    deg = max(coeffs)
    return tuple(coeffs.get(e, 0) for e in range(deg + 1))


def _finite_float(text: str) -> float:
    """float(text) for a finite value; NaN and the infinities, which no
    eigenvalue routine takes, raise ValueError."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{text!r} is not finite")
    return x


@dataclass(frozen=True)
class ComplexFloats(Field):
    tol: float = DEFAULT_TOL

    kind: ClassVar[str] = KIND_COMPLEX
    _ZERO: ClassVar[complex] = complex(0)

    def __post_init__(self):
        # tol scales the largest singular value into a rank cutoff, so a
        # tol of 1 or more calls every matrix rank 0
        if not 0 < self.tol < 1:  # NaN included
            raise ValueError("tol must lie strictly between 0 and 1")

    @property
    def name(self) -> str:
        return f"C[tol={self.tol:g}]"

    def describe(self) -> dict:
        return {"field": self.kind, "tol": self.tol}

    def _from_int(self, n):
        return complex(n)

    _add = staticmethod(operator.add)
    _sub = staticmethod(operator.sub)
    _mul = staticmethod(operator.mul)
    _div = staticmethod(operator.truediv)
    _neg = staticmethod(operator.neg)

    def to_complex(self, x) -> complex:
        return complex(x)

    def modulus_sq(self, x) -> float:
        return abs(x) ** 2

    def _parse(self, text):
        return complex(*_a_plus_bi(text, _finite_float, 0.0, "complex"))

    def format(self, x) -> str:
        re_part = repr(float(x.real))
        im = float(x.imag)
        sign = "+" if im >= 0 else "-"
        return f"{re_part}{sign}{repr(abs(im))}i"


QQ = Rationals()
QI = GaussianRationals()


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scalar:
    """Immutable field element: a payload tagged with its field descriptor."""

    field: Field
    value: Any

    def _other(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise MixedFields(
                    f"cannot mix {self.field.name} and {other.field.name} scalars")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return NotImplemented

    def __add__(self, other):
        o = self._other(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field._add(self.value, o.value))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._other(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field._sub(self.value, o.value))

    def __rsub__(self, other):
        o = self._other(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field._sub(o.value, self.value))

    def __mul__(self, other):
        o = self._other(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field._mul(self.value, o.value))

    __rmul__ = __mul__

    def _quotient(self, x, y) -> "Scalar":
        # the one zero check: a field's _div assumes y != 0
        if self.field._is_zero(y):
            raise DivisionByZero(f"division by zero in {self.field.name}")
        return Scalar(self.field, self.field._div(x, y))

    def __truediv__(self, other):
        o = self._other(other)
        if o is NotImplemented:
            return NotImplemented
        return self._quotient(self.value, o.value)

    def __rtruediv__(self, other):
        o = self._other(other)
        if o is NotImplemented:
            return NotImplemented
        return self._quotient(o.value, self.value)

    def __neg__(self):
        return Scalar(self.field, self.field._neg(self.value))

    @property
    def is_zero(self) -> bool:
        return self.field._is_zero(self.value)

    def __str__(self) -> str:
        return self.field.format(self.value)

    def __repr__(self) -> str:
        return f"Scalar({self.field.name}, {self})"


def embed(a: Scalar, target: Field) -> Scalar:
    """Value-preserving embedding along Q -> Q(i) -> C, into a field whose
    kind `a.field.wider` names."""
    if a.field == target:
        return a
    if target.kind not in a.field.wider:
        raise WrongField(f"no embedding from {a.field.name} into {target.name}")
    if target.kind == KIND_COMPLEX:
        return Scalar(target, a.field.to_complex(a.value))
    return Scalar(target, (a.value, Fraction(0)))  # Q into Q(i)
