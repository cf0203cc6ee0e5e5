"""Exact integer and Gaussian-integer arithmetic: primality, gcd,
factorisation, divisor enumeration.

Backs the exact root sieve over Q and Q(i).  The roots of the monic
characteristic polynomial of the integer form B = c M are the (Gaussian)
integers r = c lam.  By the rational-root theorem over the Euclidean
domain Z or Z[i], a root lam = g/h in lowest terms of M's cleared
polynomial (lowest nonzero coefficient low, leading coefficient lead) has
g | low and h | lead, and integrality of c lam gives h | c, so
h | gcd(c, lead).  With e = gcd(c, lead), r = (c/e) (e/h) g runs over
(c/e) times the divisors of e low, all associates included: one finite
candidate set for both rings, never larger than the pairs g/h with
h | lead.
"""

from __future__ import annotations

from itertools import chain, count

Gint = tuple[int, int]

UNITS: tuple[Gint, ...] = ((1, 0), (0, 1), (-1, 0), (0, -1))


def gnorm(z: Gint) -> int:
    return z[0] * z[0] + z[1] * z[1]


def gmul(z: Gint, w: Gint) -> Gint:
    a, b = z
    c, d = w
    return (a * c - b * d, a * d + b * c)


def gadd(z: Gint, w: Gint) -> Gint:
    return (z[0] + w[0], z[1] + w[1])


def gsub(z: Gint, w: Gint) -> Gint:
    return (z[0] - w[0], z[1] - w[1])


def gconj(z: Gint) -> Gint:
    return (z[0], -z[1])


def _round_div(num: int, den: int) -> int:
    # nearest integer to num/den, den > 0
    return (2 * num + den) // (2 * den)


def gdivmod(z: Gint, w: Gint) -> tuple[Gint, Gint]:
    """Euclidean division with N(remainder) <= N(w)/2."""
    n = gnorm(w)
    num = gmul(z, gconj(w))
    q = (_round_div(num[0], n), _round_div(num[1], n))
    r = gsub(z, gmul(q, w))
    return q, r


def gdivexact(z: Gint, w: Gint) -> Gint | None:
    """z / w if w divides z exactly, else None."""
    n = gnorm(w)
    num = gmul(z, gconj(w))
    if num[0] % n or num[1] % n:
        return None
    return (num[0] // n, num[1] // n)


def ggcd(z: Gint, w: Gint) -> Gint:
    while w != (0, 0):
        _, r = gdivmod(z, w)
        z, w = w, r
    return canonical_associate(z)


def canonical_associate(z: Gint) -> Gint:
    """Rotate by a unit into the half-quadrant a > 0, b >= 0 (or zero)."""
    a, b = z
    if (a, b) == (0, 0):
        return z
    for _ in range(4):
        if a > 0 and b >= 0:
            return (a, b)
        a, b = -b, a
    raise AssertionError("unreachable")


# below this bound the Miller-Rabin bases 2..41 decide primality exactly
# (it is the least strong pseudoprime to all of them; without 41 the bound
# would be 318665857834031151167461)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality: deterministic Miller-Rabin below _MR_LIMIT, trial
    division (`factor_int`) above it."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        return factor_int(n) == {n: 1}
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor_int(n: int) -> dict[int, int]:
    """Factorisation of n >= 1 by trial division by 2, 3 and 6k +- 1; a
    cofactor below _MR_LIMIT that `is_prime` accepts ends the search."""
    out: dict[int, int] = {}
    fresh = True  # n changed since its last primality test
    for p in chain((2, 3), (f + s for f in count(5, 6) for s in (0, 2))):
        if p * p > n or fresh and n < _MR_LIMIT and is_prime(n):
            break
        fresh = False
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
            fresh = True
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def int_divisors(n: int) -> list[int]:
    """All divisors of n != 0, both signs, ascending."""
    divs = [1]
    for p, e in factor_int(abs(n)).items():
        divs = [d * p ** i for d in divs for i in range(e + 1)]
    return sorted(d for x in divs for d in (-x, x))


def gaussian_prime_over(p: int) -> Gint:
    """A Gaussian prime above the rational prime p."""
    if p == 2:
        return (1, 1)
    if p % 4 == 3:
        return (p, 0)
    # p = 1 mod 4: find c with c^2 = -1 mod p, then gcd(p, c + i)
    t = 2
    while pow(t, (p - 1) // 2, p) != p - 1:
        t += 1
    c = pow(t, (p - 1) // 4, p)
    pi = ggcd((p, 0), (c, 1))
    assert gnorm(pi) == p
    return pi


def gaussian_factor(z: Gint) -> list[tuple[Gint, int]]:
    """Gaussian prime factorisation of z != 0, exponents by exact division."""
    if z == (0, 0):
        raise ValueError("cannot factor zero")
    factors: list[tuple[Gint, int]] = []
    rest = z
    for p in sorted(factor_int(gnorm(z))):
        candidates = [gaussian_prime_over(p)]
        if p % 4 == 1:
            candidates.append(canonical_associate(gconj(candidates[0])))
        for pi in candidates:
            e = 0
            while True:
                nxt = gdivexact(rest, pi)
                if nxt is None:
                    break
                rest = nxt
                e += 1
            if e:
                factors.append((pi, e))
    assert gnorm(rest) == 1, "non-unit residue after factoring"
    return factors


def gkey(z: Gint) -> tuple[int, Gint]:
    """Sort key: norm, then real part, then imaginary part."""
    return gnorm(z), z


def gaussian_divisors(z: Gint) -> list[Gint]:
    """All divisors of z != 0, all four associates of each, in `gkey`
    order."""
    divs: list[Gint] = [(1, 0)]
    for pi, e in gaussian_factor(z):
        grown: list[Gint] = []
        power: Gint = (1, 0)
        for _ in range(e + 1):
            grown.extend(gmul(d, power) for d in divs)
            power = gmul(power, pi)
        divs = grown
    return sorted((gmul(d, u) for d in divs for u in UNITS), key=gkey)
