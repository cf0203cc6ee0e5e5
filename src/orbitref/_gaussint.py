"""Exact Gaussian-integer arithmetic, primality, and the p-adic root lift
behind the exact root sieve over Q and Q(i).  The ring formulas `gadd`,
`gsub`, `gmul` and `gneg` hold for pairs of Fractions too, and are the
arithmetic of Q(i) scalars as well.

The roots in Q(i) of a monic polynomial g over Z[i] are Gaussian integers.
When g is square-free, only the finitely many primes that divide its
discriminant give it a multiple root modulo p, so there is a least prime
p = 3 (mod 4) at which every root of g in Z[i]/p is simple.  Such a p is
inert in Z[i]: Z[i]/p is the field GF(p^2), and a Z polynomial embedded as
(x, 0) takes the same path.  Newton's iteration lifts each simple root
modulo p to the one p-adic root over it, modulo p^k > 2 (2 + max floor|g_i|),
more than twice the Cauchy bound 1 + max |g_i| on every |root|, so the
symmetric residues of the lifted components hold every Gaussian-integer
root of g (Loos, SIAM J. Comput. 12, 1983).  Nothing is factored and no
divisor is enumerated.
"""

from __future__ import annotations

from itertools import count, product
from math import isqrt

Gint = tuple[int, int]


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


def gneg(z: Gint) -> Gint:
    return (-z[0], -z[1])


def gconj(z: Gint) -> Gint:
    return (z[0], -z[1])


def gkey(z: Gint) -> tuple[int, Gint]:
    """Sort key: norm, then real part, then imaginary part."""
    return gnorm(z), z


# below this bound the Miller-Rabin bases 2..41 decide primality exactly
# (it is the least strong pseudoprime to all of them; without 41 the bound
# would be 318665857834031151167461)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality by deterministic Miller-Rabin; raises ValueError for
    an n >= _MR_LIMIT with no prime factor up to 41, where the bases no
    longer decide."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise ValueError(f"cannot decide whether {n} is prime: "
                         f"it is not below {_MR_LIMIT}")
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


def _value_and_slope(g, z: Gint, m: int) -> tuple[Gint, Gint]:
    """g(z) and g'(z) modulo m by Horner's rule, g leading first."""
    x, y = z
    vr = vi = sr = si = 0
    for a, b in g:
        sr, si = (sr * x - si * y + vr) % m, (sr * y + si * x + vi) % m
        vr, vi = (vr * x - vi * y + a) % m, (vr * y + vi * x + b) % m
    return (vr, vi), (sr, si)


def simple_roots_mod_p(g) -> tuple[int, list[Gint]]:
    """The least prime p = 3 (mod 4) at which every root of g in
    Z[i]/p = GF(p^2) is simple, and those roots as residue pairs."""
    for p in count(3, 4):
        if not is_prime(p):
            continue
        roots = []
        for z in product(range(p), repeat=2):
            value, slope = _value_and_slope(g, z, p)
            if value == (0, 0):
                if slope == (0, 0):
                    break
                roots.append(z)
        else:
            return p, roots


def gaussian_roots(g) -> list[Gint]:
    """A superset of the Gaussian-integer roots of the monic square-free g
    over Z[i] (leading first): each simple root modulo the prime of
    `simple_roots_mod_p`, Newton-lifted and read back as symmetric residues.
    A candidate need not be a root of g."""
    p, roots = simple_roots_mod_p(g)
    bound = 2 * (2 + max(isqrt(gnorm(c)) for c in g))
    out = []
    for z in roots:
        m = p
        while m <= bound:
            m *= m  # g(z) = 0 mod sqrt(m), so one Newton step reaches m
            value, slope = _value_and_slope(g, z, m)
            # slope is a unit mod p, so is its norm, since p is inert
            step = gmul(value, gconj(slope))
            inv = pow(gnorm(slope), -1, m)
            z = ((z[0] - step[0] * inv) % m, (z[1] - step[1] * inv) % m)
        out.append(tuple(x - m if 2 * x > m else x for x in z))
    return out
