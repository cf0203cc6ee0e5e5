"""Eigenvalue discovery and Jordan block-size profiles from rank sequences.

Block sizes are read off the rank (Weyr) sequence of (M - lam I)^k -- the
count of blocks of size >= k at lam is rank((M-lam I)^{k-1}) - rank((M-lam I)^k)
-- never from eigenvector chains, so no Jordan basis is ever required.  One
loop and one rank source, `linalg.power_ranks`, serve every kind; only the
ranks differ.  The exact kinds get Bareiss ranks along a shrinking row
basis, the pivot rows of (M - lam I)^(k-1) times M - lam I, on the ring of
the integer form (the powers of h c (M - lam I) = h B - c g I, where
B = c M is the form that the characteristic polynomial already cleared
and lam = g/h): Z or Z[i] over Q and Q(i), and over GF(q), where
c = h = 1, the field's own ring.  They stop as soon as the counts force
the sizes, so a simple eigenvalue takes no elimination and a lone chain
one.  Complex input gets SVD ranks of every full ndarray power.

Exact eigenvalues come from one synthetic-division sieve,
`_poly.split_roots`, on the same ring: it divides det(tI - B) by t - r
for the ring's candidates r = c lam.  Over Q and Q(i) they are the roots
of the monic square-free part, lifted p-adically from GF(p^2)
(`_gaussint`), so nothing is factored; over GF(p^k) they are all q
elements.  The result is kept on the matrix, so one matrix is sieved
once.  If the polynomial does not fully factor the caller gets
NotSplit with the residual factor; escalating the field (q -> qi -> c64)
is an explicit caller decision, never silent.

Numeric eigenvalues come from QR iteration.  Defective eigenvalues of a
block of size m scatter like (machine eps)^(1/m) under rounding, so the
clustering band widens with the dimension; rank thresholds stay at the
descriptor tolerance, anchored at the power of A's largest singular value,
which sits well below true singular values and well above the noise floor
once clusters are re-centred.  A complex profile is fragile when a 10x
wider band would merge clusters or change the entries `radius_selection`
finds at the spectral radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from ._poly import split_roots
from .errors import FiniteFieldUnsupported, NotSplit, OrbitrefError
from .fields import KIND_COMPLEX, KIND_FINITE, Field, Scalar
from .linalg import (Matrix, Polynomial, _berkowitz, _divide_back, integer_form,
                     power_ranks, to_ndarray)

_MACH_EPS = float(np.finfo(float).eps)

ModulusSq = Union[Fraction, float, None]


@dataclass(frozen=True)
class ProfileEntry:
    eigenvalue: Scalar
    block_sizes: tuple[int, ...]          # descending
    modulus_sq: ModulusSq                 # Fraction (exact), float (numeric), None (GF)

    @property
    def algebraic_multiplicity(self) -> int:
        return sum(self.block_sizes)


@dataclass(frozen=True)
class SpectralProfile:
    field: Field
    dim: int
    entries: tuple[ProfileEntry, ...]
    split: bool
    nilpotent: bool
    spectral_radius_sq: ModulusSq
    fragile: bool = False

    @classmethod
    def from_blocks(cls, field: Field, blocks) -> "SpectralProfile":
        """Build a profile directly from (eigenvalue, sizes) pairs."""
        entries = []
        for eig, sizes in blocks:
            eig = field.coerce(eig)
            sizes = tuple(sorted(sizes, reverse=True))
            if not sizes or any(s < 1 for s in sizes):
                raise ValueError("block sizes must be positive")
            entries.append(ProfileEntry(eig, sizes, field.modulus_sq(eig.value)))
        dim = sum(e.algebraic_multiplicity for e in entries)
        return cls(field=field, dim=dim, entries=_sorted_entries(field, entries),
                   split=True, nilpotent=_is_nilpotent(entries),
                   spectral_radius_sq=_radius_sq(entries), fragile=False)

    def as_dict(self) -> dict:
        return {
            "dim": self.dim,
            "field": self.field.describe(),
            "split": self.split,
            "nilpotent": self.nilpotent,
            "fragile": self.fragile,
            "spectral_radius_sq": _modulus_repr(self.spectral_radius_sq),
            "entries": [
                {
                    "eigenvalue": str(e.eigenvalue),
                    "block_sizes": list(e.block_sizes),
                    "modulus_sq": _modulus_repr(e.modulus_sq),
                }
                for e in self.entries
            ],
        }


def _modulus_repr(m: ModulusSq):
    if m is None:
        return None
    if isinstance(m, Fraction):
        return str(m)
    return float(m)


def _is_zero_eig(eig: Scalar, dim: int) -> bool:
    if eig.field.kind == KIND_COMPLEX:
        return abs(eig.value) <= _cluster_band(dim, eig.field.tol, 0.0)
    return eig.is_zero


def _is_nilpotent(entries) -> bool:
    if len(entries) != 1:
        return False
    e = entries[0]
    dim = e.algebraic_multiplicity
    return _is_zero_eig(e.eigenvalue, dim)


def _radius_sq(entries) -> ModulusSq:
    dims = sum(e.algebraic_multiplicity for e in entries)
    best: ModulusSq = None
    for e in entries:
        if _is_zero_eig(e.eigenvalue, dims):
            continue
        if e.modulus_sq is None:
            return None
        if best is None or e.modulus_sq > best:
            best = e.modulus_sq
    return best


def _sorted_entries(field: Field, entries) -> tuple[ProfileEntry, ...]:
    kind = field.kind
    if kind == KIND_FINITE:
        return tuple(sorted(entries, key=lambda e: e.eigenvalue.value))
    if kind == KIND_COMPLEX:
        return tuple(sorted(entries,
                            key=lambda e: (-e.modulus_sq, e.eigenvalue.value.real,
                                           e.eigenvalue.value.imag)))
    return tuple(sorted(entries, key=lambda e: (-e.modulus_sq, str(e.eigenvalue))))


# ---------------------------------------------------------------------------
# eigenvalue discovery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenResult:
    roots: tuple[tuple[Scalar, int], ...]
    split: bool
    residual: Optional[Polynomial]        # non-split factor, exact kinds only
    fragile: bool = False                 # complex clusters a 10x band merges


def eigenvalues(M: Matrix) -> EigenResult:
    """Exact roots with multiplicities over Q, Q(i) and GF(q) by one
    synthetic-division sieve, `_poly.split_roots`; numeric clusters over
    C.  The exact kinds divide det(tI - B) of the integer form B = c M by
    t - r for each of its ring's candidates r = c lam, and divide the roots
    and the residual back: over Q and Q(i) the (Gaussian) integer roots of
    the square-free part lifted p-adically, over GF(q), where c = 1, every
    element in index order.  Over C, `fragile` is set when a 10x wider band
    would merge clusters.  The result is kept on M, so a matrix is sieved
    once however many callers ask."""
    try:
        return M._eigenvalues
    except AttributeError:
        pass
    field = M.field
    if field.kind == KIND_COMPLEX:
        result = _eigenvalues_numeric(M)
    else:
        c, rows, ring = integer_form(M)
        xs = _berkowitz(rows, ring.dot, ring.neg, ring.one, ring.is_zero)
        found, rest = split_roots(xs, ring.candidates(xs), ring.mul, ring.add,
                                  ring.is_zero)
        roots = tuple((Scalar(field, ring.fraction(r, c)), m) for r, m in found)
        split = len(rest) == 1
        result = EigenResult(roots, split,
                             None if split else _divide_back(field, ring, rest, c))
    object.__setattr__(M, "_eigenvalues", result)
    return result


def _cluster_band(dim: int, tol: float, magnitude: float) -> float:
    # defective eigenvalues scatter ~ eps^(1/m); widen with dimension
    return max(tol, 8.0 * _MACH_EPS ** (1.0 / (dim + 1))) * max(1.0, magnitude)


def _cluster_numeric(vals: np.ndarray, tol: float, dim: int):
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    m = len(vals)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            band = _cluster_band(dim, tol, max(abs(vals[i]), abs(vals[j])))
            if abs(vals[i] - vals[j]) <= band:
                parent[find(i)] = find(j)
    groups: dict[int, list[complex]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(complex(vals[i]))
    clusters = [(sum(g) / len(g), len(g)) for g in groups.values()]
    clusters.sort(key=lambda c: (c[0].real, c[0].imag))
    # fragile when a 10x wider band would have merged distinct clusters
    fragile = False
    for i in range(len(clusters)):
        for j in range(i + 1, len(clusters)):
            zi, zj = clusters[i][0], clusters[j][0]
            if abs(zi - zj) <= 10.0 * _cluster_band(dim, tol, max(abs(zi), abs(zj))):
                fragile = True
    return clusters, fragile


def _eigenvalues_numeric(M: Matrix) -> EigenResult:
    vals = np.linalg.eigvals(to_ndarray(M))
    clusters, fragile = _cluster_numeric(vals, M.field.tol, M.n)
    roots = tuple((Scalar(M.field, z), mult) for z, mult in clusters)
    return EigenResult(roots, True, None, fragile)


# ---------------------------------------------------------------------------
# block profiles
# ---------------------------------------------------------------------------

def _sizes_from_counts(counts, lam, mult) -> tuple[int, ...]:
    sizes = []
    for s in range(len(counts), 0, -1):
        here = counts[s - 1] - (counts[s] if s < len(counts) else 0)
        sizes.extend([s] * here)
    if sum(sizes) != mult:
        raise OrbitrefError(
            f"rank sequence inconsistent at eigenvalue {lam}: "
            f"sizes {sizes} vs multiplicity {mult}; for numeric input, adjust tol")
    return tuple(sorted(sizes, reverse=True))


def _sizes_from_rank_sequence(M: Matrix, lam: Scalar, mult: int) -> tuple[int, ...]:
    """Block sizes at lam from the Weyr counts rank(A^(k-1)) - rank(A^k) of
    A = M - lam I, taken from `linalg.power_ranks` until the rank reaches
    n - mult.  Exact kinds stop as soon as the counts force the sizes:
    multiplicity 1 takes no rank at all, and when one block is left of
    size >= k, or one unit of multiplicity, that block takes all that is
    left.  Complex input never stops early, since the counts' consistency
    with the multiplicity is what catches a bad cluster."""
    n = M.n
    exact = M.field.kind != KIND_COMPLEX
    ranks = power_ranks(M, lam)
    counts = []     # counts[k-1] = number of blocks of size >= k
    rest = mult     # rank(A^k) - (n - mult): multiplicity past the first k layers
    while rest > 0 and len(counts) < mult:
        if exact and (rest == 1 or counts[-1:] == [1]):
            counts += [1] * rest  # one block takes what is left
            break
        r = next(ranks) - (n - mult)
        counts.append(rest - r)
        rest = r
    return _sizes_from_counts(counts, lam, mult)


def block_profile(M: Matrix) -> SpectralProfile:
    """Jordan block-size profile of M; raises NotSplit over exact fields when
    the characteristic polynomial has a non-linear factor."""
    eig = eigenvalues(M)
    if not eig.split:
        raise NotSplit(
            f"characteristic polynomial does not split over {M.field.name}; "
            f"residual factor {eig.residual}", residual=eig.residual)
    entries = []
    for lam, mult in eig.roots:
        sizes = _sizes_from_rank_sequence(M, lam, mult)
        entries.append(ProfileEntry(lam, sizes, M.field.modulus_sq(lam.value)))
    profile = SpectralProfile(
        field=M.field, dim=M.n, entries=_sorted_entries(M.field, entries),
        split=True, nilpotent=_is_nilpotent(entries),
        spectral_radius_sq=_radius_sq(entries))
    if M.field.kind != KIND_COMPLEX:
        return profile
    # fragile when a 10x wider band would merge eigenvalue clusters or
    # change the entries that tie the spectral radius
    fragile = eig.fragile or radius_selection(profile)[1]
    return replace(profile, fragile=fragile)


def radius_selection(profile: SpectralProfile) -> tuple[list[ProfileEntry], bool]:
    """Entries whose modulus ties the spectral radius, plus a fragility flag
    for float ties inside the 10x tolerance band.  Only nonzero entries set
    the radius; with none (nilpotent, radius 0) every entry is selected."""
    if profile.field.kind == KIND_FINITE:
        raise FiniteFieldUnsupported(
            "c-orbit reflexivity compares complex moduli; finite fields have none")
    nonzero = [e for e in profile.entries
               if not _is_zero_eig(e.eigenvalue, profile.dim)]
    if not nonzero:
        return list(profile.entries), False
    if isinstance(profile.spectral_radius_sq, Fraction):
        sel = [e for e in nonzero if e.modulus_sq == profile.spectral_radius_sq]
        return sel, False
    tol = profile.field.tol
    r = math.sqrt(profile.spectral_radius_sq)
    sel = [e for e in nonzero
           if r - math.sqrt(e.modulus_sq) <= tol * max(1.0, r)]
    loose = [e for e in nonzero
             if r - math.sqrt(e.modulus_sq) <= 10 * tol * max(1.0, r)]
    return sel, len(sel) != len(loose)

