"""Decision criteria mapping spectral profiles to cited verdicts.

Four properties are decided:

* reflexive -- the classical Deddens-Fillmore block-gap criterion: for each
  eigenvalue, the two largest Jordan blocks differ in size by at most 1.
* orbit-reflexive -- universally true in finite dimensions (classical).
* c-orbit-reflexive -- pool the Jordan blocks of all eigenvalues whose
  modulus ties the spectral radius and require the two largest pooled
  blocks to differ by at most 1.  At spectral radius 0 (nilpotent) the
  pool is the zero-eigenvalue blocks.
* algebraic-orbit-reflexive over GF(p^k) -- true when k >= 2 and the minimal
  polynomial splits; over prime fields the criterion is silent, so the
  verdict is "unknown" until the exhaustive orbit oracle settles it.

Missing-second-block convention (`block_gap`): a lone block of size m is
compared against 0, so a lone block with m >= 2 fails the gap tests.  The
d = 2 brute-force oracle confirms this convention for the pooled criterion,
and a floor-0 brute force over GF(q) confirms the nilpotent case (see tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import WrongField
from .fields import KIND_FINITE
from .linalg import Matrix
from .oracle import DEFAULT_BUDGET, enumerate_orbref0
from .spectra import SpectralProfile, eigenvalues, radius_selection

PROP_REFLEXIVE = "reflexive"
PROP_ORBIT_REFLEXIVE = "orbit_reflexive"
PROP_C_ORBIT_REFLEXIVE = "c_orbit_reflexive"
PROP_ALGEBRAIC = "algebraic_orbit_reflexive"

CITE_REFLEXIVE = "criterion:per-eigenvalue-block-gap (Deddens-Fillmore)"
CITE_ORBIT = "fact:every-finite-dimensional-operator-is-orbit-reflexive"
CITE_C_ORBIT_GAP = "criterion:max-modulus-block-gap"
CITE_ALGEBRAIC_EXT = "criterion:non-prime-scalar-field-with-split-minimal-polynomial"
CITE_ALGEBRAIC_DELEGATED = "delegated:exhaustive-orbit-oracle"
CITE_ALGEBRAIC_ENUM = "certificate:exhaustive-orbit-enumeration"


@dataclass(frozen=True)
class Verdict:
    property: str
    answer: Optional[bool]                 # None = unknown
    citation: str
    fragile: bool = False
    certificate: Optional[dict] = None
    # (T, S): the Jordan model and witness behind a false C-orbit verdict's
    # certificate, kept so that callers validate them without a rebuild
    witness: Optional[tuple[Matrix, Matrix]] = field(default=None, compare=False,
                                                     repr=False)

    def as_dict(self) -> dict:
        return {
            "property": self.property,
            "answer": self.answer,
            "citation": self.citation,
            "fragile": self.fragile,
            "certificate": self.certificate,
        }


def block_gap(sizes) -> int:
    """Largest minus second-largest of descending block sizes; a missing
    second block counts as 0."""
    return sizes[0] - (sizes[1] if len(sizes) > 1 else 0)


@dataclass(frozen=True)
class MaxModulusGap:
    pooled_sizes: tuple[int, ...]          # descending, across tied eigenvalues
    eigenvalues: tuple[str, ...]
    fragile: bool

    @property
    def gap(self) -> int:
        return block_gap(self.pooled_sizes)

    def as_dict(self) -> dict:
        largest, gap = self.pooled_sizes[0], self.gap
        return {
            "pooled_block_sizes": list(self.pooled_sizes),
            "largest": largest,
            "second_largest": largest - gap,
            "gap": gap,
            "max_modulus_eigenvalues": list(self.eigenvalues),
        }


def max_modulus_gap(profile: SpectralProfile) -> MaxModulusGap:
    """Pool block sizes across every eigenvalue at the spectral radius."""
    entries, fragile = radius_selection(profile)
    pooled = sorted((s for e in entries for s in e.block_sizes), reverse=True)
    return MaxModulusGap(
        pooled_sizes=tuple(pooled),
        eigenvalues=tuple(str(e.eigenvalue) for e in entries),
        fragile=fragile,
    )


def decide_reflexive(profile: SpectralProfile) -> Verdict:
    """Per eigenvalue: the two largest blocks differ in size by at most 1."""
    trace = [{"eigenvalue": str(e.eigenvalue), "block_sizes": list(e.block_sizes),
              "gap": block_gap(e.block_sizes)} for e in profile.entries]
    ok = all(t["gap"] <= 1 for t in trace)
    return Verdict(PROP_REFLEXIVE, ok, CITE_REFLEXIVE, profile.fragile,
                   {"criterion_trace": trace})


def decide_orbit_reflexive(M: Matrix) -> Verdict:
    """Always true in finite dimensions (over R or C)."""
    return Verdict(PROP_ORBIT_REFLEXIVE, True, CITE_ORBIT, False,
                   {"note": "holds for every matrix; no computation required"})


def decide_c_orbit_reflexive(profile: SpectralProfile,
                             attach_witness: bool = True) -> Verdict:
    """Pooled max-modulus block gap, for every profile over a subfield of C
    (nilpotent ones included: their pool is the zero-eigenvalue blocks).

    On a false verdict the certificate carries the explicit witness operator
    (in canonical Jordan-model coordinates) built by the witness module, and
    `Verdict.witness` the Jordan model and witness as matrices.
    """
    gap = max_modulus_gap(profile)
    certificate: dict = {"criterion_trace": gap.as_dict()}
    witness = None
    if gap.gap > 1 and attach_witness:
        from .witness import build_c_orbit_witness, canonical_jordan

        T, layout = canonical_jordan(profile)
        S = build_c_orbit_witness(profile)
        certificate["witness"] = {
            "coordinates": "canonical-jordan-model",
            "block_order": [[str(eig), size] for eig, size in layout],
            "operator_rows": T.to_strings(),
            "witness_rows": S.to_strings(),
        }
        witness = T, S
    return Verdict(PROP_C_ORBIT_REFLEXIVE, gap.gap <= 1, CITE_C_ORBIT_GAP,
                   profile.fragile or gap.fragile, certificate, witness)


def decide_algebraic_f_orbit_reflexive(M: Matrix) -> Verdict:
    """Extension-field criterion over GF(p^k); prime fields are delegated.

    k >= 2 with split minimal polynomial => true.  Otherwise unknown, with a
    delegation note; the CLI settles delegated verdicts exactly through
    enumerate_orbref0 and upgrades the verdict with the enumeration summary.
    """
    if M.field.kind != KIND_FINITE:
        raise WrongField("algebraic orbit reflexivity is decided over GF(p^k)")
    eig = eigenvalues(M)
    if M.field.k >= 2 and eig.split:
        return Verdict(PROP_ALGEBRAIC, True, CITE_ALGEBRAIC_EXT, False, {
            "field_order": M.field.q,
            "split": True,
        })
    reason = ("scalar field has prime order" if M.field.k == 1
              else "minimal polynomial does not split over the field")
    return Verdict(PROP_ALGEBRAIC, None, CITE_ALGEBRAIC_DELEGATED, False, {
        "delegate": "enumerate_orbref0",
        "reason": reason,
        "split": eig.split,
    })


def upgrade_algebraic_verdict(verdict: Verdict, M: Matrix,
                              budget: int = DEFAULT_BUDGET) -> Verdict:
    """Settle an unknown algebraic verdict by exhaustive enumeration."""
    if verdict.answer is not None:
        return verdict
    result = enumerate_orbref0(M, budget=budget)
    certificate = dict(verdict.certificate or {})
    certificate.pop("delegate", None)
    certificate["enumeration"] = result.summary()
    if not result.equal:
        certificate["difference_sample"] = [
            S.to_strings() for S in result.difference[:3]]
    return Verdict(PROP_ALGEBRAIC, result.equal, CITE_ALGEBRAIC_ENUM,
                   verdict.fragile, certificate)
