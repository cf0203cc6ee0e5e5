"""Explicit non-reflexivity witnesses and their certificates.

When the pooled max-modulus block gap of a profile is at least 2, the
witness is the rank-one-ish operator

    S x = [<x, e_0> + <x, e_1>] e_{m-1}

on the chain basis e_0..e_{m-1} (T e_k = lam e_k + e_{k+1}) of the largest
pooled block, size m, which leads the Jordan model
T = canonical_jordan(profile).  As a matrix S has exactly two nonzero
entries, row m-1, columns 0 and 1, so it is built from m and the dimension
alone.  The same S serves lam = 0: for nilpotent T every other block has
size at most m-2, so S x = ((x_0 + x_1) / x_0) T^{m-1} x when x_0 != 0 and
S x = T^{m-2} x when x_0 = 0, and membership is exact at a finite power.
Two falsifiable certificates back the verdict:

* commutant exclusion: ST != TS, checked exactly, which keeps S out of the
  SOT closure of the scaled power orbit;
* membership residuals: for seeded sample vectors x, the distance from Sx
  to the complex line through T^n x is driven toward 0 with growing n.

The membership residual dist(Sx, C*T^n x) is the norm of the component of
Sx orthogonal to T^n x.  It never claims membership -- it reports decay
consistent with membership at a tolerance up to a horizon.  No eigenvalue
normalisation is needed: scaling T by a nonzero constant leaves both the
scaled power orbit and the point-to-line residuals unchanged, so residuals
are computed on renormalised direction iterates (exact powers would
overflow doubles whenever the spectral radius is not 1; only directions
matter to a scale-free residual).  One batched kernel, `_residual_minima`,
iterates every sample vector of the witness report at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CriterionHolds, MixedFields, ShapeMismatch
from .fields import Scalar
from .linalg import Matrix, commutator_is_zero, embed_matrix, to_ndarray
from .spectra import SpectralProfile, radius_selection
from .deciders import max_modulus_gap

# acceptance thresholds for residual certificates, pinned here
RESIDUAL_CEILING = 1e-2          # min residual at the horizon, every vector
RESIDUAL_SHRINK = 5.0            # horizon residual <= early residual / 5
RESIDUAL_FLOOR = 1e-12           # below this everything counts as converged
COMPONENT_CUTOFF = 1e-9          # relative size declaring an e0/e1 component


def canonical_jordan(profile: SpectralProfile) -> tuple[Matrix, list[tuple[Scalar, int]]]:
    """Block-diagonal Jordan model of a profile with the pooled max-modulus
    blocks first (largest first); remaining blocks follow by decreasing
    modulus then size."""
    entries, _ = radius_selection(profile)
    max_ids = {id(e) for e in entries}
    head: list[tuple[Scalar, int]] = []
    for e in entries:
        head.extend((e.eigenvalue, s) for s in e.block_sizes)
    head.sort(key=lambda b: (-b[1], str(b[0])))
    tail: list[tuple[Scalar, int]] = []
    rest = [e for e in profile.entries if id(e) not in max_ids]
    for e in rest:
        tail.extend((e.eigenvalue, s) for s in e.block_sizes)
    modulus_sq = profile.field.modulus_sq
    tail.sort(key=lambda b: (-modulus_sq(b[0].value), -b[1], str(b[0])))
    layout = head + tail
    blocks = [Matrix.jordan_block(profile.field, eig, size) for eig, size in layout]
    return Matrix.block_diag(blocks), layout


def build_c_orbit_witness(profile: SpectralProfile) -> Matrix:
    """The two-entry witness for a failed max-modulus block gap, in the
    coordinates of `canonical_jordan(profile)`, whose largest pooled block
    (size m >= 2) leads: ones at (m-1, 0) and (m-1, 1), zeros elsewhere."""
    gap = max_modulus_gap(profile)
    if gap.gap <= 1:
        raise CriterionHolds(
            f"max-modulus block gap {gap.gap} <= 1; no witness exists")
    field, n, m = profile.field, profile.dim, gap.pooled_sizes[0]
    S = [[field.zero()] * n for _ in range(n)]
    S[m - 1][0] = S[m - 1][1] = field.one()
    return Matrix(field, S)


@dataclass(frozen=True)
class WitnessReport:
    witness: Matrix
    commutator_nonzero: bool
    commutator_sample: dict
    membership_residuals: tuple[dict, ...]
    verdict_supported: bool
    samples: int
    horizon: int
    seed: int

    def as_dict(self) -> dict:
        return {
            "witness_rows": self.witness.to_strings(),
            "commutator_nonzero": self.commutator_nonzero,
            "commutator_sample": self.commutator_sample,
            "samples": self.samples,
            "horizon": self.horizon,
            "seed": self.seed,
            "membership_residuals": list(self.membership_residuals),
            "verdict_supported": self.verdict_supported,
        }


def _commutator_certificate(S: Matrix, T: Matrix) -> tuple[bool, dict]:
    zero, C = commutator_is_zero(S, T)
    sample = {"entry": None, "value": None}
    if not zero:
        for i in range(C.n):
            for j in range(C.n):
                if not C[i, j].is_zero:
                    sample = {"entry": [i, j], "value": str(C[i, j])}
                    break
            if sample["entry"] is not None:
                break
    return (not zero), sample


def _residual_minima(Tf: np.ndarray, SX: np.ndarray, X: np.ndarray,
                     checkpoints) -> np.ndarray:
    """Running minimum over n of dist(SX[:, j], C * Tf^n X[:, j]) for every
    column j, read at each requested n: row i of the result belongs to
    checkpoints[i].

    All columns advance together on renormalised direction iterates U, and
    the residual is the norm of SX - U (U^H SX), the part of Sx orthogonal to
    the line: this form keeps full precision near exact membership, where
    sqrt(||Sx||^2 - |<u, Sx>|^2) cancels to about 1e-8 * ||Sx||.  The line
    always contains 0, and a column with T^n x = 0 stays zero, so its
    residual is ||Sx||.
    """
    slot = {n: i for i, n in enumerate(checkpoints)}
    horizon = max(checkpoints)
    out = np.empty((len(checkpoints), X.shape[1]))
    best = np.full(X.shape[1], np.inf)
    U = X.astype(complex)
    # the ufuncs that np.linalg.norm(., axis=0) and np.sum(., axis=0) reduce
    # with, called without their Python wrappers: the same float operations
    sqrt, add_reduce = np.sqrt, np.add.reduce
    for n in range(horizon + 1):
        norms = sqrt(add_reduce((U.conj() * U).real, axis=0))
        U /= np.where(norms > 0.0, norms, 1.0)
        coeff = add_reduce(U.conj() * SX, axis=0)
        R = SX - U * coeff
        np.minimum(best, sqrt(add_reduce((R.conj() * R).real, axis=0)), out=best)
        if n in slot:
            out[slot[n]] = best
        if n < horizon:
            U = Tf @ U
    return out


def _vector_batch(dim: int, samples: int, seed: int) -> tuple[list[str], np.ndarray]:
    labels = [f"e{i}" for i in range(dim)]
    cols = [np.eye(dim, dtype=complex)[:, i] for i in range(dim)]
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((2, dim, samples))
    for j in range(samples):
        labels.append(f"sample-{j:03d}")
        cols.append(noise[0, :, j] + 1j * noise[1, :, j])
    return labels, np.stack(cols, axis=1)


def validate_witness(S: Matrix, T: Matrix, samples: int = 100,
                     horizon: int = 2000, seed: int = 0) -> WitnessReport:
    """Exact commutator certificate plus seeded membership residuals.

    Residuals are reported as running minima at horizon/20, horizon/4 and
    horizon for every basis vector and `samples` seeded random vectors.
    verdict_supported requires ST != TS, every horizon residual below
    RESIDUAL_CEILING, and at least RESIDUAL_SHRINK-fold shrink from the
    early checkpoint on vectors with a nonzero e0 or e1 component.
    """
    if S.n != T.n:
        raise ShapeMismatch(f"witness dim {S.n} vs operator dim {T.n}")
    if S.field != T.field:
        if T.field.kind not in S.field.wider:
            raise MixedFields(f"a {S.field.name} witness does not widen to "
                              f"the {T.field.name} operator")
        S = embed_matrix(S, T.field)
    if horizon < 20:
        raise ValueError("horizon must be at least 20")
    commutator_nonzero, sample = _commutator_certificate(S, T)

    checkpoints = (horizon // 20, horizon // 4, horizon)
    labels, X = _vector_batch(T.n, samples, seed)
    minima = _residual_minima(to_ndarray(T), to_ndarray(S) @ X, X, checkpoints)

    rows: list[dict] = []
    supported = commutator_nonzero
    for idx, label in enumerate(labels):
        x = X[:, idx]
        scale = max(float(np.linalg.norm(x)), 1.0)
        has_e01 = bool(T.n >= 2
                       and float(abs(x[0]) + abs(x[1])) > COMPONENT_CUTOFF * scale)
        values = minima[:, idx].tolist()
        early, _, late = values
        converged = late < RESIDUAL_CEILING
        shrunk = (not has_e01) or late <= max(early / RESIDUAL_SHRINK, RESIDUAL_FLOOR)
        supported = supported and converged and shrunk
        rows.append({
            "vector": label,
            "nonzero_e0_or_e1": has_e01,
            "checkpoints": dict(zip(map(str, checkpoints), values)),
        })
    return WitnessReport(
        witness=S,
        commutator_nonzero=commutator_nonzero,
        commutator_sample=sample,
        membership_residuals=tuple(rows),
        verdict_supported=supported,
        samples=samples,
        horizon=horizon,
        seed=seed,
    )
