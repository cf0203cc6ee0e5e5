"""Finite truncations of the shift-plus-unimodular-diagonal counterexample.

On Y + Y with basis {e_1, e_2, ...} in each summand, let A be the backward
shift (A e_1 = 0, A e_{n+1} = e_n), let B be the diagonal operator
B e_n = w_n e_n with w_n the primitive n-th root of unity, and put
T = A + B (direct sum), S = 0 + 1 (kill the shift half, keep the diagonal
half).  For any vector supported on indices <= n, T^{n!} x = S x exactly:
the shift half dies after n applications, and every w_k with k <= n
satisfies w_k^{n!} = 1 because k divides n!.  Yet no single scaled power
matches S: against x = e_{N+1} + e_{N+1}, T^N leaves the shift component
e_1 alive while S kills it.

Everything here is exact.  A power of w_k is represented as the pair
(k, e mod k) -- w_k^e = 1 iff k | e -- so correctness reduces to
divisibility and no floating point ever enters.  T^{n!} is `apply_T_power`
at e = n!, formed as an exact int.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .fields import Field, QQ, Scalar


@dataclass(frozen=True)
class CounterexampleVector:
    """Finitely supported vector: shift-half coefficients a_1..a_n and
    diagonal-half terms (coefficient, phase) for e_1..e_n, where the term at
    index k with phase e means coeff * w_k^e."""

    field: Field
    shift: tuple[Scalar, ...]
    diag: tuple[tuple[Scalar, int], ...]

    @classmethod
    def from_coeffs(cls, field: Field, shift, diag) -> "CounterexampleVector":
        return cls(field, _trim_shift(map(field.coerce, shift)),
                   _trim_diag([(field.coerce(c), 0) for c in diag]))

    @classmethod
    def basis_pair(cls, field: Field, k: int) -> "CounterexampleVector":
        """e_k + e_k (1-based index k in both halves)."""
        if k < 1:
            raise ValueError("basis index is 1-based")
        shift = [field.zero()] * k
        shift[k - 1] = field.one()
        diag = [field.zero()] * k
        diag[k - 1] = field.one()
        return cls.from_coeffs(field, shift, diag)

    @property
    def support(self) -> int:
        return max(len(self.shift), len(self.diag))

    @property
    def is_zero(self) -> bool:
        return not self.shift and not self.diag


def _trim_shift(coeffs) -> tuple[Scalar, ...]:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero:
        coeffs.pop()
    return tuple(coeffs)


def _trim_diag(terms) -> tuple[tuple[Scalar, int], ...]:
    # canonical phases: zero coefficients carry phase 0; index k reduces mod k
    out = []
    for k0, (c, phase) in enumerate(terms):
        k = k0 + 1
        out.append((c, 0) if c.is_zero else (c, phase % k))
    while out and out[-1][0].is_zero:
        out.pop()
    return tuple(out)


def apply_T_power(x: CounterexampleVector, e: int) -> CounterexampleVector:
    """T^e: shift the first half down e places, advance each diagonal phase
    at index k by e mod k."""
    if e < 0:
        raise ValueError("power must be nonnegative")
    shift = x.shift[e:] if e < len(x.shift) else ()
    diag = []
    for k0, (c, phase) in enumerate(x.diag):
        k = k0 + 1
        diag.append((c, (phase + e) % k))
    return CounterexampleVector(x.field, _trim_shift(list(shift)),
                                _trim_diag(diag))


def apply_S(x: CounterexampleVector) -> CounterexampleVector:
    """S = 0 on the shift half, identity on the diagonal half."""
    return CounterexampleVector(x.field, (), _trim_diag(list(x.diag)))


def factorial_truncation_holds(x: CounterexampleVector, n: int) -> bool:
    """T^{n!} x = S x, exactly, whenever the support of x is <= n."""
    if x.support > n:
        raise ValueError("vector support exceeds the truncation level")
    return apply_T_power(x, factorial(n)) == apply_S(x)


def verify_no_single_power(max_support: int) -> tuple[bool, list[dict]]:
    """No integer N < max_support and scalar admit alpha T^N = S: against
    x = e_{N+1} + e_{N+1}, T^N keeps the shift component e_1 alive while S x
    has none, so alpha must be 0, and then the diagonal half fails."""
    if max_support < 2:
        raise ValueError("max_support must be >= 2")
    witnesses = []
    ok = True
    for N in range(max_support):
        x = CounterexampleVector.basis_pair(QQ, N + 1)
        tx = apply_T_power(x, N)
        sx = apply_S(x)
        shift_alive = bool(tx.shift) and not tx.shift[0].is_zero
        sx_nonzero = not sx.is_zero and not sx.diag[-1][0].is_zero
        if not (shift_alive and not sx.shift and sx_nonzero):
            ok = False
        witnesses.append({
            "power": N,
            "vector": f"e_{N + 1}+e_{N + 1}",
            "shift_component_of_T_power": str(tx.shift[0]) if tx.shift else "0",
            "shift_component_of_S": "0",
            "conclusion": "alpha forced to 0 by the shift half; "
                          "diagonal half then mismatches",
        })
    return ok, witnesses


def truncation_table(n_max: int) -> list[dict]:
    """Per-level summary: n, n!, and the exact check T^{n!} e_k+e_k = S(e_k+e_k)
    for every basis index k <= n."""
    rows = []
    for n in range(1, n_max + 1):
        checks = all(
            factorial_truncation_holds(CounterexampleVector.basis_pair(QQ, k), n)
            for k in range(1, n + 1)
        )
        rows.append({
            "n": n,
            "factorial": factorial(n),
            "all_basis_vectors_match": checks,
        })
    return rows
