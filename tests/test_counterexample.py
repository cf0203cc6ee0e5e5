"""Factorial-power truncation demo: exact divisibility arithmetic only."""

from math import factorial

import pytest

from orbitref import (
    CounterexampleVector,
    QQ,
    apply_S,
    apply_T_power,
    factorial_truncation_holds,
    verify_no_single_power,
)
from orbitref.counterexample import truncation_table


def test_factorial_power_matches_S_on_e3():
    x = CounterexampleVector.basis_pair(QQ, 3)
    assert apply_T_power(x, 6) == apply_S(x)  # 3! kills the shift; 3 | 6


def test_small_power_fails_on_e3():
    x = CounterexampleVector.basis_pair(QQ, 3)
    tx = apply_T_power(x, 2)
    # e3 survives two shifts as e1, and the phase 2 mod 3 != 0 twists the
    # diagonal: T^2 x != S x on both halves
    assert [str(c) for c in tx.shift] == ["1"]
    assert tx != apply_S(x)
    assert tx.diag[-1][1] == 2


def test_zero_vector_fixed():
    z = CounterexampleVector.from_coeffs(QQ, [], [])
    assert apply_T_power(z, 17) == z
    assert z.is_zero


def test_factorial_truncation_for_all_basis_vectors():
    for n in range(1, 9):
        for k in range(1, n + 1):
            x = CounterexampleVector.basis_pair(QQ, k)
            assert factorial_truncation_holds(x, n)


def test_factorial_truncation_general_support():
    x = CounterexampleVector.from_coeffs(
        QQ, ["1/2", 0, "-3"], ["2/7", "1", "5"])
    assert apply_T_power(x, factorial(3)) == apply_S(x)
    assert apply_T_power(x, factorial(5)) == apply_S(x)


def test_no_single_power_standard():
    ok, witnesses = verify_no_single_power(8)
    assert ok
    assert len(witnesses) == 8  # powers 0..7
    assert [w["power"] for w in witnesses] == list(range(8))
    assert witnesses[3]["vector"] == "e_4+e_4"
    for w in witnesses:
        assert w["shift_component_of_T_power"] != "0"


def test_no_single_power_degenerate():
    ok, witnesses = verify_no_single_power(2)
    assert ok and len(witnesses) == 2


def test_no_single_power_needs_support():
    with pytest.raises(ValueError):
        verify_no_single_power(1)


def test_truncation_table_shape():
    rows = truncation_table(4)
    assert [r["n"] for r in rows] == [1, 2, 3, 4]
    assert rows[3]["factorial"] == 24
    assert all(r["all_basis_vectors_match"] for r in rows)


def test_phases_are_exact_not_float():
    # the twisted coefficient at index k is the pair (coeff, e mod k); no
    # floating point representation of roots of unity anywhere
    x = CounterexampleVector.basis_pair(QQ, 4)
    tx = apply_T_power(x, 7)
    coeff, phase = tx.diag[-1]
    assert str(coeff) == "1" and phase == 3  # 7 mod 4
