"""Tests for complete-intersection invariants, frozen against the naive
convolution oracle in oracle.py and closed forms."""

from collections import Counter
from fractions import Fraction as F
from itertools import combinations_with_replacement

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from cisym.algebra import TruncatedSeries
from cisym.invariants import (
    MAX_DIMENSION,
    CompleteIntersection,
    ParityError,
    a_hat_genus,
    c1_coeff,
    euler_characteristic,
    evaluate_top,
    invariants,
    is_spin,
    normalize,
    pontrjagin_coeff,
    signature,
)


def X(n, *degrees):
    return CompleteIntersection(n, degrees)


def multidegrees(max_sum, min_part=1):
    """All sorted multidegrees with entries >= min_part and sum <= max_sum."""
    for first in range(min_part, max_sum + 1):
        yield (first,)
        for rest in multidegrees(max_sum - first, first):
            yield (first,) + rest


def test_multidegrees_matches_brute_enumeration():
    for max_sum in range(11):
        for min_part in (1, 2):
            brute = {
                combo
                for r in range(1, max_sum + 1)
                for combo in combinations_with_replacement(
                    range(min_part, max_sum + 1), r)
                if sum(combo) <= max_sum
            }
            got = list(multidegrees(max_sum, min_part))
            assert len(got) == len(set(got))
            assert set(got) == brute, (max_sum, min_part)


# ---------------------------------------------------------------------------
# Construction and normalization


def test_degrees_sorted_and_validated():
    assert X(3, 4, 2).degrees == (2, 4)
    with pytest.raises(ValueError):
        X(0, 2)
    with pytest.raises(ValueError):
        X(2, 0)
    with pytest.raises(ValueError):
        X(2, -3)
    with pytest.raises(ValueError):
        CompleteIntersection(2, [])
    with pytest.raises(ValueError):
        X(2, 10**6 + 1)
    with pytest.raises(ValueError):
        CompleteIntersection(2, [2] * 65)
    with pytest.raises(ValueError):
        X(MAX_DIMENSION + 1, 2)
    assert X(MAX_DIMENSION, 2).n == MAX_DIMENSION


def test_normalize_drops_linear_sections():
    assert normalize(X(3, 1, 3)).degrees == (3,)
    assert normalize(X(2, 1, 1, 2, 2)).degrees == (2, 2)
    assert normalize(X(3, 1, 1)).degrees == (1,)


# ---------------------------------------------------------------------------
# Euler characteristic


def test_euler_characteristics_frozen():
    assert euler_characteristic(X(3, 1)) == 4
    assert euler_characteristic(X(3, 2)) == 4
    assert euler_characteristic(X(3, 3)) == -6
    assert euler_characteristic(X(3, 5)) == -200
    assert euler_characteristic(X(3, 4)) == -56
    assert euler_characteristic(X(3, 2, 2)) == 0
    assert euler_characteristic(X(1, 3)) == 0
    assert euler_characteristic(X(2, 4)) == 24


def test_euler_projective_space_row():
    for n in range(1, 7):
        assert euler_characteristic(X(n, 1)) == n + 1


def test_curve_euler_closed_form_sweep():
    # chi = d_1...d_r * (2 - sum(d_j - 1)) for every multidegree of sum <= 10.
    for degs in multidegrees(10):
        ci = CompleteIntersection(1, degs)
        t = 1
        for d in degs:
            t *= d
        assert euler_characteristic(ci) == t * (2 - sum(d - 1 for d in degs))


# Beyond the sweeps: repeated degrees and large ones, which the genus series
# reach by rescaling the weight-1 factor.
LARGE_MULTIDEGREES = [(7, 7, 7), (2, 2, 3, 3, 3), (97,), (1000,), (2, 999),
                      (10**6,)]


def test_euler_matches_oracle_on_a_sweep():
    # n = 1..6 is every dimension the CLI answers, and entry sum <= 16 (1s
    # included) is every multidegree a benchmark query asks about.
    for degs in list(multidegrees(16)) + LARGE_MULTIDEGREES:
        for n in range(1, 7):
            assert euler_characteristic(
                CompleteIntersection(n, degs)
            ) == oracle.euler_ci(n, degs), (n, degs)


@given(st.integers(1, 12), st.lists(st.integers(1, 9), min_size=1, max_size=4))
def test_euler_matches_oracle_beyond_the_cli(n, degs):
    assert euler_characteristic(
        CompleteIntersection(n, degs)) == oracle.euler_ci(n, degs)


def test_evaluate_top_requires_enough_order():
    from cisym.algebra import TruncatedSeries

    with pytest.raises(ValueError):
        evaluate_top(X(3, 2), TruncatedSeries(2, [1]))


# ---------------------------------------------------------------------------
# Linear invariants


def test_c1_rho_t():
    rep = invariants(X(3, 4))
    assert (rep.t, rep.c1_coeff, rep.rho, rep.euler, rep.b3) == (4, 1, -11, -56, 60)
    rep2 = invariants(X(3, 2))
    assert (rep2.t, rep2.c1_coeff, rep2.rho, rep2.euler, rep2.b3) == (2, 3, 1, 4, 0)
    assert pontrjagin_coeff(X(3, 2, 2)) == -2
    assert c1_coeff(X(2, 2, 2)) == 1


def test_spin_parity():
    assert is_spin(X(3, 1))          # c1 = 4
    assert not is_spin(X(3, 2))      # c1 = 3
    assert is_spin(X(2, 4))          # c1 = 0, the K3 surface
    assert is_spin(X(2, 6))          # c1 = -2
    assert not is_spin(X(2, 3))


# ---------------------------------------------------------------------------
# Signature and A-hat


def test_signature_frozen_values():
    assert signature(X(2, 2)) == 0
    assert signature(X(2, 3)) == -5
    assert signature(X(2, 4)) == -16
    assert signature(X(2, 6)) == -64


def test_a_hat_frozen_values():
    assert a_hat_genus(X(2, 4)) == 2
    assert a_hat_genus(X(2, 6)) == 8
    assert a_hat_genus(X(2, 2)) == 0
    assert a_hat_genus(X(2, 3)) == F(5, 8)


def test_parity_errors_in_odd_dimension():
    with pytest.raises(ParityError):
        signature(X(3, 2))
    with pytest.raises(ParityError):
        a_hat_genus(X(1, 2))


def test_signature_and_a_hat_match_oracle_on_a_sweep():
    for n, max_sum in ((2, 9), (4, 8), (6, 8)):
        for degs in list(multidegrees(max_sum)) + LARGE_MULTIDEGREES:
            ci = CompleteIntersection(n, degs)
            assert signature(ci) == oracle.signature_ci(n, degs), (n, degs)
            assert a_hat_genus(ci) == oracle.a_hat_ci(n, degs), (n, degs)


def test_rokhlin_divisibility_sweep():
    # Spin 4-manifolds have signature divisible by 16.
    for degs in multidegrees(12):
        ci = CompleteIntersection(2, degs)
        if is_spin(ci):
            assert signature(ci) % 16 == 0


def test_spin_a_hat_is_minus_sign_over_eight():
    for degs in multidegrees(14):
        ci = CompleteIntersection(2, degs)
        if is_spin(ci):
            assert a_hat_genus(ci) == F(-signature(ci), 8)


def test_report_fields_in_odd_dimension():
    rep = invariants(X(3, 3))
    assert rep.signature is None and rep.a_hat is None
    assert rep.b3 == 10
    rep1 = invariants(X(1, 2))
    assert rep1.b3 is None and rep1.euler == 2


# ---------------------------------------------------------------------------
# The structure of one invariants() call


def kernel_calls(monkeypatch, ci) -> Counter:
    """How often one invariants(ci) call runs each series kernel."""
    counts = Counter()
    for name in ("inverse", "rescaled", "__mul__", "__pow__"):
        method = getattr(TruncatedSeries, name)

        def counted(self, *args, _name=name, _method=method):
            counts[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(TruncatedSeries, name, counted)
    invariants(ci)
    monkeypatch.undo()
    return counts


def test_kernel_calls_of_one_invariants_call_are_pinned(monkeypatch):
    # The Euler characteristic runs no series kernel, so odd n runs none.
    assert kernel_calls(monkeypatch, X(3, 2)) == {}
    assert kernel_calls(monkeypatch, X(3, 2, 3, 4, 5)) == {}
    # Even n builds the l_genus and a_hat series: each builds its weight-1
    # line factor and that factor's inverse once, and each distinct degree
    # rescales the inverse (see the test below).
    assert kernel_calls(monkeypatch, X(4, 2)) == {
        "inverse": 3, "rescaled": 2, "__pow__": 4, "__mul__": 9}


@pytest.mark.parametrize("n, inverses", [(3, 0), (4, 3), (6, 3)])
def test_one_invariants_call_inverts_once_per_genus_however_many_degrees(
        monkeypatch, n, inverses):
    # Even n builds the l_genus series, which inverts sinh(u)/u and then its
    # factor, and the a_hat series, whose factor is the inverse of
    # sinh(u)/u and so needs no second inversion.
    one = kernel_calls(monkeypatch, X(n, 2))
    four = kernel_calls(monkeypatch, X(n, 2, 3, 4, 5))
    repeated = kernel_calls(monkeypatch, X(n, 2, 2, 3, 3))
    series = 0 if n % 2 else 2
    assert one["inverse"] == four["inverse"] == repeated["inverse"] == inverses
    assert (one["rescaled"], four["rescaled"], repeated["rescaled"]) == (
        series, 4 * series, 2 * series)
