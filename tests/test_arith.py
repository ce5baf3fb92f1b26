"""Binomials mod p, Zassenhaus structure constants, divided structure
constants, and the lambda coefficients with their closed-form identities."""

from fractions import Fraction

import pytest

from modlie.arith import (
    binom,
    binom_mod_p,
    check_prime,
    inv_mod,
    is_prime,
    lambda_coeff,
    lambda_table,
    n_div_p,
    n_int,
    structure_constant_N,
)

PRIMES = (5, 7)


def frac_mod(fr, p):
    fr = Fraction(fr)
    return fr.numerator * inv_mod(fr.denominator % p, p) % p


def test_primality_guards():
    assert [q for q in range(2, 30) if is_prime(q)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    check_prime(5)
    with pytest.raises(ValueError):
        check_prime(4)
    with pytest.raises(ValueError):
        check_prime(3)  # below the minimum of 5


def test_inverse_mod():
    for p in PRIMES:
        for a in range(1, p):
            assert a * inv_mod(a, p) % p == 1
    with pytest.raises(ZeroDivisionError):
        inv_mod(0, 5)


def test_binom_values():
    assert binom(7, 2) == 21
    assert binom(4, -1) == 0
    assert binom(3, 5) == 0
    assert binom(0, 0) == 1
    assert binom_mod_p(7, 2, 5) == 1
    assert binom_mod_p(10, 5, 5) == 2  # 252 mod 5


def test_lucas_matches_big_integers():
    for p in PRIMES:
        for i in range(2 * p * p):
            for j in range(2 * p * p):
                assert binom_mod_p(i, j, p) == binom(i, j) % p


def test_structure_constants_small_values():
    # N_ij = binom(i+j+1, j) - binom(i+j+1, i)
    assert n_int(1, 2) == binom(4, 2) - binom(4, 1) == 2
    assert n_int(-1, 4) == 1
    assert n_int(2, 3) == binom(6, 3) - binom(6, 2) == 5
    assert structure_constant_N(2, 3, 5) == 0
    assert structure_constant_N(1, 2, 5) == 2
    for p in PRIMES:
        for i in range(-1, 2 * p):
            for j in range(-1, 2 * p):
                assert structure_constant_N(i, j, p) == n_int(i, j) % p


def test_structure_constants_antisymmetric():
    for i in range(-1, 20):
        for j in range(-1, 20):
            assert n_int(i, j) == -n_int(j, i)


def test_structure_constant_vanishing_is_a_range_phenomenon():
    # inside the e_-1..e_{p-2} index range, N_ij = 0 mod p iff i+j >= p-1
    for p in PRIMES:
        for i in range(-1, p - 1):
            for j in range(-1, p - 1):
                vanish = structure_constant_N(i, j, p) == 0
                assert vanish == (i + j >= p - 1 or i == j)
    # outside that range divisibility fails: N_{-1,p} = 1
    for p in PRIMES:
        assert n_int(-1, p) == 1
        assert structure_constant_N(-1, p, p) == 1


def test_divided_structure_constants():
    # N_ij / p for the pairs with i + j >= p - 1 in range
    assert n_div_p(1, 3, 5) == 1
    assert n_div_p(2, 3, 5) == 1
    assert n_div_p(3, 2, 5) == 4  # N_32 = -5, divided value -1
    assert n_div_p(2, 2, 5) == 0  # diagonal N vanishes as an integer
    for p in PRIMES:
        for i in range(-1, p - 1):
            for j in range(-1, p - 1):
                if i + j >= p - 1:
                    N = n_int(i, j)
                    assert N % p == 0
                    assert n_div_p(i, j, p) == (N // p) % p
    with pytest.raises(ValueError):
        n_div_p(-1, 5, 5)  # N_{-1,5} = 1 is not divisible by 5


def test_divided_constant_closed_form():
    # for j + k = p - 1 with 1 <= j,k <= p-2:
    # N_jk / p = (-1)^j (2j+1) / (j(j+1)) mod p
    for p in PRIMES:
        for j in range(1, p - 1):
            k = p - 1 - j
            want = frac_mod(
                Fraction((-1) ** j * (2 * j + 1), j * (j + 1)), p)
            assert n_div_p(j, k, p) == want


def test_lambda_values():
    assert lambda_coeff(1, 2, 5) == 4  # 3/2 mod 5
    assert lambda_coeff(2, 0, 5) == 2
    assert lambda_coeff(2, 1, 5) == 1
    assert lambda_coeff(3, 0, 5) == 0  # lambda_{p-2,0} = 0
    assert lambda_coeff(5, 0, 7) == 0
    with pytest.raises(ValueError):
        lambda_coeff(4, 0, 5)  # index range stops at p-2


def test_lambda_sum_formula():
    # lambda_ij = sum_{k=1}^{i} binom(i+j+1-k, j+1) (k+2)/(k(k+1))
    for p in PRIMES:
        for i in range(-1, p - 1):
            for j in range(-1, p - 1):
                s = Fraction(0)
                for k in range(1, i + 1):
                    s += binom(i + j + 1 - k, j + 1) * Fraction(
                        k + 2, k * (k + 1))
                assert lambda_coeff(i, j, p) == frac_mod(s, p)


def test_lambda_boundary_rows():
    for p in PRIMES:
        for j in range(-1, p - 1):
            assert lambda_coeff(-1, j, p) == 0
            assert lambda_coeff(0, j, p) == 0
            assert lambda_coeff(1, j, p) == frac_mod(Fraction(3, 2), p)
        for i in range(1, p - 1):
            want = frac_mod(
                sum(Fraction(k + 2, k * (k + 1)) for k in range(1, i + 1)),
                p)
            assert lambda_coeff(i, -1, p) == want


def test_lambda_recurrence():
    # lambda_ij = lambda_{i-1,j} + lambda_{i,j-1} for i, j >= 0
    for p in PRIMES:
        for i in range(p - 1):
            for j in range(p - 1):
                assert lambda_coeff(i, j, p) == (
                    lambda_coeff(i - 1, j, p) + lambda_coeff(i, j - 1, p)
                ) % p


def test_lambda_closing_identity():
    # lambda_{j-1,k} + lambda_{j,k-1} = (-1)^k (2k+1)/(k(k+1))
    # for j + k = p - 1, 1 <= j,k <= p-2
    for p in PRIMES:
        for j in range(1, p - 1):
            k = p - 1 - j
            lhs = (lambda_coeff(j - 1, k, p)
                   + lambda_coeff(j, k - 1, p)) % p
            rhs = frac_mod(
                Fraction((-1) ** k * (2 * k + 1), k * (k + 1)), p)
            assert lhs == rhs


def test_lambda_table_matches_pointwise():
    for p in PRIMES:
        tab = lambda_table(p)
        for i in range(-1, p - 1):
            for j in range(-1, p - 1):
                assert tab[(i, j)] == lambda_coeff(i, j, p)
