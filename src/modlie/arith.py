"""Exact arithmetic over prime fields.

Everything here is computed with arbitrary-precision integers and reduced
mod p at the end; there are no floating-point values and no tolerances.
The module provides binomial coefficients (big-integer and Lucas-reduced),
the structure constants N_ij of the rank-one Zassenhaus algebras, their
exactly divided values N_ij/p, and the lambda_ij coefficients that control
the middle line of the lifted cocycle families.
"""

import math

__all__ = [
    "is_prime",
    "check_prime",
    "inv_mod",
    "binom",
    "binom_mod_p",
    "structure_constant_N",
    "n_int",
    "n_div_p",
    "lambda_coeff",
    "lambda_table",
]


def is_prime(p):
    if not isinstance(p, int) or p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


MIN_PRIME = 5  # the engine targets odd characteristic > 3


def check_prime(p):
    if not is_prime(p):
        raise ValueError("p = %r is not prime" % (p,))
    if p < MIN_PRIME:
        raise ValueError("p = %r is below the supported minimum %d" % (p, MIN_PRIME))
    return p


def inv_mod(a, p):
    a %= p
    if a == 0:
        raise ZeroDivisionError("0 is not invertible mod %d" % p)
    return pow(a, -1, p)


def binom(n, k):
    """Big-integer binomial with the convention binom(n,k) = 0 for k < 0,
    k > n, or n < 0.  The convention is what makes the bracket of the basis
    element e_{-1} act as the shift e_j -> e_{j-1}."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def binom_mod_p(i, j, p):
    """binom(i,j) mod p via the Lucas digit product.  Requires i >= 0."""
    check_prime(p)
    if i < 0:
        raise ValueError("binom_mod_p requires i >= 0, got i = %d" % i)
    if j < 0 or j > i:
        return 0
    r = 1
    while i or j:
        a, i = i % p, i // p
        b, j = j % p, j // p
        if b > a:
            return 0
        r = r * math.comb(a, b) % p
    return r


def n_int(i, j):
    """The exact integer N_ij = binom(i+j+1, j) - binom(i+j+1, i)."""
    s = i + j + 1
    return binom(s, j) - binom(s, i)


def structure_constant_N(i, j, p):
    """N_ij mod p; the bracket of the Zassenhaus basis is
    [e_i, e_j] = N_ij e_{i+j} (the caller zeroes out-of-range targets)."""
    return n_int(i, j) % p


def n_div_p(i, j, p):
    """(N_ij / p) mod p, through exact integers.  Only defined when the
    integer N_ij is divisible by p; anything else is an indexing bug."""
    check_prime(p)
    v = n_int(i, j)
    if v % p:
        raise ValueError("N_%d,%d = %d is not divisible by %d" % (i, j, v, p))
    return (v // p) % p


def lambda_coeff(i, j, p):
    """lambda_ij = sum_{k=1}^{i} binom(i+j+1-k, j+1) (k+2)/(k(k+1)) in F_p,
    for -1 <= i, j <= p-2; the empty sum (i <= 0) is 0."""
    check_prime(p)
    if not (-1 <= i <= p - 2 and -1 <= j <= p - 2):
        raise ValueError("lambda index out of range: (%d, %d) for p = %d" % (i, j, p))
    total = 0
    for k in range(1, i + 1):
        # k <= p-2 here, so k and k+1 are invertible mod p
        c = binom(i + j + 1 - k, j + 1) % p
        total += c * (k + 2) * inv_mod(k * (k + 1), p)
    return total % p


def lambda_table(p):
    """All lambda_ij for -1 <= i, j <= p-2, keyed by (i, j)."""
    return {
        (i, j): lambda_coeff(i, j, p)
        for i in range(-1, p - 1)
        for j in range(-1, p - 1)
    }
