"""Divided powers vs reduced polynomials, derivations, and the
Hochschild/Harrison layer: frozen dimensions, the basic symmetric
cocycles, and the digit-wise reading that the literal binomial
coefficient fails."""

import copy
import functools
import inspect
import itertools
import random
import re
import tracemalloc
from collections import defaultdict
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from modlie import ceco, claims, cli, commalg
from modlie.arith import binom
from modlie.commalg import (
    CommAlgebra,
    Derivation,
    SymmetricBilinearMap,
    basic_harrison_cocycle,
    d_invariants,
    der_coinvariants,
    der_invariants,
    derivation_space,
    harrison_h2,
    harrison_h2_d_invariants,
    hochschild_hn_dim,
    is_harrison_cocycle,
    make_divided_powers,
    make_reduced_poly,
    make_scalars,
    mult_operator,
    partial_derivation,
    scale_derivation,
    solve_delta1,
    star_action,
    tensor_derivation,
    tensor_product,
    zero_derivation,
)
from modlie.arith import inv_mod
from modlie.linalg import (Echelon, LinearMap, SparseFpMatrix, family_add,
                           solve_sparse, tensor_index, tensor_pair, vec_add,
                           vec_scale)

P = 5

# builders of the algebras the generator-pair tests cover, with the
# generators CommAlgebra.generators is expected to find
ALGEBRAS = {
    "O1(1)": (lambda: make_divided_powers(1, P), (1,)),
    "O1(2)": (lambda: make_divided_powers(2, P), (1, 5)),
    "O_1": (lambda: make_reduced_poly(1, P), (1,)),
    "O_2": (lambda: make_reduced_poly(2, P), (1, 5)),
    "O1(1)(x)O1(1)": (lambda: tensor_product(make_divided_powers(1, P),
                                             make_divided_powers(1, P)),
                      (1, 5)),
    "K": (lambda: make_scalars(P), ()),
    "O1(1),p=7": (lambda: make_divided_powers(1, 7), (1,)),
}


def test_divided_powers_products():
    A = make_divided_powers(1, P)
    assert A.dim == 5
    assert A.mul({1: 1}, {1: 1}) == {2: 2}        # binom(2,1) = 2
    assert A.mul({1: 1}, {2: 1}) == {3: 3}        # binom(3,2) = 3
    assert A.mul({2: 1}, {2: 1}) == {4: 1}        # binom(4,2) = 6 = 1
    assert A.mul({2: 1}, {3: 1}) == {}            # degree 5 truncates
    assert A.mul(A.unit_vec, {3: 1}) == {3: 1}
    B = make_divided_powers(2, P)
    assert B.dim == 25
    assert B.mul({5: 1}, {5: 1}) == {10: 2}       # binom(10,5) = 252 = 2
    assert B.mul({1: 1}, {4: 1}) == {}            # binom(5,4) = 5 = 0
    assert B.mul({5: 1}, {4: 1}) == {9: 1}        # binom(9,4) = 126 = 1


def test_reduced_poly_products():
    A = make_reduced_poly(2, P)
    assert A.dim == 25
    exps = A.meta["exps"]
    ix = {e: i for i, e in enumerate(exps)}
    x1, x2 = ix[(1, 0)], ix[(0, 1)]
    assert A.mul({x1: 1}, {x2: 1}) == {ix[(1, 1)]: 1}
    assert A.mul({ix[(4, 0)]: 1}, {x1: 1}) == {}  # x1^5 = 0
    assert A.mul({ix[(4, 3)]: 1}, {ix[(0, 1)]: 1}) == {ix[(4, 4)]: 1}


def dense_tensor_mult(A, B):
    """Reference for tensor_product: the loop over every pair x <= y of
    the A.dim * B.dim layout that built the product table before."""
    dA, p = A.dim, A.p
    dim = dA * B.dim
    mult = {}
    for x in range(dim):
        ia, ib = tensor_pair(x, dA)
        for y in range(x, dim):
            ja, jb = tensor_pair(y, dA)
            va, vb = A.product(ia, ja), B.product(ib, jb)
            out = {tensor_index(ka, kb, dA): ca * cb % p
                   for ka, ca in va.items() for kb, cb in vb.items()}
            if out:
                mult[(x, y)] = out
    return mult


@pytest.mark.parametrize("left, right", [
    (lambda: make_divided_powers(2, P), lambda: make_divided_powers(1, P)),
    (lambda: make_divided_powers(1, P), lambda: make_divided_powers(1, P)),
    (lambda: make_reduced_poly(2, P), lambda: make_divided_powers(1, P)),
    (lambda: make_divided_powers(1, 7), lambda: make_scalars(7)),
])
def test_tensor_product_matches_the_dense_loop(left, right):
    A, B = left(), right()
    # the same table, key order included
    assert list(tensor_product(A, B).mult.items()) == list(
        dense_tensor_mult(A, B).items())


def dense_associativity_failure(A):
    """Reference for the associativity check of CommAlgebra: (ij)k
    against i(jk) on every ordered basis triple in lexicographic order;
    the first failing triple, or None."""
    n = A.dim
    for i in range(n):
        for j in range(n):
            ij = A.product(i, j)
            for k in range(n):
                if A.mul(ij, {k: 1}) != A.mul({i: 1}, A.product(j, k)):
                    return (i, j, k)
    return None


def associativity_verdict(p, n, mult, unit):
    """(failing triple or None) from the check, and from the reference,
    for the unital commutative table on basis labels 0..n-1.  The
    constructor's floor of p >= 5 is lifted: the check is arithmetic mod
    p alone."""
    labels = [str(i) for i in range(n)]
    with mock.patch("modlie.commalg.check_prime", lambda p: p), \
            mock.patch.object(CommAlgebra, "_validate", lambda self: None):
        A = CommAlgebra(p, labels, mult, unit)
    try:
        A._validate()
        got = None
    except ValueError as e:
        m = re.fullmatch(r"associativity fails on \((.*)\)", str(e))
        assert m, str(e)
        got = tuple(int(x) for x in m.group(1).split(", "))
    return got, dense_associativity_failure(A)


@st.composite
def unital_tables(draw):
    """Unital commutative tables on n basis elements, unit at a drawn
    index: either random products, or a truncated polynomial ring
    K[x]/(x^n) on a permuted, rescaled basis (associative), optionally
    with one product replaced."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 6))
    perm = draw(st.permutations(range(n)))
    unit = perm[0]
    vec = st.dictionaries(st.integers(0, n - 1), st.integers(1, p - 1),
                          max_size=2)
    others = [i for i in range(n) if i != unit]
    pairs = [(i, j) for i in others for j in others if i <= j]
    mult = {(unit, j): {j: 1} for j in range(n)}
    if draw(st.booleans()):
        for ij in pairs:
            mult[ij] = draw(vec)
    else:
        c = [1] + [draw(st.integers(1, p - 1)) for _ in range(n - 1)]
        for a in range(1, n):
            for b in range(a, n - a):
                coef = c[a] * c[b] * inv_mod(c[a + b], p)
                mult[tuple(sorted((perm[a], perm[b])))] = {perm[a + b]: coef}
        if pairs and draw(st.booleans()):
            mult[draw(st.sampled_from(pairs))] = draw(vec)
    return p, n, mult, unit


@settings(max_examples=400, deadline=None)
@given(unital_tables())
def test_associativity_check_matches_dense_reference(drawn):
    got, want = associativity_verdict(*drawn)
    assert got == want


def test_non_associative_table_is_rejected():
    # (aa)b = b b = 0 but a(ab) = a a = b
    mult = {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
            (1, 1): {2: 1}, (1, 2): {1: 1}}
    assert associativity_verdict(P, 3, mult, 0) == ((1, 1, 2), (1, 1, 2))
    with pytest.raises(ValueError, match=r"associativity fails on \(a, a, b\)"):
        CommAlgebra(P, ["1", "a", "b"], mult, 0)


def test_conflicting_product_keys_are_refused():
    A = make_divided_powers(1, P)
    with pytest.raises(ValueError, match=r"conflicting values for the pair "
                                         r"\(1, 2\)"):
        SymmetricBilinearMap(A, {(1, 2): {3: 1}, (2, 1): {3: 2}})
    # K[a]/(a^2) with 1 * a given twice alike is fine; differently, it
    # is not
    mult = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}
    assert CommAlgebra(P, ["1", "a"], mult, 0).mult == {
        (0, 0): {0: 1}, (0, 1): {1: 1}}
    with pytest.raises(ValueError, match=r"conflicting values for the pair "
                                         r"\(0, 1\)"):
        CommAlgebra(P, ["1", "a"], {**mult, (1, 0): {1: 2}}, 0)


def test_derivation_guard_and_shift():
    A = make_divided_powers(1, P)
    d = partial_derivation(A)
    assert d({3: 1}) == {2: 1}
    assert d(A.unit_vec) == {}
    # truncated shift breaks Leibniz; pairs i <= j are visited in order
    with pytest.raises(ValueError, match=r"Leibniz fails on \(x\^1, x\^1\)"):
        Derivation(A, {1: {0: 1}})
    B = make_divided_powers(2, P)
    # the divided p-th power of the shift, x^j -> x^{j - p}
    d5 = Derivation(B, {j: {j - P: 1} for j in range(P, B.dim)})
    assert d5({7: 1}) == {2: 1}
    assert d5({3: 1}) == {}
    # [d, d^(p)] = 0
    assert partial_derivation(B).commutator(d5).is_zero()


def test_derivation_space_dimensions():
    A = make_divided_powers(1, P)
    ders = derivation_space(A)
    assert len(ders) == 5
    # u * d for u in a basis of A spans the same space
    d = partial_derivation(A)
    from modlie.linalg import Echelon
    e = Echelon(P)
    for i in range(A.dim):
        assert e.add(scale_derivation(d, {i: 1}).flatten())
    for E in ders:
        assert not e.add(E.flatten())


def test_invariants_of_the_shift():
    A = make_divided_powers(1, P)
    d = partial_derivation(A)
    # constants of d: only the unit line
    assert len(d_invariants(A, d)) == 1
    # centralizer of d inside Der(A): spanned by d itself
    cent = der_invariants(A, d)
    assert len(cent) == 1
    dim, reps = der_coinvariants(A, d)
    assert dim == 1
    assert len(reps) == 1
    # at n = 2 the centralizer picks up the divided p-th power of the shift
    B = make_divided_powers(2, P)
    dB = partial_derivation(B)
    assert len(derivation_space(B)) == 50  # n p^n
    assert len(d_invariants(B, dB)) == 1   # constants only: d is onto x^<top
    assert len(der_invariants(B, dB)) == 2
    assert der_coinvariants(B, dB)[0] == 2


def test_hochschild_delta_degree_one():
    # the reference coboundary the tests lean on: d(mult by u)(a, b) =
    # u a b, and derivations are 1-cocycles
    A = make_divided_powers(1, P)
    u = {2: 3}
    dM = dense_delta1(A, mult_operator(A, u))
    for i in range(A.dim):
        for j in range(A.dim):
            assert dM(i, j) == A.mul(A.mul({i: 1}, {j: 1}), u)
    assert dense_delta1(A, partial_derivation(A).cols).is_zero()


def test_hochschild_delta_degree_two_on_coboundaries():
    A = make_divided_powers(1, P)
    G = mult_operator(A, {1: 1, 3: 2})
    F = dense_delta1(A, G)
    assert is_harrison_cocycle(F)
    assert not any(_delta2_value(A, F, *xs)
                   for xs in itertools.product(range(A.dim), repeat=3))
    H = solve_delta1(A, F)
    assert H is not None
    assert dense_delta1(A, H).values == F.values


def test_hochschild_dimensions():
    A = make_divided_powers(1, P)
    assert hochschild_hn_dim(A, 0) == 5
    assert hochschild_hn_dim(A, 1) == 5
    assert hochschild_hn_dim(A, 2) == 5


def test_hochschild_h2_of_reduced_rank_two():
    B = make_reduced_poly(2, P)
    assert hochschild_hn_dim(B, 2, budget=10 ** 9) == 75


def test_harrison_dimensions():
    # dim Har^2(O_m, O_m) = m p^m
    assert harrison_h2(make_divided_powers(1, P))[0] == 5
    assert harrison_h2(make_reduced_poly(1, P))[0] == 5
    dim, reps = harrison_h2(make_divided_powers(1, P))
    for F in reps:
        assert is_harrison_cocycle(F)
    # two generators: cocycles, independent modulo the coboundaries
    A = make_reduced_poly(2, P)
    dim, reps = harrison_h2(A)
    assert dim == len(reps) == 50
    span = Echelon(P)
    for col in dense_coboundary_columns(A).values():
        span.add(col)
    for F in reps:
        assert is_harrison_cocycle(F)
        assert span.add(F.flatten())


@pytest.mark.parametrize("make, m, p", [
    (make_divided_powers, 1, 5),
    (make_divided_powers, 2, 5),
    (make_reduced_poly, 2, 5),
    (make_divided_powers, 1, 7),
    pytest.param(make_divided_powers, 2, 7, marks=pytest.mark.slow),
], ids=["O1(1)", "O1(2)", "O_2", "O1(1)-p7", "O1(2)-p7"])
def test_harrison_representatives_match_the_greedy_loop(make, m, p,
                                                       monkeypatch):
    # the greedy loop over a kernel basis of the system with nothing
    # cleared, all symmetric cocycles, keeps each that enlarges a fresh
    # echelon of the dense coboundary columns; the representatives are
    # as many cocycles, independent modulo the coboundaries, and each
    # lies in the span of the coboundaries and the kept ones
    A = make(m, p)
    dim, reps = harrison_h2(A)
    fast = commalg.sparsest_first
    monkeypatch.setattr(commalg, "sparsest_first",
                        lambda weights, boundary, build, p:
                        fast(weights, (), build, p))
    span, fresh = Echelon(p), Echelon(p)
    for col in dense_coboundary_columns(A).values():
        span.add(col)
        fresh.add(col)
    kept = [Z for Z in harrison_h2(A)[1] if span.add(Z.flatten())]
    assert dim == len(reps) == len(kept) == m * p ** m
    for F in reps:
        assert all(F(i, j) == F(j, i)
                   for i in range(A.dim) for j in range(A.dim))
        assert is_harrison_cocycle(F)
        assert span.member(F.flatten())
        assert fresh.add(F.flatten())


@pytest.mark.slow
def test_harrison_dimension_of_divided_rank_two():
    assert harrison_h2(make_divided_powers(2, P))[0] == 50


@pytest.mark.slow
def test_harrison_dimension_of_divided_rank_three():
    # m p^m = 375, from 984 375 symmetric unknowns (about 20 s)
    assert harrison_h2(make_divided_powers(3, P))[0] == 375


@pytest.mark.slow
def test_harrison_kuenneth_on_a_tensor_square():
    # O1 (x) O1 is isomorphic to O1(2) as an algebra up to regrading;
    # its symmetric H^2 has the same dimension m p^m with m = 2
    T = tensor_product(make_divided_powers(1, P), make_divided_powers(1, P))
    assert harrison_h2(T)[0] == 50


def test_basic_cocycles_divided_values():
    F = basic_harrison_cocycle(make_divided_powers(1, P), 1)
    assert F(3, 2) == {0: 2}   # binom(5,2)/5 = 2
    assert F(1, 2) == {}
    assert is_harrison_cocycle(F)
    B = make_divided_powers(2, P)
    for i in (1, 2):
        assert is_harrison_cocycle(basic_harrison_cocycle(B, i))


def test_literal_binomial_reading_is_not_a_cocycle():
    # reading binom(a+b, b)/p as one big integer binomial on the digit-i
    # overflow support fails the cocycle identity at m = 2
    A = make_divided_powers(2, P)
    vals = {}
    for a in range(A.dim):
        for b in range(a, A.dim):
            if a % P + b % P >= P:  # digit-1 overflow
                c = binom(a + b, b)
                assert c % P == 0
                c = (c // P) % P
                e = a + b - P
                if c and 0 <= e < A.dim:
                    vals[(a, b)] = {e: c}
    F = SymmetricBilinearMap(A, vals)
    assert not is_harrison_cocycle(F)
    assert _delta2_value(A, F, 5, 4, 4) == {8: 1}  # a witness


def reduced_basic_cocycle(A, i):
    """Reference for the i-th basic Harrison cocycle of the reduced ring
    A = O_m: F(x^alpha, x^beta) = x^{alpha + beta - p e_i} when alpha_i +
    beta_i >= p, else 0."""
    p, exps = A.p, A.meta["exps"]
    index = {e: idx for idx, e in enumerate(exps)}
    vals = {}
    for ia, alpha in enumerate(exps):
        for ib in range(ia, len(exps)):
            s = [x + y for x, y in zip(alpha, exps[ib])]
            s[i - 1] -= p
            if s[i - 1] >= 0 and all(x < p for x in s):
                vals[(ia, ib)] = {index[tuple(s)]: 1}
    return SymmetricBilinearMap(A, vals)


def reduced_to_divided(m, p):
    """Reference algebra isomorphism O_m -> O1(m): the reduced monomial
    x^alpha goes to (prod_i alpha_i!) x^{sum_i alpha_i p^{i-1}}; checked
    bijective and multiplicative on every pair of basis elements."""
    Om, O1 = make_reduced_poly(m, p), make_divided_powers(m, p)
    cols = {}
    for idx, alpha in enumerate(Om.meta["exps"]):
        c = 1
        for a in alpha:
            for t in range(2, a + 1):
                c = c * t % p
        cols[idx] = {sum(a * p ** t for t, a in enumerate(alpha)): c}
    f = LinearMap(Om, O1, cols)
    assert f.rank() == Om.dim == O1.dim
    for i in range(Om.dim):
        for j in range(i, Om.dim):
            assert f(Om.product(i, j)) == O1.mul(f({i: 1}), f({j: 1}))
    return f


def test_divided_cocycles_are_minus_the_transported_reduced_ones():
    for m in (1, 2):
        f = reduced_to_divided(m, P)
        for i in range(1, m + 1):
            Fred = reduced_basic_cocycle(f.source, i)
            assert is_harrison_cocycle(Fred)
            Fdiv = basic_harrison_cocycle(f.target, i)
            for a in range(f.source.dim):
                for b in range(a, f.source.dim):
                    lhs = Fdiv.eval_vec(f({a: 1}), f({b: 1}))
                    rhs = vec_scale(f(Fred(a, b)), -1, P)
                    assert lhs == rhs


def test_a_basic_cocycle_failing_its_check_raises_value_error(monkeypatch,
                                                           capsys):
    # every cochain constructor raises CocycleError or ValueError, which
    # verify reports on one line, exiting 2, instead of a traceback
    monkeypatch.setattr(commalg, "is_harrison_cocycle", lambda F: False)
    with pytest.raises(ValueError, match="basic cocycle 1 failed"):
        basic_harrison_cocycle(make_divided_powers(1, P), 1)
    assert cli.main(["verify", "hochschild-harrison"]) == 2
    assert capsys.readouterr().err == (
        "verify: basic cocycle 1 failed the cocycle check\n")


def test_star_action_on_basic_cocycles():
    # the shift kills F_m literally, and every F_i up to a coboundary
    literal = []
    classwise = []
    for m, i in ((1, 1), (2, 1), (2, 2)):
        A = make_divided_powers(m, P)
        d = partial_derivation(A)
        F = basic_harrison_cocycle(A, i)
        s = star_action(d, F)
        literal.append(s.is_zero())
        classwise.append(solve_delta1(A, s) is not None)
    assert literal == [True, False, True]
    assert classwise == [True, True, True]


def test_star_action_of_coboundaries_is_a_coboundary():
    A = make_divided_powers(1, P)
    d = partial_derivation(A)
    F = dense_delta1(A, mult_operator(A, {2: 1}))
    s = star_action(d, F)
    assert solve_delta1(A, s) is not None


def test_invariant_harrison_classes_carry_potentials():
    for m in (1, 2):
        A = make_divided_powers(m, P)
        d = partial_derivation(A)
        count, pairs = harrison_h2_d_invariants(A, d)
        assert count == m
        assert len(pairs) == m
        for F, H in pairs:
            assert is_harrison_cocycle(F)
            got = dense_delta1(A, H)
            assert got.values == star_action(d, F).values


def test_tensor_derivations_commute_across_sides():
    A = make_divided_powers(1, P)
    T = tensor_product(A, A)
    dl = tensor_derivation(T, partial_derivation(A))
    # 1 (x) d: x^a @ x^b -> x^a @ x^{b-1}
    at = functools.partial(tensor_index, dim=A.dim)
    dr = Derivation(T, {at(a, b): {at(a, b - 1): 1}
                        for a in range(A.dim) for b in range(1, A.dim)})
    assert dl.commutator(dr).is_zero()
    # (d (x) 1)(x^1 @ x^2) = x^0 @ x^2
    assert dl({at(1, 2): 1}) == {at(0, 2): 1}
    assert dr({at(1, 2): 1}) == {at(1, 1): 1}


def test_scalars_and_zero_derivation():
    K = make_scalars(P)
    assert K.dim == 1
    assert K.mul({0: 2}, {0: 3}) == {0: 1}
    A = make_divided_powers(1, P)
    z = zero_derivation(A)
    assert z.is_zero()
    assert len(derivation_space(K)) == 0


def test_one_default_budget():
    # cohomology assembly, the bar complex and the claims share one default
    bar = inspect.signature(hochschild_hn_dim).parameters["budget"].default
    assert bar == claims.Ctx().budget == ceco.DEFAULT_BUDGET == cli.DEFAULT_BUDGET


def _generated_dim(A, gens):
    # naive closure: multiply every pair of the span until it stops growing
    ech, basis = Echelon(A.p), []
    for v in [A.unit_vec] + [{g: 1} for g in gens]:
        if ech.add(v):
            basis.append(v)
    grown = True
    while grown:
        grown = False
        for x in list(basis):
            for y in list(basis):
                w = A.mul(x, y)
                if w and ech.add(w):
                    basis.append(w)
                    grown = True
    return ech.rank


@pytest.mark.parametrize("name", ALGEBRAS)
def test_comm_generators_generate_every_builtin(name):
    build, expected = ALGEBRAS[name]
    A = build()
    assert "generators" not in vars(A)  # found on first use, not at construction
    assert A.generators == expected
    assert _generated_dim(A, A.generators) == A.dim
    # none of them is redundant
    for g in A.generators:
        assert _generated_dim(A, [h for h in A.generators if h != g]) < A.dim
    # the two generators meet 47 of the 300 pairs (a < c) of O1(2)
    if name == "O1(2)":
        assert len(list(commalg._harrison_pairs(A))) == 47


def test_comm_generators_drop_a_redundant_generator():
    # K[x]/(x^3) with x^2 listed before x: x^2 joins first, then x, which
    # generates x^2, so x^2 is dropped
    A = CommAlgebra(P, ["1", "x^2", "x"],
                    {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
                     (2, 2): {1: 1}}, unit=0)
    assert A.generators == (2,)
    assert _generated_dim(A, A.generators) == A.dim


def _pairs_meeting(firsts):
    """A stand-in for _harrison_pairs: the pairs (a, c), a < c, with a or
    c in firsts; firsts = range(A.dim) gives every pair."""
    keep = set(firsts)
    return lambda A: ((a, c) for a in range(A.dim)
                      for c in range(a + 1, A.dim) if a in keep or c in keep)


def _harrison_run(A, monkeypatch, firsts=None):
    """harrison_h2(A) with its rows assembled on _pairs_meeting(firsts)
    (generator pairs when firsts is None), and the system it solved."""
    system = commalg._harrison_system
    seen = {}

    def record(A, kept):
        seen["system"] = out = system(A, kept)
        return out

    with monkeypatch.context() as mp:
        mp.setattr(commalg, "_harrison_system", record)
        if firsts is not None:
            mp.setattr(commalg, "_harrison_pairs", _pairs_meeting(firsts))
        result = harrison_h2(A)
    return result, seen["system"][1]


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.slow)
    if name in ("O_2", "O1(1)(x)O1(1)") else name
    for name in ALGEBRAS])
def test_harrison_generator_pairs_match_all_pairs(name, monkeypatch):
    A = ALGEBRAS[name][0]()
    assert (list(commalg._harrison_pairs(A))
            == list(_pairs_meeting(A.generators)(A)))
    (dim, reps), m = _harrison_run(A, monkeypatch)
    (dim_all, reps_all), ref = _harrison_run(A, monkeypatch, range(A.dim))
    assert m.rank == ref.rank
    assert set(m.pivots) == set(ref.pivots)
    assert m.kernel_basis() == ref.kernel_basis()
    assert dim == dim_all
    assert [F.values for F in reps] == [F.values for F in reps_all]


def _harrison_shortest_first(A, monkeypatch):
    """The reference of the streamed Harrison system: harrison_h2(A) with
    the rows of its system inserted shortest first, ties in the order
    they are built, and that system."""
    fast, seen = commalg.sparsest_first, []

    def record(weights, boundary, build, p):
        order, m = fast(weights, boundary,
                        lambda pos: sorted(build(pos), key=len), p)
        seen.append(m)
        return order, m

    with monkeypatch.context() as mp:
        mp.setattr(commalg, "sparsest_first", record)
        result = harrison_h2(A)
    (m,) = seen
    return result, m


@pytest.mark.parametrize("name", [
    "O1(1)", "O1(2)", "O_2", "O1(1)(x)O1(1)", "O1(1),p=7"])
def test_streamed_harrison_rows_match_shortest_first(name, monkeypatch):
    # rows reduced as they are built, against all of them held and sorted
    A = ALGEBRAS[name][0]()
    (dim, reps), m = _harrison_run(A, monkeypatch)
    (ref_dim, ref_reps), ref = _harrison_shortest_first(A, monkeypatch)
    assert m.rank == ref.rank
    assert set(m.pivots) == set(ref.pivots)
    assert m.kernel_basis() == ref.kernel_basis()
    assert dim == ref_dim == len(reps)
    assert ([list(F.values.items()) for F in reps]
            == [list(F.values.items()) for F in ref_reps])


def test_harrison_rows_are_not_held_for_a_sort():
    # the 28 107 rows of O1(2) at p = 5: held to be sorted, the system
    # peaked at 8.6 MB of Python allocations; streamed, at 3.6 MB
    tracemalloc.start()
    try:
        assert harrison_h2(make_divided_powers(2, P))[0] == 50
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def test_harrison_pairs_of_a_non_generating_set_lose_rank(monkeypatch):
    A = make_divided_powers(1, P)
    assert _harrison_run(A, monkeypatch, [A.unit])[0][0] == 35
    B = make_divided_powers(2, P)
    assert _harrison_run(B, monkeypatch, [B.unit, 1])[0][0] == 200


def _delta2_value(A, F, a, b, c):
    """Reference for the degree-2 Hochschild coboundary of a symmetric
    F: dF(a, b, c) = a F(b, c) - F(ab, c) + F(a, bc) - F(a, b) c."""
    p = A.p
    v = A.mul({a: 1}, F(b, c))
    for m, cm in A.product(a, b).items():
        v = vec_add(v, vec_scale(F(m, c), -cm, p), p)
    for m, cm in A.product(b, c).items():
        v = vec_add(v, vec_scale(F(a, m), cm, p), p)
    return vec_add(v, vec_scale(A.mul(F(a, b), {c: 1}), -1, p), p)


def dense_is_harrison_cocycle(F):
    """Reference for is_harrison_cocycle: dF(a, b, c) over every triple
    with a < c."""
    A = F.A
    for a in range(A.dim):
        for c in range(a + 1, A.dim):
            for b in range(A.dim):
                if _delta2_value(A, F, a, b, c):
                    return False
    return True


def _tensor_cocycle(T, F, B):
    """F (x) (multiplication of B) on T = A (x) B: a symmetric cocycle
    whenever F is one on A, since the B parts multiply associatively."""
    dA = T.meta["dims"][0]
    vals = {}
    for x in range(T.dim):
        for y in range(x, T.dim):
            (ia, ib), (ja, jb) = tensor_pair(x, dA), tensor_pair(y, dA)
            vals[(x, y)] = {tensor_index(ka, kb, dA): ca * cb
                            for ka, ca in F(ia, ja).items()
                            for kb, cb in B.product(ib, jb).items()}
    return SymmetricBilinearMap(T, vals)


def _basic_cocycles(name, A):
    kind = A.meta["kind"]
    if kind == "reduced":
        return harrison_h2(A)[1][:A.meta["m"]]
    if name == "O1(1)(x)O1(1)":
        B = make_divided_powers(1, P)
        return [_tensor_cocycle(A, basic_harrison_cocycle(B, 1), B)]
    return [basic_harrison_cocycle(A, i) for i in range(1, A.meta["n"] + 1)]


@functools.cache
def _cocycle_algebra(name):
    # built once per session: the hypothesis examples only read them
    A = ALGEBRAS[name][0]()
    return A, _basic_cocycles(name, A)


@st.composite
def symmetric_cochains(draw):
    """A coboundary or a basic cocycle on one of the covered algebras,
    perturbed in one entry or not; returns (cochain, perturbed)."""
    name = draw(st.sampled_from(
        ["O1(1)", "O1(2)", "O_2", "O1(1)(x)O1(1)", "O1(1),p=7"]))
    A, basic = _cocycle_algebra(name)
    n, p = A.dim, A.p
    index = st.integers(0, n - 1)
    if draw(st.booleans()):
        G = draw(st.dictionaries(
            index, st.dictionaries(index, st.integers(1, p - 1),
                                   min_size=1, max_size=2), max_size=4))
        F = dense_delta1(A, G)
    else:
        F = draw(st.sampled_from(basic))
    perturbed = draw(st.booleans())
    if perturbed:
        i, j, t = draw(index), draw(index), draw(index)
        F = SymmetricBilinearMap(A, family_add(
            F.values, SymmetricBilinearMap(A, {(i, j): {t: 1}}).values, p,
            draw(st.integers(1, p - 1))))
    return F, perturbed


@settings(max_examples=80, deadline=None)
@given(symmetric_cochains())
def test_generator_pair_cocycle_check_matches_all_triples(drawn):
    F, perturbed = drawn
    want = dense_is_harrison_cocycle(F)
    assert is_harrison_cocycle(F) == want
    if not perturbed:
        assert want


def dense_delta1(A, cols):
    """Reference for the degree-1 Hochschild coboundary of the 1-cochain
    with the given sparse columns: dG(a, b) = a G(b) + b G(a) - G(ab)."""
    p = A.p
    vals = {}
    for i in range(A.dim):
        for j in range(i, A.dim):
            v = vec_add(A.mul({i: 1}, cols.get(j, {})),
                        A.mul({j: 1}, cols.get(i, {})), p)
            for k, cm in A.product(i, j).items():
                v = vec_add(v, vec_scale(cols.get(k, {}), -cm, p), p)
            if v:
                vals[(i, j)] = v
    return SymmetricBilinearMap(A, vals)


def dense_coboundary_columns(A):
    """Reference for the d^1 columns: dG = a G(b) + b G(a) - G(ab) of
    every elementary 1-cochain G = (src -> tgt), keyed src * dim + tgt,
    on the pair coordinates (i * dim + j) * dim + t, i <= j."""
    n, p = A.dim, A.p

    def key(i, j, t):
        return (min(i, j) * n + max(i, j)) * n + t

    cols = {}
    for src in range(n):
        for tgt in range(n):
            vec = defaultdict(int)
            # a G(b) + b G(a): pairs containing src, twice on (src, src)
            for other in range(n):
                for k, c in A.product(other, tgt).items():
                    vec[key(other, src, k)] += c
            for k, c in A.product(src, tgt).items():
                vec[key(src, src, k)] += c
            # -G(ab) over the pairs multiplying into src
            for (i, j), prod in A.mult.items():
                if prod.get(src):
                    vec[key(i, j, tgt)] -= prod[src]
            col = {k: v % p for k, v in vec.items() if v % p}
            if col:
                cols[src * n + tgt] = col
    return cols


def dense_derivation_space(A):
    """Reference for derivation_space: the kernel of the Leibniz rows
    D(b_i b_j) - b_i D(b_j) - b_j D(b_i) = 0 of every pair i <= j, one
    row per target, on the unknowns src * dim + tgt."""
    n, p = A.dim, A.p
    m = SparseFpMatrix(n * n, p)
    for i in range(n):
        for j in range(i, n):
            rows = defaultdict(lambda: defaultdict(int))
            for k, c in A.product(i, j).items():
                for t in range(n):
                    rows[t][k * n + t] += c
            for s in range(n):
                for t, c in A.product(i, s).items():
                    rows[t][j * n + s] -= c
                for t, c in A.product(j, s).items():
                    rows[t][i * n + s] -= c
            for r in rows.values():
                m.add(dict(r))
    ders = []
    for v in m.kernel_basis():
        cols = defaultdict(dict)
        for key, c in v.items():
            cols[key // n][key % n] = c
        ders.append(Derivation(A, dict(cols)))
    return ders


def dense_bar_rank(A, k):
    """Reference for the rank of the bar differential C^k -> C^{k+1}: the
    image of every elementary k-cochain (tau -> s), pushed through one
    echelon."""
    n, p = A.dim, A.p
    divisors = defaultdict(list)  # m -> ordered (u, v, c), b_u b_v = c b_m + ..
    for (i, j), vec in A.mult.items():
        for m, c in vec.items():
            divisors[m].append((i, j, c))
            if i != j:
                divisors[m].append((j, i, c))
    ech = Echelon(p)

    def coord(tup, t):
        key = 0
        for a in tup:
            key = key * n + a
        return key * n + t

    for tau in itertools.product(range(n), repeat=k):
        for s in range(n):
            vec = defaultdict(int)
            for z in range(n):
                for t, c in A.product(z, s).items():
                    vec[coord((z,) + tau, t)] += c
                    # d(u)(a) = a u - u a for k = 0, else (-1)^{k+1} F(..) a
                    vec[coord(tau + (z,), t)] += (-1) ** (k + 1) * c
            for pos in range(1, k + 1):
                rest_l, rest_r = tau[:pos - 1], tau[pos:]
                for u, v, c in divisors[tau[pos - 1]]:
                    vec[coord(rest_l + (u, v) + rest_r, s)] += (-1) ** pos * c
            ech.add(dict(vec))
    return ech.rank


def _derivation_of(A):
    kind = A.meta["kind"]
    if kind == "divided":
        return partial_derivation(A)
    if kind == "reduced":
        return derivation_space(A)[0]
    if kind == "tensor":
        return tensor_derivation(
            A, partial_derivation(make_divided_powers(1, P)))
    return zero_derivation(A)


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.slow)
    if name in ("O_2", "O1(1)(x)O1(1)") else name
    for name in ALGEBRAS])
def test_hochschild_stencil_matches_dense_references(name, monkeypatch):
    A = ALGEBRAS[name][0]()
    n, p = A.dim, A.p
    assert ([E.cols for E in derivation_space(A)]
            == [E.cols for E in dense_derivation_space(A)])
    rng = random.Random(name)
    G = {rng.randrange(n): {rng.randrange(n): rng.randrange(1, p)}
         for _ in range(rng.randrange(1, 5))}
    # a coboundary, a random cochain and a basic cocycle
    targets = [dense_delta1(A, G), SymmetricBilinearMap(
        A, {(rng.randrange(n), rng.randrange(n)): {rng.randrange(n): 1}})]
    targets += _basic_cocycles(name, A)[:1] if n > 1 else []

    D = _derivation_of(A)
    got = ([solve_delta1(A, F) for F in targets],
           harrison_h2_d_invariants(A, D))
    ref = dense_coboundary_columns(A)
    with monkeypatch.context() as mp:
        mp.setattr(A, "coboundary_columns", ref)
        want = ([solve_delta1(A, F) for F in targets],
                harrison_h2_d_invariants(A, D))
    assert got[0] == want[0]
    assert got[1][0] == want[1][0]
    assert ([(F.values, H) for F, H in got[1][1]]
            == [(F.values, H) for F, H in want[1][1]])


def reference_der_invariants(A, D):
    """Reference for der_invariants: the kernel of E -> [D, E] on the
    coordinates of the derivation_space basis, summed back."""
    ders = derivation_space(A)
    coms = {idx: D.commutator(E).flatten() for idx, E in enumerate(ders)}
    out = []
    for combo in SparseFpMatrix.from_columns(
            coms, len(ders), A.p).kernel_basis():
        cols = {}
        for idx, c in combo.items():
            cols = family_add(cols, ders[idx].cols, A.p, c)
        out.append(Derivation(A, cols, name="Einv%d" % len(out)))
    return out


def reference_harrison_h2_d_invariants(A, D):
    """Reference for harrison_h2_d_invariants: the class action of D on
    the representatives of harrison_h2, read off one tagged echelon of
    the coboundaries and the rows F_r + e_{top + r}; its kernel, summed
    back into cocycles F, each given the witness solve_delta1(D * F)."""
    p, top = A.p, A.dim ** 3
    _, reps = harrison_h2(A)
    ech = Echelon(p)
    for vec in A.coboundary_columns.values():
        ech.add(vec)
    for r, F in enumerate(reps):
        ech.add({**F.flatten(), top + r: 1})
    action = []  # column r: coordinates of [D * F_r] in the class basis
    for F in reps:
        rest = ech.reduce(star_action(D, F).flatten())
        assert all(k >= top for k in rest)
        action.append({k - top: -v % p for k, v in rest.items()})
    out = []
    for combo in SparseFpMatrix.from_columns(
            dict(enumerate(action)), len(reps), p).kernel_basis():
        vals = {}
        for r, c in combo.items():
            vals = family_add(vals, reps[r].values, p, c)
        F = SymmetricBilinearMap(A, vals)
        H = solve_delta1(A, star_action(D, F))
        assert H is not None
        out.append((F, H))
    return len(out), out


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.slow)
    if name in ("O_2", "O1(1)(x)O1(1)", "O1(2),p=7") else name
    for name in [*ALGEBRAS, "O1(2),p=7"]])
def test_invariant_systems_match_the_reference_algorithms(name):
    A = (ALGEBRAS[name][0]() if name in ALGEBRAS
         else make_divided_powers(2, 7))
    D = _derivation_of(A)
    assert ([(E.name, E.cols) for E in der_invariants(A, D)]
            == [(E.name, E.cols) for E in reference_der_invariants(A, D)])
    (count, pairs), (want, ref) = (harrison_h2_d_invariants(A, D),
                                   reference_harrison_h2_d_invariants(A, D))
    assert count == want == len(pairs)
    assert ([(F.values, H) for F, H in pairs]
            == [(F.values, H) for F, H in ref])


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.slow)
    if name in ("O_2", "O1(1)(x)O1(1)") else name
    for name in ALGEBRAS])
def test_star_action_keeps_the_harrison_representatives_cocycles(name):
    # so D * F_r lies in the span of the coboundaries and the
    # representatives, and [D * F_r] has coordinates in the class basis
    A = ALGEBRAS[name][0]()
    D = _derivation_of(A)
    for F in harrison_h2(A)[1]:
        assert dense_is_harrison_cocycle(star_action(D, F))


def test_coboundary_columns_are_built_once_per_algebra(monkeypatch):
    # harrison_h2, solve_delta1 and harrison_h2_d_invariants share one
    # build of the d^1 columns, cached on the algebra, which none of
    # them changes
    A = make_divided_powers(2, P)
    D, F = partial_derivation(A), basic_harrison_cocycle(A, 1)
    build, builds = commalg.transpose, []

    def spy(columns):
        builds.append(A)
        return build(columns)

    monkeypatch.setattr(commalg, "transpose", spy)
    harrison_h2(A)
    cached = copy.deepcopy(A.coboundary_columns)
    assert cached == dense_coboundary_columns(A)
    solve_delta1(A, SymmetricBilinearMap(A, F.values))
    harrison_h2_d_invariants(A, D)
    assert len(builds) == 1
    assert A.coboundary_columns == cached


@pytest.mark.parametrize("name,k", [
    pytest.param(name, k, marks=pytest.mark.slow)
    if k == 2 and ALGEBRAS[name][0]().dim == 25 else (name, k)
    for name in ALGEBRAS for k in (0, 1, 2)])
def test_bar_complex_matches_dense_reference(name, k):
    A = ALGEBRAS[name][0]()
    want = (A.dim ** (k + 1) - dense_bar_rank(A, k)
            - (dense_bar_rank(A, k - 1) if k else 0))
    assert hochschild_hn_dim(A, k, budget=10 ** 9) == want


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_leibniz_check_on_generator_rows_matches_all_pairs(name):
    # Derivation evaluates dD only on the rows (a, b) with a the unit or
    # a generator; random operators near Der(A), most of them perturbed
    # in one entry, are refused exactly when some pair i <= j fails
    A = ALGEBRAS[name][0]()
    n, p = A.dim, A.p
    rng = random.Random(name)
    ders = [E.cols for E in derivation_space(A)]
    verdicts = set()
    for _ in range(40):
        cols = {}
        for E in rng.sample(ders, min(len(ders), 3)):
            cols = family_add(cols, E, p, rng.randrange(p))
        if rng.random() < 0.75:
            cols = family_add(cols, {rng.randrange(n): {rng.randrange(n): 1}},
                              p, rng.randrange(1, p))
        want = not dense_delta1(A, cols).values
        try:
            Derivation(A, cols)
            got = True
        except ValueError:
            got = False
        assert got == want
        verdicts.add(want)
    assert verdicts == {True, False}


def _eliminate(A, run, monkeypatch, natural):
    """run(A) with every commalg.sparsest_first call recorded as (order,
    rank), and with every weight 0 (natural column order) if natural."""
    fast, calls = commalg.sparsest_first, []

    def record(weights, boundary, build, p):
        if natural:
            weights = [0] * len(weights)
        order, m = fast(weights, boundary, build, p)
        calls.append((order, m.rank))
        return order, m

    with monkeypatch.context() as mp:
        mp.setattr(commalg, "sparsest_first", record)
        return run(A), calls


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.slow)
    if name in ("O_2", "O1(1)(x)O1(1)") else name
    for name in ALGEBRAS])
def test_harrison_column_order_changes_only_the_basis(name, monkeypatch):
    A = ALGEBRAS[name][0]()
    (dim, reps), [(order, rank)] = _eliminate(A, harrison_h2, monkeypatch,
                                              False)
    (nat_dim, nat), [(nat_order, nat_rank)] = _eliminate(
        A, harrison_h2, monkeypatch, True)
    # each order clears the pivot columns of the coboundaries in its own
    # key order, so the kept sets may differ, but not their size
    assert nat_order == sorted(nat_order) and len(nat_order) == len(order)
    assert (order != nat_order) == (A.dim > 1)
    assert dim == nat_dim == len(reps) == len(nat)
    assert rank == nat_rank
    for F in reps + nat:
        assert all(F(i, j) == F(j, i)
                   for i in range(A.dim) for j in range(A.dim))
        assert is_harrison_cocycle(F)
    # each set is independent modulo the coboundaries, and adds nothing
    # to them and the other set: the same classes
    for these, others in ((reps, nat), (nat, reps)):
        span = Echelon(A.p)
        for col in dense_coboundary_columns(A).values():
            span.add(col)
        assert all(span.add(F.flatten()) for F in others)
        assert not any(span.add(F.flatten()) for F in these)


@pytest.mark.parametrize("name,k", [
    pytest.param(name, k, marks=pytest.mark.slow)
    if k == 2 and ALGEBRAS[name][0]().dim == 25 else (name, k)
    for name in ALGEBRAS for k in (0, 1, 2)])
def test_bar_complex_column_order_changes_no_rank(name, k, monkeypatch):
    A = ALGEBRAS[name][0]()
    run = functools.partial(hochschild_hn_dim, n=k, budget=10 ** 9)
    dim, calls = _eliminate(A, run, monkeypatch, False)
    nat_dim, nat_calls = _eliminate(A, run, monkeypatch, True)
    assert dim == nat_dim
    assert [r for _, r in calls] == [r for _, r in nat_calls]
    assert [o for o, _ in nat_calls] == [sorted(o) for o, _ in calls]


def reference_delta_value(A, F, xs):
    """Reference for commalg._delta_value: the term list of
    commalg._stencil, each outer product x_0 F(..) and F(..) x_k made by
    A.mul."""
    p, out = A.p, {}
    for args, m, c in commalg._stencil(A, xs):
        v = F(args)
        if m is not None:
            v = A.mul({m: 1}, v)
        for t, w in v.items():
            out[t] = out.get(t, 0) + c * w
    return {t: w % p for t, w in out.items() if w % p}


def golden_ring(p):
    """K[x]/(x^2 - x - 1): x x = x + 1 has two terms, so no grading fits."""
    return CommAlgebra(p, ["1", "x"], {(0, 0): {0: 1}, (0, 1): {1: 1},
                                       (1, 1): {0: 1, 1: 1}}, 0, name="K[x]")


EVALUATED = {**{name: ALGEBRAS[name][0] for name in
                ("O1(1)", "O1(2)", "O_2", "O1(1)(x)O1(1)", "K")},
             "K[x]": lambda: golden_ring(P)}


@pytest.mark.parametrize("name,k", [
    pytest.param(name, k, marks=pytest.mark.slow)
    if k == 3 and EVALUATED[name]().dim == 25 else (name, k)
    for name in EVALUATED for k in (1, 2, 3)])
def test_delta_value_matches_the_term_lists(name, k):
    # dF at every basis tuple of a random k-cochain, dense or sparse
    A = EVALUATED[name]()
    n, p = A.dim, A.p
    rng = random.Random("%s-%d" % (name, k))
    for density in (0.9, 0.1):
        F = {}
        for args in itertools.product(range(n), repeat=k):
            if rng.random() < density:
                F[args] = {rng.randrange(n): rng.randrange(1, p)
                           for _ in range(rng.randrange(1, 3))}
        value = lambda args: F.get(args, {})
        for xs in itertools.product(range(n), repeat=k + 1):
            assert (commalg._delta_value(A, value, xs)
                    == reference_delta_value(A, value, xs)), xs


def _leibniz_failure(A, cols):
    """The pair Derivation names for cols, by the reference evaluator:
    the first failing (a, b), a in {unit} + A.generators, or None."""
    value = lambda args: cols.get(args[0], {})
    for a in (A.unit,) + A.generators:
        for b in range(A.dim):
            if reference_delta_value(A, value, (a, b)):
                return "(%s, %s)" % (A.labels[a], A.labels[b])
    return None


@pytest.mark.parametrize("name", sorted(EVALUATED))
def test_derivation_names_the_reference_pair(name):
    # mutants of derivations, perturbed in one or two entries
    A = EVALUATED[name]()
    n, p = A.dim, A.p
    rng = random.Random(name)
    ders = [E.cols for E in derivation_space(A)]
    named = 0
    for _ in range(30):
        cols = {}
        for E in rng.sample(ders, min(len(ders), 2)):
            cols = family_add(cols, E, p, rng.randrange(p))
        for _ in range(rng.randrange(3)):
            cols = family_add(cols, {rng.randrange(n): {rng.randrange(n): 1}},
                              p, rng.randrange(1, p))
        want = _leibniz_failure(A, cols)
        try:
            Derivation(A, cols)
            got = None
        except ValueError as e:
            got = re.search(r"Leibniz fails on (\(.*\))$", str(e)).group(1)
        assert got == want
        named += want is not None
    assert named


def test_grading_is_checked_like_the_lie_one():
    unit = {(0, 0): {0: 1}, (0, 1): {1: 1}}
    assert CommAlgebra(P, ["1", "x"], unit, 0, grading=(0, 1)).grading == [0, 1]
    with pytest.raises(ValueError,
                       match=r"product is not degree-additive on \(x, x\)"):
        CommAlgebra(P, ["1", "x"], {**unit, (1, 1): {0: 1, 1: 1}}, 0,
                    grading=[0, 1])
    with pytest.raises(ValueError,
                       match=r"product is not degree-additive on \(1, 1\)"):
        CommAlgebra(P, ["1", "x"], unit, 0, grading=[1, 2])
    for bad in ([0], [0, 1, 2], [0, 1.0], [0, "1"], [0, True]):
        with pytest.raises(ValueError,
                           match="grading must be 2 integer degrees"):
            CommAlgebra(P, ["1", "x"], unit, 0, grading=bad)
    assert golden_ring(P).grading is None


def test_constructors_set_their_gradings():
    assert make_divided_powers(1, P).grading == [0, 1, 2, 3, 4]
    assert make_divided_powers(2, 7).grading == list(range(49))
    O2 = make_reduced_poly(2, P)
    assert O2.grading == [sum(e) for e in O2.meta["exps"]]
    assert O2.grading[:7] == [0, 1, 2, 3, 4, 1, 2]
    assert make_scalars(P).grading == [0]
    A, B = make_divided_powers(1, P), make_reduced_poly(1, P)
    T = tensor_product(A, B)
    assert T.grading == [a + b for a, b in
                         (tensor_pair(x, A.dim) for x in range(T.dim))]
    assert tensor_product(golden_ring(P), A).grading is None
    assert tensor_product(A, golden_ring(P)).grading is None


def full_solve_delta1(A, target):
    """Reference for solve_delta1: the whole coboundary system, one
    block, as before gradings."""
    sol = solve_sparse(A.coboundary_columns, target.flatten(), A.p)
    return None if sol is None else commalg._columns(sol, A.dim)


def _ungraded(A):
    return CommAlgebra(A.p, A.labels, A.mult, A.unit, name=A.name)


@pytest.mark.parametrize("name", ["O1(1)", "O1(2)", "O_2",
                                  "O1(1)(x)O1(1)", "K", "O1(1),p=7"])
def test_blockwise_solve_delta1_is_the_full_solve(name, monkeypatch):
    A = ALGEBRAS[name][0]()
    n, p, g = A.dim, A.p, A.grading
    rng = random.Random(name)
    targets = []
    for _ in range(6):  # coboundaries of two degrees, perturbed or not
        G = {}
        while len({g[t] - g[s] for s, col in G.items() for t in col}) < min(
                2, n):
            G = family_add(G, {rng.randrange(n): {rng.randrange(n): 1}}, p,
                           rng.randrange(1, p))
        F = dense_delta1(A, G)
        if rng.random() < 0.5:
            F = SymmetricBilinearMap(A, family_add(F.values, {tuple(sorted(
                (rng.randrange(n), rng.randrange(n)))): {rng.randrange(n): 1}},
                p))
        targets.append(F)
    targets += _basic_cocycles(name, A)[:1] if n > 1 else []
    targets.append(SymmetricBilinearMap(A, {}))
    sizes, solve = [], commalg.solve_sparse

    def spy(columns, target, p):
        sizes.append(len(columns))
        return solve(columns, target, p)

    monkeypatch.setattr(commalg, "solve_sparse", spy)
    U = _ungraded(A)
    got = [solve_delta1(A, F) for F in targets]
    want = [full_solve_delta1(A, F) for F in targets]
    assert got == want
    assert [solve_delta1(U, SymmetricBilinearMap(U, F.values))
            for F in targets] == want
    assert any(want) and (None in want) == (n > 1)  # Har^2(K) = 0
    touched = [{g[t] - g[i] - g[j] for (i, j), vec in F.values.items()
                for t in vec} for F in targets]
    assert any(len(d) > 1 for d in touched) == (n > 1)
    full = len(A.coboundary_columns)
    assert sizes[-len(targets):] == [full] * len(targets)  # ungraded
    if n > 1:
        assert max(sizes[:len(targets)]) < full


def test_solve_delta1_refuses_a_target_on_another_algebra():
    # dG of G = (x^6 -> 4 x^3) on O1(1) at p = 7, read on O_1: no
    # coboundary there, and a witness on O1(1) is no answer for it
    A, B = make_divided_powers(1, 7), make_reduced_poly(1, 7)
    vals = dense_delta1(A, {6: {3: 4}}).values
    assert solve_delta1(A, SymmetricBilinearMap(A, vals)) == {6: {3: 4}}
    F = SymmetricBilinearMap(B, vals)
    assert solve_delta1(B, F) is None
    with pytest.raises(ValueError,
                       match=r"symmetric map acts on O_1, not on O1\(1\)"):
        solve_delta1(A, F)
    twin = make_divided_powers(1, 7)
    assert solve_delta1(twin, SymmetricBilinearMap(A, vals)) == {6: {3: 4}}
