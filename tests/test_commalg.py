"""Divided powers vs reduced polynomials, derivations, and the
Hochschild/Harrison layer: frozen dimensions, the basic symmetric
cocycles, and the digit-wise reading that the literal binomial
coefficient fails."""

import functools
import inspect
import itertools
import random
import re
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
    divided_to_reduced_iso,
    dx_derivation,
    harrison_h2,
    harrison_h2_d_invariants,
    hochschild_delta,
    hochschild_hn_dim,
    is_harrison_cocycle,
    is_multiplicative,
    make_divided_powers,
    make_reduced_poly,
    make_scalars,
    mult_operator,
    partial_derivation,
    partial_power_derivation,
    scale_derivation,
    solve_delta1,
    star_action,
    tensor_derivation,
    tensor_product,
    zero_derivation,
)
from modlie.arith import inv_mod
from modlie.linalg import (Echelon, LinearMap, SparseFpMatrix, family_add,
                           vec_add, vec_scale)

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


def dense_is_multiplicative(f):
    """Reference for is_multiplicative: every pair i <= j of the source
    basis in order, as the check visited them before it went sparse."""
    A, B = f.source, f.target
    for i in range(A.dim):
        for j in range(i, A.dim):
            if f(A.product(i, j)) != B.mul(f({i: 1}), f({j: 1})):
                return False, (i, j)
    return True, None


def test_is_multiplicative_names_the_dense_first_failing_pair():
    f = divided_to_reduced_iso(2, P)
    O2, O1 = f.source, f.target
    assert is_multiplicative(f) == dense_is_multiplicative(f) == (True, None)
    exps = O2.meta["exps"]
    ix = {e: i for i, e in enumerate(exps)}
    scaled = dict(f.cols)
    scaled[ix[(0, 1)]] = {5: 2}  # x2 -> 2 x^5
    swapped = dict(f.cols)
    swapped[ix[(1, 0)]], swapped[ix[(2, 0)]] = (f.cols[ix[(2, 0)]],
                                                f.cols[ix[(1, 0)]])
    unit_lost = dict(f.cols)
    del unit_lost[O2.unit]  # 1 -> 0: every product with 1 breaks
    shifted = {j: {(k + 1) % O1.dim: c for k, c in col.items()}
               for j, col in f.cols.items()}
    seen = set()
    for cols in (scaled, swapped, unit_lost, shifted):
        g = LinearMap(O2, O1, cols)
        got = is_multiplicative(g)
        assert got == dense_is_multiplicative(g)
        assert not got[0]
        seen.add(got[1])
    assert len(seen) == 4


def dense_tensor_mult(A, B):
    """Reference for tensor_product: the loop over every pair x <= y of
    the A.dim * B.dim layout that built the product table before."""
    dB, p = B.dim, A.p
    dim = A.dim * dB
    mult = {}
    for x in range(dim):
        ia, ib = divmod(x, dB)
        for y in range(x, dim):
            ja, jb = divmod(y, dB)
            va, vb = A.product(ia, ja), B.product(ib, jb)
            out = {ka * dB + kb: ca * cb % p for ka, ca in va.items()
                   for kb, cb in vb.items()}
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


def test_divided_reduced_identification():
    # multiplicative bijection O_n -> O1(n); checked by the constructor,
    # frozen here on a couple of columns
    for n in (1, 2):
        f = divided_to_reduced_iso(n, P)
        assert f.is_bijective()
        ok, _ = is_multiplicative(f)
        assert ok
    f = divided_to_reduced_iso(2, P)
    exps = f.source.meta["exps"]
    ix = {e: i for i, e in enumerate(exps)}
    # x1^2 -> 2! x^2, x1^3 x2 -> 3! x^{3 + 5}
    assert f({ix[(2, 0)]: 1}) == {2: 2}
    assert f({ix[(3, 1)]: 1}) == {8: 1}  # 3! = 6 = 1 mod 5


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
    d5 = partial_power_derivation(B, 1)
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
    A = make_divided_powers(1, P)
    u = {2: 3}
    dM = hochschild_delta((A, mult_operator(A, u)))
    # d(mult by u)(a, b) = u a b
    for i in range(A.dim):
        for j in range(A.dim):
            assert dM(i, j) == A.mul(A.mul({i: 1}, {j: 1}), u)
    # derivations are 1-cocycles
    assert hochschild_delta(partial_derivation(A)).is_zero()


def test_hochschild_delta_degree_two_on_coboundaries():
    A = make_divided_powers(1, P)
    G = mult_operator(A, {1: 1, 3: 2})
    F = hochschild_delta((A, G))
    assert is_harrison_cocycle(F)
    assert all(v == 0 or not v for v in hochschild_delta(F).values())
    H = solve_delta1(A, F)
    assert H is not None
    assert hochschild_delta((A, H)).values == F.values


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
                                                       greedy_kernel_basis):
    # kernel_basis(modulo=image) keeps the kernel vectors, in their
    # order, that the greedy loop over all of them keeps; the loop also
    # checks exactly that every coboundary is a Harrison cocycle
    A = make(m, p)
    dim, fast = harrison_h2(A)
    checked = greedy_kernel_basis()
    slow_dim, slow = harrison_h2(A)
    assert len(checked) == 1 and checked[0] > 0
    assert dim == slow_dim == len(fast) > 0
    assert ([list(F.flatten().items()) for F in fast]
            == [list(F.flatten().items()) for F in slow])


@pytest.mark.slow
def test_harrison_dimension_of_divided_rank_two():
    assert harrison_h2(make_divided_powers(2, P))[0] == 50


@pytest.mark.slow
def test_harrison_kuenneth_on_a_tensor_square():
    # O1 (x) O1 is isomorphic to O1(2) as an algebra up to regrading;
    # its symmetric H^2 has the same dimension m p^m with m = 2
    T = tensor_product(make_divided_powers(1, P), make_divided_powers(1, P))
    assert harrison_h2(T)[0] == 50


def test_basic_cocycles_reduced_values():
    F = basic_harrison_cocycle(1, P, 1, "reduced")
    assert F(3, 2) == {0: 1}   # x^3 * x^2 -> x^{5-5}
    assert F(1, 2) == {}       # no overflow
    assert F(4, 4) == {3: 1}
    assert is_harrison_cocycle(F)
    G = basic_harrison_cocycle(2, P, 2, "reduced")
    exps = G.A.meta["exps"]
    ix = {e: i for i, e in enumerate(exps)}
    assert G(ix[(0, 3)], ix[(1, 2)]) == {ix[(1, 0)]: 1}
    assert G(ix[(3, 0)], ix[(4, 0)]) == {}  # overflow in the wrong slot


def test_basic_cocycles_divided_values():
    F = basic_harrison_cocycle(1, P, 1, "divided")
    assert F(3, 2) == {0: 2}   # binom(5,2)/5 = 2
    assert F(1, 2) == {}
    assert is_harrison_cocycle(F)
    for m, i in ((2, 1), (2, 2)):
        assert is_harrison_cocycle(basic_harrison_cocycle(m, P, i, "divided"))


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
    bad = hochschild_delta(F)
    assert bad[(5, 4, 4)] == {8: 1}  # the smallest witness


def test_divided_cocycles_are_minus_the_transported_reduced_ones():
    for m in (1, 2):
        f = divided_to_reduced_iso(m, P)
        for i in range(1, m + 1):
            Fred = basic_harrison_cocycle(m, P, i, "reduced", A=f.source)
            Fdiv = basic_harrison_cocycle(m, P, i, "divided", A=f.target)
            for a in range(f.source.dim):
                for b in range(a, f.source.dim):
                    lhs = Fdiv.eval_vec(f({a: 1}), f({b: 1}))
                    rhs = vec_scale(f(Fred(a, b)), -1, P)
                    assert lhs == rhs


def test_star_action_on_basic_cocycles():
    # the shift kills F_m literally, and every F_i up to a coboundary
    literal = []
    classwise = []
    for m, i in ((1, 1), (2, 1), (2, 2)):
        A = make_divided_powers(m, P)
        d = partial_derivation(A)
        F = basic_harrison_cocycle(m, P, i, "divided", A=A)
        s = star_action(d, F)
        literal.append(s.is_zero())
        classwise.append(solve_delta1(A, s) is not None)
    assert literal == [True, False, True]
    assert classwise == [True, True, True]


def test_star_action_of_coboundaries_is_a_coboundary():
    A = make_divided_powers(1, P)
    d = partial_derivation(A)
    F = hochschild_delta((A, mult_operator(A, {2: 1})))
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
            got = hochschild_delta((A, H))
            assert got.values == star_action(d, F).values


def test_tensor_derivations_commute_across_sides():
    A = make_divided_powers(1, P)
    T = tensor_product(A, A)
    dl = tensor_derivation(T, partial_derivation(A), "left")
    dr = tensor_derivation(T, partial_derivation(A), "right")
    assert dl.commutator(dr).is_zero()
    # (d (x) 1)(x^1 @ x^2) = x^0 @ x^2
    assert dl({1 * A.dim + 2: 1}) == {0 * A.dim + 2: 1}
    assert dr({1 * A.dim + 2: 1}) == {1 * A.dim + 1: 1}


def test_scalars_and_zero_derivation():
    K = make_scalars(P)
    assert K.dim == 1
    assert K.mul({0: 2}, {0: 3}) == {0: 1}
    A = make_divided_powers(1, P)
    z = zero_derivation(A)
    assert z.is_zero()
    assert len(derivation_space(K)) == 0


def test_dx_derivations_on_reduced_ring():
    B = make_reduced_poly(2, P)
    d1 = dx_derivation(B, 1)
    d2 = dx_derivation(B, 2)
    exps = B.meta["exps"]
    ix = {e: i for i, e in enumerate(exps)}
    assert d1({ix[(3, 1)]: 1}) == {ix[(2, 1)]: 3}
    assert d2({ix[(3, 1)]: 1}) == {ix[(3, 0)]: 1}
    assert d1.commutator(d2).is_zero()


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
    assert A._generators is None  # found on first use, not at construction
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
    return result, seen["system"][2]


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
    assert set(m.ech.pivots) == set(ref.ech.pivots)
    assert m.kernel_basis() == ref.kernel_basis()
    assert dim == dim_all
    assert [F.values for F in reps] == [F.values for F in reps_all]


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
    dB = B.dim
    vals = {}
    for x in range(T.dim):
        for y in range(x, T.dim):
            (ia, ib), (ja, jb) = divmod(x, dB), divmod(y, dB)
            vals[(x, y)] = {ka * dB + kb: ca * cb
                            for ka, ca in F(ia, ja).items()
                            for kb, cb in B.product(ib, jb).items()}
    return SymmetricBilinearMap(T, vals)


def _basic_cocycles(name, A):
    if name == "O_2":
        return [basic_harrison_cocycle(2, P, i, "reduced", A=A) for i in (1, 2)]
    if name == "O1(1)(x)O1(1)":
        B = make_divided_powers(1, P)
        return [_tensor_cocycle(A, basic_harrison_cocycle(1, P, 1, "divided"), B)]
    kind = A.meta["kind"]
    m = A.meta["m" if kind == "reduced" else "n"]
    return [basic_harrison_cocycle(m, A.p, i, kind, A=A)
            for i in range(1, m + 1)]


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
        F = hochschild_delta((A, G))
    else:
        F = draw(st.sampled_from(basic))
    perturbed = draw(st.booleans())
    if perturbed:
        i, j, t = draw(index), draw(index), draw(index)
        F = F.add(SymmetricBilinearMap(A, {(i, j): {t: 1}}),
                  scale=draw(st.integers(1, p - 1)))
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
                m.add_row(dict(r))
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
        return dx_derivation(A, 1)
    if kind == "tensor":
        return tensor_derivation(
            A, partial_derivation(make_divided_powers(1, P)), "left")
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
    cochains = [{rng.randrange(n): {rng.randrange(n): rng.randrange(1, p)}
                 for _ in range(rng.randrange(1, 5))} for _ in range(4)]
    for G in cochains:
        assert hochschild_delta((A, G)).values == dense_delta1(A, G).values
    # a coboundary, a random cochain and a basic cocycle
    targets = [hochschild_delta((A, cochains[0])), SymmetricBilinearMap(
        A, {(rng.randrange(n), rng.randrange(n)): {rng.randrange(n): 1}})]
    targets += _basic_cocycles(name, A)[:1] if n > 1 else []
    for F in targets:
        assert hochschild_delta(F) == {
            xs: v for xs in itertools.product(range(n), repeat=3)
            if (v := _delta2_value(A, F, *xs))}

    D = _derivation_of(A)
    got = ([solve_delta1(A, F) for F in targets],
           harrison_h2_d_invariants(A, D))
    ref = dense_coboundary_columns(A)
    with monkeypatch.context() as mp:
        mp.setattr(commalg, "_coboundary_columns", lambda B: ref)
        want = ([solve_delta1(A, F) for F in targets],
                harrison_h2_d_invariants(A, D))
    assert got[0] == want[0]
    assert got[1][0] == want[1][0]
    assert ([(F.values, H) for F, H in got[1][1]]
            == [(F.values, H) for F, H in want[1][1]])


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

    def record(weight, rows, p):
        if natural:
            weight = dict.fromkeys(weight, 0)
        order, m = fast(weight, rows, p)
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
    assert nat_order == sorted(order)
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
