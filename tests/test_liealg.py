"""Zassenhaus algebras, current algebras, semidirect extensions by
derivation tails, the deformed current algebra, the Kuznetsov
identification, and the ideal/solvability probes."""

import ast
import random
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from modlie.ceco import (Cochain, ce_differential, coboundary_witness,
                         cohomology_dim, weight_zero_reduce)
from modlie.cli import _build_algebra
from modlie.commalg import (
    CommAlgebra,
    Derivation,
    SymmetricBilinearMap,
    basic_harrison_cocycle,
    d_invariants,
    der_coinvariants,
    der_invariants,
    derivation_space,
    harrison_h2_d_invariants,
    make_divided_powers,
    make_reduced_poly,
    partial_derivation,
    scale_derivation,
    star_action,
    tensor_derivation,
    tensor_product,
    zero_derivation,
)
from modlie.liealg import (
    LieAlgebra,
    center,
    current_algebra,
    deform,
    derived_series,
    find_proper_ideal,
    ideal_generated_by,
    is_solvable,
    kuznetsov_map,
    make_deformed,
    make_sl2,
    make_w1,
    semidirect_current,
    verify_morphism,
)
from modlie.linalg import (Echelon, LinearMap, family_add, greedy_generators,
                           tensor_index, tensor_pair, vec_add, vec_scale)

P = 5


def at(i, a, w=P):
    """The position of e_i (x) a_a in S (x) A, for S = W1(1) (w = p) or
    sl2 (w = 3), whose bases run e_-1, e_0, ..."""
    return tensor_index(i + 1, a, w)


def test_w1_structure():
    W = make_w1(1, P)
    assert W.dim == 5
    assert W.labels == ["e_-1", "e_0", "e_1", "e_2", "e_3"]
    # [e_-1, e_j] = e_{j-1}; [e_0, e_j] = j e_j; [e_1, e_2] = 2 e_3
    for j in range(0, 4):
        assert W.bracket_pair(0, j + 1) == {j: 1}
    for j in (-1, 1, 2, 3):
        assert W.bracket_pair(1, j + 1) == {j + 1: j % P}
    assert W.bracket_pair(2, 3) == {4: 2}
    assert W.bracket_pair(3, 4) == {}  # e_2, e_3 -> degree 5 out of range
    assert W.toral == 1
    assert W.grading == [-1, 0, 1, 2, 3]
    # Jacobi is certified on first use of the generators, not when built
    assert not W.jacobi_checked
    W.generators
    assert W.jacobi_checked


def test_w1_antisymmetry_access():
    W = make_w1(1, P)
    assert W.bracket_pair(3, 2) == {4: P - 2}
    assert W.bracket_pair(2, 2) == {}
    # [e_-1 + 3 e_1, 2 e_0] = 2 e_-1 - 6 e_1
    assert W.bracket_vec({0: 1, 2: 3}, {1: 2}) == {0: 2, 2: P - 1}


def test_w1_higher_rank():
    W = make_w1(2, P)
    assert W.dim == 25
    # the bracket keeps N_ij mod p with targets truncated at e_{23}
    assert W.bracket_pair(0, 6) == {5: 1}       # [e_-1, e_5] = e_4
    assert W.bracket_pair(5, 6) == {10: 2}      # [e_4, e_5]: N_45 = 42 = 2
    assert W.bracket_pair(2, 4) == {}           # [e_1, e_3]: N_13 = 5 = 0
    w = W.weights
    assert all(w.count(x) == 5 for x in range(P))


def test_sl2_structure():
    S = make_sl2(P)
    assert S.dim == 3
    assert S.bracket_pair(0, 1) == {0: 1}
    assert S.bracket_pair(0, 2) == {1: P - 2}
    assert S.bracket_pair(1, 2) == {2: 1}
    assert center(S) == []
    assert derived_series(S) == [3, 3]


def test_weights_for_w1():
    W = make_w1(1, P)
    # weight of e_i under ad e_0 is i mod p; one line each
    assert W.weights == [i % P for i in range(-1, P - 1)]
    # ad e_-1 shifts degrees
    shifted = LieAlgebra(P, W.labels, W.bracket, toral=0)
    with pytest.raises(ValueError, match=r"ad\(e_-1\) is not diagonal"):
        shifted.weights


def test_current_algebra_bracket():
    W = make_w1(1, P)
    A = make_divided_powers(1, P)
    L = current_algebra(W, A)
    assert L.dim == 25
    # [e_0 (x) x, e_1 (x) x] = N_01 e_1 (x) x^2 = e_1 (x) 2 x^2
    assert L.bracket_pair(at(0, 1), at(1, 1)) == {at(1, 2): 2}
    # A-degrees multiply: x^2 x^3 = 0 kills the product
    assert L.bracket_pair(at(0, 2), at(1, 3)) == {}
    assert L.toral == at(0, 0)
    assert center(L) == []
    assert derived_series(L) == [25, 25]
    assert not is_solvable(L)


def test_center_of_current_scales_with_a():
    # Heisenberg: [x, y] = z with z central; Z(H (x) A) = z (x) A
    H = LieAlgebra(P, ["x", "y", "z"], {(0, 1): {2: 1}}, name="heis")
    A = make_divided_powers(1, P)
    assert len(center(H)) == 1
    assert len(center(current_algebra(H, A))) == 5
    assert is_solvable(H)


def dense_center(L):
    """Reference for center: the kernel of x -> ([x, e_j])_j over every j,
    by dense Gauss-Jordan elimination, one vector per free column."""
    n, p = L.dim, L.p
    rows = [[L.bracket_pair(i, j).get(k, 0) % p for i in range(n)]
            for j in range(n) for k in range(n)]
    rref = []  # (pivot column, reduced row)
    for row in rows:
        for c, r in rref:
            row = [(x - row[c] * y) % p for x, y in zip(row, r)]
        c = next((c for c in range(n) if row[c]), None)
        if c is None:
            continue
        row = [x * pow(row[c], -1, p) % p for x in row]
        rref = [(d, [(x - r[c] * y) % p for x, y in zip(r, row)])
                for d, r in rref] + [(c, row)]
    pivots = dict(rref)
    return [{i: v for i, v in ((f, 1), *((c, -r[f] % p)
                                          for c, r in sorted(pivots.items())))
             if v}
            for f in range(n) if f not in pivots]


# the seven families of cli.GRAMMAR at n = m = 1, keyed by test id
FAMILIES = {"w1n": "W1(1)", "sl2": "sl2", "w1n-x-om": "W1(1)(x)O1(1)",
            "sl2-x-om": "sl2(x)O1(1)", "ldef": "L(O1(1),d)",
            "w1-sd": "W1(1)(x)O1(1)+d", "sl2-sd": "sl2(x)O1(1)+d"}


@pytest.mark.parametrize("expr", [*FAMILIES.values(), "heis-x-om"],
                         ids=[*FAMILIES, "heis-x-om"])
def test_center_matches_a_dense_kernel(expr):
    # center brackets with the generators only, since a centralizer is a
    # subalgebra; the dense kernel brackets with every basis element
    if expr == "heis-x-om":
        H = LieAlgebra(P, ["x", "y", "z"], {(0, 1): {2: 1}}, name="heis")
        L = current_algebra(H, make_divided_powers(1, P))
    else:
        L = _build_algebra(expr, P)
    want = dense_center(L)
    assert center(L) == want
    assert len(want) == (5 if expr == "heis-x-om" else 0)


def test_positive_part_of_w1_is_solvable():
    W = make_w1(1, P)
    # span of e_0..e_3 is a subalgebra, solvable (it is graded in degrees
    # 0..3 with [e_i, e_j] raising the degree for i, j >= 1)
    S = [{i: 1} for i in range(1, 5)]
    assert is_solvable(W, S=S)
    assert not is_solvable(W)
    assert derived_series(W) == [5, 5]


def test_kuznetsov_identification_plain():
    f = kuznetsov_map(2, P)
    assert f.source.dim == f.target.dim == 25
    # e_s -> e_i (x) x^k under s = pk + i, at the same position
    assert f.cols[4 + 1] == {at(-1, 1): 1}   # e_4 -> e_-1 (x) x
    assert f.cols[5 + 1] == {at(0, 1): 1}    # e_5 -> e_0 (x) x
    assert f.cols[0] == {at(-1, 0): 1}       # e_-1 -> e_-1 (x) 1
    assert f.cols == {j: {j: 1} for j in range(25)}
    ok, witness = verify_morphism(f)
    assert ok, witness


def test_kuznetsov_identification_tensored():
    A = make_divided_powers(1, P)
    f = kuznetsov_map(2, P, A=A)
    assert f.source.dim == f.target.dim == 125
    # the identity map, between algebras with one bracket
    assert f.cols == {j: {j: 1} for j in range(125)}
    assert f.source.bracket == f.target.bracket
    ok, witness = verify_morphism(f)
    assert ok, witness


@pytest.mark.parametrize("p, m", [(5, 1), (5, 2), (7, 1)])
def test_the_deformed_algebra_is_w1_on_its_basis(p, m):
    # W1(m + 1) = L(O1(m), d) with e_{pk+i} and e_i (x) x^(k) at one
    # position; gradings differ, as current_algebra grades by W1(1) alone
    A = make_divided_powers(m, p)
    L, W = make_deformed(A, partial_derivation(A)), make_w1(m + 1, p)
    assert L.bracket == W.bracket
    assert L.toral == W.toral
    assert L.generators == W.generators


def dense_verify_morphism(f):
    """Reference for verify_morphism: every pair i < j of the source
    basis in order, as the check visited them before it went sparse."""
    L, M = f.source, f.target
    if L.dim != M.dim:
        return False, ("dim", L.dim, M.dim)
    rank = f.rank()
    if rank != L.dim:
        return False, ("rank", rank)
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            lhs = f(L.bracket_pair(i, j))
            rhs = M.bracket_vec(f({i: 1}), f({j: 1}))
            if lhs != rhs:
                return False, (L.labels[i], L.labels[j], lhs, rhs)
    return True, None


@pytest.mark.parametrize("tensored", [False, True])
def test_verify_morphism_names_the_dense_first_failing_pair(tensored):
    f = kuznetsov_map(2, P, A=make_divided_powers(1, P) if tensored else None)
    assert verify_morphism(f) == dense_verify_morphism(f) == (True, None)
    keys = sorted(f.cols)
    broken = []
    for j in (keys[3], keys[-1]):  # one column scaled by 2
        cols = dict(f.cols)
        cols[j] = {k: 2 * c for k, c in cols[j].items()}
        broken.append(cols)
    # two columns swapped; tensored, the last swap trades e_-1 (x) x^4 and
    # e_23 (x) x^4, whose products with x^b (b > 0) vanish
    n = len(keys)
    for a, b in ((2, 7), (0, 1), (5, n - 1), (n - 25, n - 1)):
        cols = dict(f.cols)
        cols[keys[a]], cols[keys[b]] = cols[keys[b]], cols[keys[a]]
        broken.append(cols)
    witnesses = []
    for cols in broken:
        g = LinearMap(f.source, f.target, cols)
        got = verify_morphism(g)
        # the same pair and the same witness dicts, key order included
        want = dense_verify_morphism(g)
        assert repr(got) == repr(want)
        assert not got[0]
        witnesses.append(got[1])
    # tensored, a first failure can have f([e_i, e_j]) = 0: it is found
    # only from the target side, where the images meet a nonzero bracket
    assert any(w[2] == {} for w in witnesses) == tensored


def dense_current_bracket(L, A):
    """Reference for current_algebra: the loop over every basis pair of
    L and every (a, b) of A that built the bracket of L (x) A before,
    each key put in order with [y, x] = -[x, y]."""
    w, p = L.dim, L.p
    bracket = {}
    for (i, j), vec in L.bracket.items():
        for a in range(A.dim):
            for b in range(A.dim):
                prod = A.product(a, b)
                if prod:
                    x, y = tensor_index(i, a, w), tensor_index(j, b, w)
                    val = {tensor_index(k, m, w): c * cm % p
                           for k, c in vec.items() for m, cm in prod.items()}
                    if x > y:
                        x, y, val = y, x, vec_scale(val, -1, p)
                    bracket[(x, y)] = val
    return bracket


@pytest.mark.parametrize("p", [5, 7])
def test_current_algebra_matches_the_dense_loop(p):
    A = make_divided_powers(1, p)
    for S in (make_w1(1, p), make_sl2(p)):
        # the same bracket, key order included: rank and representatives
        # eliminate rows in an order that follows it
        L = current_algebra(S, A)
        assert list(L.bracket.items()) == list(
            dense_current_bracket(S, A).items())
    B = tensor_product(A, make_divided_powers(1, p))
    L = current_algebra(make_w1(1, p), B)
    assert list(L.bracket.items()) == list(
        dense_current_bracket(make_w1(1, p), B).items())


def test_kuznetsov_needs_height_two():
    with pytest.raises(ValueError):
        kuznetsov_map(1, P)


def test_semidirect_action_sign():
    W = make_w1(1, P)
    A = make_divided_powers(1, P)
    d = partial_derivation(A)
    L = semidirect_current(W, A, [d])
    assert L.dim == 26
    # [e_0 (x) x, 1 (x) d] = e_0 (x) 1
    assert L.bracket_pair(at(0, 1), 25) == {at(0, 0): 1}
    # tails have degree 0 in the inherited grading
    assert L.grading[25] == 0
    L.check_jacobi()


def test_semidirect_nonabelian_tails():
    W = make_w1(1, P)
    A = make_divided_powers(1, P)
    d = partial_derivation(A)
    xd = scale_derivation(d, {1: 1})
    L = semidirect_current(W, A, [d, xd])
    # [d, xd] = d as operators; the tails close under the negated
    # commutator so that Jacobi holds with the chosen action sign
    assert L.bracket_pair(25, 26) == {25: P - 1}
    L.check_jacobi()
    with pytest.raises(ValueError):
        semidirect_current(W, A, [d, d])  # dependent tails


def test_semidirect_rejects_unclosed_span():
    W = make_w1(1, P)
    A = make_divided_powers(2, P)
    d = partial_derivation(A)
    x5d = scale_derivation(d, {5: 1})
    # [d, x^5 d] = d(x^5) d = x^4 d, outside span{d, x^5 d}
    with pytest.raises(ValueError):
        semidirect_current(W, A, [d, x5d])


def test_a_derivation_of_another_algebra_is_refused():
    A, B = make_divided_powers(1, P), make_divided_powers(2, P)
    with pytest.raises(ValueError, match=r"acts on O1\(2\), not on O1\(1\)"):
        make_deformed(A, partial_derivation(B))
    with pytest.raises(ValueError, match=r"acts on O1\(2\), not on O1\(1\)"):
        semidirect_current(make_w1(1, P), A, [partial_derivation(B)])
    # same dimension, other products: K[x]/(x^5) is not O1(1)
    R = make_reduced_poly(1, P)
    E = derivation_space(R)[0]
    F = basic_harrison_cocycle(A, 1)
    for call in (lambda: make_deformed(A, E),
                 lambda: d_invariants(A, E),
                 lambda: der_invariants(A, E),
                 lambda: der_coinvariants(A, E),
                 lambda: harrison_h2_d_invariants(A, E),
                 lambda: partial_derivation(A).commutator(E),
                 lambda: star_action(E, F),
                 lambda: tensor_derivation(tensor_product(A, A), E)):
        with pytest.raises(ValueError, match=r"acts on O_1, not on O1\(1\)"):
            call()
    # an equal algebra built twice is the same algebra
    d = partial_derivation(make_divided_powers(1, P))
    assert make_deformed(A, d).bracket == make_deformed(
        A, partial_derivation(A)).bracket


def test_conflicting_bracket_keys_are_refused():
    # (1, 0) restates [a, b]; [b, a] = a would make [a, b] = -a
    with pytest.raises(ValueError, match=r"conflicting values for the pair "
                                         r"\(0, 1\)"):
        LieAlgebra(P, ["a", "b"], {(0, 1): {0: 1}, (1, 0): {0: 1}})
    L = LieAlgebra(P, ["a", "b"], {(0, 1): {0: 1}, (1, 0): {0: -1}})
    assert L.bracket == {(0, 1): {0: 1}}


def test_deformed_current_bracket():
    A = make_divided_powers(1, P)
    d = partial_derivation(A)
    L = make_deformed(A, d)
    assert L.dim == 25
    assert L.filtration
    # {e_-1 (x) 1, e_-1 (x) x} = e_3 (x) (1 d(x) - x d(1)) = e_3 (x) 1
    assert L.bracket_pair(at(-1, 0), at(-1, 1)) == {at(3, 0): 1}
    # {e_-1 (x) x, e_-1 (x) x^2} = e_3 (x) (x x - x^2 1) = e_3 (x) x^2
    assert L.bracket_pair(at(-1, 1), at(-1, 2)) == {at(3, 2): 1}
    # away from the (e_-1, e_-1) block the bracket is the current one
    C = current_algebra(make_w1(1, P), A)
    for (i, j), vec in C.bracket.items():
        if tensor_pair(i, P)[0] or tensor_pair(j, P)[0]:
            assert L.bracket_pair(i, j) == vec


def test_current_algebras_over_a_filtered_base_keep_its_filtration():
    # the bracket of L(O1, d) (x) O1 rises in degree on the deformation
    # block, as L(O1, d)'s does; the tails have degree 0
    A = make_divided_powers(1, P)
    d = partial_derivation(A)
    Ld = make_deformed(A, d)
    for L in (current_algebra(Ld, A), semidirect_current(Ld, A, [d])):
        assert L.filtration is True
        assert L.generators  # certifies Jacobi


def test_deformed_with_zero_direction_is_current():
    A = make_divided_powers(1, P)
    L0 = make_deformed(A, zero_derivation(A))
    C = current_algebra(make_w1(1, P), A)
    assert L0.bracket == C.bracket


def test_deformed_tensored_direction():
    # L(A (x) B, d (x) 1) has the same shape with B along for the ride
    A = make_divided_powers(1, P)
    T = tensor_product(A, A)
    d = tensor_derivation(T, partial_derivation(A))
    L = make_deformed(T, d)
    assert L.dim == 125
    assert L.jacobi_checked


def test_ideals_of_the_current_algebra():
    W = make_w1(1, P)
    A = make_divided_powers(1, P)
    L = current_algebra(W, A)
    # e_0 (x) x generates W (x) O+ (codimension dim W)
    basis = ideal_generated_by(L, [{at(0, 1): 1}])
    assert len(basis) == 20
    # idempotent and monotone
    again = ideal_generated_by(L, basis)
    assert len(again) == len(basis)
    found = find_proper_ideal(L)
    assert found is not None
    assert found["dim"] == 20
    # a found ideal is closed under bracketing with everything
    assert len(ideal_generated_by(L, found["basis"])) == found["dim"]


def _dense_ideal_dim(L, vecs):
    # fixed point of V -> V + [L, V] by dense elimination: each round
    # brackets every basis element with every vector kept so far, until
    # a round keeps nothing new
    n, p = L.dim, L.p
    kept = []  # (pivot, dense row with 1 there and 0 at earlier pivots)

    def keep(v):
        row = [v.get(i, 0) % p for i in range(n)]
        for c, r in kept:
            row = [(x - row[c] * y) % p for x, y in zip(row, r)]
        c = next((i for i, x in enumerate(row) if x), None)
        if c is not None:
            kept.append((c, [x * pow(row[c], -1, p) % p for x in row]))

    for v in vecs:
        keep(v)
    size = None
    while size != len(kept):
        size = len(kept)
        for _, r in list(kept):
            v = {i: x for i, x in enumerate(r) if x}
            for j in range(n):
                keep(L.bracket_vec({j: 1}, v))
    return len(kept)


@pytest.mark.parametrize("build", [
    lambda A: current_algebra(make_w1(1, P), A),
    lambda A: make_deformed(A, zero_derivation(A)),
    lambda A: current_algebra(make_sl2(P), A),
    lambda A: make_deformed(A, partial_derivation(A)),
], ids=["w1-x-om", "ldef0", "sl2-x-om", "ldef"])
def test_ideal_closure_matches_a_dense_fixed_point(build):
    L = build(make_divided_powers(1, P))
    rng = random.Random(7)
    for trial in range(12):
        vecs = [{i: rng.randrange(1, P) for i in rng.sample(range(L.dim), k)}
                for k in rng.choices((1, 2, 3), k=rng.randrange(1, 3))]
        basis = ideal_generated_by(L, vecs)
        assert len(basis) == _dense_ideal_dim(L, vecs)
        span = Echelon(P)
        for row in basis:
            assert span.add(row)
        assert all(span.member(v) for v in vecs)
        assert all(span.member(L.bracket_vec({j: 1}, row))
                   for row in basis for j in range(L.dim))


def test_simple_algebras_have_no_proper_ideal():
    W = make_w1(1, P)
    assert find_proper_ideal(W) is None
    A = make_divided_powers(1, P)
    assert find_proper_ideal(make_deformed(A, partial_derivation(A))) is None


def test_undeformed_current_has_the_ideal_back():
    A = make_divided_powers(1, P)
    L0 = make_deformed(A, zero_derivation(A))
    found = find_proper_ideal(L0)
    assert found is not None and found["dim"] == 20


def test_gradings_are_validated():
    with pytest.raises(ValueError):
        LieAlgebra(P, ["a", "b"], {(0, 1): {0: 1}}, grading=[1, 1])
    # filtration allows the bracket to climb
    L = LieAlgebra(P, ["a", "b"], {(0, 1): {1: 1}}, grading=[0, 1],
                   filtration=True)
    assert L.bracket_pair(0, 1) == {1: 1}
    with pytest.raises(ValueError):
        LieAlgebra(P, ["a"], {(0, 0): {0: 1}})


def non_lie_algebra(labels):
    # J(a,b,c) = [[a,b],c] + [[b,c],a] + [[c,a],b] = [a,c] + 0 + [b,c] = c;
    # any further labels are central padding
    return LieAlgebra(P, labels, {(0, 1): {0: 1}, (0, 2): {2: 1}})


def identity_map(L):
    return LinearMap(L, L, {i: {i: 1} for i in range(L.dim)})


# the probes that need Jacobi, each of which must refuse a non-Lie bracket
NON_LIE_PROBES = {
    "derived_series": derived_series,
    "is_solvable": is_solvable,
    "verify_morphism": lambda L: verify_morphism(identity_map(L)),
    "ce_differential": lambda L: ce_differential(
        Cochain(L, 1, "adjoint", {(0,): {1: 1}})),
    "coboundary_witness": lambda L: coboundary_witness(
        L, Cochain(L, 1, "adjoint", {(0,): {1: 1}})),
}


def test_jacobi_failure_is_caught():
    # the constructor checks shape only; every probe refuses the bracket
    L = non_lie_algebra(["a", "b", "c"])
    for probe in NON_LIE_PROBES.values():
        with pytest.raises(ValueError, match=r"Jacobi fails on \(a, b, c\)"):
            probe(L)
    assert not L.jacobi_checked


@pytest.mark.parametrize("probe", NON_LIE_PROBES)
def test_probes_refuse_a_non_lie_algebra_of_dim_33(probe):
    L = non_lie_algebra(["x%d" % i for i in range(33)])
    with pytest.raises(ValueError, match=r"Jacobi fails on \(x0, x1, x2\)"):
        NON_LIE_PROBES[probe](L)


def dense_check_jacobi(L):
    """Reference for LieAlgebra.check_jacobi: the Jacobi sum of every
    basis triple in lexicographic order, from three bracket_vec calls."""
    n = L.dim
    for i in range(n):
        for j in range(i + 1, n):
            bij = L.bracket.get((i, j))
            for k in range(j + 1, n):
                s = L.bracket_vec(bij or {}, {k: 1})
                s = vec_add(s, L.bracket_vec(
                    L.bracket.get((j, k), {}), {i: 1}), L.p)
                s = vec_add(s, L.bracket_vec(
                    vec_scale(L.bracket.get((i, k), {}), -1, L.p),
                    {j: 1}), L.p)
                if s:
                    raise ValueError(
                        "Jacobi fails on (%s, %s, %s): %r"
                        % (L.labels[i], L.labels[j], L.labels[k], s)
                    )


def jacobi_verdict(check, L):
    """None when check passes L, else (failing triple, residual dict)."""
    try:
        check(L)
    except ValueError as e:
        m = re.fullmatch(r"Jacobi fails on \((.*)\): (\{.*\})", str(e))
        assert m, str(e)
        return m.group(1), ast.literal_eval(m.group(2))
    return None


def assert_jacobi_checks_agree(L):
    want = jacobi_verdict(dense_check_jacobi, L)
    assert jacobi_verdict(LieAlgebra.check_jacobi, L) == want
    assert L.jacobi_checked == (want is None)
    # the certificate on the generators, through deform of the abelian
    # algebra on L's basis
    base = LieAlgebra(L.p, L.labels, {})
    assert jacobi_verdict(lambda B: deform(B, L.bracket, "L", {}),
                          base) == want
    return want


@st.composite
def sparse_brackets(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(2, 6))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda ij: ij[0] < ij[1])
    vec = st.dictionaries(st.integers(0, n - 1), st.integers(1, p - 1),
                          min_size=1, max_size=3)
    return p, n, draw(st.dictionaries(pair, vec, max_size=n * (n - 1) // 2))


@settings(max_examples=400, deadline=None)
@given(sparse_brackets())
# Jacobi fails on one triple, which misses every generator but the last:
# the certificate needs them all
@example((5, 4, {(0, 2): {1: 2}, (0, 3): {2: 2}, (1, 2): {1: 1},
                 (2, 3): {0: 3}}))
@example((5, 5, {(0, 1): {4: 1}, (1, 2): {3: 3}, (1, 3): {0: 2},
                 (2, 3): {1: 2}}))
@example((5, 4, {(0, 1): {3: 2}, (0, 2): {2: 1}, (0, 3): {2: 1},
                 (1, 3): {0: 3}}))
def test_sparse_jacobi_matches_dense_reference(drawn):
    p, n, bracket = drawn
    # check_jacobi is arithmetic mod p alone; the constructor's floor of
    # p >= 5 is lifted so that p = 2 (where -1 = 1) and p = 3 are covered
    with mock.patch("modlie.liealg.check_prime", lambda p: p):
        L = LieAlgebra(p, ["x%d" % i for i in range(n)], bracket)
        assert_jacobi_checks_agree(L)


def test_sparse_jacobi_matches_dense_reference_on_flipped_constants():
    C = current_algebra(make_w1(1, P), make_divided_powers(1, P))
    assert assert_jacobi_checks_agree(C) is None
    entries = [(key, k) for key, vec in sorted(C.bracket.items())
               for k in sorted(vec)]
    assert len(entries) > 100
    failures = 0
    for key, k in entries[::7]:
        bracket = {kk: dict(vec) for kk, vec in C.bracket.items()}
        bracket[key][k] = -bracket[key][k] % P
        L = LieAlgebra(P, C.labels, bracket)
        failures += assert_jacobi_checks_agree(L) is not None
    assert failures > 0


@pytest.mark.parametrize("expr", FAMILIES.values(), ids=FAMILIES)
def test_jacobi_certificate_matches_dense_reference_on_flipped_builtins(expr):
    # deform flips one structure constant c to -c; its certificate on the
    # generators gives the verdict and the message of the dense loop
    L = _build_algebra(expr, P)
    entries = [(key, k) for key, vec in sorted(L.bracket.items())
               for k in sorted(vec)]
    failures = 0
    for key, k in entries[::max(1, len(entries) // 6)]:
        flip = {key: {k: -2 * L.bracket[key][k]}}
        M = LieAlgebra(P, L.labels, family_add(L.bracket, flip, P))
        want = jacobi_verdict(dense_check_jacobi, M)
        assert jacobi_verdict(lambda B: deform(B, flip, "M", {}), L) == want
        failures += want is not None
    assert failures > 0


def _generated_dim(L, gens):
    # naive closure: bracket every pair of the span until it stops growing
    ech, basis = Echelon(L.p), []
    for g in gens:
        if ech.add({g: 1}):
            basis.append({g: 1})
    grown = True
    while grown:
        grown = False
        for x in list(basis):
            for y in list(basis):
                w = L.bracket_vec(x, y)
                if w and ech.add(w):
                    basis.append(w)
                    grown = True
    return ech.rank


# the generating sets found, pinned since they set the speed of
# cohomology_dim: (expression, p) -> generators
GENERATORS = {
    ("W1(1)", P): (0, 4), ("sl2", P): (0, 2),
    ("W1(1)(x)O1(1)", P): (at(-1, 0), at(3, 1), at(3, 0)),
    ("sl2(x)O1(1)", P): (at(-1, 0, 3), at(-1, 1, 3), at(1, 0, 3)),
    ("L(O1(1),d)", P): (0, 24), ("W1(1)(x)O1(1)+d", P): (0, 24, 25),
    ("sl2(x)O1(1)+d", P): (15, at(-1, 4, 3), at(1, 4, 3)),
    ("W1(2)", P): (0, 24),
    ("W1(1)(x)O1(1)", 7): (at(-1, 0, 7), at(5, 1, 7), at(5, 0, 7)),
    ("W1(2)", 7): (0, 48),
}


@pytest.mark.parametrize("expr, p", GENERATORS, ids=[
    "w1n-1", "sl2-1", "w1n-x-om-1", "sl2-x-om-1", "ldef-1", "w1-sd-1",
    "sl2-sd-1", "w1n-2", "w1n-x-om-1-p7", "w1n-2-p7"])
def test_generators_generate_every_builtin(expr, p):
    # every production of the grammar has a pin
    assert set(FAMILIES.values()) <= {e for e, _ in GENERATORS}
    L = _build_algebra(expr, p)
    # found on first use, but a deformation certifies Jacobi with them
    assert ("generators" in vars(L)) == expr.startswith("L(")
    gens = L.generators
    assert gens == GENERATORS[(expr, p)]
    assert gens and len(set(gens)) == len(gens)
    assert all(0 <= g < L.dim for g in gens)
    assert _generated_dim(L, gens) == L.dim
    # none of them is redundant
    for g in gens:
        assert _generated_dim(L, [h for h in gens if h != g]) < L.dim


def test_derived_tables_are_built_once_per_algebra():
    # each table is a cached property: a second access reads the first
    # build, on Lie and on commutative algebras alike
    searches = []

    def spy(p, dim, *args, **kwargs):
        searches.append(dim)
        return greedy_generators(p, dim, *args, **kwargs)

    with mock.patch("modlie.liealg.greedy_generators", spy), \
            mock.patch("modlie.commalg.greedy_generators", spy):
        W, A = make_w1(1, P), make_divided_powers(1, P)
        tables = [(W.generators, W.generator_tables, W.ad, W.rev, W.weights,
                   A.generators, A.coboundary_columns) for _ in range(2)]
    assert searches == [W.dim, A.dim]
    assert all(x is y for x, y in zip(*tables))


def test_generators_of_an_abelian_algebra_are_the_whole_basis():
    L = LieAlgebra(P, ["a%d" % i for i in range(40)], {})
    assert L.generators == tuple(range(40))


def test_generators_and_ideals_refuse_an_algebra_failing_jacobi():
    # J(a, b, c) = [[a, b], c] + [[b, c], a] + [[c, a], b] = b
    L = LieAlgebra(P, ["a", "b", "c"],
                   {(0, 1): {0: 1}, (1, 2): {0: 1}, (0, 2): {1: 1}})
    with pytest.raises(ValueError, match="Jacobi fails"):
        L.generators
    with pytest.raises(ValueError, match="Jacobi fails"):
        ideal_generated_by(L, [{0: 1}])


def test_lie_json_round_trip():
    L = semidirect_current(make_w1(1, P), make_divided_powers(1, P),
                           [partial_derivation(make_divided_powers(1, P))])
    doc = L.to_json()
    M = LieAlgebra.from_json(doc)
    assert M.dim == L.dim
    assert M.bracket == L.bracket
    assert M.grading == L.grading
    assert M.toral == L.toral
    assert M.to_json() == L.to_json()


def test_filtered_json_round_trip():
    # the deformed algebra is only filtered: without the flag its bracket
    # reads back as not degree-additive
    A = make_divided_powers(1, P)
    L = make_deformed(A, partial_derivation(A))
    doc = L.to_json()
    assert doc["filtration"] is True
    M = LieAlgebra.from_json(doc)
    assert M.filtration
    assert M.bracket == L.bracket
    assert M.to_json() == L.to_json()
    h2 = cohomology_dim(M, 2, slice_=weight_zero_reduce(M))
    assert h2.dim == cohomology_dim(L, 2, slice_=weight_zero_reduce(L)).dim
    assert h2.dim == 4


@pytest.mark.parametrize("flag", ["false", "true", 0, 1, None, []])
def test_from_json_filtration_must_be_a_boolean(flag):
    # [a, b] = b with degrees -1, 1 is not degree-additive, so only a
    # real filtration flag may let it load
    doc = {"p": P, "basis": ["a", "b"], "bracket": [[0, 1, 1, 1]],
           "grading": [-1, 1]}
    with pytest.raises(ValueError, match="not degree-additive"):
        LieAlgebra.from_json(doc)
    assert LieAlgebra.from_json(dict(doc, filtration=True)).filtration
    with pytest.raises(ValueError, match="filtration must be true or false"):
        LieAlgebra.from_json(dict(doc, filtration=flag))


def test_from_json_rejects_out_of_range_bracket_index():
    doc = {"p": P, "basis": ["a", "b", "c"], "bracket": [[0, 1, 7, 1]]}
    with pytest.raises(ValueError, match="basis indices"):
        LieAlgebra.from_json(doc)


def test_from_json_rejects_dim_mismatch():
    doc = {"p": P, "dim": 9, "basis": ["a", "b"], "bracket": []}
    with pytest.raises(ValueError, match="does not match"):
        LieAlgebra.from_json(doc)


@pytest.mark.parametrize("toral", [9, -1, "x", True])
def test_toral_must_be_a_basis_index(toral):
    doc = {"p": P, "basis": ["a", "b"], "bracket": [], "toral": toral}
    with pytest.raises(ValueError, match="is not a basis index"):
        LieAlgebra.from_json(doc)
    with pytest.raises(ValueError, match="is not a basis index"):
        LieAlgebra(P, ["a", "b"], {}, toral=toral)


OFF_BASIS = "entry .* needs basis indices in 0..%d, targets in 0..%d and "\
    "integer values"
UNIT = {(0, 0): {0: 1}, (0, 1): {1: 1}}  # K[x]/(x^2) on ["1", "x"]


def _entry_check(kind):
    """(constructor of entries, entries that construct, message) of each
    structure whose entries linalg.check_family decides."""
    W, A = make_w1(1, P), make_divided_powers(1, P)
    return {
        "bracket": (lambda e: LieAlgebra(P, ["a", "b", "c"], e),
                    {(0, 1): {2: 1}}, OFF_BASIS % (2, 2)),
        "diagonal": (lambda e: LieAlgebra(P, ["a", "b", "c"], e),
                     {(1, 1): {0: P}}, r"\[x, x\] must be 0"),
        "json": (lambda e: LieAlgebra.from_json(
                     {"p": P, "basis": ["a", "b", "c"], "bracket": e}),
                 [[1, 0, 2, 1]], OFF_BASIS % (2, 2)),
        "adjoint": (lambda e: Cochain(W, len(next(iter(e))), "adjoint", e),
                    {(0, 1): {1: 1}}, OFF_BASIS % (W.dim - 1, W.dim - 1)),
        "trivial": (lambda e: Cochain(W, len(next(iter(e))), "trivial", e),
                    {(3, 4): {0: 1}}, OFF_BASIS % (W.dim - 1, 0)),
        "derivation": (lambda e: Derivation(A, e),
                       partial_derivation(A).cols, OFF_BASIS % (4, 4)),
        "linear-map": (lambda e: LinearMap(A, make_divided_powers(2, P), e),
                       {4: {24: 1}}, OFF_BASIS % (4, 24)),
        "symmetric-map": (lambda e: SymmetricBilinearMap(A, e),
                          {(4, 0): {4: 1}}, OFF_BASIS % (4, 4)),
        "product": (lambda e: CommAlgebra(P, ["1", "x"], {**UNIT, **e}, 0),
                    {(1, 1): {}}, OFF_BASIS % (1, 1)),
        "unit": (lambda u: CommAlgebra(P, ["1", "x"], UNIT, u), 0,
                 r"unit .* is not a basis index in 0..1"),
    }[kind]


# A JSON bracket value true was read as 1.  Read as the trivial target
# 0, the cochain (3, 4) -> 3 counted as a second class of the
# one-dimensional H^2(W1(1); K); range membership took a float equal to
# an index, so (0, 2.5, 4) gave d a 4-cochain of 4 terms and the other
# floats broke class_span_dim with a TypeError; a float value reached
# pow() inside Echelon, or, as 2.5, came back from closure_failure as a
# value outside F_p.  On O1(1), the linear map {7: {0: 1}} flattened to
# 35, past the 25 matrix coordinates, and the symmetric pair (0, 9) onto
# the coordinate of (1, 4), so solve_delta1 answered for another map.  A
# product key (1, 9) raised IndexError from the associativity check, and
# the product x^2 = 0.5 x reached pow() inside Echelon from
# derivation_space, harrison_h2 and hochschild_hn_dim.  A value that is
# not a dict, as the bracket (0, 1) -> 5, raised AttributeError.
ENTRY_ROWS = {
    "bracket": [
        ("target-7", {(0, 1): {7: 1}}), ("key-7", {(0, 7): {}}),
        ("key-minus-1", {(-1, 1): {0: 1}}), ("bool-key", {(True, 2): {0: 1}}),
        ("str-target", {(0, 1): {"c": 1}}),
        ("float-value", {(0, 1): {2: 1.5}}),
        ("bool-value", {(0, 1): {2: True}}),
        ("int-value", {(0, 1): 5}), ("list-value", {(0, 1): [2]})],
    "diagonal": [("nonzero", {(1, 1): {0: 1}})],
    "json": [("key-7", [[0, 7, 2, 1]]), ("float-key", [[0, 1.0, 2, 1]]),
             ("str-target", [[0, 1, "c", 1]]),
             ("bool-value", [[0, 1, 2, True]])],
    "adjoint": [
        ("key-9", {(0, 9): {1: 1}}), ("key-minus-1", {(-1, 1): {1: 1}}),
        ("target-9", {(0, 1): {9: 1}}), ("target-minus-1", {(0, 1): {-1: 1}}),
        ("key-2.5", {(0, 2.5, 4): {1: 1}}), ("target-2.0", {(0, 1): {2.0: 1}}),
        ("value-1.0", {(0, 1): {1: 1.0}}), ("value-1.5", {(0, 1): {1: 1.5}}),
        ("bool-key", {(False, 1): {1: 1}}),
        ("bool-target", {(0, 1): {True: 1}}),
        ("bool-value", {(0, 1): {1: True}}),
        ("int-value", {(0, 1): 1})],
    "trivial": [("target-3", {(3, 4): {3: 1}}),
                ("key-3.0", {(3.0, 4): {0: 1}})],
    "derivation": [
        ("key-7", {7: {0: 1}}), ("key-minus-1", {-1: {0: 1}}),
        ("target-5", {1: {5: 1}}), ("key-1.0", {1.0: {0: 1}}),
        ("target-0.0", {1: {0.0: 1}}), ("value-1.0", {1: {0: 1.0}})],
    "linear-map": [("target-25", {0: {25: 1}}), ("int-value", {0: 1})],
    "symmetric-map": [
        ("key-9", {(0, 9): {0: 1}}), ("key-minus-1", {(-1, 2): {0: 1}}),
        ("target-5", {(0, 1): {5: 1}}), ("key-1.0", {(0, 1.0): {1: 1}}),
        ("value-0.5", {(0, 1): {1: 0.5}})],
    "product": [
        ("key-9", {(1, 9): {1: 1}}), ("target-2", {(1, 1): {2: 1}}),
        ("value-0.5", {(1, 1): {1: 0.5}}), ("key-1.0", {(1.0, 1): {1: 1}}),
        ("bool-value", {(1, 1): {1: True}}),
        ("int-value", {(0, 0): 1})],
    "unit": [("9", 9), ("minus-1", -1), ("bool", True), ("float", 0.0)],
}


@pytest.mark.parametrize("kind, entries", [
    pytest.param(kind, entries, id="%s-%s" % (kind, case))
    for kind, rows in ENTRY_ROWS.items() for case, entries in rows])
def test_entries_off_the_basis_are_refused(kind, entries):
    # one check, linalg.check_family, for every structure the engine
    # accepts: keys and targets are basis indices, values are ints
    make, good, match = _entry_check(kind)
    make(good)  # in the basis, it constructs
    with pytest.raises(ValueError, match=match):
        make(entries)


def test_zero_diagonal_bracket_entry_is_dropped_but_needs_its_index():
    assert LieAlgebra(P, ["a", "b", "c"], {(1, 1): {0: P}}).bracket == {}
    doc = {"p": P, "basis": ["a", "b", "c"], "bracket": [[1, 1, 0, 0]]}
    assert LieAlgebra.from_json(doc).bracket == {}
    with pytest.raises(ValueError, match="basis indices"):
        LieAlgebra.from_json(dict(doc, bracket=[[7, 7, 0, 0]]))
    with pytest.raises(ValueError, match=r"\[x, x\] must be 0"):
        LieAlgebra.from_json(dict(doc, bracket=[[1, 1, 0, 1]]))


def test_from_json_rejects_bracket_entry_that_is_not_a_list():
    doc = {"p": P, "basis": ["a", "b"], "bracket": [5]}
    with pytest.raises(ValueError, match="bad bracket entry 5"):
        LieAlgebra.from_json(doc)


def test_grading_needs_one_degree_per_basis_element():
    doc = {"p": P, "basis": ["a", "b"], "bracket": [], "grading": [0]}
    with pytest.raises(ValueError, match="grading must be 2 integer degrees"):
        LieAlgebra.from_json(doc)
    with pytest.raises(ValueError, match="grading must be 2 integer degrees"):
        LieAlgebra(P, ["a", "b"], {}, grading=[0, 1, 2])
    # a bool is no degree, though isinstance takes it for an int
    doc["grading"] = [True, False]
    with pytest.raises(ValueError, match="grading must be 2 integer degrees"):
        LieAlgebra.from_json(doc)


def test_from_json_checks_jacobi_at_every_dimension():
    # [[a,b],c] + [[b,c],a] + [[c,a],b] = [a,c] + [b,c] = c; central
    # padding takes dim to 33
    doc = {"p": P, "basis": ["x%d" % i for i in range(33)],
           "bracket": [[0, 1, 0, 1], [0, 2, 2, 1]]}
    with pytest.raises(ValueError, match=r"Jacobi fails on \(x0, x1, x2\)"):
        LieAlgebra.from_json(doc)


@pytest.mark.slow
def test_w1_height_three_jacobi():
    W = make_w1(3, P)
    assert W.dim == 125
    W.check_jacobi()
    assert W.jacobi_checked
