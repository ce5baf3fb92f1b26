"""Chevalley-Eilenberg complex: the differential squares to zero, frozen
cohomology dimensions, weight and degree slicing, coboundary witnesses,
class spans, and the Massey bracket."""

import itertools
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from modlie import ceco, linalg
from modlie.ceco import (
    BudgetExceeded,
    Cochain,
    ComplexSlice,
    ce_differential,
    chain_columns,
    class_span_dim,
    closure_failure,
    coboundary_witness,
    cohomology_dim,
    massey_bracket,
    positive_cohomology,
    weight_zero_reduce,
)
from modlie.cocycles import CocycleError, _check_closed, phi21, phi_big
from modlie.commalg import make_divided_powers, partial_derivation
from bisect import bisect_left
from math import comb

from modlie.linalg import (Echelon, SparseFpMatrix, transpose, vec_add,
                           vec_scale)
from modlie.liealg import (
    LieAlgebra,
    current_algebra,
    make_deformed,
    make_sl2,
    make_w1,
    semidirect_current,
)

P = 5


def random_cochain(L, n, module, rng):
    cols = chain_columns(L, n, module)
    coeffs = {}
    for T, t in cols:
        if rng.random() < 0.3:
            coeffs.setdefault(T, {})[t] = rng.randrange(1, L.p)
    return Cochain(L, n, module, coeffs)


def test_differential_squares_to_zero():
    rng = random.Random(3)
    W = make_w1(1, P)
    S = current_algebra(make_sl2(P), make_divided_powers(1, P))
    for L in (W, S):
        for n in (1, 2):
            for module in ("adjoint", "trivial"):
                c = random_cochain(L, n, module, rng)
                dd = ce_differential(ce_differential(c))
                assert dd.is_zero()


def evaluate(c, *xs):
    """The cochain c at basis indices xs in any order, by its alternating
    extension: 0 on a repeated index, else its entry at sorted xs, signed
    by the parity of the inversions of xs."""
    T = tuple(sorted(xs))
    if len(set(T)) < len(T):
        return {}
    v = c.coeffs.get(T, {})
    odd = sum(x > y for i, x in enumerate(xs) for y in xs[i + 1:]) % 2
    return vec_scale(v, -1, c.L.p) if odd else v


def test_differential_on_constants_and_evaluation():
    W = make_w1(1, P)
    c = Cochain(W, 1, "adjoint", {(0,): {2: 1}})  # e_-1 -> e_1
    d = ce_differential(c)
    # dc(x, y) = x c(y) - y c(x) - c([x, y])
    # dc(e_-1, e_0): [e_-1, c(e_0)] - [e_0, c(e_-1)] - c(e_-1) = -2 e_1
    assert evaluate(d, 0, 1) == {2: P - 2}
    assert evaluate(d, 1, 0) == {2: 2}
    assert evaluate(d, 0, 0) == {}


def test_h2_of_w1_is_one_dimensional():
    for p in (5, 7):
        W = make_w1(1, p)
        full = cohomology_dim(W, 2)
        assert full.dim == 1
        sliced = cohomology_dim(W, 2, slice_=weight_zero_reduce(W))
        assert sliced.dim == 1
        assert sliced.ncols < full.ncols
        assert cohomology_dim(W, 1).dim == 0


def test_h1_h2_of_higher_zassenhaus():
    W = make_w1(2, P)
    s = weight_zero_reduce(W)
    assert cohomology_dim(W, 1, slice_=s).dim == 1   # n - 1
    assert cohomology_dim(W, 2, slice_=s).dim == 4   # 3n - 2


def test_outer_derivation_of_w1_2_is_ad_to_the_p():
    # (ad e_-1)^p is a derivation (closed 1-cochain) and is not inner,
    # so it represents the one outer class of H^1(W1(2))
    from modlie.linalg import solve_sparse
    W = make_w1(2, P)
    cols = {}
    for i in range(W.dim):
        v = {i: 1}
        for _ in range(P):
            v = W.bracket_vec({0: 1}, v)
        if v:
            cols[(i,)] = v
    c = Cochain(W, 1, "adjoint", cols)
    assert not c.is_zero()
    assert ce_differential(c).is_zero()
    # no z solves [e_i, z] = c(e_i) for all i: the map z -> ([e_i, z])_i
    # has column t = ([e_i, e_t])_i at coordinates (i, k)
    columns = {t: {(i, k): coef for i in range(W.dim)
                   for k, coef in W.bracket_pair(i, t).items()}
               for t in range(W.dim)}
    target = {(i, k): coef for i in range(W.dim)
              for k, coef in evaluate(c, i).items()}
    assert solve_sparse(columns, target, P) is None
    # while the inner derivation ad(e_-1) is reached, by z = -e_-1
    inner = {(i, k): coef for i in range(W.dim)
             for k, coef in W.bracket_pair(0, i).items()}
    assert solve_sparse(columns, inner, P) == {0: P - 1}


def test_h2_of_sl2_vanishes():
    S = make_sl2(P)
    assert cohomology_dim(S, 2).dim == 0
    assert cohomology_dim(S, 1).dim == 0


def test_h2_of_current_algebras():
    A = make_divided_powers(1, P)
    L = current_algebra(make_w1(1, P), A)
    assert cohomology_dim(L, 2, slice_=weight_zero_reduce(L)).dim == 20
    S = current_algebra(make_sl2(P), A)
    assert cohomology_dim(S, 2, slice_=weight_zero_reduce(S)).dim == 5


def test_h2_of_the_deformed_algebra():
    A = make_divided_powers(1, P)
    Ld = make_deformed(A, partial_derivation(A))
    assert cohomology_dim(Ld, 2, slice_=weight_zero_reduce(Ld)).dim == 4


def test_trivial_coefficients():
    W = make_w1(1, P)
    A = make_divided_powers(1, P)
    L = current_algebra(W, A)
    a = cohomology_dim(W, 2, module="trivial").dim
    b = cohomology_dim(L, 2, module="trivial",
                       slice_=weight_zero_reduce(L, module="trivial")).dim
    assert a == 1
    assert b == 5
    assert b == a * A.dim


def test_degree_slices_split_the_current_h2():
    L = current_algebra(make_w1(1, P), make_divided_powers(1, P))
    # Theta classes at degree -p, Upsilon/Psi at 0, PhiBig at +p
    by_degree = {
        d: cohomology_dim(L, 2, slice_=ComplexSlice(L, degree=d)).dim
        for d in (-5, 0, 5)
    }
    assert by_degree == {-5: 5, 0: 10, 5: 5}
    assert sum(by_degree.values()) == 20


def test_nonzero_weight_slices_are_exact():
    W = make_w1(2, P)
    for w in (1, 2):
        s = ComplexSlice(W, weight=w)
        assert cohomology_dim(W, 2, slice_=s).dim == 0
    L = current_algebra(make_w1(1, P), make_divided_powers(1, P))
    for w in (1, 3):
        s = ComplexSlice(L, weight=w)
        assert cohomology_dim(L, 2, slice_=s).dim == 0


def test_off_lattice_degree_slices_are_exact():
    L = current_algebra(make_w1(1, P), make_divided_powers(1, P))
    for d in (1, 3, 7):  # not multiples of p
        assert cohomology_dim(L, 2, slice_=ComplexSlice(L, degree=d)).dim == 0


def test_degree_slice_refused_on_filtered_algebra():
    A = make_divided_powers(1, P)
    Ld = make_deformed(A, partial_derivation(A))
    with pytest.raises(ValueError):
        ComplexSlice(Ld, degree=0)
    # weight slicing is still allowed
    assert cohomology_dim(Ld, 2, slice_=weight_zero_reduce(Ld)).dim == 4


def random_weight0_cochain(L, n, rng):
    # the witness/span helpers cut the search to the support weight, so
    # feed them weight-homogeneous cochains like the named families
    cols = chain_columns(L, n, slice_=weight_zero_reduce(L))
    coeffs = {}
    for T, t in cols:
        if rng.random() < 0.4:
            coeffs.setdefault(T, {})[t] = rng.randrange(1, L.p)
    return Cochain(L, n, "adjoint", coeffs)


def test_coboundary_witness_positive_and_negative():
    W = make_w1(1, P)
    rng = random.Random(7)
    omega = random_weight0_cochain(W, 1, rng)
    c = ce_differential(omega)
    assert not c.is_zero()
    w = coboundary_witness(W, c)
    assert w is not None
    assert ce_differential(w).flatten() == c.flatten()
    assert coboundary_witness(W, phi21(W)) is None


def test_coboundary_witness_works_in_the_cochains_module():
    W = make_w1(1, P)
    c = ce_differential(Cochain(W, 1, "trivial", {(1,): {0: 1}}))
    assert c.module == "trivial" and not c.is_zero()
    w = coboundary_witness(W, c)
    assert w is not None and w.module == "trivial"
    assert ce_differential(w).flatten() == c.flatten()


def test_mixed_weight_coboundaries_are_searched_on_every_weight():
    # d keeps weights, so a coboundary whose terms have weights 0 and 4
    # is found on the union of those two weight slices
    W = make_w1(1, P)
    psi = Cochain(W, 1, "adjoint", {(1,): {1: 1}, (2,): {1: 1}})
    c = ce_differential(psi)
    grade = ComplexSlice(W, weight=0).grade
    assert {grade(T, k) for T, vec in c.coeffs.items() for k in vec} \
        == {(0,), (4,)}
    w = coboundary_witness(W, c)
    assert w is not None
    assert ce_differential(w).flatten() == c.flatten()
    assert class_span_dim(W, [c]) == 0
    assert class_span_dim(W, [phi21(W).add(c)]) == 1


def test_class_span_dimensions():
    W = make_w1(1, P)
    rng = random.Random(9)
    omega = ce_differential(random_weight0_cochain(W, 1, rng))
    assert class_span_dim(W, [omega]) == 0
    f = phi21(W)
    assert class_span_dim(W, [f]) == 1
    assert class_span_dim(W, [f, omega]) == 1
    assert class_span_dim(W, [f, f.scale(2)]) == 1
    assert class_span_dim(W, []) == 0
    # the module is the cochains' own, and it must be one module
    exact = ce_differential(Cochain(W, 1, "trivial", {(1,): {0: 1}}))
    assert not exact.is_zero()
    assert class_span_dim(W, [exact]) == 0
    with pytest.raises(ValueError, match="one module"):
        class_span_dim(W, [f, exact])


def test_cochains_on_another_algebra_are_refused():
    S, f = make_sl2(P), phi21(make_w1(1, P))
    with pytest.raises(ValueError, match=r"on W1\(1\), not on sl2"):
        class_span_dim(S, [f])
    with pytest.raises(ValueError, match=r"on W1\(1\), not on sl2"):
        coboundary_witness(S, f)


@pytest.mark.parametrize("build, dim", [
    (lambda: make_w1(1, P), 2),
    (lambda: current_algebra(make_w1(1, P), make_divided_powers(1, P)), 45),
], ids=["w1", "w1xo1"])
def test_h3_representatives_span_h3(build, dim):
    L = build()
    res = cohomology_dim(L, 3, slice_=weight_zero_reduce(L), want_reps=True)
    assert len(res.reps) == res.dim == dim
    assert class_span_dim(L, res.reps) == dim
    assert coboundary_witness(L, res.reps[0]) is None


def test_coboundary_witness_in_degree_3():
    W = make_w1(1, P)
    c = ce_differential(random_cochain(W, 2, "adjoint", random.Random(3)))
    assert c.n == 3 and not c.is_zero()
    w = coboundary_witness(W, c)
    assert w is not None and w.n == 2
    assert ce_differential(w).flatten() == c.flatten()
    assert class_span_dim(W, [c]) == 0


def test_mixed_degrees_and_zero_cochains_are_refused():
    W = make_w1(1, P)
    f = phi21(W)
    c = ce_differential(random_cochain(W, 2, "adjoint", random.Random(3)))
    with pytest.raises(ValueError, match="one degree"):
        class_span_dim(W, [f, c])
    zero = Cochain(W, 0, "adjoint", {(): {0: 1}})
    with pytest.raises(ValueError, match="degree at least 1, not 0"):
        coboundary_witness(W, zero)
    with pytest.raises(ValueError, match="degree at least 1, not 0"):
        class_span_dim(W, [zero])


def test_weight_zero_d2_through_extend_matches_add(monkeypatch):
    # the real weight-zero d_2 of W1(1) (x) O1(1) at p = 5, eliminated by
    # sparsest_first through extend and again with every row, of B^2 and
    # of d_2, through add
    L = current_algebra(make_w1(1, P), make_divided_powers(1, P))
    runs, added = [], []

    def record(*args):
        order, m = linalg.sparsest_first(*args)
        runs.append(m)
        return order, m

    def by_add(ech, rows):
        for row in rows:
            added.append(ech.add(row))

    for patch in (False, True):
        with monkeypatch.context() as mp:
            mp.setattr(ceco, "sparsest_first", record)
            if patch:
                mp.setattr(linalg.Echelon, "extend", by_add)
            cohomology_dim(L, 2, slice_=weight_zero_reduce(L))
    extended, by_adds = runs
    assert extended.rank > 0 and len(added) > sum(added) >= extended.rank
    assert ([(c, list(t.items())) for c, t in extended.pivots.items()]
            == [(c, list(t.items())) for c, t in by_adds.pivots.items()])
    assert extended.kernel_basis() == by_adds.kernel_basis()


def test_misspelled_module_is_refused():
    # read as the trivial module it gave dim H^1 = 0; the adjoint one is 1
    W = make_w1(2, P)
    assert cohomology_dim(W, 1).dim == 1
    with pytest.raises(ValueError, match="not 'adjiont'"):
        cohomology_dim(W, 1, module="adjiont")
    with pytest.raises(ValueError, match="not 'adjiont'"):
        ComplexSlice(W, "adjiont")
    with pytest.raises(ValueError, match="not 'adjiont'"):
        Cochain(W, 1, "adjiont")


def test_massey_bracket_symmetry_and_closure():
    W = make_w1(1, P)
    rng = random.Random(13)
    a = random_cochain(W, 2, "adjoint", rng)
    b = random_cochain(W, 2, "adjoint", rng)
    ab = massey_bracket(a, b)
    ba = massey_bracket(b, a)
    assert ab.flatten() == ba.flatten()
    # closed inputs give a closed bracket
    f = phi21(W)
    assert ce_differential(massey_bracket(f, f)).is_zero()


def dense_massey_bracket(phi, psi):
    """Reference for massey_bracket: every sorted triple that meets a
    support pair of either cochain, each summed over both orders and the
    three cyclic positions, with the outer cochain evaluated on the
    sparse inner value term by term."""
    L, p = phi.L, phi.L.p

    def outer(f, u, c):
        out = {}
        for i, a in u.items():
            if i != c:
                for k, w in evaluate(f, i, c).items():
                    out = vec_add(out, {k: a * w}, p)
        return out

    triples = set()
    for c in (phi, psi):
        for (a, b) in c.coeffs:
            for z in range(L.dim):
                if z != a and z != b:
                    triples.add(tuple(sorted((a, b, z))))
    coeffs = {}
    for (x, y, z) in sorted(triples):
        v = {}
        for f, g in ((phi, psi), (psi, phi)):
            for (a, b, c) in ((x, y, z), (y, z, x), (z, x, y)):
                inner = evaluate(g, a, b)
                if inner:
                    v = vec_add(v, outer(f, inner, c), p)
        if v:
            coeffs[(x, y, z)] = v
    return coeffs


MASSEY_ALGEBRAS = [
    make_w1(1, P),
    make_sl2(P),
    LieAlgebra(P, ["a%d" % i for i in range(5)], {}, grading=[0, 1, 1, 2, 3],
               name="abelian"),
]


@st.composite
def cochain_pairs(draw):
    L = draw(st.sampled_from(MASSEY_ALGEBRAS))
    n = L.dim
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda ab: ab[0] < ab[1])
    vec = st.dictionaries(st.integers(0, n - 1), st.integers(1, P - 1),
                          min_size=1, max_size=3)
    a, b = (Cochain(L, 2, "adjoint", draw(st.dictionaries(pair, vec)))
            for _ in range(2))
    return a, b


@settings(max_examples=300, deadline=None)
@given(cochain_pairs())
def test_massey_bracket_matches_dense_reference(ab):
    a, b = ab
    assert massey_bracket(a, b).coeffs == dense_massey_bracket(a, b)


def test_massey_square_of_the_deformation_direction():
    A = make_divided_powers(1, P)
    L = current_algebra(make_w1(1, P), A)
    f = phi_big(L, partial_derivation(A))
    assert massey_bracket(f, f).is_zero()


def _semidirect(S, m):
    B = make_divided_powers(m, P)
    return semidirect_current(S, B, [partial_derivation(B)])


def _positive_by_degree_slices(L, n):
    # the reference: every positive degree slice whole, no weight slice
    lo, hi = min(L.grading), max(L.grading)
    per_degree = {}
    for d in range(1, hi - n * lo + 1):
        dim = cohomology_dim(L, n, slice_=ComplexSlice(L, degree=d)).dim
        if dim:
            per_degree[d] = dim
    return sum(per_degree.values()), per_degree


def test_positive_degree_h2():
    Lw = _semidirect(make_w1(1, P), 1)
    assert positive_cohomology(Lw) == (1, {5: 1})
    Ls = _semidirect(make_sl2(P), 1)
    assert positive_cohomology(Ls) == (0, {})


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("build", [lambda: make_w1(1, P), lambda: make_sl2(P)],
                         ids=["w1", "sl2"])
def test_positive_cohomology_matches_the_degree_slices(build, n):
    L = _semidirect(build(), 1)
    assert positive_cohomology(L, n) == _positive_by_degree_slices(L, n)


@pytest.mark.slow
@pytest.mark.parametrize("w1n, m, per_degree", [
    (1, 2, {5: 2}), (2, 1, {20: 1, 25: 1})], ids=["1-2", "2-1"])
def test_positive_h2_matches_the_degree_slices_at_larger_n_m(w1n, m,
                                                            per_degree):
    # each reference loop takes about 2.5 s
    L = _semidirect(make_w1(w1n, P), m)
    total, found = positive_cohomology(L)
    assert found == per_degree == _positive_by_degree_slices(L, 2)[1]
    assert total == w1n - 1 + m


def _heisenberg(toral):
    return LieAlgebra(P, ["x", "y", "z"], {(0, 1): {2: 1}},
                      grading=[-2, 1, -1], toral=toral)


@pytest.mark.parametrize("build", [
    lambda: _semidirect(make_w1(1, P), 1), lambda: _semidirect(make_sl2(P), 1),
    lambda: make_w1(2, P), lambda: _heisenberg(2), lambda: _heisenberg(None),
], ids=["w1-sd", "sl2-sd", "w1(2)", "heis-toral", "heis"])
def test_positive_cohomology_queries_the_degrees_with_columns(build,
                                                              monkeypatch):
    # the degrees read off sums of grades are those of the slices with a
    # column, and only those are queried
    L = build()
    lo, hi = min(L.grading), max(L.grading)
    weight = None if L.toral is None else 0
    queried, query = [], ceco.cohomology_dim

    def spy(L, n, **kw):
        queried.append(kw["slice_"].degree)
        return query(L, n, **kw)

    monkeypatch.setattr(ceco, "cohomology_dim", spy)
    for n in (0, 1, 2, 3):
        want = [d for d in range(1, hi - n * lo + 1) if chain_columns(
            L, n, slice_=ComplexSlice(L, weight=weight, degree=d))]
        queried.clear()
        positive_cohomology(L, n)
        assert queried == want


def test_positive_h3_of_the_semidirect_sum():
    # the obstruction space of the positive classes of H^2 at (1, 1)
    L = _semidirect(make_w1(1, P), 1)
    assert positive_cohomology(L, 3) == (3, {5: 3})


@pytest.mark.slow
@pytest.mark.parametrize("w1n, m, per_degree", [
    (1, 2, {5: 6}), (2, 1, {20: 3, 25: 3})], ids=["1-2", "2-1"])
def test_positive_h3_at_larger_n_m(w1n, m, per_degree):
    # (2, 1) on the whole degree slices took 153 s (ROADMAP item 12)
    L = _semidirect(make_w1(w1n, P), m)
    assert positive_cohomology(L, 3)[1] == per_degree


def test_a_toral_element_outside_degree_0_has_weight_0():
    # a toral t of nonzero degree and weight breaks degree additivity
    with pytest.raises(ValueError, match="is not degree-additive"):
        LieAlgebra(P, ["t", "x"], {(0, 1): {1: 1}}, grading=[1, 0],
                   toral=0)
    # the central z of a Heisenberg algebra, of degree -1, has weight 0
    # everywhere: its weight-zero slices are the whole degree slices
    found = []
    for toral in (2, None):
        L = LieAlgebra(P, ["x", "y", "z"], {(0, 1): {2: 1}},
                       grading=[-2, 1, -1], toral=toral)
        found.append([positive_cohomology(L, n) for n in (1, 2, 3)])
    assert found[0] == found[1] == [
        (1, {3: 1}), (3, {1: 1, 2: 1, 4: 1}), (1, {3: 1})]


def test_weight_zero_cuts_columns():
    W = make_w1(2, P)
    full = chain_columns(W, 2)
    zero = chain_columns(W, 2, slice_=weight_zero_reduce(W))
    assert len(zero) * 4 < len(full)
    grade = ComplexSlice(W, weight=0).grade
    for T, t in zero[:20]:
        assert grade(T, t) == (0,)


def _deformed():
    A = make_divided_powers(1, P)
    return make_deformed(A, partial_derivation(A))


@pytest.mark.parametrize("build, weight_zero, dim", [
    (lambda: make_w1(1, P), False, 1),
    (lambda: current_algebra(make_w1(1, P), make_divided_powers(1, P)),
     True, 20),
    (_deformed, True, 4),
], ids=["w1", "w1xo1", "ldef"])
def test_representatives_are_honest(build, weight_zero, dim):
    L = build()
    slice_ = weight_zero_reduce(L) if weight_zero else None
    res = cohomology_dim(L, 2, slice_=slice_, want_reps=True)
    assert len(res.reps) == res.dim == dim
    for rep in res.reps:
        assert ce_differential(rep).is_zero()
        assert coboundary_witness(L, rep) is None
    assert class_span_dim(L, res.reps) == res.dim


@pytest.mark.parametrize("name, module, slicing, degrees", [
    ("w1xo1", "adjoint", "weight", [2]),
    ("w1_2", "adjoint", "weight", [2]),
    ("ldef", "adjoint", "weight", [2]),
    ("sl2", "trivial", None, [1, 2, 3]),
    ("w1xo1", "adjoint", "degree", [2]),
], ids=["w1xo1", "w1_2", "ldef", "sl2-trivial", "w1xo1-degree0"])
def test_representatives_match_the_greedy_loop(name, module, slicing,
                                               degrees):
    # the greedy loop over a kernel basis of all of d_n on natural
    # columns keeps each cocycle that enlarges a fresh echelon of B^n;
    # the representatives are as many cocycles on the slice, independent
    # modulo B^n, and each lies in the span of B^n and the kept ones
    L = ORACLE_ALGEBRAS[name]()
    slice_ = (None if slicing is None else
              weight_zero_reduce(L, module) if slicing == "weight" else
              ComplexSlice(L, module, degree=0))
    found = 0
    for n in degrees:
        res = cohomology_dim(L, n, module, slice_=slice_, want_reps=True)
        cols = chain_columns(L, n, module, slice_)
        mat = SparseFpMatrix(len(cols), L.p)
        for row in sorted(transpose(enumerate(_images(
                L, module, cols))).values(), key=len):
            mat.add(row)
        span = Echelon(L.p)
        for img in _whole_boundaries(L, n, module, [slice_])[1]:
            span.add(img)
        fresh = Echelon(L.p)
        for row in span.rows():
            fresh.add(row)
        kept = [z for z in ({cols[i]: c for i, c in v.items()}
                            for v in mat.kernel_basis()) if span.add(z)]
        assert (res.stats["kernel_vectors"] == len(res.reps) == res.dim
                == len(kept) == len(cols) - mat.rank - fresh.rank), n
        for rep in res.reps:
            assert rep.n == n and rep.module == module
            assert set(rep.flatten()) <= set(cols)
            assert ce_differential(rep).is_zero()
            assert span.member(rep.flatten())
            assert fresh.add(rep.flatten())
        found += res.dim
    assert found > 0


@pytest.mark.parametrize("L", [make_sl2(P), make_w1(1, P)],
                         ids=["sl2", "w1"])
@pytest.mark.parametrize("module", ["adjoint", "trivial"])
def test_euler_characteristic(L, module):
    # sum (-1)^n dim C^n = sum (-1)^n dim H^n on the whole complex and on
    # each weight slice.  rank_d at n comes from the rows of d_n, with
    # columns reordered by weight; rank_prev at n + 1 from an independent
    # echelon of d_n's column images; the two must agree.
    slices = [None] + [ComplexSlice(L, module, weight=w) for w in range(P)]
    for slice_ in slices:
        res = [cohomology_dim(L, n, module, slice_=slice_)
               for n in range(L.dim + 1)]
        assert res[0].rank_prev == 0 and res[-1].rank_d == 0
        for lo, hi in zip(res, res[1:]):
            assert lo.rank_d == hi.rank_prev
        assert (sum((-1) ** n * r.ncols for n, r in enumerate(res))
                == sum((-1) ** n * r.dim for n, r in enumerate(res)))


ORACLE_ALGEBRAS = {
    "sl2": lambda: make_sl2(P),
    "w1": lambda: make_w1(1, P),
    "w1_2": lambda: make_w1(2, P),
    "w1xo1": lambda: current_algebra(make_w1(1, P), make_divided_powers(1, P)),
    "ldef": _deformed,
}
# with every row, larger C^n take tens of seconds to eliminate
ORACLE_MAX_COLS = 2500


def _images(L, module, cols, restrict=None):
    # the reference image of each column in order, on every row or, with
    # restrict = L.tables_for(gens), on the rows whose tuple meets gens
    for T, t in cols:
        yield _reference_image(L, module, T, t, restrict)


def _stencil_rows(L, module, cols, restrict=None):
    # the rows ceco._stencil assembles on the columns (ct, key), keyed by
    # (U, k), in its order
    rows, name = ceco._stencil(L, module, cols, restrict, float("inf"), [0],
                               ())
    return {name(r): row for r, row in rows.items()}


def _whole_boundaries(L, n, module, slices):
    # the columns of C^{n-1} on the slices and their whole images, B^n
    cols = [ct for s in slices for ct in chain_columns(L, n - 1, module, s)]
    return cols, list(_images(L, module, cols))


def _rank_and_pivots(L, module, cols, gens=None):
    # the given column order, rows shortest first
    rows = transpose(enumerate(
        _images(L, module, cols, gens and L.tables_for(gens))))
    ech = Echelon(L.p)
    for row in sorted(rows.values(), key=len):
        ech.add(row)
    return ech.rank, set(ech.pivots)


def _oracle_cases(L):
    for module in ("adjoint", "trivial"):
        slices = [None, ComplexSlice(L, module, weight=0)]
        if not L.filtration:
            slices.append(ComplexSlice(L, module, degree=0))
        for slice_ in slices:
            for n in range(4):
                cols = chain_columns(L, n, module, slice_)
                if len(cols) <= ORACLE_MAX_COLS:
                    yield module, slice_, n, cols


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_generator_rows_match_all_rows(name):
    # the rows of d_n holding a generator have the kernel of all rows:
    # same rank, same pivots in the same column order
    L = ORACLE_ALGEBRAS[name]()
    cases = 0
    for module, slice_, n, cols in _oracle_cases(L):
        assert (_rank_and_pivots(L, module, cols, L.generators)
                == _rank_and_pivots(L, module, cols)), (module, n, slice_)
        cases += 1
    assert cases >= 12


def test_rows_of_a_non_generating_set_lose_rank():
    # e_-1 alone generates only its own line, so some kernel grows
    W = make_w1(1, P)
    assert W.generators == (0, W.dim - 1)
    lost = [(module, n) for module, slice_, n, cols in _oracle_cases(W)
            if _rank_and_pivots(W, module, cols, (0,))[0]
            < _rank_and_pivots(W, module, cols)[0]]
    assert lost


def _rekeyed_reference(L, module, slice_, n, cols):
    # ranks, dim and representatives with the image of d_{n-1} and the
    # rows of d_n built on natural column indices and re-keyed afterwards:
    # the image through the heaviest-first keys, its entries on tuples
    # missing L.generators dropped before elimination, its pivot columns
    # dropped from d_n, the other columns through the (weight, index)
    # order; each inserted shortest first, ties in arrival order.  The
    # rank of d_{n-1} comes from an echelon of the whole image, so that
    # the projection's rank is checked, not taken on trust
    weight = [sum(len(L.rev.get(m, ())) for m in T)
              + (len(L.ad.get(t, ())) if module == "adjoint" else 0)
              for T, t in cols]
    top, colidx = max(weight, default=0), {ct: i for i, ct in enumerate(cols)}
    whole, image = Echelon(L.p), Echelon(L.p)
    S = set(L.generators)
    _, images = _whole_boundaries(L, n, module, [slice_])
    images = [{colidx[ck]: v for ck, v in img.items()} for img in images]
    for vec in images:
        whole.add(vec)
    for vec in sorted([{(top - weight[j]) * len(cols) + j: v
                        for j, v in img.items() if S.intersection(cols[j][0])}
                       for img in images], key=len):
        image.add(vec)
    cleared = {k % len(cols) for k in image.pivots}
    rows = transpose(enumerate(_images(L, module, cols, L.generator_tables)))
    order = sorted((c for c in range(len(cols)) if c not in cleared),
                   key=lambda c: (weight[c], c))
    pos = {c: i for i, c in enumerate(order)}
    mat = SparseFpMatrix(len(order), L.p)
    for row in sorted([{pos[c]: v for c, v in row.items() if c in pos}
                       for row in rows.values()], key=len):
        mat.add(row)
    cols = [cols[j] for j in order]
    reps = [ceco._cochain(L, n, module, cols, v).coeffs
            for v in mat.kernel_basis()]
    return mat.rank, whole.rank, mat.nullity, reps


def _dense_rank(rows, ncols, p):
    # rank over F_p of the sparse rows by dense elimination in numpy
    np = pytest.importorskip("numpy")
    mat = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, row in enumerate(rows):
        for j, v in row.items():
            mat[i, j] = v % p
    rank = 0
    for c in range(ncols):
        live = np.flatnonzero(mat[rank:, c])
        if not live.size:
            continue
        mat[[rank, rank + live[0]]] = mat[[rank + live[0], rank]]
        mat[rank] = mat[rank] * pow(int(mat[rank, c]), -1, p) % p
        below = rank + live[1:]  # the other rows live at c, after the swap
        mat[below] = (mat[below] - np.outer(mat[below, c], mat[rank])) % p
        rank += 1
        if rank == len(mat):
            break
    return rank


def _boundary_ranks(L, module, slice_, n, cols, gens):
    # dense ranks of B^n whole and of its projection onto the columns
    # whose tuple meets gens, and the rows of B^n on natural indices
    colidx = {ct: i for i, ct in enumerate(cols)}
    _, images = _whole_boundaries(L, n, module, [slice_])
    rows = [{colidx[ck]: v for ck, v in img.items()} for img in images]
    kept = {i for i, (T, _) in enumerate(cols) if set(gens).intersection(T)}
    return (_dense_rank(rows, len(cols), L.p),
            _dense_rank([{j: v for j, v in row.items() if j in kept}
                         for row in rows], len(cols), L.p), rows)


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_projected_boundaries_keep_their_rank_and_clear_bijectively(
        name, monkeypatch):
    # B^n and its projection onto the tuples meeting L.generators have one
    # dense rank, and B^n maps onto the columns that cohomology_dim clears
    # (those missing from its elimination order) bijectively
    L = ORACLE_ALGEBRAS[name]()
    orders = []

    def record(*args):
        order, m = linalg.sparsest_first(*args)
        orders.append(order)
        return order, m

    monkeypatch.setattr(ceco, "sparsest_first", record)
    cases = 0
    for module, slice_, n, cols in _oracle_cases(L):
        whole, projected, rows = _boundary_ranks(L, module, slice_, n, cols,
                                                 L.generators)
        res = cohomology_dim(L, n, module, slice_=slice_)
        cleared = sorted(set(range(len(cols))) - set(orders.pop()))
        assert whole == projected == res.rank_prev == len(cleared), (
            module, n, slice_)
        at = {j: i for i, j in enumerate(cleared)}
        assert _dense_rank([{at[j]: v for j, v in row.items() if j in at}
                            for row in rows], len(cleared), L.p) == whole
        cases += whole > 0
    assert cases >= 5


def test_projection_onto_a_non_generating_set_loses_rank():
    # e_-1 alone generates only its own line, so some B^n projects onto
    # the tuples holding it with a kernel
    W = make_w1(1, P)
    lost = []
    for module, slice_, n, cols in _oracle_cases(W):
        whole, projected, _ = _boundary_ranks(W, module, slice_, n, cols, (0,))
        if projected < whole:
            lost.append((module, n))
    assert lost


def _whole_witness(L, c):
    # the witness solve_sparse finds on the whole images of the weight
    # slices c touches, against the whole c
    slices = [None]
    if L.toral is not None:
        grade = ComplexSlice(L, c.module, weight=0).grade
        slices = [ComplexSlice(L, c.module, weight=w) for w in sorted(
            {grade(T, k)[0] for T, vec in c.coeffs.items() for k in vec})]
    cols, images = _whole_boundaries(L, c.n, c.module, slices)
    sol = linalg.solve_sparse(dict(enumerate(images)), c.flatten(), L.p)
    return None if sol is None else ceco._cochain(L, c.n - 1, c.module,
                                                   cols, sol)


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_witness_on_projected_boundaries_is_the_whole_systems(name):
    # on random coboundaries of degree 1 to 3, on one weight slice or two,
    # coboundary_witness returns the witness of the whole system, term for
    # term; with one term added, a coboundary is not closed, and is none
    L = ORACLE_ALGEBRAS[name]()
    rng = random.Random(name)
    found = refused = 0
    for module in ("adjoint", "trivial"):
        for n in (1, 2, 3):
            if module == "adjoint" and n == 3 and L.dim > 5:
                continue  # the whole system takes seconds here
            weights = [0, rng.randrange(L.p)] if L.toral is not None else [0]
            below = [ct for w in sorted(set(weights)) for ct in chain_columns(
                L, n - 1, module, None if L.toral is None
                else ComplexSlice(L, module, weight=w))]
            for _ in range(3):
                psi = Cochain(L, n - 1, module, {
                    T: {t: rng.randrange(1, L.p)}
                    for T, t in rng.sample(below, min(4, len(below)))})
                c = ce_differential(psi)
                if c.is_zero():
                    continue
                w = coboundary_witness(L, c)
                assert w is not None
                assert w.coeffs == _whole_witness(L, c).coeffs, (module, n)
                assert ce_differential(w).flatten() == c.flatten()
                T, t = rng.choice(chain_columns(L, n, module))
                bad = c.add(Cochain(L, n, module, {T: {t: 1}}))
                if closure_failure(bad):
                    assert coboundary_witness(L, bad) is None
                    assert _whole_witness(L, bad) is None
                    refused += 1
                found += 1
    assert found >= 12 and refused >= 4, (found, refused)


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_rows_keyed_by_position_match_rekeyed_rows(name):
    # cohomology_dim keys each entry of d_n by its elimination position as
    # it is written; the ranks, the dim and the representatives, in order,
    # are those of rows re-keyed after assembly
    L = ORACLE_ALGEBRAS[name]()
    for module, slice_, n, cols in _oracle_cases(L):
        res = cohomology_dim(L, n, module, slice_=slice_, want_reps=True)
        assert ((res.rank_d, res.rank_prev, res.dim,
                 [c.coeffs for c in res.reps])
                == _rekeyed_reference(L, module, slice_, n, cols)), (
                    module, n, slice_)


def _assembled_rows(L, module, slice_, n, cols, monkeypatch):
    # the rows of d_n that cohomology_dim assembles, re-keyed by natural
    # column index, against the transposed reference images of the
    # columns it keeps: keys, values, row order and entry order; returns
    # whether rows in plain first-touch order (no row deleted when a
    # cancellation empties it) would have been in another order
    orders, assembled = [], []

    def record_order(*args):
        order, m = linalg.sparsest_first(*args)
        orders.append(order)
        return order, m

    def record_rows(*args):
        rows, name = stencil(*args)
        assembled.append([(name(r), dict(row)) for r, row in rows.items()])
        return rows, name

    stencil = ceco._stencil
    monkeypatch.setattr(ceco, "sparsest_first", record_order)
    monkeypatch.setattr(ceco, "_stencil", record_rows)
    cohomology_dim(L, n, module, slice_=slice_)
    monkeypatch.undo()
    order = orders.pop()
    kept = set(order)
    got = [(key, [(order[i], c) for i, c in row.items()])
           for key, row in assembled[-1]]
    touched = []
    want = transpose((j, _reference_image(L, module, T, t, L.generator_tables,
                                          touched))
                     for j, (T, t) in enumerate(cols) if j in kept)
    assert got == [(key, list(row.items())) for key, row in want.items()], (
        module, n, slice_)
    return list(dict.fromkeys(k for k in touched if k in want)) != list(want)


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_assembled_rows_are_the_transposed_images_in_order(name, monkeypatch):
    # cohomology_dim writes each stencil entry straight into its row of
    # d_n; the rows, their order and their entries' order are those of
    # transposing the images of the kept columns, so every pivot row and
    # representative is the one of a transpose.  On weight-zero H^2 of
    # W1(2) a cancellation empties a row in the column that made it, so
    # plain first-touch order would differ there
    L = ORACLE_ALGEBRAS[name]()
    sharp = set()
    for module, slice_, n, cols in _oracle_cases(L):
        if _assembled_rows(L, module, slice_, n, cols, monkeypatch):
            sharp.add((module, slice_ and slice_.descriptor()["weight"], n))
    if name == "w1_2":
        assert ("adjoint", 0, 2) in sharp


@pytest.mark.slow
@pytest.mark.parametrize("name", ["w1xo1", "w1_2"])
def test_assembled_rows_are_the_transposed_images_at_p7(name, monkeypatch):
    # the benchmark-sized assembly: weight-zero H^2 at p = 7, 8 232 columns
    L = {"w1xo1": lambda: current_algebra(make_w1(1, 7),
                                          make_divided_powers(1, 7)),
         "w1_2": lambda: make_w1(2, 7)}[name]()
    slice_ = weight_zero_reduce(L)
    cols = chain_columns(L, 2, slice_=slice_)
    assert len(cols) == 8232
    _assembled_rows(L, "adjoint", slice_, 2, cols, monkeypatch)


def test_budget_trips_after_the_column_that_passes_it():
    # the budget counts each column's distinct nonzero entries and is
    # checked after each column: weight-zero H^2 of W1(1)(x)O1(1) at
    # p = 5 charges 8 150 entries, so 8 149 is refused and 8 150 is not
    L = ORACLE_ALGEBRAS["w1xo1"]()
    slice_ = weight_zero_reduce(L)
    assert cohomology_dim(L, 2, slice_=slice_).stats["budget_used"] == 8150
    with pytest.raises(BudgetExceeded, match="8149-entry budget"):
        cohomology_dim(L, 2, slice_=slice_, budget=8149)
    assert cohomology_dim(L, 2, slice_=slice_, budget=8150).dim == 20


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_closure_on_generator_rows_matches_the_differential(name):
    # closure_failure sums only the rows of d that meet L.generators; on
    # every elementary 1-cochain, on weight-zero cocycles and coboundaries
    # of degree 1 and 2, and on each of those with one term added, it
    # finds the failure of the whole differential, and _check_closed
    # raises it with the same triple
    L = ORACLE_ALGEBRAS[name]()
    rng = random.Random(name)
    found = {True: 0, False: 0}
    for module in ("adjoint", "trivial"):
        slice_ = weight_zero_reduce(L, module)
        cochains = [Cochain(L, 1, module, {T: {t: 1}})
                    for T, t in chain_columns(L, 1, module)]
        for n in (1, 2):
            closed = cohomology_dim(L, n, module, slice_=slice_,
                                    want_reps=True).reps
            below = chain_columns(L, n - 1, module, slice_)
            closed += [ce_differential(Cochain(L, n - 1, module, {
                T: {t: rng.randrange(1, L.p)}
                for T, t in rng.sample(below, min(3, len(below)))}))]
            cols = chain_columns(L, n, module, slice_)
            cochains += closed + [c.add(Cochain(L, n, module, {T: {t: 1}}))
                                  for c in closed
                                  for T, t in [rng.choice(cols)]]
        for c in cochains:
            dc = ce_differential(c)
            want = None if dc.is_zero() else (min(dc.coeffs),
                                              dc.coeffs[min(dc.coeffs)])
            assert closure_failure(c) == want, (module, c.coeffs)
            found[want is None] += 1
            if want is not None:
                with pytest.raises(CocycleError) as e:
                    _check_closed(c, "family")
                assert e.value.triple == tuple(L.labels[x] for x in want[0])
                assert e.value.value == want[1]
    assert found[True] >= 4 and found[False] >= 15, found


def test_non_lie_input_is_rejected():
    # [[a,b],c] + [[b,c],a] + [[c,a],b] = [a,c] + [b,c] = c; the padding
    # takes dim to 33, as no dimension lets a non-Lie bracket through
    labels = ["x%d" % i for i in range(33)]
    L = LieAlgebra(P, labels, {(0, 1): {0: 1}, (0, 2): {2: 1}})
    assert not L.jacobi_checked
    with pytest.raises(ValueError, match=r"Jacobi fails on \(x0, x1, x2\)"):
        cohomology_dim(L, 2)
    with pytest.raises(ValueError, match="Jacobi fails"):
        cohomology_dim(L, 1, module="trivial")


def test_budget_is_enforced():
    L = current_algebra(make_w1(1, P), make_divided_powers(1, P))
    with pytest.raises(BudgetExceeded):
        cohomology_dim(L, 2, budget=10)


def test_budget_refuses_before_enumerating(monkeypatch):
    # C(25, 6) = 177 100 tuples are over a budget of 10^5
    def enumerate_nothing(*args):
        raise AssertionError("chain_columns ran on an over-budget query")

    monkeypatch.setattr(ceco, "chain_columns", enumerate_nothing)
    W = make_w1(2, P)
    with pytest.raises(BudgetExceeded, match=r"C\^6 has over 100000 tuples"):
        cohomology_dim(W, 6, slice_=weight_zero_reduce(W), budget=10 ** 5)


def test_budget_message_names_the_slice_and_gives_no_advice():
    # the advice is the command's (test_cli), in its own words
    W = make_w1(2, P)
    with pytest.raises(BudgetExceeded) as sliced:
        cohomology_dim(W, 2, slice_=weight_zero_reduce(W), budget=500)
    assert str(sliced.value) == (
        "differential on the slice weight=0 exceeds the 500-entry budget")
    L = LieAlgebra(P, W.labels, W.bracket, grading=W.grading)
    for M in (W, L):  # with a toral element and without
        with pytest.raises(BudgetExceeded) as whole:
            cohomology_dim(M, 2, budget=500)
        assert str(whole.value) == "differential exceeds the 500-entry budget"
    with pytest.raises(BudgetExceeded) as tuples:
        cohomology_dim(W, 2, budget=10)
    assert str(tuples.value) == "C^2 has over 10 tuples to enumerate"


def test_class_span_budget_is_enforced():
    W = make_w1(1, P)
    f = phi21(W)
    assert class_span_dim(W, [f], budget=100) == 1
    with pytest.raises(BudgetExceeded):
        class_span_dim(W, [f], budget=1)


def test_leaking_slice_raises():
    # a weight that some bracket term [e_i, e_j] -> e_x does not add up to
    # lets d leave the slice, which is refused when it is built: on e_-1,
    # a generator, and on e_1, which is none (the weights of W are kept)
    for x in (0, 2):
        W = make_w1(1, P)
        assert (x in W.generators) == (x == 0)
        W.weights = [w + (k == x) for k, w in enumerate(W.weights)]
        with pytest.raises(ValueError, match="not closed under d: the weight"):
            weight_zero_reduce(W)
        del W.weights
        weight_zero_reduce(W)


def test_non_lie_bracket_is_named_before_a_slice_is_checked():
    # [x, y] = x breaks Jacobi and the additivity of the weights of h
    L = LieAlgebra(P, ["h", "x", "y"],
                   {(0, 1): {1: 1}, (0, 2): {2: -1}, (1, 2): {1: 1}}, toral=0)
    with pytest.raises(ValueError, match=r"Jacobi fails on \(h, x, y\)"):
        weight_zero_reduce(L)


def test_leaking_degree_slice_raises():
    # a degree that is not additive, on a generator and on a non-generator
    for x in (0, 2):
        W = make_w1(1, P)
        assert (x in W.generators) == (x == 0)
        W.grading[x] += 1
        with pytest.raises(ValueError, match="not closed under d: the degree"):
            ComplexSlice(W, degree=0)
        with pytest.raises(ValueError, match="not closed under d"):
            ComplexSlice(W, weight=0, degree=0)


@pytest.mark.parametrize("grade", [
    {"weight": 0.5}, {"degree": 1.5}, {"weight": "0"}, {"weight": 0.0},
    {"weight": True}, {"degree": False},
], ids=["weight-0.5", "degree-1.5", "weight-str", "weight-0.0", "weight-bool",
        "degree-bool"])
def test_slice_grade_must_be_an_int(grade):
    # weight 0.5 or degree 1.5 selected no column and gave dim 0, weight
    # '0' failed in string formatting, and weight 0.0 computed under the
    # cache key 0.0, not 0
    W, (name,) = make_w1(1, P), grade
    with pytest.raises(ValueError, match="%s must be an integer" % name):
        cohomology_dim(W, 2, slice_=ComplexSlice(W, **grade))


def test_cochains_on_another_algebra_are_not_added():
    # the sum was a cochain on Ab holding phi21's coefficients, which
    # closure_failure called closed
    W = make_w1(1, P)
    Ab = LieAlgebra(P, list("abcde"), {})
    z = Cochain(Ab, 2, "adjoint")
    with pytest.raises(ValueError, match="mismatch: .* on W1\\(1\\), .*, not "
                       "<Cochain n=2 adjoint on L, 0 terms>"):
        z.add(phi21(W))
    assert z.add(Cochain(Ab, 2, "adjoint", {(0, 1): {2: 1}})).coeffs == {
        (0, 1): {2: 1}}


def test_budget_counts_only_the_generator_coordinates():
    # B^n and d_n are assembled on the tuples meeting L.generators alone,
    # so the budget is charged exactly the entries that are eliminated
    L = current_algebra(make_w1(1, 7), make_divided_powers(1, 7))
    stats = cohomology_dim(L, 2, slice_=weight_zero_reduce(L)).stats
    assert (stats["nnz"], stats["nnz_prev"]) == (44638, 1149)
    assert stats["budget_used"] == stats["nnz"] + stats["nnz_prev"]


def test_slice_for_the_other_module_is_refused():
    # the adjoint slice's columns are not those of the trivial complex:
    # read as such it gave dim 0 where the true value is 1
    W = make_w1(1, P)
    assert cohomology_dim(W, 2, module="trivial").dim == 1
    assert cohomology_dim(W, 2, module="trivial",
                          slice_=weight_zero_reduce(W, "trivial")).dim == 1
    with pytest.raises(ValueError, match="adjoint module, not the trivial"):
        cohomology_dim(W, 2, module="trivial", slice_=weight_zero_reduce(W))
    with pytest.raises(ValueError, match="trivial module, not the adjoint"):
        cohomology_dim(W, 2, slice_=weight_zero_reduce(W, "trivial"))
    with pytest.raises(ValueError, match="adjoint module, not the trivial"):
        chain_columns(W, 2, "trivial", weight_zero_reduce(W))


def test_slice_of_another_algebra_is_refused():
    W, V = make_w1(1, P), make_w1(1, P)
    with pytest.raises(ValueError, match="another algebra than W"):
        cohomology_dim(W, 2, slice_=weight_zero_reduce(V))
    with pytest.raises(ValueError, match="another algebra than W"):
        chain_columns(W, 1, slice_=weight_zero_reduce(V))
    assert (cohomology_dim(W, 2, slice_=weight_zero_reduce(W)).dim
            == cohomology_dim(V, 2, slice_=weight_zero_reduce(V)).dim)


def test_cochain_add_scale_and_mismatch():
    W = make_w1(1, P)
    f = phi21(W)
    z = f.add(f, scale=-1)
    assert z.is_zero()
    g = f.scale(3)
    assert g.add(f, scale=-3).is_zero()
    with pytest.raises(ValueError):
        f.add(Cochain(W, 1, "adjoint", {}))


# ------------------------------------------------- enumeration and stencil
# oracles: the column filter and the per-column stencil as they were
# before grade buckets and shared bracket terms


def _reference_admits(slice_, T, t):
    # the weight and degree sums of a column, written out
    L, adj = slice_.L, slice_.module == "adjoint"
    if slice_.weight is not None:
        w = L.weights
        if (-sum(w[x] for x in T) + (w[t] if adj else 0)) % L.p \
                != slice_.weight:
            return False
    if slice_.degree is not None:
        g = L.grading
        if -sum(g[x] for x in T) + (g[t] if adj else 0) != slice_.degree:
            return False
    return True


def _reference_columns(L, n, module, slice_):
    # every one of the C(dim, n) * dim candidates through the filter
    targets = range(L.dim) if module == "adjoint" else (0,)
    return [(T, t) for T in itertools.combinations(range(L.dim), n)
            for t in targets
            if slice_ is None or _reference_admits(slice_, T, t)]


def _reference_image(L, module, T, t, restrict=None, touched=None):
    # the stencil of one column, its bracket terms recomputed per target;
    # each key written is appended to touched
    p = L.p
    touched = [] if touched is None else touched
    img = {}
    ad, rev = L.ad, L.rev
    if restrict is not None:
        S, ad_S, rev_S = restrict
        hits = sum(x in S for x in T)
        if not hits:
            ad = ad_S
    if module == "adjoint":
        for z, vec in ad.get(t, ()):
            if z in T:
                continue
            pos = bisect_left(T, z)
            U = T[:pos] + (z,) + T[pos:]
            sgn = -1 if pos % 2 else 1
            for k, c in vec.items():
                key = (U, k)
                touched.append(key)
                y = (img.get(key, 0) + sgn * c) % p
                if y:
                    img[key] = y
                else:
                    del img[key]
    for a, m in enumerate(T):
        rest = T[:a] + T[a + 1:]
        table = rev
        if restrict is not None and hits == (m in S):
            table = rev_S
        for (i, j), c in table.get(m, ()):
            if i in rest or j in rest:
                continue
            pi = bisect_left(rest, i)
            pj = bisect_left(rest, j) + 1
            U = tuple(sorted(rest + (i, j)))
            key = (U, t)
            touched.append(key)
            y = (img.get(key, 0) + (-c if (a + pi + pj) % 2 else c)) % p
            if y:
                img[key] = y
            else:
                del img[key]
    return img


# whole-complex C^3 of the 25-dimensional algebras has 57 500 columns;
# their images are compared under --runslow
STENCIL_MAX_COLS = 6000


def _stencil_cases(L):
    for module in ("adjoint", "trivial"):
        slices = [None, ComplexSlice(L, module, weight=0),
                  ComplexSlice(L, module, weight=2)]
        if not L.filtration:
            slices += [ComplexSlice(L, module, degree=0),
                       ComplexSlice(L, module, degree=-1),
                       ComplexSlice(L, module, weight=0, degree=0),
                       ComplexSlice(L, module, weight=1, degree=-2)]
        for slice_ in slices:
            for n in range(4):
                yield module, slice_, n


def _check_stencil(L, big):
    # every column list in order; every image on every row, from the rows
    # ceco._stencil assembles for all columns at once, and on the generator
    # rows, from the B^(n+1) images of _coboundaries; and each column's
    # image alone, key order included, on both
    restrict = L.generator_tables
    compared = 0
    for module, slice_, n in _stencil_cases(L):
        cols = chain_columns(L, n, module, slice_)
        assert cols == _reference_columns(L, n, module, slice_), \
            (module, n, slice_ and slice_.descriptor())
        if (len(cols) > STENCIL_MAX_COLS) != big:
            continue
        whole = transpose(_stencil_rows(
            L, module, zip(cols, itertools.count())).items())
        _, projected = ceco._coboundaries(L, n + 1, module, [slice_],
                                          10 ** 9, [0])
        for rs, got in ((None, (whole.get(j, {}) for j in range(len(cols)))),
                        (restrict, projected)):
            for (T, t), img in zip(cols, got):
                want = _reference_image(L, module, T, t, rs)
                alone = _stencil_rows(L, module, [((T, t), 0)], rs)
                assert img == want and list(want.items()) == [
                    (key, row[0]) for key, row in alone.items()], \
                    (module, n, T, t, rs is None)
                compared += 1
    return compared


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_columns_and_stencil_match_the_reference(name):
    assert _check_stencil(ORACLE_ALGEBRAS[name](), big=False) > 100


@pytest.mark.slow
@pytest.mark.parametrize("name", ["w1_2", "w1xo1", "ldef"])
def test_columns_and_stencil_match_the_reference_on_whole_c3(name):
    assert _check_stencil(ORACLE_ALGEBRAS[name](), big=True) > 40000


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_ce_differential_sums_reference_images(name):
    L = ORACLE_ALGEBRAS[name]()
    rng = random.Random(name)
    nonzero = 0
    for module in ("adjoint", "trivial"):
        for n in range(3):
            c = random_cochain(L, n, module, rng)
            want = defaultdict(dict)
            for T, vec in c.coeffs.items():
                for t, a in vec.items():
                    for (U, k), v in _reference_image(
                            L, module, T, t).items():
                        want[U][k] = (want[U].get(k, 0) + a * v) % L.p
            got = ce_differential(c)
            assert got.flatten() == Cochain(L, n + 1, module,
                                            want).flatten(), (module, n)
            nonzero += not got.is_zero()
    assert nonzero >= 4


def test_enumeration_asks_one_grade_per_tuple_and_target(monkeypatch):
    # the bucket a tuple reads holds exactly its columns, so a grade is
    # asked once per target and once per tuple (300 + 25), never per
    # column of the 1 500, nor of all C(25, 2) * 25 candidates
    W = make_w1(2, P)
    calls = []
    grade = ComplexSlice.grade
    monkeypatch.setattr(ComplexSlice, "grade", lambda self, T, t=None: (
        calls.append((T, t)) or grade(self, T, t)))
    cols = chain_columns(W, 2, slice_=weight_zero_reduce(W))
    assert len(cols) == 1500 < comb(W.dim, 2) * W.dim == 7500
    assert len(calls) == comb(W.dim, 2) + W.dim == 325
