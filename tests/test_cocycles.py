"""The named 2-cocycle families: closure of each family, the guards on
their hypotheses, the sign of the lifted middle correction, restriction
relations between lifted and plain families, the coefficient-identity
checker with mutation, and filtered deformations built from directions."""

import pytest

from modlie.arith import lambda_table, n_div_p
from modlie.ceco import (
    Cochain,
    ce_differential,
    class_span_dim,
    cohomology_dim,
    massey_bracket,
    weight_zero_reduce,
)
from modlie.cocycles import (
    CocycleError,
    build_filtered_deformation,
    lambda_identities_check,
    lifted_phi,
    lifted_psi,
    lifted_theta,
    lifted_upsilon,
    phi21,
    phi_big,
    psi,
    psi_t,
    theta,
    theta_prime,
    upsilon,
)
from modlie.commalg import (
    Derivation,
    SymmetricBilinearMap,
    basic_harrison_cocycle,
    d_invariants,
    der_coinvariants,
    der_invariants,
    harrison_h2,
    harrison_h2_d_invariants,
    make_divided_powers,
    partial_derivation,
    scale_derivation,
    zero_derivation,
)
from modlie.linalg import (LinearMap, family_add, tensor_index, tensor_pair,
                           vec_add, vec_scale)
from modlie.liealg import (
    LieAlgebra,
    current_algebra,
    find_proper_ideal,
    kuznetsov_map,
    make_deformed,
    make_sl2,
    make_w1,
    semidirect_current,
)

P = 5


def value(c, *xs):
    """The alternating cochain c at distinct basis indices xs in any
    order: its stored entry at sorted(xs), times the sign of the sort."""
    assert len(set(xs)) == len(xs)
    sign = (-1) ** sum(x > y for i, x in enumerate(xs) for y in xs[i + 1:])
    return vec_scale(c.coeffs.get(tuple(sorted(xs)), {}), sign, c.L.p)


def at(i, a):
    """The position of e_i (x) a_a in W1(1) (x) A at p = P."""
    return tensor_index(i + 1, a, P)


@pytest.fixture(scope="module")
def setup():
    W = make_w1(1, P)
    A = make_divided_powers(1, P)
    d = partial_derivation(A)
    return {
        "W": W, "A": A, "d": d,
        "L": current_algebra(W, A),
        "Ld": make_deformed(A, d),
    }


def test_phi21_support_and_guards(setup):
    W = setup["W"]
    f = phi21(W)  # closed by construction check
    # support: exactly the pairs with i + j >= p - 1, value (N_ij/p) e_{i+j-p}
    assert f.coeffs == {(2, 4): {0: n_div_p(1, 3, P)},
                        (3, 4): {1: n_div_p(2, 3, P)}}
    assert coeffs_nonzero(f)
    with pytest.raises(ValueError):
        phi21(make_w1(2, P))  # N_{-1,p} = 1 blocks the n >= 2 analogue
    with pytest.raises(ValueError):
        phi21(make_sl2(P))


def coeffs_nonzero(c):
    return all(v for vec in c.coeffs.values() for v in vec.values())


def test_phi21_represents_h2(setup):
    W = setup["W"]
    assert class_span_dim(W, [phi21(W)]) == 1 == cohomology_dim(W, 2).dim


def test_theta_family(setup):
    W, A, L = setup["W"], setup["A"], setup["L"]
    f = phi21(W)
    cs = [theta(L, f, {a: 1}) for a in range(A.dim)]  # closed via check
    assert class_span_dim(L, cs) == 5
    # Theta_{phi,1}(e_i (x) 1, e_j (x) 1) = phi(e_i, e_j) (x) 1
    t0 = theta(L, f, A.unit_vec)
    assert value(t0, at(1, 0), at(3, 0)) == {at(-1, 0): 1}
    # the A-argument multiplies through: (e_1 (x) x, e_3 (x) x) -> 2 x^2
    assert value(t0, at(1, 1), at(3, 1)) == {at(-1, 2): 2}


def test_theta_extends_by_zero_on_tails(setup):
    W, A, d = setup["W"], setup["A"], setup["d"]
    Lsd = semidirect_current(W, A, d)
    t = theta(Lsd, phi21(W), A.unit_vec)  # closure checked on 26 dims
    for (x, y) in t.coeffs:
        assert x < 25 and y < 25


def test_upsilon_family(setup):
    A, L = setup["A"], setup["L"]
    F = basic_harrison_cocycle(A, 1)
    u = upsilon(L, F)
    # [e_0 (x) x^3, e_1 (x) x^2] = N_01 e_1 (x) F(x^3, x^2) = e_1 (x) 2
    assert value(u, at(0, 3), at(1, 2)) == {at(1, 0): 2}
    cs = [upsilon(L, G) for G in harrison_h2(A)[1]]
    assert class_span_dim(L, cs) == 5


def test_upsilon_rejects_non_cocycles(setup):
    A, L = setup["A"], setup["L"]
    bad = SymmetricBilinearMap(A, {(1, 1): {0: 1}})
    with pytest.raises(CocycleError) as e:
        upsilon(L, bad)
    assert e.value.family == "Upsilon"


def test_psi_family(setup):
    A, L, d = setup["A"], setup["L"], setup["d"]
    c = psi(L, d)
    # (e_i (x) a, e_j (x) b) -> e_{i+j} (x) (binom(i+j+1,j) b d(a)
    #                                       - binom(i+j+1,i) a d(b))
    # at (e_0 (x) x, e_1 (x) 1): binom(2,1) d(x) - 0 = 2
    assert value(c, at(0, 1), at(1, 0)) == {at(1, 0): 2}
    cs = [psi(L, scale_derivation(d, {a: 1})) for a in range(A.dim)]
    assert class_span_dim(L, cs) == 5
    assert psi(L, zero_derivation(A)).is_zero()


def test_phi_big_family(setup):
    A, L, d = setup["A"], setup["L"], setup["d"]
    c = phi_big(L, d)
    # only (e_-1 (x) a, e_-1 (x) b) pairs hit, landing on e_{p-2}
    assert value(c, at(-1, 0), at(-1, 1)) == {at(3, 0): 1}
    assert value(c, at(0, 0), at(1, 0)) == {}
    cs = [phi_big(L, scale_derivation(d, {a: 1})) for a in range(A.dim)]
    assert class_span_dim(L, cs) == 5


def test_the_four_plain_families_are_jointly_independent(setup):
    W, A, L, d = setup["W"], setup["A"], setup["L"], setup["d"]
    cs = []
    cs += [theta(L, phi21(W), {a: 1}) for a in range(A.dim)]
    cs += [upsilon(L, G) for G in harrison_h2(A)[1]]
    cs += [psi(L, scale_derivation(d, {a: 1})) for a in range(A.dim)]
    cs += [phi_big(L, scale_derivation(d, {a: 1})) for a in range(A.dim)]
    span = class_span_dim(L, cs)
    assert span == len(cs) == 20
    assert span == cohomology_dim(L, 2, slice_=weight_zero_reduce(L)).dim


def test_psi_t_guards():
    W2 = make_w1(2, P)
    c = psi_t(W2, 1)
    assert c.coeffs == {(0, 5): {24: 1}}
    with pytest.raises(ValueError):
        psi_t(make_w1(1, P), 1)
    with pytest.raises(ValueError):
        psi_t(W2, 2)
    with pytest.raises(ValueError):
        psi_t(make_sl2(P), 1)


def test_lifted_theta_sign_is_forced(setup):
    Ld = setup["Ld"]
    lt = lifted_theta(Ld)          # top - middle; closed by its check
    tp = theta_prime(Ld)           # the middle line alone
    assert not tp.is_zero()
    # the top + middle combination (top = lt + tp) is NOT closed:
    printed = lt.add(tp, scale=2)
    r = ce_differential(printed)
    assert not r.is_zero()
    # a residual: d at (e_-1 (x) 1, e_-1 (x) x, e_1 (x) 1)
    assert value(r, at(-1, 0), at(-1, 1), at(1, 0)) == {at(-1, 0): 2}
    # and the residual is exactly twice d(theta_prime)
    assert r.flatten() == ce_differential(tp).scale(2).flatten()


def test_lifted_theta_tops_restrict_to_theta(setup):
    W, A, L, Ld = setup["W"], setup["A"], setup["L"], setup["Ld"]
    lt = lifted_theta(Ld)
    top = lt.add(theta_prime(Ld))
    plain = theta(L, phi21(W), A.unit_vec)
    assert top.coeffs == plain.coeffs


def test_lifted_theta_needs_constant_u(setup):
    Ld = setup["Ld"]
    with pytest.raises(ValueError):
        lifted_theta(Ld, u={1: 1})  # d(x) = 1 != 0
    # scaled constants are fine
    assert not lifted_theta(Ld, u={0: 2}).is_zero()


def test_lifted_upsilon_family(setup):
    A, d, Ld = setup["A"], setup["d"], setup["Ld"]
    pairs = harrison_h2_d_invariants(A, d)[1]
    assert len(pairs) == 1
    F, H = pairs[0]
    c = lifted_upsilon(Ld, F, H)
    assert not c.is_zero()
    # solving for H internally gives a closed cochain too
    c2 = lifted_upsilon(Ld, F)
    assert not c2.is_zero()
    # a class without a potential is refused
    misses = 0
    for G in harrison_h2(A)[1]:
        try:
            lifted_upsilon(Ld, G)
        except ValueError:
            misses += 1
    assert misses == 4


def test_lifted_upsilon_with_zero_direction_restricts(setup):
    A, L = setup["A"], setup["L"]
    Ld0 = make_deformed(A, zero_derivation(A))
    F = basic_harrison_cocycle(A, 1)
    lifted = lifted_upsilon(Ld0, F)
    plain = upsilon(L, F)
    assert lifted.coeffs == plain.coeffs


@pytest.mark.parametrize("m", [1, 2])
def test_lifted_upsilon_is_upsilon_plus_the_deformation_line(m):
    # off the (e_-1, e_-1) block the lifted cocycle is the plain one; on
    # it, e_{p-2} (x) (bH(a) - aH(b) - F(D(a), b) + F(a, D(b)))
    A = make_divided_powers(m, P)
    d = partial_derivation(A)
    L = current_algebra(make_w1(1, P), A)
    Ld = make_deformed(A, d)
    pairs = harrison_h2_d_invariants(A, d)[1]
    assert pairs
    on_line = 0
    for F, H in pairs:
        lifted = lifted_upsilon(Ld, F, H)
        plain = upsilon(L, F)
        Hmap = LinearMap(A, A, H)
        for T in set(lifted.coeffs) | set(plain.coeffs):
            (i, a), (j, b) = (tensor_pair(x, P) for x in T)
            want = plain.coeffs.get(T, {})
            if i == j == 0:  # e_-1 (x) a, e_-1 (x) b
                want = vec_add(want, upsilon_line(A, F, Hmap, d, a, b), P)
                on_line += bool(want)
            assert lifted.coeffs.get(T, {}) == want
    assert on_line  # the line is not empty, so the check above bites


def upsilon_line(A, F, H, D, a, b):
    ea, eb = {a: 1}, {b: 1}
    v = vec_add(A.mul(eb, H(ea)), vec_scale(A.mul(ea, H(eb)), -1, P), P)
    v = vec_add(v, vec_scale(F.eval_vec(D(ea), eb), -1, P), P)
    v = vec_add(v, F.eval_vec(ea, D(eb)), P)
    return {at(P - 2, k): c for k, c in v.items()}


def test_lifted_psi_family(setup):
    A, d, Ld = setup["A"], setup["d"], setup["Ld"]
    c = lifted_psi(Ld, d)
    assert not c.is_zero()
    # E must commute with the direction: x d does not
    with pytest.raises(ValueError):
        lifted_psi(Ld, scale_derivation(d, {1: 1}))


def test_lifted_psi_restricts_to_psi_off_the_deformation_line(setup):
    A, L, d, Ld = setup["A"], setup["L"], setup["d"], setup["Ld"]
    # with E = D the extra line E(a) D(b) - E(b) D(a) dies by commutativity,
    # so the lifted cocycle coincides with the plain one outright
    assert lifted_psi(Ld, d).coeffs == psi(L, d).coeffs
    # height two: E = d^(5) commutes with d but differs from it, so the
    # line survives on the (e_-1, e_-1) block and only there
    A2 = make_divided_powers(2, P)
    d2 = partial_derivation(A2)
    E = Derivation(A2, {j: {j - P: 1} for j in range(P, A2.dim)})  # d^(p)
    lifted = lifted_psi(make_deformed(A2, d2), E)
    plain = psi(current_algebra(make_w1(1, P), A2), E)
    for T in set(lifted.coeffs) | set(plain.coeffs):
        (i, a), (j, b) = (tensor_pair(x, P) for x in T)
        want = plain.coeffs.get(T, {})
        if i == j == 0:  # e_-1 (x) a, e_-1 (x) b
            want = vec_add(want, deformation_line(A2, E, d2, a, b), P)
        assert lifted.coeffs.get(T, {}) == want
    # frozen sample: (e_-1 x x, e_-1 x x^(5)) -> -e_3 x 1, invisible to
    # plain psi
    x, x5 = at(-1, 1), at(-1, 5)
    assert value(plain, x, x5) == {}
    assert value(lifted, x, x5) == {at(3, 0): P - 1}


def deformation_line(A, E, D, a, b):
    v = vec_add(A.mul(E({a: 1}), D({b: 1})),
                vec_scale(A.mul(E({b: 1}), D({a: 1})), -1, A.p), A.p)
    return {at(P - 2, k): c for k, c in v.items()}


def test_lifted_phi_equals_phi_big(setup):
    Ld, d = setup["Ld"], setup["d"]
    assert lifted_phi(Ld, d).coeffs == phi_big(Ld, d).coeffs


def test_lifted_families_span_h2_at_height_two(setup):
    A, d = setup["A"], setup["d"]
    Ld = setup["Ld"]
    four = [
        lifted_theta(Ld, d_invariants(A, d)[0]),
        lifted_upsilon(Ld, *harrison_h2_d_invariants(A, d)[1][0]),
        lifted_psi(Ld, der_invariants(A, d)[0]),
        lifted_phi(Ld, der_coinvariants(A, d)[1][0]),
    ]
    assert class_span_dim(Ld, four) == 4
    assert cohomology_dim(Ld, 2, slice_=weight_zero_reduce(Ld)).dim == 4


def test_lambda_identities_pass():
    for p in (5, 7):
        rep = lambda_identities_check(p)
        assert rep["ok"]
        assert rep["violations"] == []


def test_lambda_identities_catch_mutations():
    tab = lambda_table(P)
    tab[(2, 0)] = (tab[(2, 0)] + 1) % P
    rep = lambda_identities_check(P, lam=tab)
    assert not rep["ok"]
    assert len(rep["violations"]) == 5
    assert sorted({v["identity"] for v in rep["violations"]}) == [
        "mixing", "recurrence"]


def test_filtered_deformation_reproduces_the_deformed_algebra(setup):
    A, L, d, Ld = setup["A"], setup["L"], setup["d"], setup["Ld"]
    out = build_filtered_deformation(L, phi_big(L, d))
    assert out.bracket == Ld.bracket
    assert out.filtration
    assert out.jacobi_checked
    assert out.meta["base"] is L


@pytest.mark.parametrize("p, m", [(5, 1), (5, 2), (7, 1)])
@pytest.mark.parametrize("direction", [partial_derivation, zero_derivation])
def test_deformed_bracket_is_the_current_bracket_plus_phi(p, m, direction):
    # key order included: L(A, D) is W1(1) (x) A deformed by Phi_D
    A = make_divided_powers(m, p)
    D = direction(A)
    Ld = make_deformed(A, D)
    cur = current_algebra(make_w1(1, p), A)
    want = family_add(cur.bracket, phi_big(cur, D).coeffs, p)
    assert list(Ld.bracket.items()) == list(want.items())
    assert Ld.meta["base"].bracket == cur.bracket


def test_every_deformation_records_its_base():
    f = kuznetsov_map(2, P)
    base = f.target.meta["base"]
    assert base.meta["kind"] == "current"
    assert not base.filtration and base.labels == f.target.labels


def test_filtered_deformation_with_zero_direction(setup):
    L = setup["L"]
    out = build_filtered_deformation(L, Cochain(L, 2, "adjoint", {}))
    assert out.bracket == L.bracket


def test_filtered_deformation_of_w1_2():
    W2 = make_w1(2, P)
    bf = build_filtered_deformation(W2, psi_t(W2, 1))
    # [e_-1, e_4] picks up the top term e_23 next to the current e_3
    assert bf.bracket[(0, 5)] == {4: 1, 24: 1}
    assert bf.jacobi_checked
    assert find_proper_ideal(bf) is None


def test_filtered_deformation_guards(setup):
    W, L, Ld = setup["W"], setup["L"], setup["Ld"]
    # base must be honestly graded
    with pytest.raises(ValueError):
        build_filtered_deformation(Ld, Cochain(Ld, 2, "adjoint", {}))
    # direction must be a cochain on the same algebra object
    with pytest.raises(ValueError):
        build_filtered_deformation(L, phi21(W))
    # non-closed direction: (e_-1, e_0) -> e_0 has positive degree but
    # fails the differential
    with pytest.raises(CocycleError):
        build_filtered_deformation(
            W, Cochain(W, 2, "adjoint", {(0, 1): {1: 1}}))
    # closed but not positive: phi21 sits in degree -p
    with pytest.raises(ValueError):
        build_filtered_deformation(W, phi21(W))


def test_filtered_deformation_obstruction():
    # an abelian graded algebra where the Massey square survives:
    # f(e0, e1) = e2 and f(e2, e3) = e4 feed each other on (e0, e1, e3)
    L = LieAlgebra(P, list("abcde"), {}, grading=[0, 0, 1, 0, 2])
    f = Cochain(L, 2, "adjoint", {(0, 1): {2: 1}, (2, 3): {4: 1}})
    assert ce_differential(f).is_zero()
    assert not massey_bracket(f, f).is_zero()
    with pytest.raises(ValueError):
        build_filtered_deformation(L, f)


