"""Sparse echelon forms, ranks, kernels, linear maps given by columns,
and linear solving over F_p, checked against brute force on seeded
random systems and against a dense Gaussian elimination on
hypothesis-drawn sparse systems; the bilinear-map operations against
the dense loops they replaced."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from modlie.linalg import (
    Echelon,
    LinearMap,
    SparseFpMatrix,
    bilinear_eval,
    bilinear_get,
    bilinear_pairs,
    bilinear_tensor,
    family_add,
    morphism_failure,
    solve_sparse,
    vec_add,
    vec_scale,
)


def dense(v, n, p):
    return [v.get(i, 0) % p for i in range(n)]


def dense_rref(rows, n, p):
    """Reduced row echelon form by dense Gaussian elimination: returns
    (pivot columns in increasing order, the nonzero reduced rows)."""
    mat = [dense(r, n, p) for r in rows]
    pivots = []
    for c in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [x * inv % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
    return pivots, mat[:len(pivots)]


def random_row(rng, n, p):
    return {i: rng.randrange(1, p) for i in range(n)
            if rng.random() < 0.5}


def columns_of(rows, n):
    """The columns {j: {row index: c}} of the matrix with the given rows."""
    cols = {j: {} for j in range(n)}
    for i, r in enumerate(rows):
        for j, c in r.items():
            cols[j][i] = c
    return cols


def test_vec_ops_drop_zeros():
    p = 5
    u, v = {0: 2, 3: 4}, {0: 3, 1: 1}
    assert vec_add(u, v, p) == {1: 1, 3: 4}
    assert vec_scale(u, 0, p) == {}
    assert vec_scale({2: 3}, 2, p) == {2: 1}


def test_echelon_membership_is_linear():
    p = 7
    rng = random.Random(11)
    e = Echelon(p)
    rows = [random_row(rng, 8, p) for _ in range(4)]
    for r in rows:
        e.add(r)
    # any F_p combination of added rows reduces to zero
    for _ in range(50):
        combo = {}
        for r in rows:
            combo = vec_add(combo, vec_scale(r, rng.randrange(p), p), p)
        assert e.member(combo)
    assert not e.member({7: 1, 0: 3})
    assert e.reduce({}) == {}


def test_rank_against_dense_elimination():
    p = 5
    rng = random.Random(23)
    for trial in range(20):
        n = rng.randrange(1, 7)
        rows = [random_row(rng, n, p) for _ in range(rng.randrange(1, 8))]
        m = SparseFpMatrix(n, p)
        for r in rows:
            m.add_row(r)
        rank = len(dense_rref(rows, n, p)[0])
        assert m.rank == rank
        assert m.nullity == n - rank


def test_kernel_basis_spans_the_kernel():
    p = 5
    rng = random.Random(5)
    n = 5
    rows = [random_row(rng, n, p) for _ in range(3)]
    m = SparseFpMatrix(n, p)
    for r in rows:
        m.add_row(r)
    basis = m.kernel_basis()
    assert len(basis) == m.nullity
    for v in basis:
        for r in rows:
            assert sum(r.get(i, 0) * c for i, c in v.items()) % p == 0
    # basis vectors are independent
    e = Echelon(p)
    for v in basis:
        assert e.add(v)
    # brute force: count all kernel vectors = p^nullity
    count = 0
    for code in range(p ** n):
        x = [(code // p ** i) % p for i in range(n)]
        if all(sum(r.get(i, 0) * x[i] for i in range(n)) % p == 0
               for r in rows):
            count += 1
    assert count == p ** m.nullity


def test_solve_sparse_against_brute_force():
    p = 5
    rng = random.Random(97)
    n = 4
    for trial in range(30):
        eqs = [(random_row(rng, n, p), rng.randrange(p)) for _ in range(3)]
        target = {i: rhs for i, (_, rhs) in enumerate(eqs) if rhs}
        sol = solve_sparse(columns_of([r for r, _ in eqs], n), target, p)
        all_solutions = [
            [(code // p ** i) % p for i in range(n)]
            for code in range(p ** n)
            if all(sum(r.get(i, 0) * ((code // p ** i) % p)
                       for i in range(n)) % p == rhs
                   for r, rhs in eqs)
        ]
        if sol is None:
            assert all_solutions == []
        else:
            x = dense(sol, n, p)
            for r, rhs in eqs:
                assert sum(r.get(i, 0) * x[i] for i in range(n)) % p == rhs


def test_solve_sparse_inconsistent():
    p = 5
    # x_0 = 1 and x_0 = 2
    assert solve_sparse({0: {0: 1, 1: 1}}, {0: 1, 1: 2}, p) is None
    # a coordinate no column reaches
    assert solve_sparse({0: {0: 1}}, {1: 1}, p) is None
    assert solve_sparse({}, {}, p) == {}


@st.composite
def sparse_systems(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 9))
    row = st.dictionaries(st.integers(0, n - 1), st.integers(1, p - 1),
                          max_size=4)
    rows = draw(st.lists(row, max_size=12))
    order = draw(st.permutations(range(len(rows))))
    probe = draw(st.dictionaries(st.integers(0, n - 1), st.integers(0, p - 1),
                                 max_size=n))
    return p, n, rows, order, probe


@settings(max_examples=300, deadline=None)
@given(sparse_systems())
def test_echelon_and_kernel_against_dense_oracle(system):
    p, n, rows, order, probe = system
    pivots, rref = dense_rref(rows, n, p)
    m = SparseFpMatrix(n, p)
    for r in rows:
        m.add_row(r)
    assert m.rank == len(pivots)
    # min-column pivoting picks the leading columns of the reduced form
    assert sorted(m.ech.pivots) == pivots
    # the kernel vector of free column f is the unique one with a 1 at f
    # and 0 at every other free column
    free = [c for c in range(n) if c not in pivots]
    want = []
    for f in free:
        v = {f: 1}
        for c, r in zip(pivots, rref):
            if r[f]:
                v[c] = -r[f] % p
        want.append(v)
    assert m.kernel_basis() == want
    # membership agrees with the dense rank of the extended system
    in_span = len(dense_rref(rows + [probe], n, p)[0]) == len(pivots)
    assert m.ech.member(probe) == in_span
    # the same map given by its columns: x -> (r . x) over the rows r
    by_cols = SparseFpMatrix.from_columns(columns_of(rows, n), n, p)
    assert sorted(by_cols.ech.pivots) == pivots
    assert by_cols.kernel_basis() == want
    f = LinearMap(SimpleNamespace(dim=n, p=p),
                  SimpleNamespace(dim=len(rows), p=p), columns_of(rows, n))
    assert f.rank() == len(pivots)
    assert f.is_bijective() == (len(rows) == n == len(pivots))
    # solve_sparse on columns, with probe[i] as the right-hand side of
    # row i: solvable iff the augmented column is no pivot
    rhs = [probe.get(i, 0) for i in range(len(rows))]
    sol = solve_sparse(columns_of(rows, n),
                       {i: b for i, b in enumerate(rhs) if b}, p)
    aug = [{**r, n: b} for r, b in zip(rows, rhs)]
    solvable = n not in dense_rref(aug, n + 1, p)[0]
    assert (sol is not None) == solvable
    if sol is not None:
        assert all(not sol.get(f) for f in free)
        for r, b in zip(rows, rhs):
            assert sum(c * sol.get(j, 0) for j, c in r.items()) % p == b
    # the insertion order changes neither the pivot set nor the kernel
    shuffled = SparseFpMatrix(n, p)
    for i in order:
        shuffled.add_row(rows[i])
    assert sorted(shuffled.ech.pivots) == pivots
    assert shuffled.kernel_basis() == want


def closure_rank(seeds, maps, n, p):
    """Rank of the smallest span holding seeds and mapped into itself by
    every map, by dense elimination repeated until the rank is stable."""
    rows, rank = list(seeds), -1
    while True:
        pivots, rref = dense_rref(rows, n, p)
        if len(pivots) == rank:
            return rank
        rank = len(pivots)
        rows = [{i: c for i, c in enumerate(r) if c} for r in rref]
        rows += [f(v) for v in rows for f in maps]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_echelon_close_against_a_naive_fixed_point(data):
    p = data.draw(st.sampled_from([3, 5, 7]))
    n = data.draw(st.integers(1, 8))
    vec = st.dictionaries(st.integers(0, n - 1), st.integers(1, p - 1),
                          max_size=3)
    space = SimpleNamespace(dim=n, p=p)
    maps = [LinearMap(space, space, cols) for cols in data.draw(st.lists(
        st.dictionaries(st.integers(0, n - 1), vec, max_size=n),
        min_size=1, max_size=3))]

    def step(v):
        return (w for f in maps if (w := f(v)))

    # two closures into one echelon, as a generator search grows its span
    first, second = data.draw(st.lists(vec, max_size=3)), data.draw(
        st.lists(vec, max_size=3))
    e = Echelon(p)
    before = e.close(first, step)
    assert len(before) == e.rank == closure_rank(first, maps, n, p)
    found = e.close(second, step, found=[])
    assert e.rank == closure_rank(first + second, maps, n, p)
    assert len(found) == e.rank - len(before)
    assert len(dense_rref(before + found, n, p)[0]) == e.rank
    assert all(e.member(w) for v in before + found for w in step(v))
    assert all(e.member(v) for v in first + second)
    rows = e.rows()
    assert len(rows) == e.rank
    assert [min(r) for r in rows] == sorted(e.pivots)
    assert all(r[min(r)] == 1 and e.member(r) for r in rows)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_kernel_basis_modulo_against_the_greedy_loop(data):
    p = data.draw(st.sampled_from([3, 5, 7]))
    n = data.draw(st.integers(1, 9))
    row = st.dictionaries(st.integers(0, n - 1), st.integers(1, p - 1),
                          max_size=4)
    m = SparseFpMatrix(n, p)
    for r in data.draw(st.lists(row, max_size=12)):
        m.add_row(r)
    full = m.kernel_basis()
    # a span inside the kernel: random combinations of kernel vectors,
    # possibly none, the whole kernel, or one combination twice
    coeffs = st.lists(st.integers(0, p - 1), min_size=len(full),
                      max_size=len(full))
    combos = data.draw(st.lists(coeffs, max_size=4))
    if combos and data.draw(st.booleans()):
        combos.append(combos[0])
    if data.draw(st.booleans()):
        combos += [[int(i == j) for j in range(len(full))]
                   for i in range(len(full))]
    E = Echelon(p)
    for cs in combos:
        v = {}
        for c, k in zip(cs, full):
            v = vec_add(v, k, p, c)
        E.add(v)
    before = dict(E.pivots)
    got = m.kernel_basis(modulo=E)
    assert E.pivots == before
    grow = Echelon(p)  # the span of E, grown apart from it
    for row in E.rows():
        grow.add(row)
    assert got == [v for v in full if grow.add(v)]
    assert len(got) == len(full) - E.rank


def test_kernel_basis_refuses_a_span_outside_the_kernel():
    m = SparseFpMatrix(3, 5)
    m.add_row({0: 1, 1: 2})  # pivot column 0, free columns 1 and 2
    E = Echelon(5)
    E.add({0: 1})  # e_0 is 0 on every free column; no kernel vector is
    with pytest.raises(ValueError, match="not in the kernel"):
        m.kernel_basis(modulo=E)
    assert m.kernel_basis(modulo=Echelon(5)) == m.kernel_basis()


def dense_bracket_vec(pairs, sign, p, u, v):
    """Reference for bilinear_eval: the loop LieAlgebra.bracket_vec and
    CommAlgebra.mul ran before, one lookup of f(e_i, e_j) per pair of
    entries."""
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            if i == j and sign == -1:
                continue
            w = (pairs.get((i, j), {}) if i <= j
                 else vec_scale(pairs.get((j, i), {}), sign, p))
            for k, x in w.items():
                y = (out.get(k, 0) + a * b * x) % p
                if y:
                    out[k] = y
                else:
                    out.pop(k, None)
    return out


def dense_family_add(f, g, p, scale=1):
    """Reference for family_add: the loop Cochain.add, Derivation.add
    and SymmetricBilinearMap.add ran before."""
    out = {}
    for h, s in ((f, 1), (g, scale)):
        for key, vec in h.items():
            acc = out.setdefault(key, {})
            for k, v in vec.items():
                acc[k] = (acc.get(k, 0) + s * v) % p
    return {key: w for key, vec in out.items()
            if (w := {k: v for k, v in vec.items() if v})}


def dense_tensor(P, Q, sign, dim, p):
    """Reference for bilinear_tensor: every pair (x, y), x < y, or x <= y
    for a symmetric result, of the dim(P) * dim layout, keyed in the
    order of P's pairs and then (a, b), as current_algebra built it."""
    out = {}
    for (i, j), pv in P.items():
        for a in range(dim):
            for b in range(dim):
                x, y = i * dim + a, j * dim + b
                qv = dense_bracket_vec(Q, sign, p, {a: 1}, {b: 1})
                if x > y or not qv:
                    continue
                out[(x, y)] = {k * dim + m: c * d % p for k, c in pv.items()
                               for m, d in qv.items()}
    return out


def dense_morphism_failure(f, source, target, sign):
    """Reference for morphism_failure: every pair i < j (i <= j for a
    symmetric map) in lexicographic order, as verify_morphism and
    is_multiplicative visited them."""
    n, p = f.source.dim, f.p
    for i in range(n):
        for j in range(i if sign == 1 else i + 1, n):
            lhs = f(dense_bracket_vec(source, sign, p, {i: 1}, {j: 1}))
            rhs = dense_bracket_vec(target, sign, p, f({i: 1}), f({j: 1}))
            if lhs != rhs:
                return i, j, lhs, rhs
    return None


@st.composite
def bilinear_maps(draw, p=None, sign=None, n=None):
    """(p, sign, n, pairs): a bilinear map on n basis vectors given on
    pairs, i < j for sign -1 and i <= j for +1, with reduced values."""
    p = p or draw(st.sampled_from([2, 3, 5, 7]))
    sign = sign or draw(st.sampled_from([-1, 1]))
    n = n or draw(st.integers(1, 6))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
        sorted).map(tuple).filter(lambda ij: sign == 1 or ij[0] < ij[1])
    vec = st.dictionaries(st.integers(0, n - 1), st.integers(1, p - 1),
                          min_size=1, max_size=3)
    return p, sign, n, draw(st.dictionaries(pair, vec, max_size=n * n))


def sparse_vectors(n, p):
    return st.dictionaries(st.integers(0, n - 1), st.integers(1, p - 1),
                           max_size=n)


@settings(max_examples=150, deadline=None)
@given(bilinear_maps(), st.data())
def test_bilinear_eval_matches_the_dense_loop(drawn, data):
    p, sign, n, pairs = drawn
    u = data.draw(sparse_vectors(n, p))
    v = data.draw(sparse_vectors(n, p))
    # the same dict, key order included
    want = dense_bracket_vec(pairs, sign, p, u, v)
    assert list(bilinear_eval(pairs, sign, p, u, v).items()) == list(
        want.items())
    for i in range(n):
        for j in range(n):
            got = bilinear_get(pairs, sign, p, i, j)
            assert got == dense_bracket_vec(pairs, sign, p, {i: 1}, {j: 1})
    # keys in either order normalize to the pairs, with the sign
    flipped = {(j, i): vec_scale(vec, sign, p)
               for (i, j), vec in pairs.items()}
    assert bilinear_pairs(flipped, sign, p) == pairs
    assert bilinear_pairs({(i, j): {k: v + p for k, v in vec.items()}
                           for (i, j), vec in pairs.items()}, sign, p) == pairs


def test_bilinear_pairs_refuses_conflicting_swapped_keys():
    # (1, 0) names the pair (0, 1) again; its value must agree, zero
    # counting as a value
    for sign, pairs in [(-1, {(0, 1): {0: 1}, (1, 0): {0: 1}}),
                        (1, {(1, 2): {3: 1}, (2, 1): {3: 2}}),
                        (1, {(0, 1): {}, (1, 0): {0: 1}}),
                        (1, {(1, 0): {0: 1}, (0, 1): {0: 1, 2: 3}})]:
        with pytest.raises(ValueError, match=r"conflicting values for the "
                                             r"pair \((0, 1|1, 2)\)"):
            bilinear_pairs(pairs, sign, 5)
    # consistent duplicates are accepted, in either order, as one key
    assert bilinear_pairs({(0, 1): {0: 1}, (1, 0): {0: 9}}, -1, 5) == {
        (0, 1): {0: 1}}
    assert bilinear_pairs({(1, 0): {0: 2}, (0, 1): {0: 7, 1: 5}}, 1, 5) == {
        (0, 1): {0: 2}}
    assert bilinear_pairs({(0, 1): {0: 5}, (1, 0): {}}, 1, 5) == {}


@settings(max_examples=100, deadline=None)
@given(bilinear_maps(), st.data())
def test_family_add_and_tensor_match_the_dense_loops(drawn, data):
    p, sign, n, pairs = drawn
    other = data.draw(bilinear_maps(p=p, sign=sign, n=n))[3]
    scale = data.draw(st.integers(0, p - 1))
    assert list(family_add(pairs, other, p, scale).items()) == list(
        dense_family_add(pairs, other, p, scale).items())
    _, q_sign, m, Q = data.draw(bilinear_maps(p=p))
    assert list(bilinear_tensor(pairs, Q, q_sign, m, p).items()) == list(
        dense_tensor(pairs, Q, q_sign, m, p).items())


def small_space(n, p):
    return SimpleNamespace(dim=n, p=p)


@settings(max_examples=150, deadline=None)
@given(bilinear_maps(), st.data())
def test_morphism_failure_matches_the_dense_loop(drawn, data):
    p, sign, n, target = drawn
    source = data.draw(bilinear_maps(p=p, sign=sign, n=n))[3]
    cols = data.draw(st.dictionaries(st.integers(0, n - 1),
                                     sparse_vectors(n, p), max_size=n))
    f = LinearMap(small_space(n, p), small_space(n, p), cols)
    want = dense_morphism_failure(f, source, target, sign)
    assert morphism_failure(f, source, target, sign) == want
    # a map that carries source to target: the pushforward of source by
    # a permutation of the basis
    perm = data.draw(st.permutations(range(n)))
    g = LinearMap(small_space(n, p), small_space(n, p),
                  {i: {perm[i]: 1} for i in range(n)})
    image = bilinear_pairs({(perm[i], perm[j]): {perm[k]: c for k, c in
                                                 vec.items()}
                            for (i, j), vec in source.items()}, sign, p)
    assert morphism_failure(g, source, image, sign) is None
