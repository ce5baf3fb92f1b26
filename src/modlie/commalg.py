"""Finite-dimensional commutative associative unital algebras over F_p.

Covers the divided-power algebras O1(n) (basis x^i, i < p^n, with
x^i x^j = binom(i+j, j) x^{i+j} truncated at p^n), the reduced polynomial
rings O_m = K[x_1..x_m]/(x_i^p), scalar ground fields, tensor products,
derivations and their invariants/coinvariants, and Hochschild/Harrison
cohomology computed exactly through sparse ranks of the bar complex.

The constructors' tables are monomial-sparse (a product of two basis
elements has at most one term) and graded (x^i in degree i on O1(n),
total degree on O_m, 0 on K, summed on a tensor product); nothing below
needs either.

The Hochschild differential at a basis tuple is

    dF(x_0..x_k) = x_0 F(x_1..x_k) + sum_i (-1)^i F(..x_{i-1} x_i..)
                   + (-1)^{k+1} F(x_0..x_{k-1}) x_k.

For a given F, _delta_value evaluates it with every product, outer or
inner, read off A._table (t -> {z: e_z e_t}): the Leibniz check of
Derivation and is_harrison_cocycle.  For an unknown F, _stencil lists
its terms and _stencil_rows makes them one scalar row per output
coordinate: the systems of derivation_space, harrison_h2 and
hochschild_hn_dim.  The d^1 rows, transposed, are the
coboundaries (A.coboundary_columns) that solve_delta1 and the Harrison
quotients read.  der_invariants and harrison_h2_d_invariants each read
a D-invariant space off one kernel.

On a graded A, d^1 keeps degrees: every coordinate (i, j, t) of the
coboundary of src -> tgt has deg t - deg i - deg j = deg tgt - deg src
(a tgt sits at (a, src), and a multiple of tgt at each (i, j) whose
product holds x_src).  So the system splits into degree blocks that never meet, and
solve_delta1 hands solve_sparse only the blocks the target touches.
Each block's pivot columns are those of the whole system, and the
solution with free unknowns 0 vanishes on an untouched block, so the
witness is unchanged: on O1(2) at p = 5, the star-action target of
`verify hochschild-harrison` needs 19 columns, not 625.

A kernel {F : dF = 0} needs only the rows whose first argument lies in
{unit} + A.generators.  For G = dF, d^2 F = 0 at (s, x, ..) gives

    G(sx, ..) = s G(x, ..) + (terms whose first argument is s),

so X = {x : G(x, ..) = 0} is a subspace closed under products; holding
the unit and the generators, it is A.  Without the unit, X is only the
ideal the generators generate: for full cochains the unit row is needed
(on O1(1) the rank of d_1 drops from 20 to 19 without it).  Symmetric
2-cochains need no unit row: over odd p, dF(c, b, a) = -dF(a, b, c), so
dF(1, b, c) = 0 for c in that ideal, and dF(1, b, 1) = 0.  So
harrison_h2 assembles and is_harrison_cocycle checks only the pairs
(a, c), a < c, that meet A.generators (_harrison_pairs):
47 of the 300 pairs of O1(2) at p = 5.  Every kernel, hence every pivot
set, kernel_basis and representative, is that of the full system.

harrison_h2 and hochschild_hn_dim eliminate by linalg.sparsest_first,
an unknown F(x_1..x_k)_t weighing the products of x_1..x_k and t.  The
Harrison rows go in as _stencil_rows makes them, triple by triple, so
the system is never held whole: Har^2(O1(3)) at p = 5 peaks at about
0.44 GB where holding its rows for a shortest-first sort took 1.5 GB.
The bar complex still holds its rows and puts them shortest first: fed
as made, hochschild_hn_dim(O_2, 2) peaked at 19 MB against 25 MB, but
the elimination of d_2 took a quarter longer.
"""

import itertools
from collections import defaultdict
from functools import cached_property

from .arith import binom, check_prime
from .linalg import (DEFAULT_BUDGET, BudgetExceeded, Echelon, LinearMap,
                     SparseFpMatrix, _back_substitute, _shortest_first,
                     bilinear_eval, bilinear_get, bilinear_pairs,
                     bilinear_tensor, check_family, check_grading, compose,
                     family_add, greedy_generators, solve_sparse,
                     sparsest_first, tensor_index, tensor_pair, transpose,
                     vec_add, vec_scale)

__all__ = [
    "CommAlgebra",
    "Derivation",
    "SymmetricBilinearMap",
    "make_divided_powers",
    "make_reduced_poly",
    "make_scalars",
    "tensor_product",
    "partial_derivation",
    "tensor_derivation",
    "mult_operator",
    "scale_derivation",
    "zero_derivation",
    "derivation_space",
    "d_invariants",
    "der_invariants",
    "der_coinvariants",
    "star_action",
    "is_harrison_cocycle",
    "solve_delta1",
    "basic_harrison_cocycle",
    "harrison_h2",
    "harrison_h2_d_invariants",
    "hochschild_hn_dim",
]


class CommAlgebra:
    """Commutative associative unital algebra given by structure constants.

    mult is keyed by (i, j) with i <= j; each value is a sparse target
    vector {k: c}.  The constructor checks the entries
    (linalg.check_family), the unit law and associativity, the latter
    from the nonzero terms of (xy)z alone (linalg.compose), not from
    every basis triple.

    grading, when present, is one integer degree per basis element, and
    the product must be degree-additive; solve_delta1 splits by it.
    """

    def __init__(self, p, labels, mult, unit, name="algebra", meta=None,
                 grading=None):
        check_prime(p)
        self.p = p
        self.labels = list(labels)
        self.unit = unit
        self.name = name
        self.meta = meta or {}
        self.grading = list(grading) if grading is not None else None
        check_family(mult, self.dim, self.dim, "product")
        self.mult = bilinear_pairs(mult, 1, p)
        self._table = {}  # t -> {z: e_z e_t}, looked up by either factor
        for (i, j), vec in self.mult.items():
            self._table.setdefault(j, {})[i] = vec
            self._table.setdefault(i, {})[j] = vec
        self._validate()
        check_grading(self.grading, self.mult, self.labels,
                      "product %s on (%s, %s)")

    @property
    def dim(self):
        return len(self.labels)

    def product(self, i, j):
        return bilinear_get(self.mult, 1, self.p, i, j)

    def mul(self, u, v):
        return bilinear_eval(self.mult, 1, self.p, u, v)

    @cached_property
    def generators(self):
        """Basis indices that, together with the unit, generate A as an
        algebra: linalg.greedy_generators under the product, from the
        unit, in basis order.  harrison_h2 and is_harrison_cocycle keep
        only the equations whose outer arguments meet a generator; the
        choice sets their speed, never their result."""
        return greedy_generators(
            self.p, self.dim, range(self.dim),
            lambda g, v: self.mul({g: 1}, v), [self.unit_vec])

    @cached_property
    def coboundary_columns(self):
        """dG for every elementary 1-cochain G = (src -> tgt), keyed
        src * dim + tgt, on the flatten() coordinates (i * dim + j) * dim
        + t of symmetric pairs i <= j: the d^1 rows of all pairs,
        transposed.  Every caller only reads it."""
        n = self.dim
        return dict(transpose(
            ((a * n + b) * n + t, row)
            for a in range(n) for b in range(a, n)
            for t, row in _stencil_rows(self, (a, b)).items()))

    @property
    def unit_vec(self):
        return {self.unit: 1}

    def products(self, m):
        """The nonzero products of b_m, as pairs (s, b_m * b_s)."""
        return self._table.get(m, {}).items()

    def _validate(self):
        n, p = self.dim, self.p
        if not (type(self.unit) is int and 0 <= self.unit < n):
            raise ValueError("unit %r is not a basis index in 0..%d"
                             % (self.unit, n - 1))
        for j in range(n):
            got = self.product(self.unit, j)
            if got != {j: 1}:
                raise ValueError(
                    "unit law fails: 1 * %s = %r" % (self.labels[j], got)
                )
        # F(x, y, z) = (xy)z is symmetric in x and y, and x(yz) = F(y, z, x),
        # so A is associative exactly when F is fully symmetric: for each
        # sorted triple, every choice of outer argument gives one value.
        vals = {}
        for x, y, c, row in compose(self.mult, self._table):
            for z, w in row.items():
                acc = vals.setdefault((tuple(sorted((x, y, z))), z), {})
                for k, v in w.items():
                    acc[k] = acc.get(k, 0) + c * v
        bad = []
        for T in {T for T, _ in vals}:
            F = {o: {k: v % p for k, v in vals.get((T, o), {}).items()
                     if v % p} for o in T}
            # (ij)k = i(jk) compares the outer arguments k and i
            bad.extend(t for t in itertools.permutations(T)
                       if F[t[2]] != F[t[0]])
        if bad:
            i, j, k = min(bad)
            raise ValueError(
                "associativity fails on (%s, %s, %s)"
                % (self.labels[i], self.labels[j], self.labels[k]))

    def __repr__(self):
        return "<CommAlgebra %s dim=%d p=%d>" % (self.name, self.dim, self.p)


def make_divided_powers(n, p):
    """O1(n): basis x^0..x^{p^n - 1}, x^i x^j = binom(i+j, j) x^{i+j},
    truncated to zero once i + j reaches p^n; x^i has degree i."""
    check_prime(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    d = p ** n
    mult = {}
    for i in range(d):
        for j in range(i, d):
            if i + j < d:
                c = binom(i + j, j) % p
                if c:
                    mult[(i, j)] = {i + j: c}
    return CommAlgebra(
        p,
        ["x^%d" % i for i in range(d)],
        mult,
        unit=0,
        name="O1(%d)" % n,
        meta={"kind": "divided", "n": n},
        grading=range(d),
    )


def _reduced_label(alpha):
    parts = []
    for a, e in enumerate(alpha):
        if e == 1:
            parts.append("x%d" % (a + 1))
        elif e > 1:
            parts.append("x%d^%d" % (a + 1, e))
    return "*".join(parts) if parts else "1"


def make_reduced_poly(m, p):
    """O_m = K[x_1..x_m]/(x_1^p .. x_m^p), monomial basis x^alpha with
    exponents 0 <= alpha_i < p, graded by total degree."""
    check_prime(p)
    if m < 1:
        raise ValueError("m must be >= 1")
    exps = [()]
    for _ in range(m):
        exps = [e + (a,) for e in exps for a in range(p)]
    index = {e: i for i, e in enumerate(exps)}
    mult = {}
    for i, a in enumerate(exps):
        for j in range(i, len(exps)):
            b = exps[j]
            s = tuple(x + y for x, y in zip(a, b))
            if all(x < p for x in s):
                mult[(i, j)] = {index[s]: 1}
    return CommAlgebra(
        p,
        [_reduced_label(e) for e in exps],
        mult,
        unit=0,
        name="O_%d" % m,
        meta={"kind": "reduced", "m": m, "exps": exps},
        grading=[sum(e) for e in exps],
    )


def make_scalars(p):
    """The ground field as a one-dimensional algebra, in degree 0."""
    return CommAlgebra(
        p, ["1"], {(0, 0): {0: 1}}, unit=0, name="K",
        meta={"kind": "scalars"}, grading=[0],
    )


def tensor_product(A, B):
    """A (x) B with the basis pair (i_A, i_B) at linalg.tensor_index(i_A,
    i_B, dim A), componentwise multiplication, and the sum of the degrees
    when both factors are graded."""
    if A.p != B.p:
        raise ValueError("tensor factors live over different primes")
    pairs = [tensor_pair(x, A.dim) for x in range(A.dim * B.dim)]
    labels = ["%s@%s" % (A.labels[i], B.labels[j]) for i, j in pairs]
    graded = A.grading is not None and B.grading is not None
    return CommAlgebra(
        A.p, labels,
        dict(sorted(bilinear_tensor(A.mult, 1, B.mult, A.dim, A.p).items())),
        unit=tensor_index(A.unit, B.unit, A.dim),
        name="%s(x)%s" % (A.name, B.name),
        meta={"kind": "tensor", "dims": (A.dim, B.dim), "left": A, "right": B},
        grading=[A.grading[i] + B.grading[j] for i, j in pairs]
        if graded else None)


class Derivation(LinearMap):
    """Linear operator on a CommAlgebra satisfying the Leibniz rule,
    stored by sparse columns (image of each basis element)."""

    def __init__(self, A, cols, name="D"):
        super().__init__(A, A, cols)
        self.A = A
        self.name = name
        # Leibniz on the rows of {unit} + A.generators (module docstring)
        value = lambda args: self.cols.get(args[0], {})
        for i in (A.unit,) + A.generators:
            for j in range(A.dim):
                if _delta_value(A, value, (i, j)):
                    raise ValueError(
                        "%s is not a derivation: Leibniz fails on (%s, %s)"
                        % (name, A.labels[i], A.labels[j]))

    def is_zero(self):
        return not self.cols

    def commutator(self, other):
        _check_acts_on(other, self.A)
        cols = {}
        for j in range(self.A.dim):
            v = vec_add(self(other({j: 1})), other(self({j: 1})), self.p, -1)
            if v:
                cols[j] = v
        return Derivation(
            self.A, cols, name="[%s,%s]" % (self.name, other.name)
        )

    def __repr__(self):
        return "<Derivation %s on %s>" % (self.name, self.A.name)


def _check_acts_on(D, A, what=None):
    """Refuse a derivation D, or another map D on D.A named what, of an
    algebra other than A; an equal algebra (same p, unit and products)
    built twice is A."""
    B = D.A
    if B is not A and (B.p, B.unit, B.mult) != (A.p, A.unit, A.mult):
        raise ValueError("%s acts on %s, not on %s"
                         % (what or "derivation " + D.name, B.name, A.name))


def partial_derivation(A):
    """The divided-power shift derivation: x^j -> x^{j-1}."""
    if A.meta.get("kind") != "divided":
        raise ValueError("partial_derivation needs a divided-power algebra")
    return Derivation(A, {j: {j - 1: 1} for j in range(1, A.dim)}, name="d")


def mult_operator(A, u):
    """Right multiplication by the element u, as sparse columns."""
    return {
        j: col
        for j in range(A.dim)
        if (col := A.mul({j: 1}, u))
    }


def scale_derivation(D, u):
    """u * D for an algebra element u: still a derivation."""
    A = D.A
    cols = {}
    for j, col in D.cols.items():
        v = A.mul(col, u)
        if v:
            cols[j] = v
    return Derivation(A, cols, name="u*%s" % D.name)


def tensor_derivation(AB, D):
    """D (x) 1 on a tensor-product algebra A (x) B, for D on A: a (x) b,
    at linalg.tensor_index(a, b, dim A), goes to D(a) (x) b."""
    if AB.meta.get("kind") != "tensor":
        raise ValueError("tensor_derivation needs a tensor-product algebra")
    _check_acts_on(D, AB.meta["left"])
    dA, dB = AB.meta["dims"]
    cols = {tensor_index(a, b, dA): {tensor_index(k, b, dA): v
                                     for k, v in col.items()}
            for b in range(dB) for a, col in D.cols.items()}
    return Derivation(AB, cols, name="%s(x)1" % D.name)


def zero_derivation(A):
    return Derivation(A, {}, name="0")


def _columns(v, n):
    """The columns {src: {tgt: c}} of a vector v on the unknowns src * n
    + tgt, n = dim A: the endomorphism that LinearMap.flatten wrote."""
    cols = defaultdict(dict)
    for key, c in v.items():
        cols[key // n][key % n] = c
    return dict(cols)


def _derivation_kernel(A, name, rows=()):
    """The derivations X killed by rows on the unknowns src * dim + tgt,
    named name0, name1, ..: the kernel, in natural column order, of those
    rows and dX(a, b) = 0, a in {unit} + A.generators (module docstring)."""
    n = A.dim
    m = SparseFpMatrix(n * n, A.p)
    m.extend(row for a in (A.unit,) + A.generators for b in range(n)
             for row in _stencil_rows(A, (a, b)).values())
    m.extend(rows)
    return [Derivation(A, _columns(v, n), name="%s%d" % (name, i))
            for i, v in enumerate(m.kernel_basis())]


def derivation_space(A):
    """Basis of Der(A), the kernel of d^1 on matrix entries: unknown
    (src, tgt) gets column src * dim + tgt.  Columns keep natural order:
    tests pin the basis to a dense oracle."""
    return _derivation_kernel(A, "E")


def d_invariants(A, D):
    """Basis of the kernel of D on A (the D-constants)."""
    _check_acts_on(D, A)
    return SparseFpMatrix.from_columns(D.cols, A.dim, A.p).kernel_basis()


def der_invariants(A, D):
    """Basis of the centralizer of D inside Der(A): derivation_space's
    system plus a row per (j, t) of [D, X](e_j) = D(X e_j) - X(D e_j)."""
    _check_acts_on(D, A)
    n = A.dim

    def rows():
        for j in range(n):
            r = defaultdict(dict)
            for s, col in D.cols.items():  # D(X e_j), X e_j = sum X_js e_s
                for t, c in col.items():
                    r[t][j * n + s] = c
            for k, c in D.cols.get(j, {}).items():  # -X(D e_j)
                for t in range(n):
                    r[t][k * n + t] = r[t].get(k * n + t, 0) - c
            yield from r.values()
    return _derivation_kernel(A, "Einv", rows())


def der_coinvariants(A, D):
    """Dimension of Der(A)/[D, Der(A)] plus derivations representing a
    basis of the quotient."""
    _check_acts_on(D, A)
    ders = derivation_space(A)
    image = Echelon(A.p)
    for E in ders:
        image.add(D.commutator(E).flatten())
    dim = len(ders) - image.rank
    # the image echelon grows into the span of image + representatives
    reps = [E for E in ders if image.add(E.flatten())]
    return dim, reps


class SymmetricBilinearMap:
    """Symmetric bilinear map A x A -> A, stored on pairs i <= j."""

    def __init__(self, A, values):
        check_family(values, A.dim, A.dim, "symmetric map")
        self.A = A
        self.p = A.p
        self.values = bilinear_pairs(values, 1, A.p)

    def __call__(self, i, j):
        return bilinear_get(self.values, 1, self.p, i, j)

    def eval_vec(self, u, v):
        return bilinear_eval(self.values, 1, self.p, u, v)

    def is_zero(self):
        return not self.values

    def flatten(self):
        n = self.A.dim
        out = {}
        for (i, j), vec in self.values.items():
            base = (i * n + j) * n
            for k, v in vec.items():
                out[base + k] = v
        return out


def _stencil(A, xs):
    """The terms (args, m, c) of the Hochschild coboundary at the basis
    tuple xs = (x_0..x_k): dF(xs) = sum c e_m F(args), where m None
    stands for the plain value c F(args)."""
    k = len(xs) - 1
    terms = [(xs[1:], xs[0], 1)]
    for i in range(1, k + 1):
        sign = -1 if i % 2 else 1
        for m, c in A.product(xs[i - 1], xs[i]).items():
            terms.append((xs[:i - 1] + (m,) + xs[i + 1:], None, sign * c))
    terms.append((xs[:-1], xs[-1], 1 if k % 2 else -1))
    return terms


def _delta_value(A, F, xs):
    """dF(xs) for the cochain F given as a function of argument tuples,
    every product read off A._table (module docstring)."""
    p, table, k, out = A.p, A._table, len(xs) - 1, {}
    for x, v, c in ((xs[0], F(xs[1:]), 1),
                    (xs[-1], F(xs[:-1]), 1 if k % 2 else -1)):
        row = table[x]
        for t, w in v.items():
            if prod := row.get(t):
                w *= c
                for s, y in prod.items():
                    out[s] = out.get(s, 0) + w * y
    for i in range(1, k + 1):
        if prod := table[xs[i - 1]].get(xs[i]):
            head, tail = xs[:i - 1], xs[i + 1:]
            for m, c in prod.items():
                if i % 2:
                    c = -c
                for t, w in F(head + (m,) + tail).items():
                    out[t] = out.get(t, 0) + c * w
    return {t: w % p for t, w in out.items() if w % p}


def _stencil_rows(A, xs, col=None, fold=False):
    """dF(xs) = 0 as one scalar row per output coordinate t, keyed by the
    unknowns (args, s), the e_s coefficient of F(args), flattened to u =
    (args in base dim) * dim + s, or by col[u] when a column list is
    given (u skipped if None); fold sorts args, for symmetric F."""
    n, p = A.dim, A.p
    if col is None:
        col = range(n ** len(xs))
    rows = defaultdict(dict)
    for args, m, c in _stencil(A, xs):
        base = 0
        for a in (sorted(args) if fold else args):
            base = base * n + a
        base *= n
        if m is None:
            for t in range(n):
                if (k := col[base + t]) is not None:
                    r = rows[t]
                    r[k] = r.get(k, 0) + c
            continue
        for s, vec in A.products(m):
            if (k := col[base + s]) is None:
                continue
            for t, w in vec.items():
                r = rows[t]
                r[k] = r.get(k, 0) + c * w
    out = {}
    for t, r in rows.items():
        r = {k: v % p for k, v in r.items() if v % p}
        if r:
            out[t] = r
    return out


def is_harrison_cocycle(F):
    """Exact check that the symmetric 2-cochain F is a Hochschild cocycle:
    dF(a, b, c) = 0 on the pairs (a, c) of _harrison_pairs, which decide
    every triple (module docstring)."""
    A, value = F.A, (lambda args: F(*args))
    return not any(_delta_value(A, value, (a, b, c))
                   for a, c in _harrison_pairs(A) for b in range(A.dim))


def star_action(D, F):
    """(D * F)(a, b) = F(D(a), b) + F(a, D(b)) - D(F(a, b)); the induced
    action of a derivation on symmetric 2-cochains."""
    A, p = F.A, F.p
    _check_acts_on(D, A)
    vals = {}
    for i in range(A.dim):
        for j in range(i, A.dim):
            v = vec_scale(D(F(i, j)), -1, p)
            for s, c in D.cols.get(i, {}).items():
                v = vec_add(v, F(s, j), p, c)
            for s, c in D.cols.get(j, {}).items():
                v = vec_add(v, F(i, s), p, c)
            if v:
                vals[(i, j)] = v
    return SymmetricBilinearMap(A, vals)


def basic_harrison_cocycle(A, i):
    """The i-th basic Harrison 2-cocycle on the divided-power algebra
    A = O1(m), 1 <= i <= m: F(x^a, x^b) = (binom(a+b, b)/p) x^{a+b-p^i}
    when the i-th p-adic digits satisfy a_i + b_i >= p, else 0; the
    binomial is divisible by p exactly because of that digit overflow."""
    if A.meta.get("kind") != "divided":
        raise ValueError("basic_harrison_cocycle needs O1(m)")
    m, p, d = A.meta["n"], A.p, A.dim
    if not 1 <= i <= m:
        raise ValueError("cocycle index %d outside 1..%d" % (i, m))
    vals = {}
    for a in range(d):
        for b in range(a, d):
            da = [(a // p ** t) % p for t in range(m)]
            db = [(b // p ** t) % p for t in range(m)]
            if da[i - 1] + db[i - 1] >= p:
                # binom(a+b, b) read digit-wise: the product of the
                # per-digit binomials, with the forced factor of p in the
                # overflowing digit i divided out exactly.  A second
                # overflowing digit makes the whole product 0 mod p, which
                # matches the truncation of the target monomial.
                c = 1
                for t in range(m):
                    c *= binom(da[t] + db[t], db[t])
                if c % p:
                    raise ValueError("digit overflow without divisibility "
                                     "at (%d, %d)" % (a, b))
                c = (c // p) % p
                e = a + b - p ** i
                if c and 0 <= e < d:
                    vals[(a, b)] = {e: c}
    F = SymmetricBilinearMap(A, vals)
    if not is_harrison_cocycle(F):
        raise ValueError("basic cocycle %d failed the cocycle check" % i)
    return F


def _harrison_pairs(A):
    """Yield the pairs (a, c), a < c, whose cocycle equations dF(a, b, c)
    = 0 harrison_h2 assembles and is_harrison_cocycle checks: those with
    a or c in A.generators, which decide every equation, the unit's
    included (module docstring)."""
    keep = set(A.generators)
    for a in range(A.dim):
        for c in range(a + 1, A.dim):
            if a in keep or c in keep:
                yield a, c


def _harrison_system(A, pairs):
    """The symmetric cocycle system on the given pairs: the unknown
    (i * dim + j) * dim + t of each kept column (pair i <= j, target t),
    and a SparseFpMatrix of the rows of dF(a, b, c) = 0 over (a, c) in
    pairs and every b (module docstring), on the columns that the
    coboundaries leave: one column order for every set of pairs."""
    n = A.dim
    w = [len(A.products(i)) for i in range(n)]
    unknowns = [(i * n + j) * n + t for i in range(n) for j in range(i, n)
                for t in range(n)]
    col = [None] * n ** 3  # the column of each unknown, then its position
    for j, u in enumerate(unknowns):
        col[u] = j

    def rows(pos):
        for u in unknowns:
            col[u] = pos[col[u]]
        return (row for a, c in pairs for b in range(n) for row in
                _stencil_rows(A, (a, b, c), col, fold=True).values())

    order, m = sparsest_first(
        [w[u // n // n] + w[u // n % n] + w[u % n] for u in unknowns],
        ({col[u]: v for u, v in vec.items()}
         for vec in A.coboundary_columns.values()), rows, A.p)
    return [unknowns[j] for j in order], m


def harrison_h2(A):
    """Dimension and representative basis of Har^2(A, A): symmetric
    Hochschild 2-cocycles modulo coboundaries of 1-cochains.  Only the
    equations dF(a, b, c) = 0 with a or c in A.generators are assembled
    (module docstring); they keep the kernel.  The columns of the pivot
    set of the coboundaries are cleared first (linalg.sparsest_first),
    so the kernel_basis of the rest is one cocycle per class."""
    n = A.dim
    unknowns, m = _harrison_system(A, _harrison_pairs(A))
    reps = []
    for v in m.kernel_basis():
        vals = defaultdict(dict)
        for k, c in v.items():
            pair, t = divmod(unknowns[k], n)
            vals[divmod(pair, n)][t] = c
        reps.append(SymmetricBilinearMap(A, dict(vals)))
    return len(reps), reps


def solve_delta1(A, target):
    """Solve dH = target for a 1-cochain H given a symmetric 2-cochain
    target on A; returns sparse columns or None when target is not a
    coboundary.  On a graded A only the degree blocks that target
    touches are solved (module docstring)."""
    _check_acts_on(target, A, "symmetric map")
    n, g, cols = A.dim, A.grading, A.coboundary_columns
    if g is not None:
        degrees = {g[t] - g[i] - g[j]
                   for (i, j), vec in target.values.items() for t in vec}
        cols = {key: col for key, col in cols.items()
                if g[key % n] - g[key // n] in degrees}
    sol = solve_sparse(cols, target.flatten(), A.p)
    return None if sol is None else _columns(sol, n)


def harrison_h2_d_invariants(A, D):
    """The D-invariant part of Har^2(A, A): classes [F] killed by the star
    action of D, each returned with an endomorphism H solving dH = D * F.
    These (F, H) pairs are exactly the parameters of the lifted symmetric
    cocycle family.  A kernel vector (H, x) of the coboundary columns
    (the unknowns of H, below top = dim^2) and tags top + r holding
    -(D * F_r) gives F = sum x_r F_r.  The tags lie right of H, so, read
    at the free tags alone as in solve_sparse, x is the kernel basis of
    the class action and H the witness of solve_delta1."""
    _check_acts_on(D, A)
    p, top, reps = A.p, A.dim ** 2, harrison_h2(A)[1]
    m = SparseFpMatrix.from_columns(
        {**A.coboundary_columns,
         **{top + r: vec_scale(star_action(D, F).flatten(), -1, p)
            for r, F in enumerate(reps)}}, top + len(reps), p)
    out = []
    for v in _back_substitute(m.pivots, [k for k in range(top, m.ncols)
                                         if k not in m.pivots], p):
        vals = {}
        for k, c in v.items():
            if k >= top:
                vals = family_add(vals, reps[k - top].values, p, c)
        out.append((SymmetricBilinearMap(A, vals),
                    _columns({k: c for k, c in v.items() if k < top}, A.dim)))
    return len(out), out


def hochschild_hn_dim(A, n, budget=DEFAULT_BUDGET):
    """dim H^n(A, A) for 0 <= n <= 3 via the bar complex: the number of
    n-cochains minus the ranks of the outgoing and incoming differentials.
    The rank of d_k is read off the rows of dF(x_0..x_k) = 0 with x_0 in
    {unit} + A.generators, which have the kernel of all rows (module
    docstring).  One echelon takes every multidegree block: rows of two
    blocks share no column, so they never meet in elimination."""
    if not 0 <= n <= 3:
        raise ValueError("only degrees 0..3 are supported")
    dim, p = A.dim, A.p
    if dim ** (n + 1) > budget:
        raise BudgetExceeded(
            "bar complex size %d exceeds budget %d" % (dim ** (n + 1), budget))

    w = [len(A.products(i)) for i in range(dim)]

    def rank(k):
        weight = [0]  # summed over the digits of each unknown
        for _ in range(k + 1):
            weight = [x + y for x in weight for y in w]
        rows = lambda pos: _shortest_first(
            row for x0 in (A.unit,) + A.generators
            for rest in itertools.product(range(dim), repeat=k)
            for row in _stencil_rows(A, (x0,) + rest, pos).values())
        return sparsest_first(weight, (), rows, p)[1].rank

    return dim ** (n + 1) - rank(n) - (rank(n - 1) if n else 0)
