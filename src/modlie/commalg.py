"""Finite-dimensional commutative associative unital algebras over F_p.

Covers the divided-power algebras O1(n) (basis x^i, i < p^n, with
x^i x^j = binom(i+j, j) x^{i+j} truncated at p^n), the reduced polynomial
rings O_m = K[x_1..x_m]/(x_i^p), scalar ground fields, tensor products,
derivations and their invariants/coinvariants, and Hochschild/Harrison
cohomology computed exactly through sparse ranks of the bar complex.

Every structure-constant table is monomial-sparse: a product of two basis
elements has at most one nonzero term.

The Hochschild differential is written once, in _stencil: the terms of

    dF(x_0..x_k) = x_0 F(x_1..x_k) + sum_i (-1)^i F(..x_{i-1} x_i..)
                   + (-1)^{k+1} F(x_0..x_{k-1}) x_k

at a basis tuple.  Evaluated, they give hochschild_delta, the Leibniz
check and is_harrison_cocycle; as one scalar row per output coordinate
they give the systems of derivation_space, harrison_h2 and
hochschild_hn_dim; the d^1 rows, transposed, are the coboundaries that
solve_delta1 and the Harrison quotients read.

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
an unknown F(x_1..x_k)_t weighing the products of x_1..x_k and t.
"""

import itertools
from collections import defaultdict

from .arith import binom, binom_mod_p, check_prime
from .linalg import (DEFAULT_BUDGET, BudgetExceeded, Echelon, LinearMap,
                     SparseFpMatrix, bilinear_eval, bilinear_get,
                     bilinear_pairs, bilinear_table, bilinear_tensor, compose,
                     family_add, greedy_generators, morphism_failure,
                     solve_sparse, sparsest_first, transpose, vec_add,
                     vec_scale)

__all__ = [
    "CommAlgebra",
    "Derivation",
    "SymmetricBilinearMap",
    "is_multiplicative",
    "make_divided_powers",
    "make_reduced_poly",
    "make_scalars",
    "tensor_product",
    "divided_to_reduced_iso",
    "partial_derivation",
    "partial_power_derivation",
    "dx_derivation",
    "tensor_derivation",
    "mult_operator",
    "scale_derivation",
    "zero_derivation",
    "derivation_space",
    "d_invariants",
    "der_invariants",
    "der_coinvariants",
    "hochschild_delta",
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
    vector {k: c}.  The constructor checks the unit law and
    associativity, the latter from the nonzero terms of (xy)z alone
    (linalg.compose), not from every basis triple.
    """

    def __init__(self, p, labels, mult, unit, name="algebra", meta=None):
        check_prime(p)
        self.p = p
        self.labels = list(labels)
        self.unit = unit
        self.name = name
        self.meta = meta or {}
        self.mult = bilinear_pairs(mult, 1, p)
        self._table = bilinear_table(self.mult, 1, p)
        self._validate()
        self._generators = None

    @property
    def dim(self):
        return len(self.labels)

    def product(self, i, j):
        return bilinear_get(self.mult, 1, self.p, i, j)

    def mul(self, u, v):
        return bilinear_eval(self.mult, 1, self.p, u, v)

    @property
    def generators(self):
        """Basis indices that, together with the unit, generate A as an
        algebra; found on first use and cached: linalg.greedy_generators
        under the product, from the unit, in basis order.  harrison_h2
        and is_harrison_cocycle keep only the equations whose outer
        arguments meet a generator; the choice sets their speed, never
        their result."""
        if self._generators is None:
            self._generators = greedy_generators(
                self.p, self.dim, range(self.dim),
                lambda g, v: self.mul({g: 1}, v), [self.unit_vec])
        return self._generators

    @property
    def unit_vec(self):
        return {self.unit: 1}

    def products(self, m):
        """The nonzero products of b_m, as pairs (s, b_m * b_s)."""
        return self._table.get(m, ())

    def _validate(self):
        n, p = self.dim, self.p
        if not (0 <= self.unit < n):
            raise ValueError("unit index %r out of range" % (self.unit,))
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
            for z, w in row:
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
    truncated to zero once i + j reaches p^n."""
    check_prime(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    d = p ** n
    mult = {}
    for i in range(d):
        for j in range(i, d):
            if i + j < d:
                c = binom_mod_p(i + j, j, p)
                if c:
                    mult[(i, j)] = {i + j: c}
    return CommAlgebra(
        p,
        ["x^%d" % i for i in range(d)],
        mult,
        unit=0,
        name="O1(%d)" % n,
        meta={"kind": "divided", "n": n},
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
    exponents 0 <= alpha_i < p."""
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
    )


def make_scalars(p):
    """The ground field as a one-dimensional algebra."""
    return CommAlgebra(
        p, ["1"], {(0, 0): {0: 1}}, unit=0, name="K",
        meta={"kind": "scalars"},
    )


def tensor_product(A, B):
    """A (x) B with basis pairs ordered as i_A * dim(B) + i_B and
    componentwise multiplication."""
    if A.p != B.p:
        raise ValueError("tensor factors live over different primes")
    dB = B.dim
    labels = [
        "%s@%s" % (A.labels[i], B.labels[j]) for i in range(A.dim) for j in range(dB)
    ]
    return CommAlgebra(
        A.p,
        labels,
        dict(sorted(bilinear_tensor(A.mult, B.mult, 1, dB, A.p).items())),
        unit=A.unit * dB + B.unit,
        name="%s(x)%s" % (A.name, B.name),
        meta={"kind": "tensor", "dims": (A.dim, B.dim), "left": A, "right": B},
    )


def is_multiplicative(f):
    """(True, None) when the linear map f between algebras preserves
    products of basis elements, else (False, first failing pair)."""
    bad = morphism_failure(f, f.source.mult, f.target.mult, 1)
    return (False, bad[:2]) if bad else (True, None)


def divided_to_reduced_iso(n, p):
    """The algebra isomorphism O_n -> O1(n) sending the reduced monomial
    x^alpha to (prod_i alpha_i!) x^{sum_i alpha_i p^{i-1}}; verified
    multiplicative and bijective before being returned."""
    Om = make_reduced_poly(n, p)
    O1 = make_divided_powers(n, p)
    cols = {}
    for idx, alpha in enumerate(Om.meta["exps"]):
        c = 1
        e = 0
        for a, ai in enumerate(alpha):
            for t in range(2, ai + 1):
                c = c * t % p
            e += ai * p ** a
        cols[idx] = {e: c}
    f = LinearMap(Om, O1, cols)
    ok, pair = is_multiplicative(f)
    if not ok or not f.is_bijective():
        raise AssertionError("divided/reduced identification failed at %r" % (pair,))
    return f


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

    def add(self, other, scale=1):
        cols = family_add(self.cols, other.cols, self.p, scale)
        return Derivation(self.A, cols, name="%s+%s" % (self.name, other.name))

    def commutator(self, other):
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


def partial_derivation(A):
    """The divided-power shift derivation: x^j -> x^{j-1}."""
    if A.meta.get("kind") != "divided":
        raise ValueError("partial_derivation needs a divided-power algebra")
    return Derivation(A, {j: {j - 1: 1} for j in range(1, A.dim)}, name="d")


def partial_power_derivation(A, k):
    """The p^k-th divided power of the shift: x^j -> x^{j - p^k}."""
    if A.meta.get("kind") != "divided":
        raise ValueError("partial_power_derivation needs a divided-power algebra")
    s = A.p ** k
    return Derivation(
        A, {j: {j - s: 1} for j in range(s, A.dim)}, name="d^(p^%d)" % k
    )


def dx_derivation(A, i):
    """d/dx_i on the reduced polynomial ring."""
    if A.meta.get("kind") != "reduced":
        raise ValueError("dx_derivation needs a reduced polynomial ring")
    exps = A.meta["exps"]
    index = {e: idx for idx, e in enumerate(exps)}
    cols = {}
    for idx, alpha in enumerate(exps):
        if alpha[i - 1]:
            down = list(alpha)
            down[i - 1] -= 1
            cols[idx] = {index[tuple(down)]: alpha[i - 1] % A.p}
    return Derivation(A, cols, name="d/dx%d" % i)


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


def tensor_derivation(AB, D, side):
    """D (x) 1 or 1 (x) D on a tensor-product algebra."""
    if AB.meta.get("kind") != "tensor":
        raise ValueError("tensor_derivation needs a tensor-product algebra")
    dA, dB = AB.meta["dims"]
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    # D's factor has dimension n and stride s in the index a * dB + b
    n, s = (dA, dB) if side == "left" else (dB, 1)
    if D.A.dim != n:
        raise ValueError("derivation does not act on the %s factor" % side)
    cols = {}
    for x in range(dA * dB):
        own = x // s % n
        col = {x + (k - own) * s: v for k, v in D.cols.get(own, {}).items()}
        if col:
            cols[x] = col
    return Derivation(AB, cols, name="%s(x)%s" % (D.name, side))


def zero_derivation(A):
    return Derivation(A, {}, name="0")


def derivation_space(A):
    """Basis of Der(A), the kernel of d^1 on matrix entries: unknown
    (src, tgt) gets column src * dim + tgt.  Only the rows dD(a, b) = 0
    with a in {unit} + A.generators are assembled (module docstring).
    Columns keep natural order: tests pin the basis to a dense oracle."""
    n, p = A.dim, A.p
    m = SparseFpMatrix(n * n, p)
    for a in (A.unit,) + A.generators:
        for b in range(n):
            for row in _stencil_rows(A, (a, b)).values():
                m.add_row(row)
    ders = []
    for v in m.kernel_basis():
        cols = defaultdict(dict)
        for key, c in v.items():
            cols[key // n][key % n] = c
        ders.append(Derivation(A, dict(cols), name="E%d" % len(ders)))
    return ders


def d_invariants(A, D):
    """Basis of the kernel of D on A (the D-constants)."""
    return SparseFpMatrix.from_columns(D.cols, A.dim, A.p).kernel_basis()


def der_invariants(A, D):
    """Basis of the centralizer of D inside Der(A)."""
    ders = derivation_space(A)
    if not ders:
        return []
    coms = {idx: D.commutator(E).flatten() for idx, E in enumerate(ders)}
    m = SparseFpMatrix.from_columns(coms, len(ders), A.p)
    out = []
    for combo in m.kernel_basis():
        E = zero_derivation(A)
        for idx, c in combo.items():
            E = E.add(ders[idx], scale=c)
        E.name = "Einv%d" % len(out)
        out.append(E)
    return out


def der_coinvariants(A, D):
    """Dimension of Der(A)/[D, Der(A)] plus derivations representing a
    basis of the quotient."""
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
        self.A = A
        self.p = A.p
        self.values = bilinear_pairs(values, 1, A.p)

    def __call__(self, i, j):
        return bilinear_get(self.values, 1, self.p, i, j)

    def eval_vec(self, u, v):
        return bilinear_eval(self.values, 1, self.p, u, v)

    def is_zero(self):
        return not self.values

    def add(self, other, scale=1):
        return SymmetricBilinearMap(
            self.A, family_add(self.values, other.values, self.p, scale))

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
    """dF(xs) for the cochain F given as a function of argument tuples."""
    p, out = A.p, {}
    for args, m, c in _stencil(A, xs):
        v = F(args)
        if m is not None:
            v = A.mul({m: 1}, v)
        for t, w in v.items():
            out[t] = out.get(t, 0) + c * w
    return {t: w % p for t, w in out.items() if w % p}


def _stencil_rows(A, xs, fold=False):
    """dF(xs) = 0 as one scalar row per output coordinate t, keyed by the
    unknowns (args, s), the e_s coefficient of F(args), flattened to
    (args in base dim) * dim + s; fold sorts args, for symmetric F."""
    n, p = A.dim, A.p
    rows = defaultdict(dict)
    for args, m, c in _stencil(A, xs):
        base = 0
        for a in (sorted(args) if fold else args):
            base = base * n + a
        base *= n
        if m is None:
            for t in range(n):
                r = rows[t]
                r[base + t] = r.get(base + t, 0) + c
            continue
        for s, vec in A.products(m):
            for t, w in vec.items():
                r = rows[t]
                r[base + s] = r.get(base + s, 0) + c * w
    out = {}
    for t, r in rows.items():
        r = {k: v % p for k, v in r.items() if v % p}
        if r:
            out[t] = r
    return out


def hochschild_delta(c):
    """The Hochschild coboundary of a degree-1 cochain (a linear operator,
    given as a Derivation-like object or raw sparse columns) or of a
    degree-2 symmetric cochain.

    Degree 1: dG(a, b) = a G(b) - G(ab) + G(a) b, returned as a
    SymmetricBilinearMap (it is symmetric for any G).
    Degree 2: dF(a, b, c) = a F(b,c) - F(ab, c) + F(a, bc) - F(a,b) c,
    returned as a dict keyed by all index triples."""
    if isinstance(c, SymmetricBilinearMap):
        A, F = c.A, (lambda args: c(*args))
        return {xs: v for xs in itertools.product(range(A.dim), repeat=3)
                if (v := _delta_value(A, F, xs))}
    A, cols = (c.A, c.cols) if isinstance(c, Derivation) else c
    G = lambda args: cols.get(args[0], {})
    return SymmetricBilinearMap(A, {
        (i, j): v for i in range(A.dim) for j in range(i, A.dim)
        if (v := _delta_value(A, G, (i, j)))})


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


def basic_harrison_cocycle(m, p, i, variant, A=None):
    """The i-th basic Harrison 2-cocycle, 1 <= i <= m.

    reduced variant, on O_m:  F(x^alpha, x^beta) = x^{alpha+beta-p e_i}
    when alpha_i + beta_i >= p, else 0.
    divided variant, on O1(m): F(x^a, x^b) = (binom(a+b, b)/p) x^{a+b-p^i}
    when the i-th p-adic digits satisfy a_i + b_i >= p, else 0; the
    binomial is divisible by p exactly because of that digit overflow."""
    if not 1 <= i <= m:
        raise ValueError("cocycle index %d outside 1..%d" % (i, m))
    if variant == "reduced":
        if A is None:
            A = make_reduced_poly(m, p)
        exps = A.meta["exps"]
        index = {e: idx for idx, e in enumerate(exps)}
        vals = {}
        for ia, alpha in enumerate(exps):
            for ib in range(ia, len(exps)):
                beta = exps[ib]
                if alpha[i - 1] + beta[i - 1] >= p:
                    s = list(x + y for x, y in zip(alpha, beta))
                    s[i - 1] -= p
                    if all(x < p for x in s):
                        vals[(ia, ib)] = {index[tuple(s)]: 1}
        F = SymmetricBilinearMap(A, vals)
    elif variant == "divided":
        if A is None:
            A = make_divided_powers(m, p)
        d = A.dim
        vals = {}
        for a in range(d):
            for b in range(a, d):
                da = [(a // p ** t) % p for t in range(m)]
                db = [(b // p ** t) % p for t in range(m)]
                if da[i - 1] + db[i - 1] >= p:
                    # binom(a+b, b) read digit-wise: the product of the
                    # per-digit binomials, with the forced factor of p in
                    # the overflowing digit i divided out exactly.  A second
                    # overflowing digit makes the whole product 0 mod p,
                    # which matches the truncation of the target monomial.
                    c = 1
                    for t in range(m):
                        c *= binom(da[t] + db[t], db[t])
                    if c % p:
                        raise AssertionError(
                            "digit overflow without divisibility at (%d, %d)" % (a, b)
                        )
                    c = (c // p) % p
                    e = a + b - p ** i
                    if c and 0 <= e < d:
                        vals[(a, b)] = {e: c}
        F = SymmetricBilinearMap(A, vals)
    else:
        raise ValueError("variant must be 'reduced' or 'divided'")
    if not is_harrison_cocycle(F):
        raise AssertionError("basic cocycle %d failed the cocycle check" % i)
    return F


def _coboundary_columns(A):
    """dG for every elementary 1-cochain G = (src -> tgt), keyed
    src * dim + tgt, on the flatten() coordinates (i * dim + j) * dim + t
    of symmetric pairs i <= j: the d^1 rows of all pairs, transposed."""
    n = A.dim
    return transpose(((a * n + b) * n + t, row)
                     for a in range(n) for b in range(a, n)
                     for t, row in _stencil_rows(A, (a, b)).items())


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
    (i * dim + j) * dim + t of each column (pair i <= j, target t), their
    columns, and a SparseFpMatrix of the rows of dF(a, b, c) = 0 over
    (a, c) in pairs and every b (module docstring): one column order
    for every set of pairs."""
    n = A.dim
    w = [len(A.products(i)) for i in range(n)]
    unknowns, m = sparsest_first(
        {(i * n + j) * n + t: w[i] + w[j] + w[t]
         for i in range(n) for j in range(i, n) for t in range(n)},
        (row for a, c in pairs for b in range(n)
         for row in _stencil_rows(A, (a, b, c), fold=True).values()), A.p)
    return unknowns, {u: k for k, u in enumerate(unknowns)}, m


def harrison_h2(A):
    """Dimension and representative basis of Har^2(A, A): symmetric
    Hochschild 2-cocycles modulo coboundaries of 1-cochains.  Only the
    equations dF(a, b, c) = 0 with a or c in A.generators are assembled
    (module docstring); they keep the kernel, so the pivots, the
    kernel_basis and the representatives are those of the full system.
    A kernel vector is a new class when it enlarges the span of the
    coboundaries and the classes before it, which
    kernel_basis(modulo=image) finds without computing the others."""
    n = A.dim
    unknowns, pos, m = _harrison_system(A, _harrison_pairs(A))
    image = Echelon(A.p)
    for vec in _coboundary_columns(A).values():
        image.add({pos[u]: v for u, v in vec.items()})
    reps = []
    for v in m.kernel_basis(modulo=image):
        vals = defaultdict(dict)
        for k, c in v.items():
            pair, t = divmod(unknowns[k], n)
            vals[divmod(pair, n)][t] = c
        reps.append(SymmetricBilinearMap(A, dict(vals)))
    return len(reps), reps


def solve_delta1(A, target):
    """Solve dH = target for a 1-cochain H given a symmetric 2-cochain
    target; returns sparse columns or None when target is not a
    coboundary."""
    n = A.dim
    sol = solve_sparse(_coboundary_columns(A), target.flatten(), A.p)
    if sol is None:
        return None
    cols = defaultdict(dict)
    for flat, c in sol.items():
        cols[flat // n][flat % n] = c
    return dict(cols)


def harrison_h2_d_invariants(A, D):
    """The D-invariant part of Har^2(A, A): classes [F] killed by the star
    action of D, each returned with an endomorphism H solving dH = D * F.
    These (F, H) pairs are exactly the parameters of the lifted symmetric
    cocycle family."""
    p = A.p
    d2, reps = harrison_h2(A)
    if d2 == 0:
        return 0, []
    # one echelon of the coboundaries and the rows F_r + e_{top + r}: the
    # tag columns lie right of every cochain column, so they never pivot,
    # and D * F reduces to -x at the tags exactly when D * F = sum x_r F_r
    # modulo coboundaries
    ech, top = Echelon(p), A.dim ** 3
    for vec in _coboundary_columns(A).values():
        ech.add(vec)
    for r, F in enumerate(reps):
        ech.add({**F.flatten(), top + r: 1})
    action = []  # column r: coordinates of [D * F_r] in the class basis
    for F in reps:
        rest = ech.reduce(star_action(D, F).flatten())
        if any(k < top for k in rest):
            raise AssertionError("star action left the cocycle class space")
        action.append({k - top: -v % p for k, v in rest.items()})
    m = SparseFpMatrix.from_columns(dict(enumerate(action)), len(reps), p)
    out = []
    for combo in m.kernel_basis():
        F = SymmetricBilinearMap(A, {})
        for r, c in combo.items():
            F = F.add(reps[r], scale=c)
        H = solve_delta1(A, star_action(D, F))
        if H is None:
            raise AssertionError("invariant class without a potential for D * F")
        out.append((F, H))
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
        rows = (row for x0 in (A.unit,) + A.generators
                for rest in itertools.product(range(dim), repeat=k)
                for row in _stencil_rows(A, (x0,) + rest).values())
        return sparsest_first(dict(enumerate(weight)), rows, p)[1].rank

    return dim ** (n + 1) - rank(n) - (rank(n - 1) if n else 0)
