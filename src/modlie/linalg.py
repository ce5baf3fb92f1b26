"""Sparse exact linear algebra over F_p.

Vectors are dicts {column: nonzero residue}.  The central structure is an
incremental echelon form with min-column pivoting: each inserted row is
reduced against the existing pivot rows and either vanishes or contributes
a new pivot.  A stored pivot row has its pivot column removed and is
normalized so the pivot coefficient is 1; every remaining entry of a pivot
row sits in a column strictly greater than the pivot column, which makes
back-substitution in decreasing column order valid for kernels and solves.
All ranks are exact; rank + nullity = number of columns by construction.

The order in which rows are inserted changes the stored pivot rows and
their fill, but no result: the pivot set is {min(v) : v != 0 in the row
space}, which depends on the span alone, and for each free column there
is exactly one kernel vector with a 1 there and 0 at every other free
column, so kernel_basis is order-independent as well.  So is the
solution solve_sparse returns: with every free unknown 0, the pivot
unknowns are determined.  Callers may therefore insert rows in whatever
order keeps elimination cheap: the systems of ceco.cohomology_dim,
commalg.harrison_h2 and commalg.hochschild_hn_dim use sparsest_first,
the structured Gaussian elimination of LaMacchia and Odlyzko (CRYPTO
'90).  Rows go in in the order the caller's builder yields them, each
freed once inserted, so a system built row by row is never held
whole: the Harrison system of O1(2) at p = 5 eliminates as fast as
when its 28 107 rows were held to be sorted, at less than half the
peak memory.  A caller that holds all
its rows anyway puts them shortest first with _shortest_first (ceco's
d_n, written column by column, and commalg's bar complex, which
eliminated slower without it), as sparsest_first does the boundary B
below.  Columns go sparsest first by a weight read off the caller's
tables, not its rows (ties in index order), so pivots land on sparse
columns and fill on dense ones.  The weights depend on the columns
alone, so the order is fixed before the rows are built, and the
caller's row builder writes every entry at its column's position.  A
column order changes no rank, only which columns are free: the kernel
gets another basis.  So the systems whose bases or witnesses are pinned
keep natural order: solve_sparse, liealg.center and commalg's
derivation_space, der_invariants, d_invariants and
harrison_h2_d_invariants.  The last reads combinations at tag columns
right of its unknowns, as solve_sparse reads its augmented column.

One loop, _residual, reduces a row against the pivots, consuming it:
entries may be any integers, and each is reduced mod p as it leaves for
the residual.  reduce, add and member hand it a copy, so their argument
is left alone; extend hands it the caller's rows themselves, for rows
built only to be inserted (the systems of sparsest_first and
from_columns), so that they go in without a normalising copy.

One sparse back-substitution serves kernel_basis and solve_sparse, whose
solution is the kernel vector of [columns | -target] at the augmented
column.  It builds once an index from each column to the pivots whose
row holds it, and from each free column visits only the pivots that
index reaches, largest first from a heap: a pivot row holds only
columns to its right, so every pivot reached from c lies left of c, and
when c is popped the entries its row reads are final.  The vectors are
those of a dense pass over all pivots in decreasing order, at a cost set
by the fill the kernel touches rather than by rank times nullity.

A complex needs the kernel only modulo a space B inside it.  If P is
the pivot set of an echelon of B, B maps onto the coordinates P
bijectively, so the other columns span a complement of B, a map that
kills B keeps its rank on them, and its kernel there meets each class
of Z / B once.  The same holds for the pivot set of any projection of B
onto some coordinates that is injective on B, which is cheaper to
eliminate (ceco projects B^n onto the tuples meeting the generators).
So sparsest_first eliminates B first and clears the columns of P (C.
Chen and M. Kerber, "Persistent homology computation with a twist",
EuroCG 2011): kernel_basis gives the representatives, and P never
fills.  B is keyed heaviest column first, so P takes dense columns away;
lightest first, the weight-zero d_2 of W1(2) at p = 7 eliminated slower
than with no clearing.

A linear map is given by its columns {j: {k: c}} (LinearMap).
SparseFpMatrix is the Echelon that also knows its column count, so it
has a kernel_basis and a nullity; its from_columns turns columns into
rows with transpose, the one transpose of the package (ceco writes d_n
straight into rows and transposes only the few of B^n), and solve_sparse
builds its augmented system [columns | -target] through from_columns.

A bilinear map f is given on pairs {(i, j): f(e_i, e_j)}, i < j for an
alternating map and i <= j for a symmetric one; bilinear_table lists it
by second argument, t -> [(z, f(e_z, e_t))].  Jacobi ([mu, mu] = 0 for
the Nijenhuis-Richardson bracket), the Massey square [Phi, Phi] of a
deformation (the same bracket) and associativity ([m, m] = 0 for the
Gerstenhaber bracket) all insert one bilinear map into another and
collect the terms by triple.  compose is that one insertion: it walks
the nonzero entries c e_m of g(e_x, e_y) and the row of m in the table
of f, so it visits only nonzero terms, and a triple that receives none
has value 0.  circle folds its terms onto sorted triples for alternating
maps; commutative associativity folds them in commalg.

Every bilinear map of the package (a bracket, a product, a cocycle) is
such a pair dict plus its sign, and each operation on one is written
once: bilinear_pairs normalizes, bilinear_get and bilinear_eval look up
and evaluate, family_add sums, bilinear_tensor forms P (x) Q for a
symmetric Q, and morphism_failure checks f([x, y]) = [fx, fy] for
alternating maps where it can fail.  Every tensor basis S (x) A of the
package puts e_i (x) a_m at m * dim S + i (tensor_index, inverse
tensor_pair), second factor major: e_i (x) x^(k) of W1(1) (x) O1(m)
sits where e_{pk+i} does in W1(m+1), so the Kuznetsov identification of
the two is the identity map.  check_family is the one entry
check of every family the package accepts (maps, brackets, products,
cochains): keys and targets are basis indices, values are ints; and
check_grading the one check of a grading, that of a Lie bracket or of
a commutative product.
"""

from collections import defaultdict
from heapq import heapify, heappop, heappush

__all__ = ["BudgetExceeded", "LinearMap", "SparseFpMatrix", "Echelon",
           "greedy_generators", "sparsest_first", "solve_sparse",
           "transpose", "vec_add", "vec_scale", "bilinear_table", "compose",
           "circle", "bilinear_pairs", "family_add", "tensor_index",
           "tensor_pair", "bilinear_tensor", "morphism_failure",
           "check_family", "check_grading"]

# The one default work budget of every budgeted computation (cohomology
# assembly in ceco, the bar complex in commalg, the claims' Ctx); kept
# here, below both, so that each can import it.
DEFAULT_BUDGET = 5_000_000


class BudgetExceeded(RuntimeError):
    """A budgeted computation would pass its work budget."""


def vec_scale(v, c, p):
    c %= p
    if c == 0:
        return {}
    return {k: (x * c) % p for k, x in v.items()}


def vec_add(u, v, p, scale=1):
    """u + scale v, for reduced u; entries of v enter after u's."""
    w = dict(u)
    for k, x in v.items():
        y = (w.get(k, 0) + scale * x) % p
        if y:
            w[k] = y
        else:
            w.pop(k, None)
    return w


def bilinear_pairs(pairs, sign, p):
    """The pair dict of a bilinear map with f(e_j, e_i) = sign f(e_i, e_j),
    from any keys: a key i > j becomes (j, i) with its vector times sign,
    entries are reduced mod p and zero vectors dropped.  Keys (i, j) and
    (j, i) that give different values raise ValueError."""
    out = {}
    for (i, j), vec in pairs.items():
        if i > j:
            i, j, vec = j, i, {k: sign * v for k, v in vec.items()}
            other = pairs.get((i, j))
            if other is not None and any(
                    (vec.get(k, 0) - other.get(k, 0)) % p
                    for k in vec.keys() | other.keys()):
                raise ValueError("conflicting values for the pair %r"
                                 % ((i, j),))
        vec = {k: v % p for k, v in vec.items() if v % p}
        if vec:
            out[(i, j)] = vec
    return out


def bilinear_get(pairs, sign, p, i, j):
    """f(e_i, e_j), any index order, for f given on pairs."""
    if i <= j:
        return pairs.get((i, j), {})
    vec = pairs.get((j, i), {})
    return vec if sign == 1 else vec_scale(vec, sign, p)


def bilinear_eval(pairs, sign, p, u, v):
    """f(u, v) on sparse vectors, for f given on pairs."""
    out = {}
    get = pairs.get
    for i, a in u.items():
        for j, b in v.items():
            if i <= j:
                w, c = get((i, j)), a * b
            else:
                w, c = get((j, i)), sign * a * b
            if w:
                for k, x in w.items():
                    y = (out.get(k, 0) + c * x) % p
                    if y:
                        out[k] = y
                    else:
                        out.pop(k, None)
    return out


def family_add(f, g, p, scale=1):
    """f + scale g for reduced families {key: sparse vector}, by vec_add
    per key; keys of g enter after f's, and empty vectors are dropped."""
    out = dict(f)
    for key, vec in g.items():
        out[key] = vec_add(out.get(key, {}), vec, p, scale)
    return {key: vec for key, vec in out.items() if vec}


def tensor_index(i, a, dim):
    """The position of e_i (x) a_a in S (x) A, dim = dim S."""
    return a * dim + i


def tensor_pair(x, dim):
    """(i, a) with tensor_index(i, a, dim) = x."""
    return x % dim, x // dim


def bilinear_tensor(P, sign, Q, dim, p):
    """P (x) Q on pairs: (e_i (x) e_a, e_j (x) e_b) -> P(e_i, e_j) (x)
    Q(e_a, e_b) on the tensor_index layout, for a reduced P on dim basis
    vectors with P(e_j, e_i) = sign P(e_i, e_j) and a reduced symmetric Q.
    Keys follow P's, then a, then b, each put in order with sign; a
    diagonal key (i, i) of P takes only a <= b."""
    rows = defaultdict(list)  # a -> [(b, Q(e_a, e_b))]
    for (a, b), vec in Q.items():
        rows[a].append((b, vec))
        if a != b:
            rows[b].append((a, vec))
    rows = sorted((a, sorted(row)) for a, row in rows.items())  # keys unique
    out = {}
    for (i, j), pv in P.items():
        for a, row in rows:
            x = tensor_index(i, a, dim)
            for b, qv in row:
                if i < j or a <= b:
                    y = tensor_index(j, b, dim)
                    s = 1 if x <= y else sign
                    out[(x, y) if x <= y else (y, x)] = {
                        tensor_index(k, m, dim): s * c * d % p
                        for k, c in pv.items() for m, d in qv.items()}
    return out


def morphism_failure(f, source, target):
    """The first pair (i, j), i < j, at which the linear map f fails to
    carry the alternating map source to target (both on pairs), as
    (i, j, f(source(e_i, e_j)), target(fe_i, fe_j)), or None.  Only a
    pair of source, or one whose images meet a pair of target (found
    through transpose(f.cols)), can fail."""
    p, cols = f.p, f.cols
    users = transpose(cols.items())
    pairs = set(source)
    for k, m in target:
        for i in users.get(k, ()):
            for j in users.get(m, ()):
                if i != j:
                    pairs.add((i, j) if i < j else (j, i))
    for i, j in sorted(pairs):
        lhs = f(source.get((i, j), {}))
        rhs = bilinear_eval(target, -1, p, cols.get(i, {}), cols.get(j, {}))
        if lhs != rhs:
            return i, j, lhs, rhs
    return None


def check_family(family, n, m, what):
    """Raise ValueError at the first entry key -> vec of family whose key
    is not a basis index in 0..n-1 (or a tuple of them), whose vec is not
    a dict {k: c}, or with a target k outside 0..m-1 or a value c that is
    not an int (type(c) is int: no bool, float or numpy integer)."""
    for key, vec in family.items():
        for i in key if type(key) is tuple else (key,):
            if not (type(i) is int and 0 <= i < n):
                break
        else:
            if isinstance(vec, dict):
                for k, c in vec.items():
                    if not (type(k) is type(c) is int and 0 <= k < m):
                        break
                else:
                    continue
        raise ValueError(
            "%s entry %r: %r needs basis indices in 0..%d, targets in "
            "0..%d and integer values" % (what, key, vec, n - 1, m - 1))


def check_grading(g, family, labels, what, filtration=False):
    """Raise ValueError unless g is None or one int degree per label
    under which every term e_k of each family[(i, j)] has degree g[i] +
    g[j] (at least that, with filtration); the message is what %
    (verdict, labels[i], labels[j])."""
    if g is None:
        return
    if len(g) != len(labels) or not all(type(x) is int for x in g):
        raise ValueError("grading must be %d integer degrees, one per "
                         "basis element, not %r" % (len(labels), g))
    for (i, j), vec in family.items():
        s = g[i] + g[j]
        for k in vec:
            if (g[k] < s) if filtration else (g[k] != s):
                raise ValueError(what % (
                    "drops below the filtration" if filtration
                    else "is not degree-additive", labels[i], labels[j]))


def bilinear_table(pairs, sign, p):
    """The table t -> [(z, f(e_z, e_t))] of the bilinear map f given by
    pairs[(i, j)] = f(e_i, e_j) and f(e_j, e_i) = sign f(e_i, e_j):
    sign -1 for an alternating map (keys i < j), +1 for a symmetric one,
    whose diagonal entries (keys i = j) are listed once."""
    table = {}
    for (i, j), vec in pairs.items():
        table.setdefault(j, []).append((i, vec))
        if i != j:
            table.setdefault(i, []).append(
                (j, vec if sign == 1 else vec_scale(vec, sign, p)))
    return table


def compose(inner, outer):
    """The nonzero terms of f(e_z, g(e_x, e_y)), for g given on pairs
    (inner) and f by its bilinear_table (outer): yields (x, y, c, row)
    for each entry c e_m of g(e_x, e_y) with a row in outer, whose terms
    are c w = f(e_z, c e_m) for (z, w) in row = outer[m] (in its items
    when outer holds dicts {z: w}, as CommAlgebra's table does)."""
    for (x, y), vec in inner.items():
        for m, c in vec.items():
            row = outer.get(m)
            if row:
                yield x, y, c, row


def circle(inner, outer, sums=None):
    """f o g for alternating f and g, f(g(a, b), c) + f(g(b, c), a) +
    f(g(c, a), b), on the sorted triples a < b < c that receive a term,
    accumulated unreduced into sums.  A term c w = f(e_z, g(e_x, e_y))
    of compose, x < y, enters its sorted triple as f(g(x, y), z) = -c w
    when z lies outside (x, y), as f(g(y, x), z) = +c w when x < z < y,
    and not at all when z is x or y."""
    if sums is None:
        sums = {}
    for x, y, c, row in compose(inner, outer):
        for z, w in row:
            if z > y:
                key, s = (x, y, z), -c
            elif z < x:
                key, s = (z, x, y), -c
            elif x < z < y:
                key, s = (x, z, y), c
            else:
                continue
            acc = sums.get(key)
            if acc is None:
                acc = sums[key] = {}
            for k, v in w.items():
                acc[k] = acc.get(k, 0) + s * v
    return sums


class Echelon:
    """Incremental row echelon over an arbitrary hashable column space."""

    def __init__(self, p):
        self.p = p
        self.pivots = {}  # pivot column -> normalized row without the pivot entry

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, row):
        """Canonical residual of row modulo the stored pivot rows: every
        pivot column gets eliminated, so against a fixed echelon this is a
        linear projection and residuals of equivalent vectors coincide."""
        return self._residual(dict(row))

    def add(self, row):
        """Insert a row; True iff it enlarged the span."""
        row = self._residual(dict(row))
        if row:
            self._store(row)
            return True
        return False

    def member(self, row):
        return not self._residual(dict(row))

    def extend(self, rows):
        """Insert rows the caller gives up: each is consumed, left empty,
        with no copy made (module docstring)."""
        residual, store = self._residual, self._store
        for row in rows:
            if row := residual(row):
                store(row)

    def _residual(self, row):
        """The residual of reduce, consuming row, whose entries may be any
        integers: an entry is reduced mod p as it is emitted."""
        p = self.p
        pivots = self.pivots
        # every live column of `row` is in the heap; a popped column that
        # cancelled since it was pushed is simply skipped
        heap = list(row)
        heapify(heap)
        out = {}
        while heap:
            c = heappop(heap)
            f = row.pop(c, None)
            if f is None:
                continue
            piv = pivots.get(c)
            if piv is None:
                f %= p
                if f:
                    out[c] = f
                continue
            # pivot tails only hold columns > c, so they land back in `row`
            for k, v in piv.items():
                y = row.get(k)
                if y is None:
                    row[k] = (-f * v) % p
                    heappush(heap, k)
                else:
                    y = (y - f * v) % p
                    if y:
                        row[k] = y
                    else:
                        del row[k]
        return out

    def _store(self, residual):
        """Store a nonzero residual as a pivot row: its leading column, the
        first emitted, is the pivot, and the tail is scaled to make it 1."""
        p = self.p
        c = next(iter(residual))
        f = pow(residual.pop(c), -1, p)
        self.pivots[c] = {k: (v * f) % p for k, v in residual.items()}

    def close(self, vecs, step, found=None):
        """Add vecs, then, for each vector that enlarged the span (last
        in, first out), the vectors of step(v) one at a time as they are
        produced.  Returns found, extended by every vector that enlarged
        the span."""
        found = [] if found is None else found
        work, todo = [], vecs
        while True:
            for v in todo:
                if self.add(v):
                    found.append(v)
                    work.append(v)
            if not work:
                return found
            todo = step(work.pop())

    def rows(self):
        """The stored rows with pivot entry 1, sorted by pivot."""
        return [{c: 1, **tail} for c, tail in sorted(self.pivots.items())]


def greedy_generators(p, dim, order, times, base=()):
    """Basis indices S that, with the vectors base, generate all dim
    coordinates under the product times(g, v) (g an index, v a sparse
    vector): each index of order outside the span generated so far
    joins, then, latest first, each one that the others generate goes.

    The span V generated by S, the least holding S and base with
    times(s, V) in V, is grown by Echelon.close without the Jacobi
    identity.  It is spanned by the monomials in S for a commutative
    associative product with base the unit, by the right-normed products
    [s_1, [s_2, .. s_k]] for a Lie bracket (N. Jacobson, Lie Algebras,
    1962).  As V = L, a subspace holding S and closed under each ad_s is
    L, and S does the work of the basis in:
    - Jacobi (LieAlgebra.generators): ad_[s,x] = [ad_s, ad_x] when ad_s
      is a derivation, so Jacobi on the triples that meet S suffices;
    - rows of d_n, closure and boundaries (ceco): with the Cartan
      identities i_[x,y] = [L_x, i_y], L_x = d i_x + i_x d (Chevalley,
      Eilenberg), a closed cochain psi has i_[s,z] psi = L_s i_z psi -
      i_z d i_s psi, so psi = 0 when its coordinates (U, k) with U
      meeting S vanish.  With psi = d phi, d phi = 0 when those rows of
      d phi vanish; with psi in B^n, B^n projects onto those
      coordinates injectively;
    - center (liealg.center): a centralizer is a subalgebra, and so is
      the kernel of a derivation (claims._outer_intersection);
    - ideals (liealg.ideal_generated_by): ad [s, x] = [ad s, ad x]."""
    def grow(span, gens, seeds, found):
        def step(v):
            if span.rank < dim:  # a span of everything is closed
                for g in gens:
                    if w := times(g, v):
                        yield w
        return span.close(seeds, step, found)

    def join(span, gens, i, found):  # found was multiplied by gens only
        gens.append(i)
        grow(span, gens, [{i: 1}] + [w for v in found
                                     if (w := times(i, v))], found)

    span, gens, sizes = Echelon(p), [], []
    found = grow(span, gens, list(base), [])
    for i in order:
        if span.rank == dim:
            break
        if not span.member({i: 1}):
            sizes.append(len(found))  # found[:size] spans what gens grew
            join(span, gens, i, found)

    def spans(k):  # do gens[:k] and kept generate? grown from gens[:k]
        span, rest, sub = Echelon(p), gens[:k], found[:sizes[k]]
        for v in sub:
            span.add(v)
        for i in kept:
            join(span, rest, i, sub)
        return span.rank == dim

    # latest first, gens[m] goes if gens[:m] and kept generate; with kept
    # fixed a longer prefix generates more, so gallop to the shortest
    kept, k = [], len(gens)
    while k:  # gens[:k] and kept generate
        lo, hi = k - 1, k
        while lo >= 0 and spans(lo):
            lo, hi = max(lo - 2 * (hi - lo), -1), lo
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if spans(mid) else (mid, hi)
        kept[:0] = gens[hi - 1:hi]  # gens[hi:k] go, gens[hi - 1] stays
        k = max(hi - 1, 0)
    return tuple(kept)


def transpose(columns):
    """The rows {k: {j: c}} of the matrix whose columns are the given
    (j, {k: c}) pairs, each row in the order its columns come; the pairs
    may be a generator, so the columns need not be held."""
    rows = defaultdict(dict)
    for j, col in columns:
        for k, c in col.items():
            rows[k][j] = c
    return rows


class LinearMap:
    """Linear map from source to target (anything with p and dim), by
    sparse columns: cols[j] is the image of the j-th basis vector."""

    def __init__(self, source, target, cols):
        check_family(cols, source.dim, target.dim, "linear map")
        p = self.p = target.p
        self.source = source
        self.target = target
        self.cols = {}
        for j, col in cols.items():
            col = {k: v % p for k, v in col.items() if v % p}
            if col:
                self.cols[j] = col

    def __call__(self, vec):
        out = {}
        p = self.p
        for j, c in vec.items():
            for k, v in self.cols.get(j, {}).items():
                y = (out.get(k, 0) + c * v) % p
                if y:
                    out[k] = y
                else:
                    out.pop(k, None)
        return out

    def flatten(self):
        """The matrix as one sparse vector: entry (j, k) at j * dim + k."""
        n = self.target.dim
        return {j * n + k: v for j, col in self.cols.items()
                for k, v in col.items()}

    def rank(self):
        """Rank, from an echelon of the columns."""
        ech = Echelon(self.p)
        for col in self.cols.values():
            ech.add(col)
        return ech.rank


class SparseFpMatrix(Echelon):
    """An Echelon that also knows its column count: a linear system on
    ncols unknowns, built row by row (add) or, by from_columns, from the
    columns of a linear map; used for exact rank and kernel computations."""

    def __init__(self, ncols, p):
        super().__init__(p)
        self.ncols = ncols

    @classmethod
    def from_columns(cls, columns, ncols, p):
        """The system on ncols unknowns whose j-th column is columns[j]
        (absent columns are zero): its kernel is that of the map."""
        m = cls(ncols, p)
        m.extend(transpose(columns.items()).values())
        return m

    @property
    def nullity(self):
        return self.ncols - self.rank

    def kernel_basis(self):
        """One kernel vector per non-pivot column, in increasing column
        order (_back_substitute)."""
        pivots = self.pivots
        frees = [f for f in range(self.ncols) if f not in pivots]
        return list(_back_substitute(pivots, frees, self.p))


def _back_substitute(pivots, frees, p):
    """Yield, for each free column f of the echelon pivots, its kernel
    vector: a 1 at f, 0 at every other free column, and v[c] =
    -sum(row_c[k] v[k]) at each pivot c, set largest first through the
    index `users` (module docstring)."""
    users = {}
    for c, row in pivots.items():
        for k in row:
            users.setdefault(k, []).append(c)
    for f in frees:
        v = {f: 1}
        heap = [-c for c in users.get(f, ())]
        heapify(heap)
        last = None
        while heap:
            c = -heappop(heap)
            if c == last:  # pushed more than once; pops come in order
                continue
            last = c
            s = 0
            for k, val in pivots[c].items():
                x = v.get(k)
                if x:
                    s += val * x
            s = (-s) % p
            if s:
                v[c] = s
                for u in users.get(c, ()):
                    heappush(heap, -u)
        yield v


def sparsest_first(weights, boundary, build, p):
    """(order, m): the SparseFpMatrix m of the rows that build(pos)
    yields, inserted in that order, on the columns 0..len(weights)-1 less
    the pivot set P of the boundary, inserted shortest first and keyed
    heaviest column first: vectors spanning a space B that the rows
    kill, or a projection of B that is injective on it (module
    docstring).  order[i] is the column at position i, pos[j] the
    position of column j (None for j in P), and build writes each entry
    of column j at pos[j] and skips P.  So len(order) = len(weights) -
    rank B, and m.kernel_basis() has one vector per class modulo B."""
    n, top = len(weights), max(weights, default=0)
    span = Echelon(p)
    span.extend(_shortest_first(
        {(top - weights[j]) * n + j: c for j, c in vec.items()}
        for vec in boundary))
    cleared = {k % n for k in span.pivots}
    order = sorted((j for j in range(n) if j not in cleared),
                   key=weights.__getitem__)  # stable
    pos = [None] * n
    for i, c in enumerate(order):
        pos[c] = i
    m = SparseFpMatrix(len(order), p)
    m.extend(build(pos))
    return order, m


def _shortest_first(rows):
    """The rows shortest first (ties in arrival order), each dropped once
    yielded: an insertion order for a caller that holds all its rows
    anyway (module docstring).  The sort waits for the first row asked."""
    rows = sorted(rows, key=len)
    rows.reverse()
    while rows:
        yield rows.pop()


def solve_sparse(columns, target, p):
    """One x with sum_j x_j columns[j] = target, free unknowns set to 0,
    or None when target lies outside the span of the columns.  Unknowns
    are the integer column keys; columns and target are sparse vectors
    over one coordinate space.  They keep natural order, which fixes the
    witnesses of solve_delta1 and the lifted families."""
    # augmented column -target; larger than every unknown, so it is never
    # chosen as a min-column pivot before the unknowns are exhausted, and
    # the kernel vector with a 1 there is (x, 1)
    RHS = max(columns, default=-1) + 1
    m = SparseFpMatrix.from_columns(
        {**columns, RHS: {k: -c for k, c in target.items()}}, RHS + 1, p)
    if RHS in m.pivots:
        return None
    (x,) = _back_substitute(m.pivots, [RHS], p)
    del x[RHS]
    return x
