"""Sparse exact linear algebra over F_p.

Vectors are dicts {column: nonzero residue}.  The central structure is an
incremental echelon form with min-column pivoting: each inserted row is
reduced against the existing pivot rows and either vanishes or contributes
a new pivot.  A stored pivot row has its pivot column removed and is
normalized so the pivot coefficient is 1; every remaining entry of a pivot
row sits in a column strictly greater than the pivot column, which makes
back-substitution in decreasing column order valid for kernels and solves.
All ranks are exact; rank + nullity = number of columns by construction.

Reduction takes the smallest live column from a heap instead of scanning
the row for its minimum at every step: a column is pushed when it enters
the row, and a popped column that has cancelled since is skipped.  Since
pivot tails only reach to the right, the columns come out in increasing
order, so the residual is the same as with a scan.

The order in which rows are inserted changes the stored pivot rows and
their fill, but no result: the pivot set is {min(v) : v != 0 in the row
space}, which depends on the span alone, and for each free column there
is exactly one kernel vector with a 1 there and 0 at every other free
column, so kernel_basis is order-independent as well.  So is the
solution solve_sparse returns: with every free unknown 0, the pivot
unknowns are determined.  Callers may therefore insert rows in whatever
order keeps elimination cheap: all systems but two (their docstrings
say why) use sparsest_first, the structured Gaussian elimination of
LaMacchia and Odlyzko (CRYPTO '90).  Rows go in shortest first, each
freed once inserted; columns go sparsest first by a weight read off the
caller's tables, not its rows (ties in key order), so pivots land on
sparse columns and fill on dense ones.  A column order changes no rank,
only which columns are free: the kernel gets another basis.

One sparse back-substitution serves kernel_basis and solve_sparse, whose
solution is the kernel vector of [columns | -target] at the augmented
column.  It builds once an index from each column to the pivots whose
row holds it, and from each free column visits only the pivots that
index reaches, largest first from a heap: a pivot row holds only
columns to its right, so every pivot reached from c lies left of c, and
when c is popped the entries its row reads are final.  The vectors are
those of a dense pass over all pivots in decreasing order, at a cost set
by the fill the kernel touches rather than by rank times nullity.

kernel_basis(modulo=S), S a span inside the kernel, returns only the
k_f that the loop "keep k_f if it enlarges S + the k_g kept so far"
keeps, in the same order, without running it.  Projection onto the
free columns is injective on the kernel and sends k_g to e_g, so f is
dropped exactly when some vector of the projected S has its last free
column at f: the pivots of one echelon of that projection on keys -f.

A linear map is given by its columns {j: {k: c}}: column j is the image
of the j-th source basis vector.  LinearMap applies and flattens such
columns, SparseFpMatrix.from_columns takes the rank and kernel of the
map they give, and solve_sparse finds a preimage; both turn the columns
into rows with transpose, the one transpose of the package, so no caller
builds rows by hand.  The rank of
a map may equally be read off an echelon of its columns, since column
rank equals row rank.

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
and evaluate, family_add sums, bilinear_tensor forms P (x) Q, and
morphism_failure checks f(P(x, y)) = Q(fx, fy) where it can fail.
"""

from collections import defaultdict
from heapq import heapify, heappop, heappush

from .arith import inv_mod

__all__ = ["BudgetExceeded", "LinearMap", "SparseFpMatrix", "Echelon",
           "greedy_generators", "sparsest_first", "solve_sparse",
           "transpose", "vec_add", "vec_scale", "bilinear_table", "compose",
           "circle", "bilinear_pairs", "family_add", "bilinear_tensor",
           "morphism_failure"]

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


def bilinear_tensor(P, Q, sign, dim, p):
    """P (x) Q on pairs: (e_i (x) e_a, e_j (x) e_b) -> P(e_i, e_j) (x)
    Q(e_a, e_b), e_i (x) e_a at i * dim + a, for reduced P and Q with
    Q(e_b, e_a) = sign Q(e_a, e_b) on dim basis vectors.  Keys follow
    P's, then a, then b; a diagonal key (i, i) of P takes only a <= b."""
    rows = [[] for _ in range(dim)]  # a -> sorted [(b, Q(e_a, e_b))]
    for (a, b), vec in Q.items():
        rows[a].append((b, vec))
        if a != b:
            rows[b].append((a, vec_scale(vec, sign, p)))
    for row in rows:
        row.sort(key=lambda t: t[0])
    out = {}
    for (i, j), pv in P.items():
        x, y = i * dim, j * dim
        for a, row in enumerate(rows):
            for b, qv in row:
                if i < j or a <= b:
                    out[(x + a, y + b)] = {k * dim + m: c * d % p
                                           for k, c in pv.items()
                                           for m, d in qv.items()}
    return out


def morphism_failure(f, source, target, sign):
    """The first pair (i, j), i < j for sign -1 and i <= j for +1, at
    which the linear map f fails to carry source to target (bilinear
    maps on pairs), as (i, j, f(source(e_i, e_j)), target(fe_i, fe_j)),
    or None.  Only a pair of source, or one whose images meet a pair of
    target (found through transpose(f.cols)), can fail."""
    p, cols = f.p, f.cols
    users = transpose(cols.items())
    pairs = set(source)
    for k, m in target:
        for i in users.get(k, ()):
            for j in users.get(m, ()):
                pairs.add((i, j) if i <= j else (j, i))
    for i, j in sorted(pairs):
        if i == j and sign == -1:
            continue
        lhs = f(source.get((i, j), {}))
        rhs = bilinear_eval(target, sign, p, cols.get(i, {}), cols.get(j, {}))
        if lhs != rhs:
            return i, j, lhs, rhs
    return None


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
    are c w = f(e_z, c e_m) for (z, w) in row = outer[m]."""
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
        p = self.p
        pivots = self.pivots
        row = {k: v % p for k, v in row.items() if v % p}
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

    def add(self, row):
        """Insert a row; True iff it enlarged the span."""
        row = self.reduce(row)
        if not row:
            return False
        c = next(iter(row))  # reduce() emits columns in increasing order
        f = inv_mod(row.pop(c), self.p)
        self.pivots[c] = {k: (v * f) % self.p for k, v in row.items()}
        return True

    def member(self, row):
        return not self.reduce(row)

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
    """Basis indices that, with the vectors base, generate all dim
    coordinates under the product times(g, v) (g an index, v a sparse
    vector).  Each index of order that lies outside the span generated
    so far joins; finally, latest first, each one that the others
    generate is dropped.

    The span generated by a set S is grown by Echelon.close under v ->
    times(g, v) for the g in S alone.  That is the subalgebra S
    generates: it is spanned by the right-normed products [s_1, [s_2,
    .. [s_(k-1), s_k]]] of elements of S (N. Jacobson, Lie Algebras,
    1962), given the Jacobi identity, and for a commutative associative
    product with base the unit, by the monomials in S.  A new generator
    i is seeded with e_i and times(i, v) for every v found so far, since
    the earlier vectors were multiplied by the earlier generators only.
    By the same fact, with ad [x, y] = [ad x, ad y], every ad x is a sum
    of products of the ad g, so a span closed under the generators of a
    Lie algebra is an ideal."""
    def grow(span, gens, seeds, found):
        def step(v):
            if span.rank < dim:  # a span of everything is closed
                for g in gens:
                    if w := times(g, v):
                        yield w
        return span.close(seeds, step, found)

    span, gens = Echelon(p), []
    found = grow(span, gens, list(base), [])
    for i in order:
        if span.rank == dim:
            break
        if not span.member({i: 1}):
            gens.append(i)
            grow(span, gens, [{i: 1}] + [w for v in found
                                         if (w := times(i, v))], found)
    for g in reversed(gens):
        rest = [h for h in gens if h != g]
        seeds = list(base) + [{h: 1} for h in rest]
        if len(grow(Echelon(p), rest, seeds, [])) == dim:  # len = rank
            gens = rest
    return tuple(gens)


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

    def is_bijective(self):
        return self.source.dim == self.target.dim == self.rank()


class SparseFpMatrix:
    """Sparse matrix understood as a linear system on `ncols` unknowns,
    built row by row or, by from_columns, from the columns of a linear
    map; used for exact rank and kernel computations."""

    def __init__(self, ncols, p):
        self.ncols = ncols
        self.p = p
        self.ech = Echelon(p)

    @classmethod
    def from_columns(cls, columns, ncols, p):
        """The system on ncols unknowns whose j-th column is columns[j]
        (absent columns are zero): its kernel is that of the map."""
        m = cls(ncols, p)
        for row in transpose(columns.items()).values():
            m.add_row(row)
        return m

    def add_row(self, row):
        return self.ech.add(row)

    @property
    def rank(self):
        return self.ech.rank

    @property
    def nullity(self):
        return self.ncols - self.rank

    def kernel_basis(self, modulo=None):
        """One kernel vector per non-pivot column, in increasing column
        order (_back_substitute); with modulo, an Echelon whose span lies
        in the kernel, only those that "keep v if modulo.add(v)" keeps,
        leaving modulo unchanged (module docstring)."""
        pivots, p = self.ech.pivots, self.p
        frees = [f for f in range(self.ncols) if f not in pivots]
        if modulo is not None:
            last = Echelon(p)  # min-column on keys -f: pivots are last columns
            for c, row in modulo.pivots.items():
                vec = {-k: v for k, v in row.items() if k not in pivots}
                if c not in pivots:
                    vec[-c] = 1
                last.add(vec)
            if last.rank != modulo.rank:
                raise ValueError("the modulo span is not in the kernel")
            frees = [f for f in frees if -f not in last.pivots]
        return list(_back_substitute(pivots, frees, p))


def _back_substitute(pivots, frees, p):
    """Yield, for each free column f of the echelon pivots, its kernel
    vector: a 1 at f, 0 at every other free column, and v[c] =
    -sum(row_c[k] v[k]) at each pivot c.  Only pivots whose row holds a
    column already set can be nonzero, so they are reached through the
    index `users` and set largest first (module docstring)."""
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


def sparsest_first(weight, rows, p):
    """(order, m): the SparseFpMatrix m of rows, sparse rows on the keys
    of weight {key: weight} re-keyed as they come; order[i] is the key of
    column i (module docstring)."""
    order = sorted(weight, key=lambda c: (weight[c], c))
    del weight  # freed here unless the caller holds it
    pos = {c: i for i, c in enumerate(order)}
    rows = [{pos[c]: v for c, v in row.items()} for row in rows]
    del pos
    rows.reverse()  # a stable sort, popped, gives ties in arrival order
    rows.sort(key=len, reverse=True)
    m = SparseFpMatrix(len(order), p)
    while rows:
        m.add_row(rows.pop())
    return order, m


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
    rows = transpose(columns.items())
    for k, c in target.items():
        rows[k][RHS] = -c
    ech = Echelon(p)
    for row in rows.values():
        if ech.add(row) and RHS in ech.pivots:
            return None
    (x,) = _back_substitute(ech.pivots, [RHS], p)
    del x[RHS]
    return x
