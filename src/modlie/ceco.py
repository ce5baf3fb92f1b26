"""Chevalley-Eilenberg cohomology of finite-dimensional Lie algebras
over F_p, with adjoint or trivial coefficients.

The differential convention is

    d phi(x_0..x_n) = sum_{i<j} (-1)^{i+j} phi([x_i,x_j], x_0..^i..^j..x_n)
                    + sum_i (-1)^i x_i . phi(x_0..^i..x_n)

so the kernel of d on 1-cochains with adjoint coefficients is the space
of derivations.  Cochains are stored on sorted basis tuples.  One
stencil, _stencil, writes d of the elementary cochains (tuple T, target
t), the columns, straight into the rows (U, k) of d.  It reads the
cached bracket tables L.rev and L.ad tuple-major, so T's bracket terms
serve all its targets, and resolves each U to an integer once per T, so
an entry costs dict operations on integers.  A row that a cancellation
empties in the column that made it is deleted, and so made anew at the
end by a later touch; a row made earlier keeps an entry.  So the rows,
their order and their entries' order are those of transposing the
column images, and so are every pivot row and kernel vector.  Each
column's distinct nonzero entries are charged to the work budget.

A closed cochain whose coordinates (U, k) with U meeting S =
L.generators all vanish is zero (linalg.greedy_generators), on any
slice, for every n and both modules.  The lemma is used twice:
- of d_n, cohomology_dim keeps only the rows (U, k) whose tuple U holds
  an element of S, and closure_failure sums only those: they have the
  kernel of all rows.  So the rank, the pivot set (the least columns of
  the row space, which the kernel fixes) and the kernel basis are those
  of the whole matrix, while weight-zero H^2 of W1(1)(x)O1(1) or W1(2)
  at p = 7 keeps one row in five or in eight;
- B^n is a space of closed cochains, so its projection onto the
  columns (T, t) with T meeting S is injective.  _coboundaries assembles
  B^n on those coordinates alone (L.generator_tables), for
  cohomology_dim, and for class_span_dim and coboundary_witness, which
  project their closed cochains there: every span and witness is exact,
  in any degree n >= 1 (Massey brackets are classed in H^3).

d_n is eliminated by linalg.sparsest_first, its rows shortest first
(all are built before any is inserted), after the projection of
B^n, whose pivot columns P are cleared from d_n before it is built: B^n
maps onto the coordinates P bijectively and d_n kills it, so the other
columns keep the rank of d_n, and its kernel there is one cocycle per
class of H^n.  On weight-zero H^2 at p = 7 the projection holds 1 149 of
the 8 232 entries of B^n for W1(1)(x)O1(1), and 899 of 8 517 for W1(2),
and P lies where the kept rows are dense.  A column weighs its count of
stencil terms in the whole d_n, read off the lengths of L.ad and L.rev:
in the kept rows alone every column that meets S looks dense, and that
order gave weight-one H^3 of W1(2) at p = 5 three times the fill.  The column
order is fixed before d_n is assembled, so each entry is written at its
column's elimination position.

When the algebra has a toral basis element t the complex splits by
weight, and with a Z-grading also by degree.  A ComplexSlice holds the
grade of each basis element as data (weight mod p and/or degree); a
column's grade is its target's less its tuple's.  It refuses grades
that some bracket term does not add up to, and additive grades keep d
on the slice for both modules and every n.  chain_columns buckets the
targets by grade once, and each tuple reads the bucket its grade asks
for: one grade per tuple and one per target, not one per candidate.
By Cartan's formula theta(t) = d i_t + i_t d, t acts on the weight-w
part of a degree slice by w, so that part is acyclic for w != 0:
positive_cohomology reads each degree at weight zero.  i_t keeps
degrees where it must: by degree additivity a t of some nonzero weight
lies in degree 0, and a t of all weights 0 has the degree slice as its
weight-zero slice.  A degree with no weight-zero column of C^n is not
queried: _column_degrees reads the column degrees off the (degree,
weight) sums of n distinct basis elements, not off the tuples.
"""

import itertools
import math
import time
from bisect import bisect_left
from collections import defaultdict
from operator import itemgetter

from .linalg import (DEFAULT_BUDGET, BudgetExceeded, Echelon, bilinear_table,
                     _shortest_first, check_family, circle, family_add,
                     solve_sparse, sparsest_first, transpose, vec_scale)

__all__ = [
    "BudgetExceeded",
    "Cochain",
    "ce_differential",
    "closure_failure",
    "ComplexSlice",
    "chain_columns",
    "CohomologyResult",
    "cohomology_dim",
    "weight_zero_reduce",
    "coboundary_witness",
    "class_span_dim",
    "massey_bracket",
    "positive_cohomology",
]

def _check_module(module):
    if module not in ("adjoint", "trivial"):
        raise ValueError("module must be 'adjoint' or 'trivial', not %r"
                         % (module,))


class Cochain:
    """Alternating n-cochain on L with values in the adjoint or trivial
    module, stored as {sorted basis tuple: sparse target vector}; the
    trivial module uses the single target key 0.  Entries pass
    linalg.check_family (basis indices of L, targets of the module, int
    values); each key must also be a sorted n-tuple of distinct
    indices."""

    def __init__(self, L, n, module, coeffs=None):
        _check_module(module)
        self.L = L
        self.n = n
        self.module = module
        self.coeffs = {}
        coeffs = coeffs or {}
        check_family(coeffs, L.dim, L.dim if module == "adjoint" else 1,
                     "cochain")
        for T, vec in coeffs.items():
            if (type(T) is not tuple or len(T) != n
                    or list(T) != sorted(set(T))):
                raise ValueError("cochain key %r is not a sorted %d-tuple of "
                                 "distinct indices" % (T, n))
            vec = {k: v % L.p for k, v in vec.items() if v % L.p}
            if vec:
                self.coeffs[T] = vec

    def is_zero(self):
        return not self.coeffs

    def add(self, other, scale=1):
        if (other.L, other.n, other.module) != (self.L, self.n, self.module):
            raise ValueError("cochain mismatch: %r, not %r" % (other, self))
        return Cochain(self.L, self.n, self.module, family_add(
            self.coeffs, other.coeffs, self.L.p, scale))

    def scale(self, c):
        return Cochain(self.L, self.n, self.module, {
            T: vec_scale(vec, c, self.L.p) for T, vec in self.coeffs.items()
        })

    def flatten(self):
        return {
            (T, k): v for T, vec in self.coeffs.items() for k, v in vec.items()
        }

    def __repr__(self):
        return "<Cochain n=%d %s on %s, %d terms>" % (
            self.n, self.module, self.L.name, len(self.coeffs))


def _stencil(L, module, cols, restrict, budget, counter, slices):
    """The rows of d on the columns ((T, t), key), those of one sorted T
    adjacent, as (rows, name): rows {r: {key: c}} in the order they are
    first touched (module docstring), name(r) = (U, k) the row's tuple
    and target.  Column (T, t) sends T to e_t (to 1 in the trivial
    module, t = 0): module-action terms insert one z into T (sign by
    position, value [e_z, e_t] from L.ad), then T's bracket terms follow
    at (U, t): a support index m splits into a pair (i, j) with [e_i, e_j]
    touching e_m (L.rev).  With restrict = (S, ad, rev) from L.tables_for,
    only U meeting S: the whole tables serve where the rest of T meets S,
    the filtered ones elsewhere.  Each column's distinct nonzero entries
    are charged to counter[0], BudgetExceeded once past budget."""
    p, dim, adjoint = L.p, L.dim, module == "adjoint"
    index, rows, used = {}, {}, counter[0]  # index: U -> dim * (U's index)
    for T, run in itertools.groupby(cols, lambda col: col[0][0]):
        ad, inserts, terms = L.ad, {}, []
        if restrict is not None:
            S, ad_S, rev_S = restrict
            hits = sum(x in S for x in T)
            ad = ad if hits else ad_S
        for a, m in enumerate(T):
            rest = T[:a] + T[a + 1:]
            rev = rev_S if restrict is not None and hits == (m in S) else L.rev
            for (i, j), c in rev.get(m, ()):
                if i not in rest and j not in rest:
                    odd = a + bisect_left(rest, i) + bisect_left(rest, j) + 1
                    U = tuple(sorted(rest + (i, j)))
                    terms.append((index.setdefault(U, len(index) * dim),
                                  -c % p if odd % 2 else c))
        for (_, t), key in run:
            for z, vec in ad.get(t, ()) if adjoint else ():
                at = inserts.get(z)  # (base, sign) of T with z inserted
                if at is None:
                    i = bisect_left(T, z)
                    at = inserts[z] = () if z in T else (index.setdefault(
                        T[:i] + (z,) + T[i:], len(index) * dim), (-1) ** i)
                if not at:
                    continue
                b, sgn = at
                for k, c in vec.items():
                    r, c = b + k, sgn * c % p
                    row = rows.get(r) or rows.setdefault(r, {})
                    if (y := row.get(key)) is None:
                        row[key] = c
                        used += 1
                    elif y := (y + c) % p:
                        row[key] = y
                    else:
                        del row[key]
                        used -= 1
                        if not row:
                            del rows[r]
            for b, c in terms:
                r = b + t
                row = rows.get(r) or rows.setdefault(r, {})
                if (y := row.get(key)) is None:
                    row[key] = c
                    used += 1
                elif y := (y + c) % p:
                    row[key] = y
                else:
                    del row[key]
                    used -= 1
                    if not row:
                        del rows[r]
            if used > budget:
                raise _over_budget(budget, slices)
    counter[0] = used
    tuples = list(index)
    return rows, lambda r: (tuples[r // dim], r % dim)


def _image(c, restrict=None):
    """d c as {U: {k: value}}: _stencil's rows on c's terms, each summed
    with c's coefficients."""
    L, p = c.L, c.L.p
    scale = [a for vec in c.coeffs.values() for a in vec.values()]
    cols = ((T, t) for T, vec in c.coeffs.items() for t in vec)
    rows, name = _stencil(L, c.module, zip(cols, itertools.count()),
                          restrict, math.inf, [0], ())
    out = defaultdict(dict)
    for r, row in rows.items():
        U, k = name(r)
        out[U][k] = sum(scale[j] * v for j, v in row.items()) % p
    return out


def ce_differential(c):
    """The Chevalley-Eilenberg differential of c (_image); ValueError if
    c.L fails Jacobi."""
    c.L.generators
    return Cochain(c.L, c.n + 1, c.module, _image(c))


def closure_failure(c):
    """None when d c = 0, else (T, d c at T) for the least T with d c at
    T nonzero.  Only the rows of d that meet L.generators are summed
    (module docstring); ce_differential names a failure."""
    if not any(any(row.values())
               for row in _image(c, c.L.generator_tables).values()):
        return None
    dc = ce_differential(c)
    T = min(dc.coeffs)
    return T, dc.coeffs[T]


class ComplexSlice:
    """Restriction of the cochain complex to one weight class (mod p,
    via the toral element) and/or one exact integer degree (via the
    Z-grading; refused on merely filtered algebras, where degrees are
    not additive).  Grades of basis elements are data; a grade that some
    bracket term does not add up to is refused ("not closed under d")."""

    def __init__(self, L, module="adjoint", weight=None, degree=None):
        _check_module(module)
        for name, x in (("weight", weight), ("degree", degree)):
            if x is not None and type(x) is not int:
                raise ValueError("%s must be an integer, not %r" % (name, x))
        if weight is not None and L.toral is None:
            raise ValueError("weight slice needs a toral element")
        if degree is not None:
            if L.grading is None:
                raise ValueError("degree slice needs a grading")
            if L.filtration:
                raise ValueError(
                    "degree slices are invalid on a filtered algebra")
        self.L = L
        self.module = module
        self.weight = weight % L.p if weight is not None else None
        self.degree = degree
        # (grade of each basis element, modulus) per fixed coordinate
        self._coords = [(L.weights, L.p)] if weight is not None else []
        if degree is not None:
            self._coords.append((L.grading, 0))
        L.generators  # a non-Lie bracket is named before its grades
        names = ("weight", "degree")[weight is None:]
        for (g, m), name in zip(self._coords, names):
            for (i, j), vec in L.bracket.items():
                for k in vec:
                    d = g[i] + g[j] - g[k]
                    if d % m if m else d:
                        raise ValueError(
                            "slice is not closed under d: the %s of [%s, %s] "
                            "is not that of its term %s" % (
                                name, L.labels[i], L.labels[j], L.labels[k]))
        self.target = tuple(x for x in (self.weight, degree) if x is not None)

    def grade(self, T, t=None):
        """Grade of the column (T, t): that of e_t (zero in the trivial
        module or for t = None) less those of T's elements, the weight
        reduced mod p."""
        out = []
        for g, m in self._coords:
            s = -sum(g[x] for x in T)
            if t is not None and self.module == "adjoint":
                s += g[t]
            out.append(s % m if m else s)
        return tuple(out)

    def __str__(self):
        return ", ".join("%s=%s" % (k, v) for k, v in (
            ("weight", self.weight), ("degree", self.degree)) if v is not None)

    def descriptor(self):
        return {"module": self.module, "weight": self.weight,
                "degree": self.degree,
                "toral": self.L.toral if self.weight is not None else None}


def chain_columns(L, n, module="adjoint", slice_=None):
    """Enumerate the (tuple, target) columns of C^n, in lexicographic
    tuple order; target 0 stands for the ground field in the trivial
    module.  On a slice each tuple T reads the bucket of targets its grade
    asks for.  A slice built on another algebra or for the other module
    is refused."""
    if slice_ is not None and slice_.L is not L:
        raise ValueError("slice built on another algebra than %s" % L.name)
    if slice_ is not None and slice_.module != module:
        raise ValueError("slice built for the %s module, not the %s one"
                         % (slice_.module, module))
    if n < 0:
        return []
    targets = range(L.dim) if module == "adjoint" else (0,)
    tuples = itertools.combinations(range(L.dim), n)
    if slice_ is None:
        return [(T, t) for T in tuples for t in targets]
    buckets = defaultdict(list)  # (T, t) has grade grade(T) + grade((), t)
    for t in targets:
        need = zip(slice_.target, slice_.grade((), t), slice_._coords)
        buckets[tuple((w - x) % m if m else w - x
                      for w, x, (_, m) in need)].append(t)
    return [(T, t) for T in tuples for t in buckets.get(slice_.grade(T), ())]


class CohomologyResult:
    """dim H^n, its ranks, representatives when asked for, and stats:
    seconds per stage (enumerate, assemble, rank_prev, rank_d, reps),
    the columns, kept rows and entries of d_n, the entries of B^n
    eliminated (nnz_prev, its projection), and the entries charged to the
    budget."""

    def __init__(self, dim, ncols, rank_d, rank_prev, reps=None, stats=None):
        self.dim = dim
        self.ncols = ncols
        self.rank_d = rank_d
        self.rank_prev = rank_prev
        self.reps = reps
        self.stats = stats

    def __repr__(self):
        return "<H dim=%d (cols=%d, rank d=%d, rank prev=%d)>" % (
            self.dim, self.ncols, self.rank_d, self.rank_prev)


def _over_budget(budget, slices):
    """The BudgetExceeded of a differential: what exceeded which budget,
    with the slices named; the command that caught it gives the advice."""
    named = "; ".join(str(s) for s in slices if s is not None)
    where = " on the slice " + named if named else ""
    return BudgetExceeded("differential%s exceeds the %d-entry budget"
                          % (where, budget))


def cohomology_dim(L, n, module="adjoint", slice_=None, budget=DEFAULT_BUDGET,
                   want_reps=False):
    """dim H^n(L; module) on the chosen slice (the whole complex when
    slice_ is None), by exact sparse ranks:

        dim H^n = #C^n - rank(d_n) - rank(d_{n-1}).

    B^n and the rows of d_n are assembled only on the tuples that meet
    L.generators (_coboundaries, module docstring).  B^n is eliminated
    first, and d_n on the columns outside its pivots; their kernel basis,
    one cocycle per class, is the representatives with want_reps.  The
    budget counts the entries assembled; a query with more tuples in C^n
    or C^(n-1) is refused before they are enumerated.  ValueError is
    raised on an unknown module, when L fails Jacobi, and on a slice
    built for another algebra or module (chain_columns); a slice that d
    leaves is refused when it is built."""
    _check_module(module)
    L.generators
    for k in (n, n - 1):
        if k >= 0 and math.comb(L.dim, k) > budget:
            raise BudgetExceeded(
                "C^%d has over %d tuples to enumerate" % (k, budget))
    laps = [time.perf_counter()]

    def lap():  # seconds since the previous lap
        laps.append(time.perf_counter())
        return laps[-1] - laps[-2]

    cols = chain_columns(L, n, module, slice_)
    ncols = len(cols)
    S = L.generator_tables[0]  # B^n is assembled on the tuples meeting S
    colidx = {ct: j for j, ct in enumerate(cols) if not S.isdisjoint(ct[0])}
    counter = [0]
    _, images = _coboundaries(L, n, module, [slice_], budget, counter)
    stats = {"enumerate_s": lap(), "ncols": ncols}

    def boundary():  # B^n by C^n column index
        for img in images:
            yield {colidx[ck]: v for ck, v in img.items()}
        colidx.clear()  # not needed while d_n is built
        stats.update(assemble_s=lap(), nnz_prev=counter[0])

    def assemble(pos):
        # the rows of d_n, each entry written at its column's position
        stats["rank_prev_s"] = lap()  # with the column order
        used = counter[0]
        rows, _ = _stencil(
            L, module, ((ct, k) for ct, k in zip(cols, pos) if k is not None),
            L.generator_tables, budget, counter, [slice_])
        stats.update(rows=len(rows), nnz=counter[0] - used)
        stats["assemble_s"] += lap()
        return _shortest_first(rows.values())

    # a column weighs its stencil terms in the whole d_n (module docstring)
    wrev = [len(L.rev.get(m, ())) for m in range(L.dim)]
    wad = [len(L.ad.get(t, ())) if module == "adjoint" else 0
           for t in range(L.dim)]
    weights = []
    for T, run in itertools.groupby(cols, itemgetter(0)):
        w = sum(wrev[m] for m in T)
        weights += [w + wad[t] for _, t in run]
    order, mat = sparsest_first(weights, boundary(), assemble, L.p)
    cols = [cols[j] for j in order]
    stats["rank_d_s"] = lap()
    reps = None
    if want_reps:
        reps = [_cochain(L, n, module, cols, v) for v in mat.kernel_basis()]
    stats.update(reps_s=lap(), kernel_vectors=len(reps or ()),
                 budget_used=counter[0], budget=budget)
    return CohomologyResult(mat.nullity, ncols, mat.rank, ncols - len(cols),
                            reps, stats)


def weight_zero_reduce(L, module="adjoint"):
    """The weight-zero slice of the complex, which holds the whole
    cohomology when a toral element acts (module docstring)."""
    return ComplexSlice(L, module, weight=0)


def _coboundaries(L, n, module, slices, budget, counter):
    """The columns of C^{n-1} on the given slices (None for the whole
    complex), in order, and a lazy generator of their images under d on
    the rows whose tuple meets L.generators, the projection of B^n on
    those slices there: its few entries are assembled as rows by _stencil
    on the first request, charged to counter, and transposed."""
    cols = [ct for s in slices for ct in chain_columns(L, n - 1, module, s)]

    def images():
        rows, name = _stencil(L, module, zip(cols, itertools.count()),
                              L.generator_tables, budget, counter, slices)
        by_col = transpose((name(r), row) for r, row in rows.items())
        yield from (by_col.get(j, {}) for j in range(len(cols)))
    return cols, images()


def _boundaries(L, cochains, budget):
    """_coboundaries on the weight slices that the n-cochains touch (the
    whole complex when L has no toral element): d keeps weights, so they
    hold every coboundary that can meet the cochains; compare them
    through _projection.  Cochains on another algebra than L, of mixed
    degree or module, or with n < 1 are refused, and so is an L that
    fails Jacobi."""
    n, module = cochains[0].n, cochains[0].module
    for c in cochains:
        if c.L is not L:
            raise ValueError("cochain on %s, not on %s" % (c.L.name, L.name))
        if c.n != n or c.module != module:
            raise ValueError("need cochains of one degree in one module")
    if n < 1:
        raise ValueError("need cochains of degree at least 1, not %d" % n)
    slices = [None]
    if L.toral is not None:
        grade = ComplexSlice(L, module, weight=0).grade
        weights = {grade(T, k)[0] for c in cochains
                   for T, vec in c.coeffs.items() for k in vec}
        slices = [ComplexSlice(L, module, weight=w) for w in sorted(weights)]
    return _coboundaries(L, n, module, slices, budget, [0])


def _projection(c):
    """The flattened coordinates (T, k) of c with T meeting L.generators,
    on which _boundaries assembles B^n."""
    S = c.L.generator_tables[0]
    return {(T, k): v for T, vec in c.coeffs.items()
            if not S.isdisjoint(T) for k, v in vec.items()}


def _cochain(L, n, module, cols, vec):
    """The n-cochain whose coordinate on the column cols[i] is vec[i]."""
    coeffs = defaultdict(dict)
    for i, c in vec.items():
        T, t = cols[i]
        coeffs[T][t] = c
    return Cochain(L, n, module, coeffs)


def coboundary_witness(L, c, budget=DEFAULT_BUDGET):
    """Solve d(psi) = c for an n-cochain c, n >= 1, on the slices of
    _boundaries; returns the witness, an (n-1)-cochain in c's module, or
    None when c is not a coboundary.  A c that closure_failure flags is
    none; a closed c is solved for on the coordinates of _boundaries,
    where d(psi) - c is closed, so the system has the solutions of the
    whole one and gives the same witness.  The budget counts the entries
    assembled there."""
    cols, images = _boundaries(L, [c], budget)
    if closure_failure(c):
        return None
    sol = solve_sparse(dict(enumerate(images)), _projection(c), L.p)
    return None if sol is None else _cochain(L, c.n - 1, c.module, cols, sol)


def class_span_dim(L, cocycles, budget=DEFAULT_BUDGET):
    """Dimension of the span in H^n of the given n-cocycles, of one
    degree n >= 1 and one module: each is verified closed, then counted
    modulo B^n on the weight slices their supports touch, all projected
    onto the coordinates of _boundaries, which keeps the span's rank.
    The budget counts the entries assembled there."""
    if not cocycles:
        return 0
    _, images = _boundaries(L, cocycles, budget)
    if any(closure_failure(c) for c in cocycles):
        raise ValueError("input cochain is not closed")
    span = Echelon(L.p)
    span.extend(images)
    return sum(1 for c in cocycles if span.add(_projection(c)))


def massey_bracket(phi, psi):
    """The symmetric bracket of two adjoint 2-cochains,

        [phi,psi](x,y,z) = phi(psi(x,y),z) + psi(phi(x,y),z) + cyclic,

    a 3-cochain.  d(Phi) = 0 and [Phi,Phi] = 0 make [.,.]+Phi a Lie
    bracket; vanishing pairwise brackets let deformation directions mix.
    It is the fold of check_jacobi taken twice, linalg.circle of psi
    into phi plus that of phi into psi, so only the nonzero values of
    the two cochains are visited."""
    L = phi.L
    if psi.L is not L or phi.n != 2 or psi.n != 2:
        raise ValueError("massey_bracket needs two 2-cochains on one algebra")
    if phi.module != "adjoint" or psi.module != "adjoint":
        raise ValueError("massey_bracket needs adjoint coefficients")
    p = L.p
    sums = circle(psi.coeffs, bilinear_table(phi.coeffs, -1, p))
    circle(phi.coeffs, bilinear_table(psi.coeffs, -1, p), sums)
    return Cochain(L, 3, "adjoint", dict(sorted(sums.items())))


def _column_degrees(L, n, weights):
    """The degrees of the columns of C^n(L; L) of weight zero under the
    given weights mod p: deg t less the degree of an n-tuple, from the
    (degree, weight) sums of n distinct basis elements (module docstring)."""
    p, grades = L.p, list(zip(L.grading, weights))
    sums = [{(0, 0)}] + [set() for _ in range(n)]
    for d, w in grades:
        for k in range(n, 0, -1):
            sums[k] |= {(a + d, (b + w) % p) for a, b in sums[k - 1]}
    return {d - a for d, w in grades for a, b in sums[n] if b == w % p}


def positive_cohomology(L, n=2, budget=DEFAULT_BUDGET):
    """(total, {degree: nonzero dim}) of H^n(L; L) on the positive degree
    slices with a column, at weight zero when L has a toral element
    (module docstring)."""
    if L.grading is None:
        raise ValueError("positive_cohomology needs a graded algebra")
    weight = None if L.toral is None else 0
    degrees = _column_degrees(L, n, [0] * L.dim if weight is None
                              else L.weights)
    per_degree = {}
    for d in sorted(d for d in degrees if d > 0):
        res = cohomology_dim(L, n, slice_=ComplexSlice(
            L, weight=weight, degree=d), budget=budget)
        if res.dim:
            per_degree[d] = res.dim
    return sum(per_degree.values()), per_degree
