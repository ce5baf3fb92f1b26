"""Chevalley-Eilenberg cohomology of finite-dimensional Lie algebras
over F_p, with adjoint or trivial coefficients.

The differential convention is

    d phi(x_0..x_n) = sum_{i<j} (-1)^{i+j} phi([x_i,x_j], x_0..^i..^j..x_n)
                    + sum_i (-1)^i x_i . phi(x_0..^i..x_n)

so the kernel of d on 1-cochains with adjoint coefficients is the space
of derivations.  Cochains are stored on sorted basis tuples.  The
differential is assembled from one stencil, _stencil: the images of the
elementary cochains (tuple T, target t), read off the algebra's cached
bracket tables L.rev and L.ad, visited tuple-major.  The bracket terms
of T split one of its indices into a pair and do not depend on t, so
_bracket_terms computes them once per tuple and every target of T shares
them; only the module-action terms, which insert one index into T, are
built per target.  ce_differential sums stencil images, and the sparse
matrices of d are built column by column from them, charging each
column's distinct nonzero entries to the work budget.

Of d_n, cohomology_dim keeps only the rows (U, k) whose tuple U holds
an element of S = L.generators, a set of basis elements generating L as
a Lie algebra.  Those rows are the coordinates of i_s(d phi), s in S,
so their kernel is {phi : i_s d phi = 0 for s in S}.  By the Cartan
identities of Chevalley and Eilenberg, i_[x,y] = [L_x, i_y] and
L_x = d i_x + i_x d, so with d^2 = 0 (the Jacobi identity)

    i_[x,y] d phi = L_x i_y d phi - i_y d i_x d phi,

which vanishes when i_x d phi and i_y d phi do.  The z with i_z d phi =
0 thus form a subalgebra; holding S, it is all of L, and d phi = 0.  So
the kept rows have exactly the kernel of all rows, on any slice, for
every n and both modules: the rank, the pivot set (the least columns of
the row space, which the kernel fixes) and the kernel basis are those
of the whole matrix, while weight-zero H^2 of W1(1)(x)O1(1) or W1(2)
at p = 7 keeps one row in five or in eight.  The image of d_{n-1} is
always assembled whole.

d_n is eliminated by linalg.sparsest_first, and the image of d_{n-1}
goes in shortest first.  A column weighs its count of stencil terms in
the whole d_n, read off the lengths of L.ad and L.rev: in the kept rows
alone every column that meets S looks dense, and that order gave
weight-one H^3 of W1(2) at p = 5 three times the fill.
When the algebra has a toral basis element the complex splits by
weight, and with an honest Z-grading it also splits by degree; both
splittings are exact index bookkeeping, not heuristics, and a slice
that d would leave is an error rather than a truncation.  A ComplexSlice
holds the grade of each basis element as data (its weight mod p and/or
its degree), and a column's grade is its target's less its tuple's.  So
chain_columns buckets the targets by grade once, and each tuple reads
only the bucket its grade asks for: C^n of a slice costs its own
columns, not all C(dim, n) dim candidates.

massey_bracket inserts one 2-cochain into the other with linalg.circle,
the kernel that also checks Jacobi, so it visits only the nonzero values
of the two cochains, not every basis triple.
"""

import itertools
import math
import time
from bisect import bisect_left
from collections import defaultdict
from operator import itemgetter

from .linalg import (DEFAULT_BUDGET, BudgetExceeded, Echelon, bilinear_table,
                     circle, family_add, solve_sparse, sparsest_first,
                     transpose, vec_scale)

__all__ = [
    "BudgetExceeded",
    "Cochain",
    "ce_differential",
    "ComplexSlice",
    "chain_columns",
    "CohomologyResult",
    "cohomology_dim",
    "weight_zero_reduce",
    "degree_slice",
    "coboundary_witness",
    "class_span_dim",
    "massey_bracket",
    "h2_positive",
]

# Part of every cache key: bump it whenever the differential or the rank
# semantics change, so that entries computed by older code are misses.
ENGINE = 1


def _perm_sign_and_sorted(xs):
    """Sort a tuple of basis indices; returns (sign, sorted tuple) or
    (0, None) on a repeated index."""
    xs = list(xs)
    sign = 1
    for i in range(1, len(xs)):
        j = i
        while j and xs[j - 1] > xs[j]:
            xs[j - 1], xs[j] = xs[j], xs[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(xs)):
        if xs[i - 1] == xs[i]:
            return 0, None
    return sign, tuple(xs)


class Cochain:
    """Alternating n-cochain on L with values in the adjoint or trivial
    module, stored as {sorted basis tuple: sparse target vector}; the
    trivial module uses the single target key 0."""

    def __init__(self, L, n, module, coeffs=None):
        if module not in ("adjoint", "trivial"):
            raise ValueError("module must be 'adjoint' or 'trivial'")
        self.L = L
        self.n = n
        self.module = module
        self.coeffs = {}
        for T, vec in (coeffs or {}).items():
            T = tuple(T)
            if list(T) != sorted(set(T)):
                raise ValueError("cochain key %r is not a sorted tuple" % (T,))
            if len(T) != n:
                raise ValueError("cochain key %r has wrong arity" % (T,))
            vec = {k: v % L.p for k, v in vec.items() if v % L.p}
            if vec:
                self.coeffs[T] = vec

    def evaluate(self, *xs):
        """Value on basis indices, any order (alternating extension)."""
        if len(xs) != self.n:
            raise ValueError("expected %d arguments" % self.n)
        sign, T = _perm_sign_and_sorted(xs)
        if sign == 0:
            return {}
        v = self.coeffs.get(T, {})
        return v if sign == 1 else vec_scale(v, -1, self.L.p)

    def is_zero(self):
        return not self.coeffs

    def add(self, other, scale=1):
        if other.n != self.n or other.module != self.module:
            raise ValueError("cochain mismatch")
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


def _generator_tables(L, gens):
    """(S, ad, rev) for the stencil restricted to the generator set S:
    L.ad keeping only z in S, and L.rev keeping only pairs that meet S."""
    S = frozenset(gens)
    ad = {t: [(z, v) for z, v in row if z in S] for t, row in L.ad.items()}
    rev = {m: [(ij, c) for ij, c in row if ij[0] in S or ij[1] in S]
           for m, row in L.rev.items()}
    return S, ad, rev


def _bracket_terms(L, T, restrict):
    """The bracket terms (U, signed c) of the stencil at T, shared by
    every target: a support index m splits into a pair (i, j) with
    [e_i, e_j] touching e_m (read from L.rev).  With restrict, the full
    table serves where the rest of T meets S, the filtered one elsewhere."""
    rev = L.rev
    if restrict is not None:
        S, _, rev_S = restrict
        hits = sum(x in S for x in T)
    terms = []
    for a, m in enumerate(T):
        rest = T[:a] + T[a + 1:]
        table = rev_S if restrict is not None and hits == (m in S) else rev
        for (i, j), c in table.get(m, ()):
            if i in rest or j in rest:
                continue
            pi = bisect_left(rest, i)
            pj = bisect_left(rest, j) + 1
            terms.append((tuple(sorted(rest + (i, j))),
                          -c if (a + pi + pj) % 2 else c))
    return terms


def _stencil(L, module, T, targets, restrict=None):
    """The stencil of d: per target t, the image {(U, k): c} of the cochain
    sending the sorted tuple T to e_t (to 1 in the trivial module, t = 0).
    Module-action terms insert one z into T (sign by position, value
    [e_z, e_t] from L.ad), then T's bracket terms follow at (U, t).  With
    restrict = (S, ad, rev) from _generator_tables, only U meeting S."""
    p, ad = L.p, L.ad
    if restrict is not None and restrict[0].isdisjoint(T):
        ad = restrict[1]
    terms = _bracket_terms(L, T, restrict)
    for t in targets:
        img = {}
        if module == "adjoint":
            for z, vec in ad.get(t, ()):
                if z in T:
                    continue
                pos = bisect_left(T, z)
                U = T[:pos] + (z,) + T[pos:]
                sgn = -1 if pos % 2 else 1
                for k, c in vec.items():
                    key = (U, k)
                    y = (img.get(key, 0) + sgn * c) % p
                    if y:
                        img[key] = y
                    else:
                        del img[key]
        for U, c in terms:
            key = (U, t)
            y = (img.get(key, 0) + c) % p
            if y:
                img[key] = y
            else:
                del img[key]
        yield img


def ce_differential(c):
    """The Chevalley-Eilenberg differential: the sum of the stencil
    images of the cochain's elementary terms."""
    L, module = c.L, c.module
    p = L.p
    out = defaultdict(dict)
    for T, vec in c.coeffs.items():
        for a, img in zip(vec.values(), _stencil(L, module, T, vec)):
            for (U, k), v in img.items():
                row = out[U]
                row[k] = (row.get(k, 0) + a * v) % p
    return Cochain(L, c.n + 1, module, out)


class ComplexSlice:
    """Restriction of the cochain complex to one weight class (mod p,
    via the toral element) and/or one exact integer degree (via the
    Z-grading; refused on merely filtered algebras, where degrees are
    not additive).  Grades of basis elements are data; a subclass may
    narrow admits, not widen it."""

    def __init__(self, L, module="adjoint", weight=None, degree=None):
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

    def admits(self, T, t):
        return self.grade(T, t) == self.target

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
    module.  On a slice each tuple T reads only the bucket of targets its
    grade asks for, and slice_.admits decides those candidates."""
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
    return [(T, t) for T in tuples for t in buckets.get(slice_.grade(T), ())
            if slice_.admits(T, t)]


class CohomologyResult:
    """dim H^n, its ranks, representatives when asked for, and stats:
    seconds per stage (enumerate, assemble, rank_d, rank_prev, reps),
    the columns, kept rows and entries of d_n, and the entries charged to
    the budget; a cache hit has only {"cached": True}."""

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


def _column_images(L, module, cols, budget, counter, slices, gens=None):
    """Yield the stencil image of each given (tuple, target) column of the
    slices, charging its distinct nonzero entries to counter[0] and
    raising BudgetExceeded once the count passes budget.  With gens, only
    the rows whose tuple contains one of those basis indices."""
    restrict = _generator_tables(L, gens) if gens is not None else None
    for T, run in itertools.groupby(cols, itemgetter(0)):
        for img in _stencil(L, module, T, [t for _, t in run], restrict):
            counter[0] += len(img)
            if counter[0] > budget:
                raise _over_budget(L, budget, slices)
            yield img


def _over_budget(L, budget, slices):
    """The BudgetExceeded of a differential: it names the slices, and
    advises a weight slice only on a whole complex that has one."""
    named = "; ".join(str(s) for s in slices if s is not None)
    where = " on the slice " + named if named else ""
    advice = ("" if named or L.toral is None
              else "restrict to a weight slice (weight_zero_reduce) or ")
    return BudgetExceeded("differential%s exceeds the %d-entry budget; "
                          "%sraise the budget" % (where, budget, advice))


def cohomology_dim(L, n, module="adjoint", slice_=None, budget=DEFAULT_BUDGET,
                   cache=None, want_reps=False):
    """dim H^n(L; module) on the chosen slice (the whole complex when
    slice_ is None), by exact sparse ranks:

        dim H^n = #C^n - rank(d_n) - rank(d_{n-1}).

    Only the rows of d_n whose tuple contains one of L.generators are
    assembled and eliminated; they have the same kernel as all rows (see
    the module docstring), so the rank, the pivots and the kernel basis
    are those of the whole matrix.  The budget counts the entries that
    are assembled; a query with more tuples in C^n or C^(n-1) than the
    budget is refused before they are enumerated.  The restriction is
    sound only for a Lie algebra, so an algebra whose Jacobi identity is
    not yet verified is checked first, and ValueError is raised when it
    fails.

    With want_reps, also returns cocycle representatives extending the
    coboundary space (kernel_basis(modulo=image)).  Raises ValueError
    when d_{n-1} maps the slice outside itself, since dropping those
    entries would give a wrong dimension.  Results without
    representatives are cached under (engine version, algebra hash,
    module, n, slice descriptor)."""
    if not L.jacobi_checked:
        L.check_jacobi()
    desc = slice_.descriptor() if slice_ is not None else None
    key = None
    if cache is not None:
        key = {"engine": ENGINE, "algebra": L.hash_key(), "module": module,
               "n": n, "slice": desc, "kind": "cohomology"}
        hit = cache.get(key)
        if hit is not None and not want_reps:
            return CohomologyResult(hit["dim"], hit["ncols"],
                                    hit["rank_d"], hit["rank_prev"],
                                    stats={"cached": True})
    for k in (n, n - 1):
        if k >= 0 and math.comb(L.dim, k) > budget:
            raise BudgetExceeded(
                "C^%d has over %d tuples to enumerate; raise the budget"
                % (k, budget))
    laps = [time.perf_counter()]

    def lap():  # seconds since the previous lap
        laps.append(time.perf_counter())
        return laps[-1] - laps[-2]

    cols = chain_columns(L, n, module, slice_)
    stats = {"cached": False, "enumerate_s": lap(), "ncols": len(cols)}
    counter = [0]
    # rows of d_n keyed by C^{n+1} coordinates, streamed from the images
    rows = transpose(enumerate(
        _column_images(L, module, cols, budget, counter, [slice_],
                       L.generators)))
    stats.update(rows=len(rows), nnz=counter[0])
    ad, rev = L.ad, L.rev
    stats["assemble_s"] = lap()
    # a column weighs its stencil terms in the whole d_n (module docstring)
    order, mat = sparsest_first(
        {i: sum(len(rev.get(m, ())) for m in T)
         + (len(ad.get(t, ())) if module == "adjoint" else 0)
         for i, (T, t) in enumerate(cols)},
        (rows.pop(k) for k in list(rows)), L.p)
    del rows
    cols = [cols[j] for j in order]
    rank_d = mat.rank
    stats["rank_d_s"] = lap()

    # image vectors of d_{n-1}, re-keyed to C^n column indices
    colidx = {ct: i for i, ct in enumerate(cols)}
    _, images = _coboundaries(L, n, module, [slice_], budget, counter)
    stats["enumerate_s"] += lap()
    img_vecs = []
    for img in images:
        if not img:
            continue
        try:
            img_vecs.append({colidx[ck]: v for ck, v in img.items()})
        except KeyError as e:
            raise ValueError(
                "slice is not closed under d: d_%d leaves it at column %r"
                % (n - 1, e.args[0])) from None
    stats["assemble_s"] += lap()
    image = Echelon(L.p)
    for vec in sorted(img_vecs, key=len):
        image.add(vec)
    del img_vecs
    rank_prev = image.rank
    stats["rank_prev_s"] = lap()

    dim = len(cols) - rank_d - rank_prev
    reps = None
    if want_reps:
        reps = [_cochain(L, n, module, cols, v)
                for v in mat.kernel_basis(modulo=image)]
        if len(reps) != dim:
            raise AssertionError("representative count %d != dim %d"
                                 % (len(reps), dim))
    stats.update(reps_s=lap(), kernel_vectors=len(reps or ()),
                 budget_used=counter[0], budget=budget)
    if cache is not None and key is not None:
        cache.put(key, {"dim": dim, "ncols": len(cols),
                        "rank_d": rank_d, "rank_prev": rank_prev})
    return CohomologyResult(dim, len(cols), rank_d, rank_prev, reps, stats)


def weight_zero_reduce(L, module="adjoint"):
    """The weight-zero slice of the complex; the whole cohomology sits
    here when a toral element acts (the nonzero-weight slices are exact,
    which the vanishing spot checks verify rather than assume)."""
    return ComplexSlice(L, module, weight=0)


def degree_slice(L, d, module="adjoint"):
    return ComplexSlice(L, module, degree=d)


def _coboundaries(L, n, module, slices, budget, counter):
    """The columns of C^{n-1} on the given slices (None for the whole
    complex), in order, and a lazy generator of their images under d,
    which spans B^n on those slices; assembly is charged to counter."""
    cols = [ct for s in slices for ct in chain_columns(L, n - 1, module, s)]
    return cols, _column_images(L, module, cols, budget, counter, slices)


def _support_slices(L, module, cochains):
    """The weight slices that the terms of the cochains touch, which hold
    every coboundary that can meet them since d keeps weights; [None],
    the whole complex, when L has no toral element.  A cochain on an
    algebra other than L is refused."""
    for c in cochains:
        if c.L is not L:
            raise ValueError("cochain on %s, not on %s" % (c.L.name, L.name))
    if L.toral is None:
        return [None]
    grade = ComplexSlice(L, module, weight=0).grade
    weights = {grade(T, k)[0] for c in cochains
               for T, vec in c.coeffs.items() for k in vec}
    return [ComplexSlice(L, module, weight=w) for w in sorted(weights)]


def _cochain(L, n, module, cols, vec):
    """The n-cochain whose coordinate on the column cols[i] is vec[i]."""
    coeffs = defaultdict(dict)
    for i, c in vec.items():
        T, t = cols[i]
        coeffs[T][t] = c
    return Cochain(L, n, module, coeffs)


def coboundary_witness(L, c, budget=DEFAULT_BUDGET):
    """Solve d(psi) = c for a 1-cochain psi in c's module; returns the
    witness Cochain or None when c is not a coboundary.  The search
    space is cut to the weight slices that c's support touches when a
    toral element is available."""
    if c.n != 2:
        raise ValueError("coboundary_witness expects a 2-cochain")
    cols, images = _coboundaries(L, 2, c.module,
                                 _support_slices(L, c.module, [c]),
                                 budget, [0])
    sol = solve_sparse(dict(enumerate(images)), c.flatten(), L.p)
    return None if sol is None else _cochain(L, 1, c.module, cols, sol)


def class_span_dim(L, cocycles, budget=DEFAULT_BUDGET):
    """Dimension of the span in H^2 of the given 2-cocycles, in one module:
    each is verified closed, then counted against the coboundary space of
    the weight slices its support touches, whose assembly is charged to
    the budget like the differential in cohomology_dim."""
    if not cocycles:
        return 0
    module = cocycles[0].module
    for c in cocycles:
        if c.n != 2 or c.module != module:
            raise ValueError("need 2-cochains in one module")
        if not ce_differential(c).is_zero():
            raise ValueError("input cochain is not closed")
    span = Echelon(L.p)
    _, images = _coboundaries(L, 2, module,
                              _support_slices(L, module, cocycles),
                              budget, [0])
    for img in images:
        span.add(img)
    return sum(1 for c in cocycles if span.add(c.flatten()))


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


def h2_positive(L, budget=DEFAULT_BUDGET, cache=None):
    """Sum of dim H^2(L; L) over the strictly positive degree slices of
    the Z-grading."""
    if L.grading is None:
        raise ValueError("h2_positive needs a graded algebra")
    lo, hi = min(L.grading), max(L.grading)
    total = 0
    per_degree = {}
    for d in range(1, hi - 2 * lo + 1):
        res = cohomology_dim(L, 2, slice_=degree_slice(L, d),
                             budget=budget, cache=cache)
        if res.dim:
            per_degree[d] = res.dim
        total += res.dim
    return total, per_degree
