"""Finite-dimensional Lie algebras over F_p and their constructions.

Provides the rank-one Zassenhaus algebras W1(n) (basis e_i, -1 <= i <=
p^n - 2, [e_i, e_j] = N_ij e_{i+j}), sl(2) in the same normalization,
current algebras L (x) A, semidirect sums with derivation tails, the
deformed current algebras L(A, D) whose extra term Phi_D lives on the
(e_{-1}, e_{-1}) block (phi_block), the Kuznetsov identification of W1(n)
with L(O1(n-1), d), the identity map on linalg.tensor_index, and deform,
the one builder of a filtered deformation, which records its base.
Structure probes are exact sparse computations: Jacobi, the center and
ideals rest on L.generators (linalg.greedy_generators), which every
probe needing Jacobi reads first, at any dimension; spans are closed by
Echelon.close.
"""

import random
from collections import defaultdict
from functools import cached_property
from itertools import combinations

from .arith import check_prime, structure_constant_N
from .commalg import (_check_acts_on, make_divided_powers,
                      partial_derivation, tensor_derivation, tensor_product)
from .linalg import (Echelon, LinearMap, SparseFpMatrix, bilinear_eval,
                     bilinear_get, bilinear_pairs, bilinear_table,
                     bilinear_tensor, check_family, check_grading, circle,
                     family_add, greedy_generators, morphism_failure,
                     solve_sparse, tensor_index, tensor_pair, vec_add)

__all__ = [
    "LieAlgebra",
    "make_w1",
    "make_sl2",
    "current_algebra",
    "semidirect_current",
    "make_deformed",
    "deform",
    "e_minus_one_block",
    "phi_block",
    "kuznetsov_map",
    "verify_morphism",
    "center",
    "derived_series",
    "is_solvable",
    "ideal_generated_by",
    "find_proper_ideal",
]

IDEAL_TRIALS = 20


class LieAlgebra:
    """Lie algebra from integer structure constants on pairs of basis
    indices, stored on i < j; entries are checked here (linalg.check_family,
    and [x, x] = 0), Jacobi by generators.  Derived tables are cached
    properties, built on first use.

    grading, when present, is one integer degree per basis element; the
    bracket must be degree-additive, or degree-nondecreasing when the
    algebra is flagged as filtered (deformations).  toral names a basis
    element with diagonal adjoint action, used for weight slicing.
    """

    def __init__(self, p, labels, bracket, grading=None, toral=None,
                 name="L", meta=None, filtration=False):
        check_prime(p)
        self.p = p
        self.labels = list(labels)
        self.grading = list(grading) if grading is not None else None
        self.toral = toral
        self.name = name
        self.meta = meta or {}
        self.filtration = filtration
        check_family(bracket, self.dim, self.dim, "bracket")
        self.bracket = bilinear_pairs(bracket, -1, p)
        if diag := [ij for ij in self.bracket if ij[0] == ij[1]]:
            raise ValueError("bracket entry %r: [x, x] must be 0" % (diag[0],))
        if toral is not None and not (type(toral) is int
                                      and 0 <= toral < self.dim):
            raise ValueError("toral %r is not a basis index in 0..%d"
                             % (toral, self.dim - 1))
        check_grading(self.grading, self.bracket, self.labels,
                      "bracket %s on [%s, %s]", filtration)
        self.jacobi_checked = False

    @property
    def dim(self):
        return len(self.labels)

    def bracket_pair(self, i, j):
        """[e_i, e_j] as a sparse vector, any index order."""
        return bilinear_get(self.bracket, -1, self.p, i, j)

    def bracket_vec(self, u, v):
        return bilinear_eval(self.bracket, -1, self.p, u, v)

    @cached_property
    def rev(self):
        """target index -> list of ((i, j), c) with i < j contributing
        c e_target to [e_i, e_j]; used by the cochain differential."""
        table = defaultdict(list)
        for (i, j), vec in self.bracket.items():
            for k, c in vec.items():
                table[k].append(((i, j), c))
        return dict(table)

    @cached_property
    def ad(self):
        """index t -> list of (z, [e_z, e_t]) over the z with a nonzero
        bracket; the module action in the cochain differential."""
        return bilinear_table(self.bracket, -1, self.p)

    @cached_property
    def generators(self):
        """Basis indices S that generate L: linalg.greedy_generators,
        trying first the element with the most nonzero brackets, then the
        rest sparsest ad first.  The one Jacobi gate: the Jacobi sums of
        the triples that meet S certify L, and check_jacobi names a
        failure; a failure caches nothing, so each access raises."""
        supp = [{z for z, _ in self.ad.get(i, ())} for i in range(self.dim)]
        nnz = [len(s) for s in supp]
        most = sorted(range(self.dim), key=lambda i: (-nnz[i], i))[:1]
        gens = greedy_generators(
            self.p, self.dim,
            most + sorted(range(self.dim), key=lambda i: (nnz[i], i)),
            lambda g, v: {} if supp[g].isdisjoint(v)
            else self.bracket_vec({g: 1}, v))
        if not self.jacobi_checked:
            S, ad, _ = self.tables_for(gens)
            meet = {ij: v for ij, v in self.bracket.items()
                    if not S.isdisjoint(ij)}
            sums = circle(meet, self.ad)
            circle({ij: v for ij, v in self.bracket.items()
                    if ij not in meet}, ad, sums)
            if any(x % self.p for acc in sums.values()
                   for x in acc.values()):
                self.check_jacobi()
            self.jacobi_checked = True
        return gens

    @cached_property
    def generator_tables(self):
        """tables_for(generators)."""
        return self.tables_for(self.generators)

    def tables_for(self, gens):
        """(S, ad, rev) for S = set(gens): L.ad keeping only z in S, L.rev
        only the pairs that meet S."""
        S = frozenset(gens)
        return (S, {t: [(z, v) for z, v in row if z in S]
                    for t, row in self.ad.items()},
                {m: [(ij, c) for ij, c in row if not S.isdisjoint(ij)]
                 for m, row in self.rev.items()})

    def check_jacobi(self):
        """Exhaustive Jacobi check over basis triples; raises on failure.

        The Jacobi sums are linalg.circle of the bracket with itself
        ([mu, mu] / 2 in the Nijenhuis-Richardson bracket), built from the
        nonzero structure constants: a triple with no term has sum 0.  A
        failure names the least triple with a nonzero sum, and the sum."""
        p = self.p
        sums = circle(self.bracket, self.ad)
        bad = [key for key, acc in sums.items()
               if any(x % p for x in acc.values())]
        if bad:
            i, j, k = min(bad)
            s = {t: x % p for t, x in sums[(i, j, k)].items() if x % p}
            raise ValueError(
                "Jacobi fails on (%s, %s, %s): %r"
                % (self.labels[i], self.labels[j], self.labels[k], s)
            )
        self.jacobi_checked = True

    @cached_property
    def weights(self):
        """Weight of each basis element under ad of the designated toral
        element e_t, whose adjoint action must be diagonal on the basis."""
        t = self.toral
        if t is None:
            raise ValueError("%s has no toral element" % self.name)
        w = []
        for k in range(self.dim):
            v = self.bracket_pair(t, k)
            if any(m != k for m in v):
                raise ValueError("ad(%s) is not diagonal at %s"
                                 % (self.labels[t], self.labels[k]))
            w.append(v.get(k, 0))
        return w

    def to_json(self):
        quads = []
        for (i, j), vec in sorted(self.bracket.items()):
            for k, v in sorted(vec.items()):
                quads.append([i, j, k, v])
        doc = {
            "p": self.p,
            "dim": self.dim,
            "basis": self.labels,
            "bracket": quads,
        }
        if self.grading is not None:
            doc["grading"] = self.grading
        if self.toral is not None:
            doc["toral"] = self.toral
        if self.filtration:
            doc["filtration"] = True
        return doc

    @classmethod
    def from_json(cls, doc, name="imported"):
        try:
            p = doc["p"]
            labels = doc["basis"]
            quads = doc["bracket"]
        except (KeyError, TypeError) as exc:
            raise ValueError("algebra document missing field: %s" % exc)
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError("p must be an integer, not %r" % (p,))
        check_prime(p)
        if not all(isinstance(doc.get(f, []), list)
                   for f in ("basis", "bracket", "grading")):
            raise ValueError("basis, bracket and grading must be lists")
        dim = len(labels)
        if doc.get("dim", dim) != dim:
            raise ValueError("dim %r does not match the %d basis labels"
                             % (doc["dim"], dim))
        bracket = defaultdict(dict)
        for entry in quads:
            if not (isinstance(entry, list) and len(entry) == 4):
                raise ValueError("bad bracket entry %r (need [i, j, k, "
                                 "value])" % (entry,))
            i, j, k, v = entry
            check_family({(i, j): {k: v}}, dim, dim, "bracket")
            key, val = ((i, j), v % p) if i <= j else ((j, i), -v % p)
            if bracket[key].setdefault(k, val) != val:
                raise ValueError("conflicting bracket entries for %r"
                                 % (entry,))
        filtration = doc.get("filtration", False)
        if not isinstance(filtration, bool):
            raise ValueError("filtration must be true or false, not %r"
                             % (filtration,))
        L = cls(p, labels, dict(bracket), grading=doc.get("grading"),
                toral=doc.get("toral"), name=name, filtration=filtration)
        L.generators  # outside input: certify Jacobi before it is used
        return L

    def __repr__(self):
        return "<LieAlgebra %s dim=%d p=%d>" % (self.name, self.dim, self.p)


def make_w1(n, p):
    """The Zassenhaus algebra W1(n): basis e_i for -1 <= i <= p^n - 2 at
    position i + 1, bracket [e_i, e_j] = N_ij e_{i+j} (truncated outside
    the index range), grading by i, toral element e_0."""
    check_prime(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    top = p ** n - 2
    idx = lambda i: i + 1
    bracket = {}
    for i in range(-1, top + 1):
        for j in range(i + 1, top + 1):
            if -1 <= i + j <= top:
                c = structure_constant_N(i, j, p)
                if c:
                    bracket[(idx(i), idx(j))] = {idx(i + j): c}
    return LieAlgebra(
        p,
        ["e_%d" % i for i in range(-1, top + 1)],
        bracket,
        grading=list(range(-1, top + 1)),
        toral=idx(0),
        name="W1(%d)" % n,
        meta={"kind": "w1", "n": n},
    )


def make_sl2(p):
    """sl(2) in the W-style basis e_{-1}, e_0, e_1 with [e_{-1}, e_0] =
    e_{-1}, [e_{-1}, e_1] = -2 e_0, [e_0, e_1] = e_1."""
    check_prime(p)
    bracket = {
        (0, 1): {0: 1},
        (0, 2): {1: -2 % p},
        (1, 2): {2: 1},
    }
    return LieAlgebra(
        p, ["e_-1", "e_0", "e_1"], bracket,
        grading=[-1, 0, 1], toral=1, name="sl2",
        meta={"kind": "sl2"},
    )


def current_algebra(L, A):
    """L (x) A with bracket [x (x) a, y (x) b] = [x, y] (x) ab; basis pair
    (i, a) sits at linalg.tensor_index(i, a, dim L).  The grading (or
    filtration) is inherited from L alone, which is the grading all the
    positive-part computations use."""
    if L.p != A.p:
        raise ValueError("factors live over different primes")
    pairs = [tensor_pair(x, L.dim) for x in range(L.dim * A.dim)]
    labels = ["%s(x)%s" % (L.labels[i], A.labels[a]) for i, a in pairs]
    grading = None if L.grading is None else [L.grading[i] for i, _ in pairs]
    toral = None if L.toral is None else tensor_index(L.toral, A.unit, L.dim)
    return LieAlgebra(
        L.p, labels, bilinear_tensor(L.bracket, -1, A.mult, L.dim, L.p),
        grading=grading, toral=toral, name="%s(x)%s" % (L.name, A.name),
        meta={"kind": "current", "L": L, "A": A, "dims": (L.dim, A.dim)},
        filtration=L.filtration)


def semidirect_current(L, A, Ds):
    """(L (x) A) + 1 (x) span(Ds): the derivations Ds of A act on the
    current algebra through the A-factor, [x (x) a, 1 (x) d] = x (x) d(a),
    and bracket among themselves by commutator.  The span of Ds must be
    closed under commutators."""
    for D in Ds:
        _check_acts_on(D, A)
    cur = current_algebra(L, A)
    n0 = cur.dim
    nt = len(Ds)
    flat = {t: D.flatten() for t, D in enumerate(Ds)}
    span = Echelon(A.p)
    for v in flat.values():
        if not span.add(dict(v)):
            raise ValueError("derivation tails are linearly dependent")

    bracket = dict(cur.bracket)
    for t, D in enumerate(Ds):
        for i in range(L.dim):
            for a, col in D.cols.items():
                # [x (x) a, 1 (x) d] = x (x) d(a)
                bracket[(tensor_index(i, a, L.dim), n0 + t)] = {
                    tensor_index(i, k, L.dim): c for k, c in col.items()}
    for t in range(nt):
        for u in range(t + 1, nt):
            C = Ds[t].commutator(Ds[u])
            if C.is_zero():
                continue
            coords = solve_sparse(flat, C.flatten(), A.p)
            if coords is None:
                raise ValueError(
                    "derivation span is not closed under commutators")
            # ad(1 (x) d) acts on the current part as -d, so the tails
            # close under the negated commutator
            out = {n0 + s: (-c) % A.p for s, c in coords.items()}
            if out:
                bracket[(n0 + t, n0 + u)] = out
    labels = cur.labels + ["1(x)%s" % D.name for D in Ds]
    grading = None if cur.grading is None else cur.grading + [0] * nt
    return LieAlgebra(
        L.p, labels, bracket, grading=grading, toral=cur.toral,
        name=cur.name + "".join("+" + D.name for D in Ds),
        meta={"kind": "semidirect", "L": L, "A": A, "Ds": list(Ds),
              "dims": (L.dim, A.dim)},
        filtration=L.filtration)


def _tensor_layout(L):
    """(w_dim, a_dim, A) of an algebra with basis e_i (x) a_j at
    tensor_index(i, j, w_dim) (tails after), as meta["dims"] records."""
    if L.meta.get("kind") in ("current", "deformed", "semidirect"):
        return (*L.meta["dims"], L.meta["A"])
    raise ValueError("algebra %s has no tensor-product layout" % L.name)


def e_minus_one_block(L, f):
    """The family (e_{-1} (x) a, e_{-1} (x) b) -> e_top (x) f(a, b), a < b,
    on an algebra with a tensor layout; f returns a sparse vector of A.
    On L(A, D) this is the block where the deformation Phi_D lives."""
    w, dA, _ = _tensor_layout(L)
    return {(tensor_index(0, a, w), tensor_index(0, b, w)):
            {tensor_index(w - 1, m, w): c for m, c in f(a, b).items()}
            for a in range(dA) for b in range(a + 1, dA)}


def phi_block(L, E):
    """Phi_E for a derivation E of L's A: the block e_minus_one_block
    with the line aE(b) - bE(a)."""
    A = _tensor_layout(L)[2]
    return e_minus_one_block(L, lambda a, b: vec_add(
        A.mul({a: 1}, E({b: 1})), A.mul({b: 1}, E({a: 1})), A.p, -1))


def deform(L, phi, name, meta):
    """L with bracket [,] + phi, phi a family on L's pairs, its grading a
    filtration, Jacobi certified at once (generators), and
    L recorded in meta["base"]: the one builder of a filtered deformation."""
    out = LieAlgebra(L.p, L.labels, family_add(L.bracket, phi, L.p),
                     grading=L.grading, toral=L.toral, name=name,
                     meta=dict(meta, base=L), filtration=True)
    out.generators
    return out


def make_deformed(A, D):
    """L(A, D): W1(1) (x) A deformed by Phi_D on the (e_{-1}, e_{-1})
    block, {e_{-1} (x) a, e_{-1} (x) b} = e_{p-2} (x) (a D(b) - b D(a))."""
    _check_acts_on(D, A)
    W = make_w1(1, A.p)
    cur = current_algebra(W, A)
    return deform(cur, phi_block(cur, D), "L(%s,%s)" % (A.name, D.name),
                  {"kind": "deformed", "L": W, "A": A, "D": D,
                   "dims": (W.dim, A.dim)})


def verify_morphism(f):
    """Check that f is a bijective Lie algebra morphism; returns
    (ok, witness) where witness names the first failing pair.  Only the
    pairs that can fail are visited (linalg.morphism_failure).  Only the
    target is certified: Jacobi carries over to L through f."""
    L, M = f.source, f.target
    M.generators
    if L.dim != M.dim:
        return False, ("dim", L.dim, M.dim)
    rank = f.rank()
    if rank != L.dim:
        return False, ("rank", rank)
    bad = morphism_failure(f, L.bracket, M.bracket)
    if bad:
        i, j, lhs, rhs = bad
        return False, (L.labels[i], L.labels[j], lhs, rhs)
    return True, None


def kuznetsov_map(n, p, A=None):
    """The degree-preserving linear identification of W1(n) with the
    deformed algebra L(O1(n-1), d): e_s maps to e_i (x) x^k under the
    unique decomposition s = pk + i with -1 <= i <= p - 2.  With A given,
    the same identification tensored by A maps W1(n) (x) A onto
    L(O1(n-1) (x) A, d (x) 1).  Under linalg.tensor_index both sides
    sit at one position, so the map is the identity."""
    check_prime(p)
    if n < 2:
        raise ValueError("the identification needs n >= 2")
    B = make_divided_powers(n - 1, p)
    src, D = make_w1(n, p), partial_derivation(B)
    if A is not None:
        src, B = current_algebra(src, A), tensor_product(B, A)
        D = tensor_derivation(B, D)
    return LinearMap(src, make_deformed(B, D),
                     {j: {j: 1} for j in range(src.dim)})


def center(L):
    """Basis of the center: the kernel of x -> ([x, e_g])_g over the g in
    L.generators, whose column i holds [e_i, e_g] at (g, k); a centralizer
    is a subalgebra (linalg.greedy_generators)."""
    gens = L.generators
    columns = {i: {(g, k): c for g in gens
                   for k, c in L.bracket_pair(i, g).items()}
               for i in range(L.dim)}
    return SparseFpMatrix.from_columns(columns, L.dim, L.p).kernel_basis()


def derived_series(L, S=None):
    """Dimensions of the derived series of the span of S (the whole
    algebra when S is None), until stable; ValueError if L fails Jacobi."""
    def span(vecs):
        return Echelon(L.p).close(vecs, lambda v: ())

    L.generators
    basis = span(S if S is not None else ({i: 1} for i in range(L.dim)))
    dims = [len(basis)]
    while True:
        basis = span(w for x, y in combinations(basis, 2)
                     if (w := L.bracket_vec(x, y)))
        dims.append(len(basis))
        if len(basis) in (0, dims[-2]):
            return dims


def is_solvable(L, S=None):
    dims = derived_series(L, S)
    return dims[-1] == 0


def ideal_generated_by(L, vecs):
    """Basis (echelon rows) of the smallest ideal containing the given
    vectors: their span closed under brackets with L.generators, which
    suffices (linalg.greedy_generators); ValueError if L fails Jacobi."""
    ideal = Echelon(L.p)
    ideal.close(vecs, lambda v: (w for g in L.generators
                                 if (w := L.bracket_vec({g: 1}, v))))
    return ideal.rows()


def find_proper_ideal(L, seed=0):
    """Look for a proper nonzero ideal: first the ideal generated by each
    basis vector (complete for ideals generated by weight vectors when the
    basis is weight-homogeneous), then ideals of IDEAL_TRIALS seeded
    random vectors.  Returns {"generator", "dim", "basis"} or None; a
    returned ideal is always sound, while None is only "none found"."""
    rng = random.Random(seed)
    candidates = [{i: 1} for i in range(L.dim)] + [
        {i: c for i in range(L.dim) if (c := rng.randrange(L.p))}
        for _ in range(IDEAL_TRIALS)]
    for v in filter(None, candidates):
        basis = ideal_generated_by(L, [v])
        if 0 < len(basis) < L.dim:
            return {"generator": v, "dim": len(basis), "basis": basis}
    return None
