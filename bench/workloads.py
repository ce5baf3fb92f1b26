"""The benchmark's workloads: their inputs, fixed queries and reference
values, and the correctness gate that checks every result.

Each workload takes a seed.  Seed 0 keeps the natural basis, which is
what users run.  Seed k > 0 rescales the basis of every input algebra,
f_i = c_i e_i with seeded nonzero c_i in F_p (1 on the toral element, so
weights stay put), built through the public LieAlgebra constructor:
every structure constant changes, dimensions and ranks do not, and the
elimination order stays that of the natural basis.  A seeded permutation
of the basis was tried first: weight-zero H^2 of W1(2) at p = 7 then
took anywhere from 6.9 s to 34.8 s depending on the permutation
(19.6 s in the natural basis), because min-column elimination is
sensitive to column order; runs on different seeds could not be
compared.  Pass i of a run draws its own scalars from (seed, i, query).

Workloads reach modlie only through the module namespace handed to
them, never through names bound at import, so a traced module sees
every call.
"""

import collections
import importlib
import random
import sys
import time
import types

from tracing import LAYERS


def load_modlie():
    """Import the modlie modules afresh (dropping any loaded copy) and
    return them as a namespace; repeated, this times the import."""
    for name in [n for n in sys.modules
                 if n == "modlie" or n.startswith("modlie.")]:
        del sys.modules[name]
    return types.SimpleNamespace(**{
        name: importlib.import_module("modlie." + name) for name in LAYERS})


# ------------------------------------------------------------- algebras

def _w1_x_o1(m, p):
    return m.liealg.current_algebra(m.liealg.make_w1(1, p),
                                    m.commalg.make_divided_powers(1, p))


def _w1_2(m, p):
    return m.liealg.make_w1(2, p)


def _ldef(m, p):
    A = m.commalg.make_divided_powers(1, p)
    return m.liealg.make_deformed(A, m.commalg.partial_derivation(A))


# name -> (label, constructor, dim of weight-zero H^2 by the paper's formula)
ALGEBRAS = {
    "w1xo1": ("W1(1)(x)O1(1)", _w1_x_o1, lambda p: 4 * p),
    "w1_2": ("W1(2)", _w1_2, lambda p: 3 * 2 - 2),
    "ldef": ("L(O1(1),d)", _ldef, lambda p: 4),
}

# (algebra, p) -> (ncols, rank d_2, rank d_1) of weight-zero H^2; the
# same on every seed.
REFERENCE = {
    ("w1xo1", 5): (1500, 1365, 115),
    ("w1_2", 5): (1500, 1377, 119),
    ("ldef", 5): (1500, 1377, 119),
    ("w1xo1", 7): (8232, 7875, 329),
    ("w1_2", 7): (8232, 7893, 335),
}


def scaling(L, seed, pass_, query):
    """Seeded nonzero scalar c_i of F_p per basis element: 1 everywhere
    on seed 0, and 1 on the toral element so that weights do not change."""
    if not seed:
        return [1] * L.dim
    rng = random.Random("%d:%d:%s" % (seed, pass_, query))
    return [1 if i == L.toral else rng.randrange(1, L.p) for i in range(L.dim)]


def rescale(m, L, c):
    """L in the basis f_i = c_i e_i, through the public constructor
    (which re-runs its Jacobi check when dim <= 32):
    [f_i, f_j] = sum_k c_i c_j / c_k N_ij^k f_k."""
    p = L.p
    inv = [pow(x, -1, p) for x in c]
    bracket = {(i, j): {k: c[i] * c[j] * inv[k] * v % p for k, v in vec.items()}
               for (i, j), vec in L.bracket.items()}
    return m.liealg.LieAlgebra(p, L.labels, bracket, grading=L.grading,
                               toral=L.toral, name=L.name,
                               filtration=L.filtration)


# One checked result: a claim row, a rank tuple or a representative.
Check = collections.namedtuple("Check", "label ok detail")


# ------------------------------------------------------------ workloads

class CohomologyWorkload:
    """Weight-zero H^2 of a fixed list of (algebra, p) queries."""

    def __init__(self, name, queries, want_reps):
        self.name = name
        self.queries = queries
        self.want_reps = want_reps

    def build(self, m, seed, pass_):
        inputs = []
        for key in self.queries:
            alg, p = key
            L = ALGEBRAS[alg][1](m, p)
            c = scaling(L, seed, pass_, "%s-%d" % key)
            inputs.append((key, rescale(m, L, c)))
        return inputs

    def run(self, m, inputs):
        """Answer every query; returns [(query, result, seconds)]."""
        out = []
        for key, L in inputs:
            t0 = time.perf_counter()
            res = m.ceco.cohomology_dim(
                L, 2, slice_=m.ceco.weight_zero_reduce(L),
                want_reps=self.want_reps)
            out.append((key, res, time.perf_counter() - t0))
        return out

    def check(self, m, inputs, outputs, reference=REFERENCE):
        checks = []
        for (key, L), (_, res, _) in zip(inputs, outputs):
            alg, p = key
            label = "%s p=%d" % (ALGEBRAS[alg][0], p)
            want = reference[key] + (ALGEBRAS[alg][2](p),)
            got = (res.ncols, res.rank_d, res.rank_prev, res.dim)
            if self.want_reps:
                want += (want[3],)
                got += (len(res.reps),)
            checks.append(Check(label, got == want,
                                "got %s, want %s" % (got, want)))
            for i, c in enumerate(res.reps or ()):
                closed = (c.n == 2 and not c.is_zero()
                          and m.ceco.ce_differential(c).is_zero())
                checks.append(Check("%s rep %d" % (label, i), closed,
                                    "not a nonzero 2-cocycle"))
        return checks

    def describe(self, outputs):
        return ["%s p=%d: ncols=%d rank_d=%d rank_prev=%d dim=%d %.3f s"
                % (ALGEBRAS[key[0]][0], key[1], res.ncols, res.rank_d,
                   res.rank_prev, res.dim, dt)
                for key, res, dt in outputs]


class VerifyWorkload:
    """Every registered claim, as `modlie verify all --cache-dir off`
    runs them; the seed goes to the claims' own seeded searches."""

    name = "verify"

    def build(self, m, seed, pass_):
        return m.claims.Ctx(seed=seed)

    def run(self, m, ctx):
        """Run every claim; returns [(claim id, rows, seconds)], timing
        each Claim.rows call."""
        out = []
        for cid, claim in m.claims.CLAIMS.items():
            t0 = time.perf_counter()
            rows = claim.rows(ctx)
            out.append((cid, rows, time.perf_counter() - t0))
        return out

    def check(self, m, inputs, outputs):
        return [Check("%s %s" % (cid, row["instance"]),
                      row["status"] == "pass",
                      "expected %r, computed %r"
                      % (row["expected"], row["computed"]))
                for cid, rows, _ in outputs for row in rows]

    def describe(self, outputs):
        return ["%s: %d rows %.3f s" % (cid, len(rows), dt)
                for cid, rows, dt in outputs]


WORKLOADS = {
    "verify": VerifyWorkload(),
    "rank_p7": CohomologyWorkload(
        "rank_p7", [("w1xo1", 7), ("w1_2", 7)], want_reps=False),
    "reps": CohomologyWorkload(
        "reps", [("w1xo1", 5), ("w1_2", 5), ("ldef", 5), ("w1xo1", 7)],
        want_reps=True),
}
