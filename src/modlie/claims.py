"""Named verification claims: each claim computes one exact statement
about the cohomology of the algebras this package constructs, and
reports expected versus computed values.

A claim row's status is pass exactly when expected == computed (all
arithmetic is over F_p, so equality is literal).  An instance that
exceeds the work budget gives one row of status skipped-budget, with
its instance and the reason, in place of its rows.  Provenance tags:

    stated       the expected value is asserted by the theory
    derived      the expected value comes from an independent exact
                 computation (a different algorithm or algebra)
    definitional the expected value is forced by a construction that
                 verifies itself (e.g. a checked cocycle constructor)
"""

import json

from .ceco import (cohomology_dim, weight_zero_reduce,
                   coboundary_witness, class_span_dim, massey_bracket,
                   ComplexSlice, positive_cohomology)
from .commalg import (make_divided_powers, partial_derivation,
                      derivation_space, d_invariants, der_invariants,
                      der_coinvariants, harrison_h2,
                      harrison_h2_d_invariants, hochschild_hn_dim,
                      basic_harrison_cocycle, is_harrison_cocycle,
                      star_action, solve_delta1, zero_derivation)
from .liealg import (make_w1, make_sl2, current_algebra, make_deformed,
                     semidirect_current, kuznetsov_map, verify_morphism,
                     center, derived_series, find_proper_ideal)
from .linalg import (DEFAULT_BUDGET, BudgetExceeded, Echelon, LinearMap,
                     tensor_index, tensor_pair)
from .cocycles import (phi21, theta, upsilon, psi, phi_big, psi_t,
                       lambda_identities_check, build_filtered_deformation)

__all__ = ["CLAIMS", "Ctx", "resolve_claim"]


class Claim:
    def __init__(self, cid, statement, params, instances, runner,
                 provenance="stated"):
        self.id = cid
        self.statement = statement
        self.params = params          # accepted override names
        self.instances = instances    # default parameter dicts
        self.runner = runner          # (instance, ctx) -> list of rows
        self.provenance = provenance

    def rows(self, ctx, overrides=None):
        insts = self.instances
        if overrides:
            bad = sorted(set(overrides) - set(self.params))
            if bad:
                raise ValueError(
                    "claim %s does not take --%s" % (self.id, bad[0]))
            insts, seen = [], set()
            for inst in self.instances:
                d = dict(inst)
                d.update(overrides)
                key = json.dumps(d, sort_keys=True)
                if key not in seen:
                    seen.add(key)
                    insts.append(d)
        out = []
        for inst in insts:
            try:
                got = self.runner(inst, ctx)
            except BudgetExceeded as e:
                got = [{"expected": None, "computed": None,
                        "status": "skipped-budget",
                        "note": "%s; rerun with --force or a higher "
                                "--budget" % e}]
            for row in got:
                row.setdefault("claim", self.id)
                row.setdefault("instance", inst)
                row.setdefault("statement", self.statement)
                row.setdefault("provenance", self.provenance)
                ok = row["expected"] == row["computed"]
                row.setdefault("status", "pass" if ok else "fail")
                out.append(row)
        return out


class Ctx:
    def __init__(self, budget=DEFAULT_BUDGET, seed=0):
        self.budget = budget
        self.seed = seed


def _row(expected, computed, **extra):
    row = {"expected": expected, "computed": computed}
    row.update(extra)
    return row


# ---------------------------------------------------------------- claims

def _h2_w1_basic(inst, ctx):
    p = inst["p"]
    W = make_w1(1, p)
    res = cohomology_dim(W, 2, budget=ctx.budget)
    c = phi21(W)  # raises if not closed
    bounds = coboundary_witness(W, c, budget=ctx.budget) is not None
    return [_row({"dim": 1, "basic_cocycle_closed": True,
                  "basic_cocycle_bounds": False},
                 {"dim": res.dim, "basic_cocycle_closed": True,
                  "basic_cocycle_bounds": bounds})]


def _dim_w1n(k, a, b):
    def run(inst, ctx):  # dim H^k(W_1(n), W_1(n)) = a n - b
        p, n = inst["p"], inst["n"]
        W = make_w1(n, p)
        slc = weight_zero_reduce(W) if W.dim > 10 else None
        res = cohomology_dim(W, k, slice_=slc, budget=ctx.budget)
        return [_row(a * n - b, res.dim)]
    return run


def _kuznetsov(inst, ctx):
    p, n = inst["p"], inst["n"]
    rows = []
    f = kuznetsov_map(n, p)
    ok, witness = verify_morphism(f)
    rows.append(_row(True, ok, instance={"p": p, "n": n, "tensor": False}))
    A = make_divided_powers(1, p)
    ft = kuznetsov_map(n, p, A=A)
    ok2, _ = verify_morphism(ft)
    rows.append(_row(True, ok2, instance={"p": p, "n": n, "tensor": True}))
    return rows


def _lifted_h2(inst, ctx):
    p, m = inst["p"], inst["m"]
    A = make_divided_powers(m, p)
    D = partial_derivation(A)
    inv = len(d_invariants(A, D))
    codim, _ = der_coinvariants(A, D)
    derinv = len(der_invariants(A, D))
    har, _ = harrison_h2_d_invariants(A, D)
    Ld = make_deformed(A, D)
    h2 = cohomology_dim(Ld, 2, slice_=weight_zero_reduce(Ld),
                        budget=ctx.budget).dim
    summands = [inv, codim, derinv, har]
    # 1 + 3m = dim H^2(W_1(m + 1)), by the Kuznetsov isomorphism
    return [_row({"summands": [1, m, m, m], "sum": 1 + 3 * m,
                  "h2": 1 + 3 * m},
                 {"summands": summands, "sum": sum(summands), "h2": h2})]


def _h2_current_split(inst, ctx):
    p, m = inst["p"], inst.get("m", 1)
    W = make_w1(1, p)
    A = make_divided_powers(m, p)
    L = current_algebra(W, A)
    s1 = cohomology_dim(W, 2, budget=ctx.budget).dim * A.dim
    nder = len(derivation_space(A))
    har = harrison_h2(A)[0]
    total = cohomology_dim(L, 2, slice_=weight_zero_reduce(L),
                           budget=ctx.budget).dim
    q = p ** m
    return [_row({"summands": [q] + [m * q] * 3, "sum": q * (1 + 3 * m),
                  "h2": q * (1 + 3 * m)},
                 {"summands": [s1, nder, nder, har],
                  "sum": s1 + 2 * nder + har, "h2": total})]


def _class_independence(inst, ctx):
    p = inst["p"]
    W = make_w1(1, p)
    A = make_divided_powers(1, p)
    L = current_algebra(W, A)
    phw = phi21(W)
    ders = derivation_space(A)
    _, freps = harrison_h2(A)
    fams = {"theta": [theta(L, phw, {u: 1}) for u in range(A.dim)],
            "upsilon": [upsilon(L, F) for F in freps],
            "psi": [psi(L, D) for D in ders],
            "phi": [phi_big(L, D) for D in ders]}
    computed = {name: class_span_dim(L, cs, budget=ctx.budget)
                for name, cs in fams.items()}
    computed["union"] = class_span_dim(
        L, [c for cs in fams.values() for c in cs], budget=ctx.budget)
    expected = {name: len(cs) for name, cs in fams.items()}
    expected["union"] = sum(len(cs) for cs in fams.values())
    return [_row(expected, computed)]


def _lambda_identities(inst, ctx):
    rep = lambda_identities_check(inst["p"])
    return [_row({"ok": True, "violations": 0},
                 {"ok": rep["ok"], "violations": len(rep["violations"])})]


def _hochschild_harrison(inst, ctx):
    p = inst["p"]
    algs = [make_divided_powers(m, p) for m in (1, 2)]
    hh = [hochschild_hn_dim(algs[0], i, budget=ctx.budget) for i in (0, 1, 2)]
    har = [harrison_h2(A)[0] for A in algs]
    rows = [_row({"hochschild_o1": [p] * 3,
                  "har2_by_m": [m * p ** m for m in (1, 2)]},
                 {"hochschild_o1": hh, "har2_by_m": har},
                 instance={"p": p, "part": "dimensions"})]
    sym, lit, cls = [], [], []
    for m, A in enumerate(algs, 1):
        D = partial_derivation(A)
        for i in range(1, m + 1):
            F = basic_harrison_cocycle(A, i)
            sym.append(is_harrison_cocycle(F))
            sF = star_action(D, F)
            lit.append(sF.is_zero())
            cls.append(solve_delta1(A, sF) is not None)
    rows.append(_row(
        {"symmetric_cocycle": [True] * 3,
         "star_literal_zero": [True, False, True],
         "star_class_zero": [True] * 3},
        {"symmetric_cocycle": sym, "star_literal_zero": lit,
         "star_class_zero": cls},
        instance={"p": p, "part": "divided-cocycles"},
        statement=("the divided basic Harrison cocycles F_i on O1(m) are "
                   "symmetric cocycles; the shift derivation kills F_m "
                   "on the nose and kills every F_i at class level "
                   "(a Hochschild potential for the star action exists)"),
        provenance="derived"))
    return rows


def _h2plus(S_name):
    def run(inst, ctx):
        p, m = inst["p"], inst["m"]
        S = make_w1(1, p) if S_name == "w1" else make_sl2(p)
        B = make_divided_powers(m, p)
        L = semidirect_current(S, B, [partial_derivation(B)])
        total, _ = positive_cohomology(L, 2, ctx.budget)
        return [_row(1 if S_name == "w1" else 0, total)]
    return run


def _massey(inst, ctx):
    p, n, m = inst["p"], inst["n"], inst["m"]
    W1 = make_w1(1, p)
    A = make_divided_powers(m, p)
    L1 = current_algebra(W1, A)
    phi = phi_big(L1, partial_derivation(A))
    sq_zero = massey_bracket(phi, phi).is_zero()

    W = make_w1(n, p)
    B = make_divided_powers(m, p)
    dB = partial_derivation(B)
    L = semidirect_current(W, B, [dB])
    cocycles = [theta(L, psi_t(W, t), B.unit_vec) for t in range(1, n)]
    cocycles.append(phi_big(L, dB))
    pair_zero = all(massey_bracket(a, b).is_zero()
                    for i, a in enumerate(cocycles)
                    for b in cocycles[i:])
    Phi = cocycles[0]
    for c in cocycles[1:]:
        Phi = Phi.add(c)
    out = build_filtered_deformation(L, Phi)
    return [_row({"phi_sq_zero": True, "pairwise_zero": True, "jacobi": True},
                 {"phi_sq_zero": sq_zero, "pairwise_zero": pair_zero,
                  "jacobi": out.jacobi_checked})]


def _outer_intersection(L, A):
    """dim of (1 (x) Der(A)) meet ad(L (x) A), by exact ranks of the
    operators on L.generators, which fix a derivation."""
    gens, w = L.generators, L.meta["dims"][0]
    ad_ech = Echelon(L.p)
    for k in range(L.dim):
        ad = LinearMap(L, L, {j: L.bracket_pair(k, j) for j in gens})
        ad_ech.add(ad.flatten())
    r_ad = ad_ech.rank
    der_ech = Echelon(L.p)
    # ad_ech, its rank read, grows into the echelon of both spans
    for D in derivation_space(A):  # e_i (x) a to e_i (x) Da
        flat = LinearMap(L, L, {
            j: {tensor_index(i, k, w): c for k, c in D.cols[a].items()}
            for j in gens for i, a in [tensor_pair(j, w)]
            if a in D.cols}).flatten()
        der_ech.add(flat)
        ad_ech.add(flat)
    return r_ad + der_ech.rank - ad_ech.rank


def _simplicity_full(inst, ctx):
    p = inst["p"]
    A = make_divided_powers(1, p)
    D = partial_derivation(A)
    rows = []

    # proper ideals: none in the deformed algebra, visible ones in the
    # plain current algebra and in the deformation by the zero derivation
    Ld = make_deformed(A, D)
    L = current_algebra(make_w1(1, p), A)
    L0 = make_deformed(A, zero_derivation(A))
    f1 = find_proper_ideal(Ld, seed=ctx.seed)
    f2 = find_proper_ideal(L, seed=ctx.seed)
    f3 = find_proper_ideal(L0, seed=ctx.seed)
    ideal = p * (p - 1)  # W_1(1) (x) the augmentation ideal of O_1
    rows.append(_row(
        {"deformed": None, "current": ideal, "undeformed": ideal},
        {"deformed": None if f1 is None else f1["dim"],
         "current": None if f2 is None else f2["dim"],
         "undeformed": None if f3 is None else f3["dim"]},
        instance={"p": p, "part": "ideals"},
        statement=("the deformation of the current algebra by the shift "
                   "derivation has no proper nonzero ideal, while the "
                   "undeformed algebra and the zero-derivation deformation "
                   "have one of dimension p(p - 1)"),
        provenance="derived"))

    # current-algebra structure probes: Z(S (x) A) = Z(S) (x) A, the
    # current algebra is perfect and non-solvable, and no nonzero
    # operator 1 (x) d is inner
    probes = []
    A2 = make_divided_powers(2, p)
    insts = [(current_algebra(make_w1(1, p), A), A),
             (current_algebra(make_sl2(p), A), A),
             (current_algebra(make_w1(1, p), A2), A2)]
    for Lc, Ac in insts:
        series = derived_series(Lc)
        probes.append({
            "algebra": Lc.name,
            "center": len(center(Lc)),
            "perfect": series[-1] == Lc.dim,
            "solvable": series[-1] == 0,
            "outer_intersection": _outer_intersection(Lc, Ac),
        })
    expected = [{"algebra": pr["algebra"], "center": 0, "perfect": True,
                 "solvable": False, "outer_intersection": 0}
                for pr in probes]
    rows.append(_row(expected, probes,
                     instance={"p": p, "part": "structure"},
                     statement=("current algebras S (x) A with S simple "
                                "have zero center, are perfect, and no "
                                "nonzero operator 1 (x) d is inner")))
    return rows


def _vanishing(inst, ctx):
    p = inst["p"]
    W2 = make_w1(2, p)
    L = current_algebra(make_w1(1, p), make_divided_powers(1, p))
    checks = []
    for name, alg, w in (("w1n", W2, 1), ("w1n", W2, 2),
                         ("current", L, 1), ("current", L, 3)):
        d = cohomology_dim(alg, 2,
                           slice_=ComplexSlice(alg, weight=w),
                           budget=ctx.budget).dim
        checks.append({"algebra": name, "weight": w, "dim": d})
    for deg in (1, 3, p + 2):
        d = cohomology_dim(L, 2, slice_=ComplexSlice(L, degree=deg),
                           budget=ctx.budget).dim
        checks.append({"algebra": "current", "degree": deg, "dim": d})
    expected = [dict(c, dim=0) for c in checks]
    return [_row(expected, checks)]


def _trivial_coeffs(inst, ctx):
    p = inst["p"]
    W = make_w1(1, p)
    A = make_divided_powers(1, p)
    L = current_algebra(W, A)
    left = cohomology_dim(L, 2, module="trivial", budget=ctx.budget).dim
    right = cohomology_dim(W, 2, module="trivial", budget=ctx.budget).dim
    return [_row({"current": p, "base": 1, "ratio_is_dimA": True},
                 {"current": left, "base": right,
                  "ratio_is_dimA": left == right * A.dim})]


CLAIMS = {}


def _register(cid, statement, params, instances, runner, provenance="stated"):
    CLAIMS[cid] = Claim(cid, statement, params, instances, runner, provenance)


_register(
    "h2-w1-basic",
    "dim H^2(W_1(1), W_1(1)) = 1, with the basic degree -p cocycle "
    "closed and not a coboundary",
    ("p",), [{"p": 5}, {"p": 7}], _h2_w1_basic)
_register(
    "dimh1-w1n",
    "dim H^1(W_1(n), W_1(n)) = n - 1",
    ("p", "n"), [{"p": 5, "n": 1}, {"p": 5, "n": 2}], _dim_w1n(1, 1, 1))
_register(
    "dimh2-w1n",
    "dim H^2(W_1(n), W_1(n)) = 3n - 2",
    ("p", "n"), [{"p": 5, "n": 1}, {"p": 5, "n": 2}], _dim_w1n(2, 3, 2))
_register(
    "kuznetsov-iso",
    "the Kuznetsov identification W_1(n) = L(O_1(n-1), d) is a Lie "
    "algebra isomorphism, also after tensoring with O_1",
    ("p", "n"), [{"p": 5, "n": 2}], _kuznetsov)
_register(
    "lifted-h2",
    "dim H^2(L(O_1(m), d)) = 1 + 3m = dim A^d + dim Der(A)_d + dim Der(A)^d "
    "+ dim Har^2(A, A)^d, each summand an independent exact kernel "
    "or cokernel computation",
    ("p", "m"), [{"p": 5, "m": 1}], _lifted_h2)
_register(
    "h2-current-split",
    "dim H^2(W_1(1) (x) O_1) = dim H^2(W_1(1)) * dim O_1 + 2 dim Der(O_1) "
    "+ dim Har^2(O_1, O_1) = 4p, the total confirmed by direct "
    "weight-zero cohomology",
    ("p", "m"), [{"p": 5}], _h2_current_split)
_register(
    "class-independence",
    "the four cocycle families on W_1(1) (x) O_1 span as many classes "
    "in H^2 as they have parameters, jointly and separately",
    ("p",), [{"p": 5}], _class_independence)
_register(
    "lambda-identities",
    "the lambda coefficients satisfy their boundary values, recurrence, "
    "closing/skew relations on the line i + j = p - 1, and the mixing "
    "identity with the structure constants",
    ("p",), [{"p": 5}, {"p": 7}], _lambda_identities)
_register(
    "hochschild-harrison",
    "dim H^i(O_1, O_1) = p for i = 0, 1, 2; dim Har^2(O_m, O_m) = m p^m "
    "for m = 1, 2",
    ("p",), [{"p": 5}], _hochschild_harrison)
_register(
    "h2plus-w1",
    "the positive part of H^2 of W_1(1) (x) O_1 + K d is 1-dimensional",
    ("p",), [{"p": 5, "m": 1}], _h2plus("w1"), provenance="derived")
_register(
    "h2plus-sl2",
    "the positive part of H^2 of sl_2 (x) O_1 + K d vanishes",
    ("p", "m"), [{"p": 5, "m": 1}], _h2plus("sl2"))
_register(
    "massey-certificates",
    "[Phi_d, Phi_d] = 0 on W_1(1) (x) O_1; the positive cocycles of the "
    "semidirect sum at (p, n, m) pairwise Massey-commute, so their sum "
    "integrates to a filtered Lie bracket (Jacobi certified through its "
    "generators)",
    ("p", "n", "m"), [{"p": 5, "n": 2, "m": 1}], _massey)
_register(
    "simplicity-suite",
    "ideal and structure probes of the current and deformed algebras",
    ("p",), [{"p": 5}], _simplicity_full)
_register(
    "vanishing-slices",
    "H^2 vanishes on every nonzero-weight slice and on every degree "
    "slice with degree not divisible by p (spot checks)",
    ("p",), [{"p": 5}], _vanishing)
_register(
    "trivial-coefficients",
    "dim H^2(W_1(1) (x) O_1, K) = dim H^2(W_1(1), K) * dim O_1, both "
    "sides computed directly",
    ("p",), [{"p": 5}], _trivial_coeffs)


def resolve_claim(cid):
    key = cid.lower()
    if key in CLAIMS:
        return CLAIMS[key]
    raise KeyError("unknown claim id %r (see verify --list)" % cid)
