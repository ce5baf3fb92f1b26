"""Named 2-cocycle families on W-type algebras, current algebras, and
their deformations; coefficient-identity checks; and the checks on a
direction before liealg.deform integrates it.

Each lifted family on L(A, D) is its plain family, built and checked on
the base W1(1) (x) A that L(A, D) records, plus one correction: Psi_E
and Upsilon_F gain a line on the block (e_{-1} (x) A)^2 where Phi_D
lives (liealg.e_minus_one_block; liealg.phi_block is all of Phi_E);
Theta loses the lambda middle line theta_prime.  The reuse is exact:
off that block L(A, D) brackets e_i (x) 1, e_j (x) 1 as W1(1) does.

Every family that the theory proves closed is always verified closed at
construction time (ceco.closure_failure, exact on the rows of d that
meet L.generators by linalg.greedy_generators); a failure raises
CocycleError carrying a failing tuple, the primary regression tripwire.
"""

from fractions import Fraction

from .arith import binom, inv_mod, lambda_coeff, lambda_table, n_div_p, n_int
from .ceco import Cochain, ComplexSlice, closure_failure, massey_bracket
from .commalg import solve_delta1, star_action
from .liealg import (_tensor_layout, deform, e_minus_one_block, make_w1,
                     phi_block)
from .linalg import (LinearMap, bilinear_tensor, family_add, tensor_index,
                     tensor_pair, vec_add, vec_scale)

__all__ = [
    "CocycleError",
    "phi21",
    "theta",
    "upsilon",
    "psi",
    "phi_big",
    "psi_t",
    "theta_prime",
    "lifted_theta",
    "lifted_upsilon",
    "lifted_psi",
    "lifted_phi",
    "lambda_identities_check",
    "build_filtered_deformation",
]


class CocycleError(ValueError):
    """A family the theory proves closed failed its differential check."""

    def __init__(self, family, triple, value):
        self.family = family
        self.triple = triple
        self.value = value
        super().__init__(
            "%s is not closed: d at %r = %r" % (family, triple, value))


def _check_closed(c, family):
    bad = closure_failure(c)
    if bad:
        raise CocycleError(family, tuple(c.L.labels[x] for x in bad[0]),
                           bad[1])
    return c


def phi21(W):
    """The degree -p cocycle on W1(n): (e_i, e_j) -> (N_ij/p) e_{i+j-p}
    for i + j >= p - 1, zero otherwise.  N_ij is divisible by p exactly
    in that range, and the quotient is taken as an integer before
    reduction."""
    meta = W.meta or {}
    if meta.get("kind") != "w1":
        raise ValueError("phi21 lives on W1(1)")
    if meta.get("n") != 1:
        # N_ij stops being divisible by p past the W1(1) index range
        # (N_{-1,p} = 1); the higher analogues arise as lifted families.
        raise ValueError("phi21 is specific to n = 1")
    p = W.p
    top = W.dim - 2  # basis is e_{-1} .. e_{top}
    coeffs = {}
    for i in range(-1, top + 1):
        for j in range(i + 1, top + 1):
            if i + j < p - 1:
                continue
            c = n_div_p(i, j, p)
            e = i + j - p
            if e > top or e < -1:
                if c:
                    raise AssertionError(
                        "phi21 coefficient escapes the basis at (%d, %d)"
                        % (i, j))
                continue
            if c:
                coeffs[(i + 1, j + 1)] = {e + 1: c}
    return _check_closed(Cochain(W, 2, "adjoint", coeffs), "phi21")


def _line(k, avec, w):
    """e_k (x) avec as a sparse vector of S (x) A, dim S = w, whose basis
    element e_k (x) a_m sits at linalg.tensor_index(k, m, w)."""
    return {tensor_index(k, m, w): c for m, c in avec.items()}


def theta(L, phi_on_s, u):
    """Theta_{phi,u} on S (x) A (tails, if any, get zero):
    (x (x) a, y (x) b) -> phi(x, y) (x) abu."""
    w, _, A = _tensor_layout(L)
    abu = {key: v for key, ab in A.mult.items() if (v := A.mul(ab, u))}
    c = Cochain(L, 2, "adjoint",
                bilinear_tensor(phi_on_s.coeffs, -1, abu, w, L.p))
    return _check_closed(c, "Theta")


def upsilon(L, F):
    """Upsilon_F on S (x) A: (x (x) a, y (x) b) -> [x,y] (x) F(a,b)."""
    w = _tensor_layout(L)[0]
    c = Cochain(L, 2, "adjoint",
                bilinear_tensor(L.meta["L"].bracket, -1, F.values, w, L.p))
    return _check_closed(c, "Upsilon")


def psi(L, D):
    """Psi_D on W1(n) (x) A (and its extensions by zero):

        (e_i (x) a, e_j (x) b) ->
            e_{i+j} (x) (binom(i+j+1, j) bD(a) - binom(i+j+1, i) aD(b)).

    Out-of-range targets occur only with both binomials divisible by p
    (asserted), so the formula self-truncates; at i = j = -1 both are
    binom(-1, -1) = 0."""
    w, dA, A = _tensor_layout(L)
    p = L.p
    top = w - 2
    coeffs = {}
    for x in range(w * dA):
        i, a = tensor_pair(x, w)
        i -= 1
        for y in range(x + 1, w * dA):
            j, b = tensor_pair(y, w)
            j -= 1
            c1 = binom(i + j + 1, j) % p
            c2 = binom(i + j + 1, i) % p
            if not (c1 or c2):
                continue
            m = i + j
            if m < -1 or m > top:
                raise AssertionError(
                    "Psi coefficient escapes the basis at (%d, %d)" % (i, j))
            vec = vec_add(vec_scale(A.mul({b: 1}, D({a: 1})), c1, p),
                          A.mul({a: 1}, D({b: 1})), p, -c2)
            if vec:
                coeffs[(x, y)] = _line(m + 1, vec, w)
    return _check_closed(Cochain(L, 2, "adjoint", coeffs), "Psi")


def phi_big(L, E):
    """Phi_E on W1(n) (x) A (and extensions by zero): supported on the
    e_{-1} line, (e_{-1} (x) a, e_{-1} (x) b) -> e_top (x) (aE(b) - bE(a))
    (liealg.phi_block)."""
    return _check_closed(Cochain(L, 2, "adjoint", phi_block(L, E)), "PhiBig")


def psi_t(W, t):
    """The positive-degree cocycle on W1(n), n >= 2:
    (e_{-1}, e_{p^t - 1}) -> e_{p^n - 2}, zero elsewhere; 1 <= t <= n-1."""
    meta = W.meta or {}
    if meta.get("kind") != "w1":
        raise ValueError("psi_t lives on W1(n)")
    n = meta["n"]
    if n < 2:
        raise ValueError("psi_t needs n >= 2")
    if not 1 <= t <= n - 1:
        raise ValueError("psi_t needs 1 <= t <= n-1")
    p = W.p
    j = p ** t - 1
    return _check_closed(
        Cochain(W, 2, "adjoint", {(0, j + 1): {W.dim - 1: 1}}), "psi_t")


def _deformed(Ld, family):
    """(A, D, base) of L(A, D), or ValueError naming family."""
    if Ld.meta.get("kind") != "deformed":
        raise ValueError("%s lives on a deformed algebra" % family)
    return Ld.meta["A"], Ld.meta["D"], Ld.meta["base"]


def _lift(Ld, family, plain, correction):
    """The plain family, checked on the base of Ld, moved onto Ld plus
    the correction family; checked closed on Ld."""
    return _check_closed(Cochain(Ld, 2, "adjoint", family_add(
        plain.coeffs, correction, Ld.p)), family)


def theta_prime(Ld, u=None):
    """The middle (lambda-coefficient) correction line used by the
    lifted Theta family:

        (e_i (x) a, e_j (x) b) ->
            e_{i+j} (x) (lambda_ij aD(b) - lambda_ji bD(a)) u

    on a deformed algebra L(A, D); not closed on its own, so it is
    never checked."""
    A, D, _ = _deformed(Ld, "theta_prime")
    p = Ld.p
    w = _tensor_layout(Ld)[0]
    if u is None:
        u = A.unit_vec
    coeffs = {}
    for x in range(Ld.dim):
        i, a = tensor_pair(x, w)
        i -= 1
        for y in range(x + 1, Ld.dim):
            j, b = tensor_pair(y, w)
            j -= 1
            m = i + j
            if not -1 <= m <= p - 2:
                continue
            l1, l2 = lambda_coeff(i, j, p), lambda_coeff(j, i, p)
            vec = vec_add(vec_scale(A.mul(A.mul({a: 1}, D({b: 1})), u), l1, p),
                          A.mul(A.mul({b: 1}, D({a: 1})), u), p, -l2)
            if vec:
                coeffs[(x, y)] = _line(m + 1, vec, w)
    return Cochain(Ld, 2, "adjoint", coeffs)


def lifted_theta(Ld, u=None):
    """Lifted Theta on L(A, D), for u in the kernel of D: Theta_{phi21,u}
    less the middle line theta_prime,

        top line   (i+j >= p-1):      e_{i+j-p} (x) (N_ij/p) abu
        middle     (-2 < i+j < p-1):  -e_{i+j} (x) (l_ij aD(b) - l_ji bD(a)) u

    The middle correction enters with the sign that the differential
    convention of this package forces (the closedness check below is the
    authority; with the opposite sign the differential has a residual on
    triples like (e_{-1} (x) 1, e_{-1} (x) x, e_1 (x) 1)).  Either sign
    gives [ThetaPrime, Phi_D] = 0 since l_{p-2,0} = 0, so the classes
    are the same up to sign of the correction.  The top line is Theta's
    unchanged: for i < j the bracket of e_i (x) 1 and e_j (x) 1 on
    L(A, D) is that of W1(1), as Phi_D touches only the e_{-1} block.
    """
    A, D, base = _deformed(Ld, "lifted_theta")
    if u is None:
        u = A.unit_vec
    if D(u):
        raise ValueError("lifted Theta requires D(u) = 0")
    return _lift(Ld, "LiftedTheta", theta(base, phi21(make_w1(1, Ld.p)), u),
                 theta_prime(Ld, u).scale(-1).coeffs)


def lifted_upsilon(Ld, F, H=None):
    """Lifted Upsilon on L(A, D), for a symmetric Harrison cocycle F
    whose star action is a Hochschild coboundary, D*F = deltaH, with H
    given by sparse columns as solve_delta1 returns it: Upsilon_F plus
    the deformation line

        (e_{-1} (x) a, e_{-1} (x) b) ->
            e_{p-2} (x) (bH(a) - aH(b) - F(D(a),b) + F(a,D(b))).
    """
    A, D, base = _deformed(Ld, "lifted_upsilon")
    p = Ld.p
    if H is None:
        H = solve_delta1(A, star_action(D, F))
        if H is None:
            raise ValueError(
                "D*F is not a Hochschild coboundary; no potential H exists")
    H = LinearMap(A, A, H)

    def line(a, b):
        ea, eb = {a: 1}, {b: 1}
        return vec_add(vec_add(A.mul(eb, H(ea)), A.mul(ea, H(eb)), p, -1),
                       vec_add(F.eval_vec(ea, D(eb)), F.eval_vec(D(ea), eb),
                               p, -1), p)

    return _lift(Ld, "LiftedUpsilon", upsilon(base, F),
                 e_minus_one_block(Ld, line))


def lifted_psi(Ld, E):
    """Lifted Psi on L(A, D), for E a derivation commuting with D: Psi_E
    plus the deformation line

        (e_{-1} (x) a, e_{-1} (x) b) -> e_{p-2} (x) (E(a)D(b) - E(b)D(a)).
    """
    A, D, base = _deformed(Ld, "lifted_psi")
    if not D.commutator(E).is_zero():
        raise ValueError("lifted Psi requires [D, E] = 0")
    return _lift(Ld, "LiftedPsi", psi(base, E), e_minus_one_block(
        Ld, lambda a, b: vec_add(A.mul(E({a: 1}), D({b: 1})),
                                 A.mul(E({b: 1}), D({a: 1})), Ld.p, -1)))


def lifted_phi(Ld, E):
    """Lifted Phi on L(A, D) equals Phi_E: no deformation correction."""
    base = _deformed(Ld, "lifted_phi")[2]
    return _lift(Ld, "LiftedPhi", phi_big(base, E), {})


def _frac_mod(fr, p):
    return fr.numerator * inv_mod(fr.denominator, p) % p


def lambda_identities_check(p, lam=None):
    """Exhaustive check of the coefficient identities behind the lifted
    Theta family.  `lam`, a dict keyed like arith.lambda_table(p),
    replaces that table (for mutation testing); violations are listed,
    not raised.

    Checked, with l_{ij} = lam[i, j] for i, j >= -1:
      boundary:   l_{-1,j} = l_{0,j} = 0, l_{1,j} = 3/2, l_{p-2,0} = 0
      recurrence: l_{ij} = l_{i-1,j} + l_{i,j-1} for i, j >= 0
      closing:    l_{j-1,k} + l_{j,k-1} = (-1)^k (2k+1)/(k(k+1)),
                  j + k = p - 1
      skew:       l_{j,k-1} - l_{k,j-1} = 2(-1)^k l_{j,-1}
                  + 2(-1)^{k+1} l_{k,-1} + (-1)^{k+1} (2k+1)/(k(k+1)),
                  j + k = p - 1
      mixing:     N_ij l_{i+j,k} - N_jk l_{i,j+k} + N_ik l_{j,i+k}
                  + N_{j+k,i} l_{jk} - N_{i+k,j} l_{ik} = 0,
                  i,j,k >= 0, i + j + k < p - 1
      divided N:  N_{jk}/p = (-1)^j (2j+1)/(j(j+1)), j + k = p - 1,
                  1 <= j <= p - 2
    """
    if lam is None:
        lam = lambda_table(p)
    violations = []

    def record(name, where, lhs, rhs):
        if lhs % p != rhs % p:
            violations.append(
                {"identity": name, "at": where, "lhs": lhs % p, "rhs": rhs % p})

    for j in range(-1, p - 1):
        record("boundary", (-1, j), lam[-1, j], 0)
        record("boundary", (0, j), lam[0, j], 0)
        record("boundary", (1, j), lam[1, j], _frac_mod(Fraction(3, 2), p))
    record("boundary", (p - 2, 0), lam[p - 2, 0], 0)
    for i in range(0, p - 1):
        for j in range(0, p - 1):
            record("recurrence", (i, j), lam[i, j],
                   lam[i - 1, j] + lam[i, j - 1])
    for k in range(1, p - 1):
        j = p - 1 - k
        if not 1 <= j <= p - 2:
            continue
        rhs = Fraction((2 * k + 1), k * (k + 1))
        sgn = -1 if k % 2 else 1
        record("closing", (j, k), lam[j - 1, k] + lam[j, k - 1],
               sgn * _frac_mod(rhs, p))
        record("skew", (j, k), lam[j, k - 1] - lam[k, j - 1],
               2 * sgn * lam[j, -1] - 2 * sgn * lam[k, -1]
               - sgn * _frac_mod(rhs, p))
        record("divided-n", (j, k), n_div_p(j, k, p),
               (-1 if j % 2 else 1)
               * _frac_mod(Fraction(2 * j + 1, j * (j + 1)), p))
    for i in range(0, p - 1):
        for j in range(0, p - 1):
            for k in range(0, p - 1):
                if i + j + k >= p - 1:
                    continue
                lhs = (n_int(i, j) * lam[i + j, k]
                       - n_int(j, k) * lam[i, j + k]
                       + n_int(i, k) * lam[j, i + k]
                       + n_int(j + k, i) * lam[j, k]
                       - n_int(i + k, j) * lam[i, k])
                record("mixing", (i, j, k), lhs, 0)
    return {"p": p, "ok": not violations, "violations": violations}


def build_filtered_deformation(L, Phi):
    """[,] + Phi for a strictly positive-degree 2-cocycle Phi with
    [Phi, Phi] = 0: checks those hypotheses, then liealg.deform builds
    the Lie algebra, with L's grading as a filtration and Jacobi
    re-verified."""
    if L.grading is None or L.filtration:
        raise ValueError("need an honestly graded base algebra")
    if Phi.L is not L or Phi.n != 2 or Phi.module != "adjoint":
        raise ValueError("Phi must be an adjoint 2-cochain on L")
    bad = closure_failure(Phi)
    if bad:
        raise CocycleError("filtered deformation direction", *bad)
    degree = ComplexSlice(L, degree=0).grade
    for T, vec in Phi.coeffs.items():
        for k in vec:
            if degree(T, k)[0] <= 0:
                raise ValueError(
                    "Phi has a non-positive degree component at %r -> %d"
                    % (T, k))
    sq = massey_bracket(Phi, Phi)
    if not sq.is_zero():
        T = min(sq.coeffs)
        raise ValueError(
            "[Phi, Phi] != 0 at %r: obstruction to integrability" % (T,))
    return deform(L, Phi.coeffs, L.name + "+Phi",
                  {"kind": "filtered_deformation"})
