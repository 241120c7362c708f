"""Contour-integral moment formulas: exact iterated-residue evaluation,
spectrally accurate trapezoid quadrature on nested circles, the q-Laplace
transform, and the subset recombination identity tying the two moment
families together.

Two independent engines evaluate every formula: iterated exact residues
(one variable at a time, poles enumerated analytically) and tensor-product
trapezoid quadrature on explicitly constructed nested circles.  Each route
validates the other.
"""

from __future__ import annotations

import functools
import itertools
import json
import math

import numpy as np

from .core import INFINITY, ModelParams, Specialization, check_product_args, check_separated
from .core import params_digest, pi_w, pi_w_coefficients, q_pochhammer

POLE_COLLISION_TOL = 1e-9
# nodes per circle by variable count; a 4-variable tensor grid small enough to
# run (64 nodes) fails the doubling check, so the quadrature stops at 3; at 384
# nodes doubling moved two qwhittaker-n1 draws by 1.07e-10 and 1.001e-10
QUAD_NODES = {1: 256, 2: 256, 3: 416}
DOUBLING_TOL = 1e-10
QLAPLACE_SERIES_TOL = 1e-12
QLAPLACE_ELL_CAP = 10


class ContourError(ValueError):
    pass


class QuadratureError(ArithmeticError):
    pass


# ---------------------------------------------------------------------------
# Contours


def build_nested_a_contours(a_pts, exclusions, q: float, ell: int) -> list:
    """Nested positively oriented circles (center, radius) around the a
    cluster for the nested moment formulas; circles[0] is the outermost
    variable's contour and contains q times every later circle.

    All circles share the right edge 1.25 max(a), or halfway to the nearest
    excluded pole if that is closer; left edges march
    toward zero fast enough that circle_j contains q * circle_{j+1}.
    Feasibility requires the excluded points (a_i/nu_i poles) to sit
    strictly right of the cluster; the q-nesting toward zero is available
    exactly when min(a) > q max(a).  Every point and nesting condition is
    checked with a 1e-9 margin.
    """
    amin, amax = min(a_pts), max(a_pts)
    if amin <= 0:
        raise ContourError("a cluster must be positive")
    excl_right = min((e for e in exclusions if e > 0), default=math.inf)
    if excl_right <= amax:
        raise ContourError(
            f"excluded pole {excl_right} is not to the right of the a cluster"
        )
    R = min(amax * 1.25, 0.5 * (amax + excl_right))
    # Equalize the left-edge gaps: the distances (amin - L_ell),
    # (q L_{j+1} - L_j), and (L_1 - 0) all equal g, which balances the
    # aliasing rates of the zero pole, the a poles, and the q-nesting poles.
    amin_eff = 0.98 * amin
    denom = 1.0 + q ** (ell - 1) + (1.0 - q ** (ell - 1)) / (1.0 - q)
    g = q ** (ell - 1) * amin_eff / denom
    left = [0.0] * ell
    left[ell - 1] = amin_eff - g
    for j in range(ell - 2, -1, -1):
        left[j] = q * left[j + 1] - g
    if left[0] <= 0 or left[ell - 1] >= amin:
        raise ContourError("inner contour cannot separate a cluster from zero")
    circles = [((lj + R) / 2.0, (R - lj) / 2.0) for lj in left]
    margin = 1e-9
    outside_points = (0.0,) + tuple(e for e in exclusions if math.isfinite(e))
    for (c, r) in circles:
        if r <= 0:
            raise ContourError(f"nonpositive radius {r}")
        for pt in a_pts:
            if abs(pt - c) >= r - margin:
                raise ContourError(f"required point {pt} not inside circle ({c},{r})")
        for pt in outside_points:
            if abs(pt - c) <= r + margin:
                raise ContourError(f"excluded point {pt} not outside circle ({c},{r})")
    for j, (cj, rj) in enumerate(circles):
        for (cb, rb) in circles[j + 1 :]:
            if abs(cj - q * cb) + q * rb >= rj - margin:
                raise ContourError(
                    f"nesting violated: circle ({cj},{rj}) does not contain "
                    f"q*({cb},{rb})"
                )
    return circles


# ---------------------------------------------------------------------------
# Tensor trapezoid quadrature on nested circles

_LETTERS = "abcdefgh"


def nested_contour_quadrature(h_list, circles, q: float, n: int):
    """Evaluates prod_j [oint dz_j/(2 pi i)] prod_j h_j(z_j)
    prod_{alpha<beta} (z_a - z_b)/(z_a - q z_b) by the periodic trapezoid
    rule with n nodes per circle (center, radius).  h_j must accept complex
    ndarray input."""
    k = len(h_list)
    nodes = []
    hv = []
    for (c, r), h in zip(circles, h_list):
        theta = 2.0 * np.pi * np.arange(n) / n
        z = c + r * np.exp(1j * theta)
        nodes.append(z)
        hv.append(h(z) * (z - c) / n)
    if k == 1:
        return hv[0].sum()
    operands = []
    script = []
    for j in range(k):
        operands.append(hv[j])
        script.append(_LETTERS[j])
    for al in range(k):
        for be in range(al + 1, k):
            za = nodes[al][:, None]
            zb = nodes[be][None, :]
            operands.append((za - zb) / (za - q * zb))
            script.append(_LETTERS[al] + _LETTERS[be])
    expr = ",".join(script) + "->"
    return np.einsum(expr, *operands, optimize=True)


# ---------------------------------------------------------------------------
# Iterated exact residues, a-side (nested contours around the a cluster)


def _nested_residue_sum_a(h_evals, h_poles, q: float) -> float:
    """Iterated residues for the a-side nested integrals, returned with the
    sign (-1)^k q^{k(k-1)/2} of the k-fold formulas, as _doubled_quadrature
    returns its value.

    h_evals[j](z): value of H_j off its poles; h_poles[j]: list of
    (pole, residue).  Variables are processed innermost (index k-1) first;
    each variable's poles inside its contour are the H poles plus q times
    every already-fixed value.  Assigned values stay distinct (coinciding
    values are killed by the cross-factor numerators), so all poles are
    simple.
    """
    k = len(h_evals)

    def cross(term: float, pole: float, others) -> float:
        """term times prod_w (pole - w) / (pole - q w) over the fixed values w."""
        for w in others:
            den = pole - q * w
            if abs(den) < POLE_COLLISION_TOL * max(abs(pole), 1.0):
                raise ContourError(f"pole collision at {pole} ~ q*{w}")
            term *= (pole - w) / den
        return term

    @functools.cache
    def rec(j: int, fixed: tuple) -> float:
        if j == 0:
            return 1.0
        total = 0.0
        for pole, resval in h_poles[j - 1]:
            factor = cross(1.0, pole, fixed)
            if factor != 0.0:
                total += resval * factor * rec(j - 1, tuple(sorted(fixed + (pole,))))
        for idx, v in enumerate(fixed):
            pole = q * v
            term = cross(
                (q * v - v) * h_evals[j - 1](pole), pole, fixed[:idx] + fixed[idx + 1 :]
            )
            if term != 0.0:
                total += term * rec(j - 1, tuple(sorted(fixed + (pole,))))
        return total

    return (-1.0) ** k * q ** (k * (k - 1) // 2) * rec(k, ())


def _product_h_factory(N_j: int, T: int, p: ModelParams):
    a, nu, u, q = p.a, p.nu, p.u, p.q

    def h(z):
        val = 1.0 / z
        for i in range(N_j):
            val = val * (a[i] - nu[i] * z) / (a[i] - z)
        for r in range(T):
            val = val * (1.0 - q * u[r] * z) / (1.0 - u[r] * z)
        return val

    poles = []
    for i in range(N_j):
        res = -(1.0 - nu[i]) / 1.0
        for m in range(N_j):
            if m != i:
                res *= (a[m] - nu[m] * a[i]) / (a[m] - a[i])
        for r in range(T):
            res *= (1.0 - q * u[r] * a[i]) / (1.0 - u[r] * a[i])
        poles.append((a[i], res))
    return h, poles


def product_moment_residues(N_list, T: int, p: ModelParams) -> float:
    """E prod_j (q^{h(N_j+1,T)} - q^{T+ell-j} nu_1..nu_{N_j}) by iterated
    exact residues on the nested a contours."""
    N_list = check_product_args(N_list, T, p)
    h_evals, h_poles = [], []
    for N_j in N_list:
        h, poles = _product_h_factory(N_j, T, p)
        h_evals.append(h)
        h_poles.append(poles)
    return _nested_residue_sum_a(h_evals, h_poles, p.q)


def _doubled_quadrature(h_list, a_pts, exclusions, q: float):
    """(-1)^ell q^{ell(ell-1)/2} times nested_contour_quadrature of h_list on
    the nested a contours, with n = QUAD_NODES[ell] nodes per circle and
    again with 2n.  Returns (value on 2n, |difference|); raises
    QuadratureError if doubling moves the value by more than DOUBLING_TOL or
    leaves it nonreal."""
    ell = len(h_list)
    if ell > max(QUAD_NODES):
        raise ValueError(f"quadrature supports up to {max(QUAD_NODES)} variables")
    n = QUAD_NODES[ell]
    circles = build_nested_a_contours(a_pts, exclusions, q, ell)
    pref = (-1.0) ** ell * q ** (ell * (ell - 1) // 2)
    v1 = pref * nested_contour_quadrature(h_list, circles, q, n)
    v2 = pref * nested_contour_quadrature(h_list, circles, q, 2 * n)
    err = abs(v2 - v1)
    if err > DOUBLING_TOL:
        raise QuadratureError(
            f"grid doubling moved the value by {err} > {DOUBLING_TOL}"
        )
    if abs(v2.imag) > 1e-9:
        raise QuadratureError(f"nonreal quadrature value {v2}")
    return float(v2.real), float(err)


def moment_product_quadrature(N_list, T: int, p: ModelParams):
    """E prod_j (q^{h(N_j+1,T)} - q^{T+ell-j} nu_1..nu_{N_j}) by tensor
    trapezoid quadrature on nested circles, with a grid-doubling check.

    Returns (value, error_estimate); raises QuadratureError if doubling
    moves the value by more than DOUBLING_TOL.
    """
    N_list = check_product_args(N_list, T, p)
    exclusions = [p.a[i] / p.nu[i] for i in range(N_list[0]) if p.nu[i] > 0]
    h_list = [_product_h_factory(N_j, T, p)[0] for N_j in N_list]
    return _doubled_quadrature(h_list, p.a[: N_list[0]], exclusions, p.q)


# ---------------------------------------------------------------------------
# Iterated exact residues, u-side (contours around u^{-1} and zero)


def _check_u_regularity(u, q):
    check_separated("u", u, POLE_COLLISION_TOL)
    scale = max(abs(x) for x in u) if u else 1.0
    for i in range(len(u)):
        for j in range(len(u)):
            if abs(u[i] - q * u[j]) < POLE_COLLISION_TOL * scale:
                raise ValueError(f"pole collision: u[{i}] ~ q*u[{j}]")


def moment_height_residues(N_list, T: int, p: ModelParams) -> float:
    """Joint q-moment E prod_i q^{h(N_i+1,T)} under the step boundary, by
    iterated exact residues at the poles u_t^{-1} and 0.

    Evaluating the innermost variable first, the only poles inside its
    contour are u_t^{-1} and 0; substituted residue points never generate
    new enclosed poles (u_t^{-1}/q lies outside every contour), so the
    integral collapses to a finite sum over assignments.
    """
    N_list = check_product_args(N_list, T, p, allow_zero=True)
    ell = len(N_list)
    u = p.u[:T]
    q = p.q
    _check_u_regularity(u, q)
    a, nu = p.a, p.nu
    inv_u = [1.0 / ut for ut in u]

    def g_at_pole(N_j: int, t: int) -> float:
        """Residue factor of variable j at w = u_t^{-1} (without crosses)."""
        wt = inv_u[t]
        val = -(1.0 - q)  # (-1/u_t) * w^{-1}|_{wt} * (1 - q u_t w)|_{wt}
        for i in range(N_j):
            val *= (a[i] - nu[i] * wt) / (a[i] - wt)
        for s in range(T):
            if s != t:
                val *= (1.0 - q * u[s] * wt) / (1.0 - u[s] * wt)
        return val

    def cross(v_fixed: float, pole: float) -> float:
        if v_fixed == 0.0:
            return 1.0 / q
        return (v_fixed - pole) / (v_fixed - q * pole)

    @functools.cache
    def rec(j: int, fixed: tuple) -> float:
        if j > ell:
            return 1.0
        total = 0.0
        # pole at zero: residue of w^{-1} is 1, g_{N_j}(0) = 1
        factor = 1.0
        for v in fixed:
            factor *= cross(v, 0.0)
        total += factor * rec(j + 1, tuple(sorted(fixed + (0.0,))))
        for t in range(T):
            wt = inv_u[t]
            if wt in fixed:
                continue  # repeated residue is killed by the cross numerator
            factor = g_at_pole(N_list[j - 1], t)
            for v in fixed:
                factor *= cross(v, wt)
            if factor != 0.0:
                total += factor * rec(j + 1, tuple(sorted(fixed + (wt,))))
        return total

    return q ** (ell * (ell - 1) // 2) * rec(1, ())


def height_moment_from_products(N_list, T: int, p: ModelParams, product_fn):
    """Recombine E prod q^{h(N_i+1,T)} from the 2^ell product-form
    observables via the subset identity of the formal-identity proof;
    product_fn(sub) is the product-form observable of the sub-list sub."""
    N_list = check_product_args(N_list, T, p)
    ell = len(N_list)
    q = p.q
    b = [q**T * math.prod(p.nu[: N_r]) for N_r in N_list]
    total = 0.0
    for k in range(ell + 1):
        for I in itertools.combinations(range(ell), k):
            coeff = q ** (sum(i + 1 for i in I) - k * (k + 1) // 2)
            for r in range(ell):
                if r not in I:
                    coeff *= b[r]
            mk = product_fn(tuple(N_list[i] for i in I)) if k else 1.0
            total += coeff * mk
    return total


def formal_identity_check(ell: int, X, b, q: float) -> float:
    """Absolute residual of the subset identity
    sum_k q^{l(l+1)/2-k(k+1)/2} sum_I (prod_{r not in I} b_r)
    prod_j (X_{i_j} - q^{k-j+i_j} b_{i_j}) = X_1...X_ell."""
    X = list(X)
    b = list(b)
    if len(X) != ell or len(b) != ell:
        raise ValueError("X and b must have length ell")
    lhs = 0.0
    for k in range(ell + 1):
        for I in itertools.combinations(range(1, ell + 1), k):
            term = q ** (ell * (ell + 1) // 2 - k * (k + 1) // 2)
            for r in range(1, ell + 1):
                if r not in I:
                    term *= b[r - 1]
            for pos, i in enumerate(I, start=1):
                term *= X[i - 1] - q ** (k - pos + i) * b[i - 1]
            lhs += term
    return abs(lhs - math.prod(X))


# ---------------------------------------------------------------------------
# q-Whittaker measure moments


def _qwhittaker_h_factory(N: int, rho: Specialization, a, q: float):
    def pi_ratio(z):
        val = np.exp((q - 1.0) * rho.gamma * z) if rho.gamma else 1.0
        for al in rho.alphas:
            val = val * (1.0 - al * z)
        for be in rho.betas:
            val = val * (1.0 + q * be * z) / (1.0 + be * z)
        return val

    def h(z):
        val = pi_ratio(z) / z
        for m in range(N):
            val = val * a[m] / (a[m] - z)
        return val

    poles = []
    for i in range(N):
        res = -pi_ratio(a[i])
        for m in range(N):
            if m != i:
                res *= a[m] / (a[m] - a[i])
        poles.append((a[i], res))
    return h, poles


def moment_qwhittaker(
    ell: int,
    N: int,
    rho: Specialization,
    a,
    q: float,
    method: str = "quadrature",
) -> float:
    """E[q^{ell * lambda_N}] under the q-Whittaker measure with variables a
    and specialization rho, by the ell-fold nested contour integral.

    method "quadrature" (ell <= 3, QUAD_NODES[ell] nodes, with the
    DOUBLING_TOL grid-doubling check) or "residues" (exact, any ell up to the
    combinatorial cap).
    """
    a = tuple(float(x) for x in a[:N])
    for ai in a:
        for al in rho.alphas:
            if abs(ai * al) >= 1.0:
                raise ValueError(f"|a_i alpha_j| = {abs(ai * al)} >= 1")
    h, poles = _qwhittaker_h_factory(N, rho, a, q)
    if method == "residues":
        return _nested_residue_sum_a([h] * ell, [poles] * ell, q)
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    exclusions = [1.0 / al for al in rho.alphas if al > 0]
    return _doubled_quadrature([h] * ell, a, exclusions, q)[0]


def matching_specialization(p: ModelParams, N: int, T: int) -> Specialization:
    """rho(N, T): alphas c_1..c_N and betas -u_1..-u_T."""
    return Specialization(alphas=p.c[:N], betas=tuple(-x for x in p.u[:T]))


def qwhittaker_n1_pmf(rho: Specialization, a1: float, q: float, n_max: int):
    """Single-variable q-Whittaker measure P(lambda_1 = n) proportional to
    a1^n Q_(n)(rho), from the generating-series coefficients."""
    coeffs = pi_w_coefficients(rho, q, n_max)
    norm = pi_w(a1, rho, q)
    return [a1**n * c / norm for n, c in enumerate(coeffs)]


# ---------------------------------------------------------------------------
# q-Laplace transform


def q_laplace_observable(h, zeta, q: float) -> np.ndarray:
    """1 / (zeta q^h; q)_inf for each entry of the nonnegative integer array
    h, read from a table over 0..max(h)."""
    ks = range(int(h.max()) + 1)
    return np.array([1.0 / q_pochhammer(zeta * q**k, q, INFINITY) for k in ks])[h]


def q_laplace(N: int, T: int, p: ModelParams, zeta):
    """E[1/(zeta q^{lambda_N}; q)_inf] under the q-Whittaker measure of the
    window (N, T), as a series of q-moments: (value, tail_bound), where the
    bound assumes exact moments.  The vertex side is sample_quadrant_batch
    read through q_laplace_observable."""
    q = p.q
    rho = matching_specialization(p, N, T)
    total = 1.0
    ell = 1
    while True:
        coeff = abs(zeta) ** ell / q_pochhammer(q, q, ell)
        if coeff < QLAPLACE_SERIES_TOL:
            # here |zeta| < 1; moments are at most 1 and (q;q)_k >= (q;q)_inf,
            # so the terms from ell on sum to at most this geometric series
            tail = abs(zeta) ** ell / (q_pochhammer(q, q, INFINITY) * (1.0 - abs(zeta)))
            return float(total), float(tail)
        if ell > QLAPLACE_ELL_CAP:
            raise ValueError(
                f"series tail bound unattainable for zeta = {zeta}: needs more than "
                f"{QLAPLACE_ELL_CAP} moments"
            )
        mom = moment_qwhittaker(ell, N, rho, p.a, q, method="residues")
        total += zeta**ell / q_pochhammer(q, q, ell) * mom
        ell += 1


def moment_record(formula: str, p: ModelParams, value, method: str, error) -> str:
    """JSON record {formula, params_digest, value, method, error_estimate}."""
    return json.dumps(
        {
            "formula": formula,
            "params_digest": params_digest(p),
            "value": value,
            "method": method,
            "error_estimate": error,
        }
    )
