"""First q-Whittaker difference operator, its (a, nu) conjugation, and the
operator route to product-form observables.

Operators act on black-box evaluable functions of the column parameters: a
function is anything callable as f(a_tuple, nu_tuple) -> float, finite on the
q-shift lattice of the base point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import INFINITY, ModelParams, check_window, q_pochhammer
from .moments import _check_product_args

A_COLLISION_REL_TOL = 1e-9


@dataclass(frozen=True)
class EvaluablePoint:
    """Column-parameter point the operators act on."""

    a: tuple
    nu: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(x) for x in self.a))
        object.__setattr__(self, "nu", tuple(float(x) for x in self.nu))
        if len(self.a) != len(self.nu):
            raise ValueError("a and nu must have equal length")


def _check_a_distinct(a, N: int):
    scale = max(abs(x) for x in a[:N])
    for i in range(N):
        for r in range(i + 1, N):
            if abs(a[i] - a[r]) < A_COLLISION_REL_TOL * scale:
                raise ValueError(f"a collision: a[{i}] ~ a[{r}] = {a[i]}")


def apply_W(f, N: int, point: EvaluablePoint, q: float) -> float:
    """First q-Whittaker operator in a_1..a_N:
    sum_r [prod_{i != r} a_i/(a_i - a_r)] f(point with a_r -> q a_r)."""
    a, nu = point.a, point.nu
    _check_a_distinct(a, N)
    total = 0.0
    for r in range(N):
        coef = 1.0
        for i in range(N):
            if i != r:
                coef *= a[i] / (a[i] - a[r])
        shifted = a[:r] + (q * a[r],) + a[r + 1 :]
        total += coef * f(EvaluablePoint(shifted, nu))
    return total


def apply_D(f, N: int, point: EvaluablePoint, q: float) -> float:
    """Conjugated operator: sum_r (1 - nu_r) [prod_{i != r}
    (a_i - nu_i a_r)/(a_i - a_r)] f(a_r -> q a_r, nu_r -> q nu_r).

    Acts on a_1..a_N and nu_1..nu_N, leaving the ratios nu_i/a_i fixed."""
    a, nu = point.a, point.nu
    _check_a_distinct(a, N)
    total = 0.0
    for r in range(N):
        coef = 1.0 - nu[r]
        for i in range(N):
            if i != r:
                coef *= (a[i] - nu[i] * a[r]) / (a[i] - a[r])
        shifted_a = a[:r] + (q * a[r],) + a[r + 1 :]
        shifted_nu = nu[:r] + (q * nu[r],) + nu[r + 1 :]
        total += coef * f(EvaluablePoint(shifted_a, shifted_nu))
    return total


def apply_macdonald(f, N: int, a: tuple, q: float, t: float) -> float:
    """Plain first Macdonald operator in the a's (used by the nu_i == t
    reduction check)."""
    _check_a_distinct(a, N)
    total = 0.0
    for r in range(N):
        coef = 1.0
        for i in range(N):
            if i != r:
                coef *= (a[i] - t * a[r]) / (a[i] - a[r])
        total += coef * f(a[:r] + (q * a[r],) + a[r + 1 :])
    return total


def phi_m(point: EvaluablePoint, u, M: int) -> float:
    """Denominator-clearing factor Phi_M = prod_{i<=T} prod_{j<=M} (1 - a_j u_i)."""
    if M > len(point.a):
        raise ValueError("M exceeds point arity")
    return math.prod(1.0 - point.a[j] * ui for ui in u for j in range(M))


def pi_n(point: EvaluablePoint, q: float, N: int) -> float:
    """Pi_N = prod_{i,j<=N} 1/(a_i c_j; q)_inf with c_j = nu_j/a_j."""
    a, nu = point.a, point.nu
    c = [nu[j] / a[j] for j in range(N)]
    val = 1.0
    for i in range(N):
        for j in range(N):
            x = a[i] * c[j]
            if x >= 1.0:
                raise ValueError(f"Pi_N diverges: a_{i+1} c_{j+1} = {x} >= 1")
            val /= q_pochhammer(x, q, INFINITY)
    return val


def operator_expectation(N_list, T: int, M: int, p: ModelParams) -> float:
    """Product-form observable by the operator route:
    (D_{N_ell} ... D_{N_1} Phi_M) / Phi_M evaluated at the model's (a, nu),
    with memoized evaluations on the q-shift lattice."""
    N_list = _check_product_args(N_list, T, p)
    if M < N_list[0]:
        raise ValueError(f"M = {M} must be >= N_1 = {N_list[0]}")
    check_window(p, M, T)
    u = p.u[:T]
    memo: dict = {}

    def level_value(level: int, point: EvaluablePoint) -> float:
        if level == 0:
            return phi_m(point, u, M)
        key = (level, point.a, point.nu)
        if key not in memo:
            memo[key] = apply_D(
                lambda pt: level_value(level - 1, pt), N_list[level - 1], point, p.q
            )
        return memo[key]

    base = EvaluablePoint(p.a[:M], p.nu[:M])
    return level_value(len(N_list), base) / phi_m(base, u, M)
