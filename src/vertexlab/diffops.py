"""First q-Whittaker difference operator, its (a, nu) conjugation, and the
operator route to product-form observables.

Operators act on black-box evaluable functions of the column parameters: a
function is anything callable as f(EvaluablePoint) -> float, finite on the
q-shift lattice of the base point (apply_macdonald's f takes the a tuple).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .core import ModelParams, check_product_args, check_separated, check_window

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


def _first_operator(f, N: int, a: tuple, q: float, weight, c) -> float:
    """The t=0 Sigma_r loop shared by the operators below:
    sum_r weight[r] [prod_{i != r} (a_i - c_i a_r)/(a_i - a_r)] f(r, a_r -> q a_r)."""
    check_separated("a", a[:N], A_COLLISION_REL_TOL)
    total = 0.0
    for r in range(N):
        coef = weight[r]
        for i in range(N):
            if i != r:
                coef *= (a[i] - c[i] * a[r]) / (a[i] - a[r])
        total += coef * f(r, a[:r] + (q * a[r],) + a[r + 1 :])
    return total


def apply_W(f, N: int, point: EvaluablePoint, q: float) -> float:
    """First q-Whittaker operator in a_1..a_N:
    sum_r [prod_{i != r} a_i/(a_i - a_r)] f(point with a_r -> q a_r),
    which is apply_macdonald at t = 0."""
    return apply_macdonald(lambda a: f(EvaluablePoint(a, point.nu)), N, point.a, q, 0.0)


def apply_D(f, N: int, point: EvaluablePoint, q: float) -> float:
    """Conjugated operator: sum_r (1 - nu_r) [prod_{i != r}
    (a_i - nu_i a_r)/(a_i - a_r)] f(a_r -> q a_r, nu_r -> q nu_r).

    Acts on a_1..a_N and nu_1..nu_N, leaving the ratios nu_i/a_i fixed."""
    nu = point.nu

    def shifted(r, a):
        return f(EvaluablePoint(a, nu[:r] + (q * nu[r],) + nu[r + 1 :]))

    return _first_operator(shifted, N, point.a, q, [1.0 - x for x in nu[:N]], nu)


def apply_macdonald(f, N: int, a: tuple, q: float, t: float) -> float:
    """Plain first Macdonald operator in the a's (used by the nu_i == t
    reduction check)."""
    return _first_operator(lambda _, shifted: f(shifted), N, a, q, (1.0,) * N, (t,) * N)


def phi_m(point: EvaluablePoint, u, M: int) -> float:
    """Denominator-clearing factor Phi_M = prod_{i<=T} prod_{j<=M} (1 - a_j u_i)."""
    if M > len(point.a):
        raise ValueError("M exceeds point arity")
    return math.prod(1.0 - point.a[j] * ui for ui in u for j in range(M))


def operator_expectation(N_list, T: int, M: int, p: ModelParams) -> float:
    """Product-form observable by the operator route:
    (D_{N_ell} ... D_{N_1} Phi_M) / Phi_M evaluated at the model's (a, nu),
    with cached evaluations on the q-shift lattice."""
    N_list = check_product_args(N_list, T, p)
    if M < N_list[0]:
        raise ValueError(f"M = {M} must be >= N_1 = {N_list[0]}")
    check_window(p, M, T)
    u = p.u[:T]

    @functools.cache
    def level_value(level: int, point: EvaluablePoint) -> float:
        if level == 0:
            return phi_m(point, u, M)
        return apply_D(
            lambda pt: level_value(level - 1, pt), N_list[level - 1], point, p.q
        )

    base = EvaluablePoint(p.a[:M], p.nu[:M])
    return level_value(len(N_list), base) / phi_m(base, u, M)
