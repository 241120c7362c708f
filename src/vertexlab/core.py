"""Shared primitives: parameter bundles, partitions, specializations, q-series.

Everything here is a pure function of its inputs; all downstream modules
(samplers, difference operators, contour integrals) build on these.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

INFINITY = float("inf")

# Infinite q-Pochhammer products stop once |z q^k| drops below this; the
# neglected tail multiplies the result by at most exp(2*POCH_TOL/(1-q)).
POCH_TOL = 1e-16


def q_pochhammer(z, q: float, n=INFINITY):
    """q-Pochhammer symbol (z; q)_n = prod_{k=0}^{n-1} (1 - z q^k).

    `n` may be a nonnegative integer or INFINITY.  The infinite product is
    truncated once |z q^k| < POCH_TOL; the comment at POCH_TOL bounds the
    multiplicative error of that truncation.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0,1), got {q}")
    if n == INFINITY:
        result = 1.0
        zq = z
        while abs(zq) >= POCH_TOL:
            result = result * (1.0 - zq)
            zq = zq * q
        return result
    n = int(n)
    if n < 0:
        raise ValueError(f"n must be >= 0 or INFINITY, got {n}")
    result = 1.0
    zq = z
    for _ in range(n):
        result = result * (1.0 - zq)
        zq = zq * q
    return result


def inv_cdf(pairs, draw: float):
    """Inverse-CDF draw from a list of (value, weight) atoms: the first value
    whose running weight sum exceeds draw strictly, or the last value when
    rounding leaves the sum at or below draw."""
    acc = 0.0
    for value, w in pairs:
        acc += w
        if draw < acc:
            return value
    return pairs[-1][0]


@dataclass(frozen=True)
class Specialization:
    """Nonnegative specialization data (alpha list, beta list, gamma).

    Defines the generating function Pi_W(u) = e^{gamma u} *
    prod_i (1 + beta_i u) / (alpha_i u; q)_infinity.
    """

    alphas: tuple = ()
    betas: tuple = ()
    gamma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(x) for x in self.alphas))
        object.__setattr__(self, "betas", tuple(float(x) for x in self.betas))
        object.__setattr__(self, "gamma", float(self.gamma))
        if any(x < 0 for x in self.alphas) or any(x < 0 for x in self.betas):
            raise ValueError("alpha and beta parameters must be nonnegative")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")


def pi_w(u: float, rho: Specialization, q: float) -> float:
    """Generating function Pi_W(u; rho) evaluated numerically.

    Requires |alpha_i * u| < 1 for convergence of each 1/(alpha_i u; q)_inf
    factor as the sum of the underlying series.
    """
    value = math.exp(rho.gamma * u)
    for b in rho.betas:
        value *= 1.0 + b * u
    for a in rho.alphas:
        if abs(a * u) >= 1.0:
            raise ValueError(f"pi_w diverges: |alpha*u| = {abs(a * u)} >= 1")
        value /= q_pochhammer(a * u, q, INFINITY)
    return value


def _convolve(xs: list, ys: list, n_max: int) -> list:
    out = [0.0] * (n_max + 1)
    for i, x in enumerate(xs):
        if x == 0.0:
            continue
        for j, y in enumerate(ys):
            if i + j > n_max:
                break
            out[i + j] += x * y
    return out


def pi_w_coefficients(rho: Specialization, q: float, n_max: int) -> list:
    """Power-series coefficients [Q_(0), ..., Q_(n_max)] of Pi_W(u; rho).

    Exact series multiplication of the factor expansions: e^{gamma u} gives
    gamma^n/n!, each beta factor is linear, and 1/(alpha u; q)_inf expands
    by the q-binomial theorem as sum_n (alpha u)^n / (q;q)_n.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0,1), got {q}")
    coeffs = [1.0] + [0.0] * n_max
    if rho.gamma > 0:
        exp_series = [1.0]
        for n in range(1, n_max + 1):
            exp_series.append(exp_series[-1] * rho.gamma / n)
        coeffs = _convolve(coeffs, exp_series, n_max)
    for b in rho.betas:
        coeffs = _convolve(coeffs, [1.0, b], n_max)
    for a in rho.alphas:
        geo = [a**n / q_pochhammer(q, q, n) for n in range(n_max + 1)]
        coeffs = _convolve(coeffs, geo, n_max)
    return coeffs


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing list of nonnegative integer parts."""

    parts: tuple = ()

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if any(p < 0 for p in parts):
            raise ValueError(f"negative part in {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts not weakly decreasing: {parts}")


@dataclass(frozen=True)
class ModelParams:
    """Parameter bundle of the inhomogeneous model.

    q in (0,1); spectral parameters u_t < 0 (one per row); column parameters
    a_n > 0 and nu_n in [0,1).  nu entries equal to zero encode the
    step-Bernoulli style boundary specializations.
    """

    q: float
    u: tuple
    a: tuple
    nu: tuple

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(float(x) for x in self.u))
        object.__setattr__(self, "a", tuple(float(x) for x in self.a))
        object.__setattr__(self, "nu", tuple(float(x) for x in self.nu))
        for name, values in (("q", (self.q,)), ("u", self.u), ("a", self.a), ("nu", self.nu)):
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{name} must be finite, got {name} = {getattr(self, name)}")
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must lie in (0,1), got {self.q}")
        if any(x >= 0 for x in self.u):
            raise ValueError("all spectral parameters u_t must be < 0")
        if any(x <= 0 for x in self.a):
            raise ValueError("all column parameters a_n must be > 0")
        if any(not 0.0 <= x < 1.0 for x in self.nu):
            raise ValueError("all nu_n must lie in [0,1)")
        if len(self.a) != len(self.nu):
            raise ValueError("a and nu must have equal length")

    @property
    def c(self) -> tuple:
        """Derived column ratios c_n = nu_n / a_n."""
        return tuple(n / a for n, a in zip(self.nu, self.a))


def check_separated(name: str, values, rel_tol: float):
    """ValueError naming `name` unless the values are pairwise more than
    rel_tol times their largest modulus apart."""
    scale = max((abs(x) for x in values), default=1.0)
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if abs(values[i] - values[j]) < rel_tol * scale:
                raise ValueError(f"{name} collision: {name}[{i}] ~ {name}[{j}] = {values[i]}")


def check_window(p: ModelParams, n_cols: int, n_rows: int):
    """ValueError unless p has parameters for columns 1..n_cols and rows
    1..n_rows."""
    if n_cols > len(p.a) or n_rows > len(p.u):
        raise ValueError(
            f"window exceeds available parameters: needs {n_cols} columns and "
            f"{n_rows} rows, has {len(p.a)} and {len(p.u)}"
        )


def check_product_args(N_list, T: int, p: ModelParams, allow_zero: bool = False) -> tuple:
    """N_list as a tuple of ints; ValueError unless it is non-empty, non-increasing,
    >= 1 (>= 0 with allow_zero) and inside p's window (check_window)."""
    N_list = tuple(int(n) for n in N_list)
    if any(n0 < n1 for n0, n1 in zip(N_list, N_list[1:])):
        raise ValueError("N_list must be non-increasing")
    low = 0 if allow_zero else 1
    if not N_list or N_list[-1] < low:
        raise ValueError(f"N_list entries must be >= {low}")
    check_window(p, N_list[0], T)
    return N_list


def replica_count(n_samples) -> int:
    """n_samples as an int; ValueError naming it unless it is an integer
    >= 0 (a bool is not)."""
    integral = isinstance(n_samples, numbers.Integral) and not isinstance(n_samples, bool)
    if not integral or n_samples < 0:
        raise ValueError(f"n_samples must be an integer >= 0, got {n_samples!r}")
    return int(n_samples)


def params_digest(p: ModelParams) -> str:
    """Short stable digest of a parameter bundle, used in report records."""
    import hashlib

    return hashlib.sha1(params_to_config(p).encode()).hexdigest()[:12]


def params_to_config(p: ModelParams) -> str:
    """Serialize parameters to config text."""
    doc: dict = {"q": p.q, "u": list(p.u), "a": list(p.a), "nu": list(p.nu)}
    return json.dumps(doc, indent=2)


def params_from_config(text: str) -> ModelParams:
    """Parse config text, a JSON object of the number q and the number lists
    u, a and nu; ValueError naming any unknown, missing or mistyped key."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"config must be an object of q, u, a and nu, got {doc!r}")
    unknown = sorted(set(doc) - {"q", "u", "a", "nu"})
    if unknown:
        raise ValueError(f"unknown config key(s) {unknown}: use q, u, a and nu")
    for key in ("q", "u", "a", "nu"):
        if key not in doc:
            raise ValueError(f"config misses key {key!r}")
        values = [doc[key]] if key == "q" else doc[key]
        if type(values) is not list or any(type(v) not in (int, float) for v in values):
            kind = "a number" if key == "q" else "a list of numbers"
            raise ValueError(f"config key {key!r} must be {kind}, got {doc[key]!r}")
    return ModelParams(**doc)
