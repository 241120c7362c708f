"""Schur-measure side of the special-parameter model: brute-force measure
enumeration via Jacobi-Trudi determinants, the double-contour correlation
kernel and Fredholm probabilities, critical-point/limit-shape formulas, the
Tracy-Widom GUE distribution, and the large-scale simulation experiment.

The special parameters are nu_i = q (i >= 2), nu_1 = 0, a_i = 1 (i >= 2),
a_1 >= 1 free, homogeneous spectral parameter u < 0; geometric q-TASEP
moves then have alpha = q and Bernoulli moves beta = -u.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import airy

from . import qtasep
from .core import ModelParams
from .rng import offset_seed

BETA_FACTOR_TOL = 1e-18
# partitions per stacked Jacobi-Trudi determinant call; bounds the memory of
# the brute force whatever T and the part cutoff
BRUTEFORCE_CHUNK = 8192


@dataclass(frozen=True)
class SchurSetup:
    """Special-parameter setup matched to the Schur measure
    S_{(-1/u, ..., -1/u); rho_N} with beta specialization
    (a1^{-1} q^m, m >= 0; 1 repeated N-1 times)."""

    q: float
    u: float
    a1: float
    N: int
    T: int

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie in (0,1)")
        if self.u >= 0.0:
            raise ValueError("u must be < 0")
        if self.a1 < 1.0:
            raise ValueError("a1 must be >= 1 (a1 < 1 is the shock regime)")
        if self.N < 1 or self.T < 0:
            raise ValueError("need N >= 1, T >= 0")

    def geometric_betas(self) -> list:
        """The geometric a1 family a1^{-1} q^m, m >= 0, of rho_N, cut far
        below double precision."""
        out = []
        b = 1.0 / self.a1
        while b >= BETA_FACTOR_TOL:
            out.append(b)
            b *= self.q
        return out

    def rho_betas(self) -> list:
        """Beta parameters of rho_N: the geometric a1 family plus N-1 unit
        entries."""
        return self.geometric_betas() + [1.0] * (self.N - 1)


# ---------------------------------------------------------------------------
# Brute-force Schur measure via Jacobi-Trudi determinants


def _h_from_beta(betas, n_max: int) -> np.ndarray:
    """Coefficients of prod_i (1 + beta_i t) up to degree n_max."""
    h = np.zeros(n_max + 1)
    h[0] = 1.0
    for b in betas:
        h[1:] += b * h[:-1].copy()
    return h


def _h_from_alpha(alphas, n_max: int) -> np.ndarray:
    """Coefficients of prod_i 1/(1 - alpha_i t) up to degree n_max."""
    h = np.zeros(n_max + 1)
    h[0] = 1.0
    for al in alphas:
        for k in range(1, n_max + 1):
            h[k] += al * h[k - 1]
    return h


def schur_jacobi_trudi(parts: np.ndarray, h: np.ndarray) -> np.ndarray:
    """s_lambda = det(h_{lambda_i - i + j}) for a stack of partitions.

    parts is an (n, ell) integer array whose rows are partitions of length
    ell, largest part first; h_k is taken as 0 for k < 0 and k >= len(h).
    All n determinants come from one stacked np.linalg.det call.
    """
    ell = parts.shape[1]
    if ell == 0:
        return np.ones(parts.shape[0])
    shift = np.arange(ell)
    k = parts[:, :, None] + (shift[None, :] - shift[:, None])
    inside = (k >= 0) & (k < len(h))
    return np.linalg.det(np.where(inside, h[np.clip(k, 0, len(h) - 1)], 0.0))


def _schur_weight_chunks(s: SchurSetup, part_cutoff: int):
    """Schur-measure weights of the partitions with at most T rows and parts
    <= part_cutoff, as (combos, w) pairs of at most BRUTEFORCE_CHUNK
    partitions of one length each.

    Lengths run 0..T, and within a length the partitions come in the order
    of itertools.combinations_with_replacement; combos holds those
    nondecreasing tuples, so a partition is a combo read backwards.  After
    the last chunk the enumerated mass is checked once: ValueError if it
    misses 1 by more than 1e-10.
    """
    x = -1.0 / s.u
    betas = s.rho_betas()
    n_max = part_cutoff + s.T + 1
    h_x = _h_from_alpha([x] * s.T, n_max)
    h_rho = _h_from_beta(betas, n_max)
    pi_s = math.exp(s.T * sum(math.log1p(b * x) for b in betas))
    total_w = 0.0
    for ell in range(s.T + 1):
        combos_iter = itertools.combinations_with_replacement(
            range(1, part_cutoff + 1), ell
        )
        while combos := list(itertools.islice(combos_iter, BRUTEFORCE_CHUNK)):
            parts = np.array(combos, dtype=np.int64)[:, ::-1]
            w = schur_jacobi_trudi(parts, h_x) * schur_jacobi_trudi(parts, h_rho) / pi_s
            total_w = _running_sum(total_w, w)
            yield combos, w
    if abs(total_w - 1.0) > 1e-10:
        raise ValueError(
            f"partition cutoff too small: enumerated mass {total_w}"
        )


def _running_sum(start: float, w: np.ndarray) -> float:
    """((start + w[0]) + w[1]) + ..., the plain sequential sum."""
    return float(np.cumsum(np.concatenate(([start], w)))[-1])


def schur_bruteforce_expectation(s: SchurSetup, observable, part_cutoff: int = 40):
    """Expectation of observable(lambda) under the Schur measure by direct
    enumeration of partitions with at most T rows and parts <= part_cutoff.

    observable receives the partition padded with zeros to length T.  The
    partitions are enumerated once, in chunks whose Jacobi-Trudi
    determinants are evaluated stacked; the sum runs sequentially in
    enumeration order.  Raises if the enumerated weights miss more than
    1e-10 of the mass.
    """
    total = 0.0
    for combos, w in _schur_weight_chunks(s, part_cutoff):
        for combo, wv in zip(combos, w.tolist()):
            total += wv * observable(combo[::-1] + (0,) * (s.T - len(combo)))
    return total


def schur_length_pmf(s: SchurSetup, part_cutoff: int = 40) -> dict:
    """P(ell(lambda) = k) by brute-force enumeration.

    One pass over the partitions bins the weights by length, each bin summed
    sequentially in enumeration order; the mass deficit is checked once, as
    in schur_bruteforce_expectation.
    """
    pmf: dict = {k: 0.0 for k in range(s.T + 1)}
    for combos, w in _schur_weight_chunks(s, part_cutoff):
        ell = len(combos[0])
        pmf[ell] = _running_sum(pmf[ell], w)
    return pmf


# ---------------------------------------------------------------------------
# Correlation kernel and Fredholm probabilities


def _kernel_radii(s: SchurSetup):
    """Concentric circles around {0, -1/u} excluding -1 and -a1 q^{-m}.

    The center sits as close to zero as the constraints allow, which keeps
    |w| nearly constant along the contour and controls the dynamic range of
    the w^j factor at very negative j.
    """
    m = -1.0 / s.u
    c = max(0.1 * m, 0.5 * (m - 1.0) + 0.05)
    lo = max(c, m - c)  # must contain 0 and m
    hi = min(1.0 + c, s.a1 + c)  # must exclude -1 and -a1
    if lo >= hi:
        raise ValueError(f"kernel contours infeasible for u={s.u}, a1={s.a1}")
    rho_w = lo + 0.40 * (hi - lo)
    rho_v = lo + 0.75 * (hi - lo)
    return c, rho_w, rho_v


def schur_kernel_matrix(s: SchurSetup, indices, n_nodes: int = 512) -> np.ndarray:
    """Correlation kernel K(i, j) of {lambda_k - k} on the given index list,
    by tensor trapezoid quadrature of the double contour integral."""
    idx = np.asarray(list(indices), dtype=np.int64)
    c, rho_w, rho_v = _kernel_radii(s)
    n = int(n_nodes)
    theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    zv = c + rho_v * np.exp(1j * theta)
    zw = c + rho_w * np.exp(1j * theta)
    wv = (zv - c) / n
    ww = (zw - c) / n

    def log_f(z):
        # F(z) = (-z/a1; q)_inf * (1+z)^{N-1} * (u + 1/z)^T, taken as logs
        val = np.zeros_like(z)
        for b in s.geometric_betas():
            val = val + np.log1p(b * z)
        val = val + (s.N - 1) * np.log(1.0 + z)
        val = val + s.T * np.log(s.u + 1.0 / z)
        return val

    lf_v = log_f(zv)
    lf_w = log_f(zw)
    lz_v = np.log(zv)
    lz_w = np.log(zw)
    # A[r, k] = F(v_k) v_k^{-i_r - 1} wv_k ; B[r, l] = w_l^{j_r} / F(w_l) * ww_l
    A = np.exp(lf_v[None, :] - (idx[:, None] + 1) * lz_v[None, :]) * wv[None, :]
    B = np.exp(idx[:, None] * lz_w[None, :] - lf_w[None, :]) * ww[None, :]
    D = 1.0 / (zv[:, None] - zw[None, :])
    K = A @ D @ B.T
    if np.abs(K.imag).max() > 1e-8:
        raise ArithmeticError(
            f"kernel quadrature not real: max imag {np.abs(K.imag).max()}"
        )
    return K.real


def prob_length_exceeds(x: int, s: SchurSetup, cutoff: int = 30) -> float:
    """P(-ell(lambda) > x) as the finite determinant det[K(i,j)] over
    {x, x-1, ..., x-cutoff}; sites far below -T are fully occupied so the
    truncated determinant converges, which is checked via the last diagonal
    entry (within 1e-10 of 1)."""
    if x >= 0:
        return 0.0
    idx = list(range(x, x - cutoff - 1, -1))
    K = schur_kernel_matrix(s, idx)
    if abs(K[-1, -1] - 1.0) > 1e-10:
        raise ValueError(
            f"cutoff {cutoff} too small: trailing diagonal {K[-1, -1]}"
        )
    return float(np.linalg.det(K))


def fredholm_length_cdf(s: SchurSetup, k_values, cutoff: int = 30) -> dict:
    """P(ell(lambda) <= k) = P(-ell > -k-1) for each requested k."""
    return {
        k: 1.0 if k >= s.T else prob_length_exceeds(-k - 1, s, cutoff)
        for k in k_values
    }


# ---------------------------------------------------------------------------
# Critical point, limit shape, fluctuation scale


@dataclass(frozen=True)
class CriticalData:
    x_c: float
    v_c: float
    sigma: float
    regime: str  # CURVED | FLAT


def g_derivatives(v: float, x: float, eta: float, tau: float, u: float):
    """(G', G'', G''') at real v in (-1, 0)."""
    g1 = eta / (1.0 + v) - tau / (v * (u * v + 1.0)) - x / v
    g2 = (
        -eta / (1.0 + v) ** 2
        + tau * (2.0 * u * v + 1.0) / (v**2 * (u * v + 1.0) ** 2)
        + x / v**2
    )
    g3 = (
        2.0 * eta / (1.0 + v) ** 3
        + tau
        * (
            2.0 * u / (v**2 * (u * v + 1.0) ** 2)
            - (2.0 * u * v + 1.0)
            * (2.0 / (v**3 * (u * v + 1.0) ** 2) + 2.0 * u / (v**2 * (u * v + 1.0) ** 3))
        )
        - 2.0 * x / v**3
    )
    return g1, g2, g3


def critical_point(eta: float, tau: float, u: float) -> CriticalData:
    """Double critical point (minus branch) of the kernel action, the
    fluctuation scale sigma, and the regime flag."""
    if eta <= 0 or tau <= 0 or u >= 0:
        raise ValueError("need eta, tau > 0 and u < 0")
    root = math.sqrt(-u * eta * tau)
    x_c = (eta - tau - 2.0 * root) / (1.0 - u)
    denom = u * (tau + eta * u)
    if abs(tau + eta * u) < 1e-14 * (tau + abs(eta * u)):
        v_c = -(1.0 + u) / (2.0 * u)  # continuous limit at the phase boundary
    else:
        v_c = (-(1.0 - u) * root - u * (eta + tau)) / denom
    curved = tau / eta > -1.0 / u
    s = math.sqrt(-u * tau / eta)
    sigma = (
        (-u * tau * eta) ** (1.0 / 6.0)
        * (1.0 + math.sqrt(-u * eta / tau)) ** (2.0 / 3.0)
        * abs(1.0 - s) ** (2.0 / 3.0)
        / (1.0 - u)
    )
    return CriticalData(x_c, v_c, sigma, "CURVED" if curved else "FLAT")


def sigma_from_g(eta: float, tau: float, u: float) -> float:
    """Independent evaluation sigma = -v_c (G'''(v_c; x_c)/2)^{1/3}.

    The /2 makes the cubic term of the rescaled action equal v~^3/3, which
    is what the closed form evaluates to (checked symbolically: the closed
    form cubed times 2 equals (-v_c)^3 G''' identically)."""
    cd = critical_point(eta, tau, u)
    _, _, g3 = g_derivatives(cd.v_c, cd.x_c, eta, tau, u)
    return -cd.v_c * np.cbrt(g3 / 2.0)


def limit_shape(eta: float, tau: float, u: float) -> float:
    """Law-of-large-numbers limit of x_{eta M}(eta M, tau M) / M."""
    if critical_point(eta, tau, u).regime == "CURVED":
        return (-u * (tau - eta) - 2.0 * math.sqrt(-u * eta * tau)) / (1.0 - u)
    return -eta


# ---------------------------------------------------------------------------
# Airy kernel Fredholm determinant (Tracy-Widom GUE)


def airy_kernel(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    ax, apx, _, _ = airy(x)
    ay, apy, _, _ = airy(y)
    num = ax[:, None] * apy[None, :] - apx[:, None] * ay[None, :]
    den = x[:, None] - y[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        K = num / den
    diag = apx**2 - x * ax**2
    K[np.eye(len(x), dtype=bool)] = diag
    return K


@functools.lru_cache(maxsize=None)
def _legendre_nodes(n_nodes: int):
    t, w = np.polynomial.legendre.leggauss(n_nodes)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def tracy_widom_cdf(r: float, n_nodes: int = 48) -> float:
    """F_GUE(r) = det(1 - K_Airy) on L^2(r, inf), by Gauss-Legendre
    quadrature mapped onto the half-line by x = r + 2(1+t)/(1-t)."""
    t, w = _legendre_nodes(int(n_nodes))
    x = r + 2.0 * (1.0 + t) / (1.0 - t)
    dx = 4.0 / (1.0 - t) ** 2
    sq = np.sqrt(w * dx)
    M = sq[:, None] * airy_kernel(x, x) * sq[None, :]
    return float(np.linalg.det(np.eye(len(x)) - M))


# ---------------------------------------------------------------------------
# Large-scale q-TASEP simulation with special parameters


def special_params(q: float, u: float, a1: float, n_cols: int, T: int) -> ModelParams:
    """The special parameters on n_cols columns and T rows: nu = (0, q, ...),
    a = (a1, 1, ...), u_t = u.  No regime check on a1, so the shock regime
    a1 < 1 that SchurSetup rejects can still be simulated."""
    rest = n_cols - 1
    return ModelParams(q=q, u=(u,) * T, a=(a1,) + (1.0,) * rest, nu=(0.0,) + (q,) * rest)


def _special_positions(
    q: float, u: float, a1: float, N: int, T: int, replicas: int, seed: int
) -> np.ndarray:
    """Replica values of x_N(N, T) under the mixed q-TASEP with the special
    parameters: geometric alpha = q, Bernoulli beta = -u, rates (a1, 1, ...).
    ValueError unless replicas >= 1: an empty sample is no law."""
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    p = special_params(q, u, a1, N, T)
    return qtasep.sample_mixed_batch(p, N, T, replicas, seed)[:, N - 1]


@dataclass
class AsymptoticsReport:
    eta: float
    tau: float
    u: float
    a1: float
    x_theory: float
    sigma: float
    m_values: list
    samples: dict  # M -> ndarray of x_N(N,T)
    mean_err: float
    ks_stat: float

    def summary(self) -> dict:
        return {
            "eta": self.eta,
            "tau": self.tau,
            "u": self.u,
            "a1": self.a1,
            "X_theory": self.x_theory,
            "sigma": self.sigma,
            "mean_err": self.mean_err,
            "ks_stat": self.ks_stat,
        }

    def to_csv(self) -> str:
        lines = ["M,replica,x_scaled,standardized"]
        for M in self.m_values:
            xs = self.samples[M]
            std = (xs - M * self.x_theory) / (self.sigma * M ** (1.0 / 3.0))
            for r, (xv, sv) in enumerate(zip(xs / M, std)):
                lines.append(f"{M},{r},{xv},{sv}")
        return "\n".join(lines) + "\n"


def ks_distance_to_tw(standardized: np.ndarray) -> float:
    """Kolmogorov distance between the empirical law of -standardized and
    F_GUE (sign convention: P(standardized >= -r) -> F_GUE(r))."""
    vals = np.sort(-np.asarray(standardized, dtype=float))
    n = len(vals)
    Ft = np.array([tracy_widom_cdf(v) for v in vals])
    upper = np.abs(np.arange(1, n + 1) / n - Ft)
    lower = np.abs(np.arange(0, n) / n - Ft)
    return float(max(upper.max(), lower.max()))


def asymptotic_equivalence_proxy(
    q: float,
    u: float,
    a1: float,
    eta: float,
    tau: float,
    M: int,
    replicas: int,
    seed: int,
    cutoff: int = 30,
) -> float:
    """Kolmogorov distance between the simulated law of x_{eta M} + eta M and
    the Fredholm law of tau M - ell(lambda^(M)).

    The matching proposition is a limit statement; at accessible M the two
    laws differ by an O(1)-site shift, which this function measures honestly.
    The Fredholm side needs contour quadrature whose conditioning limits M
    to single digits with circular contours.
    """
    N, T = int(eta * M), int(tau * M)
    s = SchurSetup(q=q, u=u, a1=a1, N=N, T=T)
    xs = _special_positions(q, u, a1, N, T, replicas, seed) + N
    cdfs = fredholm_length_cdf(s, range(-1, T + 1), cutoff=cutoff)

    def fred_cdf(y: int) -> float:
        k = T - y - 1  # P(tau M - ell <= y) = 1 - P(ell <= T - y - 1)
        if k < 0:
            return 1.0
        if k > T:
            return 0.0
        return 1.0 - cdfs[k]

    # A lattice Kolmogorov distance: the sup over the integers needs the
    # Fredholm cdf F(v-1) just below each atom v as well as F(v), where
    # ks_distance_to_tw's continuous formula takes one F value per sample.
    # One routine for both would branch on its caller, so this stays here.
    vals, counts = np.unique(xs, return_counts=True)
    emp = np.cumsum(counts) / len(xs)
    ks = 0.0
    prev = 0.0
    for v, ec in zip(vals.tolist(), emp):
        ks = max(ks, abs(ec - fred_cdf(v)), abs(prev - fred_cdf(v - 1)))
        prev = ec
    return float(ks)


def asymptotics_experiment(
    q: float,
    u: float,
    a1: float,
    eta: float,
    tau: float,
    m_list,
    replicas: int,
    seed: int,
) -> AsymptoticsReport:
    """Simulate x_{eta M}(eta M, tau M) across M in m_list; report the
    empirical law against the limit shape and (in the curved regime) the
    Tracy-Widom distribution.  ValueError unless replicas >= 1."""
    x_th = limit_shape(eta, tau, u)
    cd = critical_point(eta, tau, u)
    samples = {}
    for k, M in enumerate(m_list):
        N, T = int(eta * M), int(tau * M)
        samples[M] = _special_positions(q, u, a1, N, T, replicas, offset_seed(seed, k))
    m_top = max(m_list)
    xs = samples[m_top]
    mean_err = float(abs(xs.mean() / m_top - x_th))
    if cd.regime == "CURVED":
        std = (xs - m_top * x_th) / (cd.sigma * m_top ** (1.0 / 3.0))
        ks = ks_distance_to_tw(std)
    else:
        ks = float("nan")
    return AsymptoticsReport(
        eta, tau, u, a1, x_th, cd.sigma, list(m_list), samples, mean_err, ks
    )
