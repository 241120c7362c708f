import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from vertexlab import diffops
from vertexlab.core import INFINITY, ModelParams, q_pochhammer
from vertexlab.diffops import (
    EvaluablePoint,
    apply_D,
    apply_macdonald,
    apply_W,
    operator_expectation,
    phi_m,
)
from vertexlab.vertex import _f_tilde_arrays, row_partitions


def _params():
    return ModelParams(
        q=0.5,
        u=(-1.0, -0.7, -1.3),
        a=(1.0, 0.85, 1.15),
        nu=(0.4, 0.3, 0.45),
    )


def test_apply_w_examples():
    # f = 1: the coefficients sum to 1 (concrete N=2, a=(2,1) case)
    pt = EvaluablePoint((2.0, 1.0), (0.0, 0.0))
    assert abs(apply_W(lambda p: 1.0, 2, pt, 0.5) - 1.0) < 1e-14
    # N=1: apply_W f = f(q a_1)
    pt1 = EvaluablePoint((0.8,), (0.0,))
    got = apply_W(lambda p: p.a[0] ** 2, 1, pt1, 0.5)
    assert abs(got - (0.5 * 0.8) ** 2) < 1e-15


def test_apply_w_collision():
    pt = EvaluablePoint((1.0, 1.0 + 1e-12), (0.0, 0.0))
    with pytest.raises(ValueError, match="collision"):
        apply_W(lambda p: 1.0, 2, pt, 0.5)


def test_apply_d_on_one():
    p = _params()
    pt = EvaluablePoint(p.a, p.nu)
    got = apply_D(lambda _: 1.0, 3, pt, p.q)
    assert abs(got - (1 - math.prod(p.nu))) < 1e-12


def test_apply_d_q_commutation():
    # D_N (prod (nu_i - a_i u) * g) = q * prod(nu_i - a_i u) * D_N g
    p = _params()
    pt = EvaluablePoint(p.a, p.nu)
    u = -0.9

    def g(point):
        return 1.0 + 0.3 * point.a[0] + 0.2 * point.nu[1] * point.a[2]

    def fg(point):
        pref = math.prod(
            point.nu[i] - point.a[i] * u for i in range(3)
        )
        return pref * g(point)

    lhs = apply_D(fg, 3, pt, p.q)
    rhs = p.q * math.prod(p.nu[i] - p.a[i] * u for i in range(3)) * apply_D(
        g, 3, pt, p.q
    )
    assert abs(lhs - rhs) < 1e-12


def test_apply_d_macdonald_reduction():
    # nu_i = t, f independent of nu: apply_D = (1-t) * Macdonald operator
    t = 0.35
    a = (1.1, 0.8, 0.95)
    pt = EvaluablePoint(a, (t, t, t))

    def f(point):
        return math.prod(1 + 0.4 * x for x in point.a)

    lhs = apply_D(f, 3, pt, 0.5)
    rhs = (1 - t) * apply_macdonald(
        lambda aa: math.prod(1 + 0.4 * x for x in aa), 3, a, 0.5, t
    )
    assert abs(lhs - rhs) < 1e-12


def test_apply_w_contour_formula():
    # on product-form functions, the operator action is the one-variable
    # contour integral -(2 pi i)^{-1} oint prod a_i f(a_i)/(a_i - z)
    # * f(qz)/f(z) dz/z over a circle around the a's
    q = 0.5
    a = (1.0, 0.85, 1.15)

    def f(x):
        # Pi_W(x) for alphas=(0.2,), betas=(0.4,); accepts complex x
        return (1 + 0.4 * x) / q_pochhammer(0.2 * x, q, INFINITY)

    pt = EvaluablePoint(a, (0.0,) * 3)
    lhs = apply_W(lambda point: math.prod(f(x) for x in point.a), 3, pt, q)
    center, radius = 1.0, 0.6
    n = 512
    total = 0.0
    for k in range(n):
        z = center + radius * np.exp(2j * np.pi * k / n)
        w = (z - center) / n
        val = np.prod([ai / (ai - z) for ai in a]) * f(q * z) / f(z) / z
        total += (val * w).real
    rhs = -total * math.prod(f(x) for x in a)
    assert abs(lhs - rhs) < 1e-10


def test_conjugation_identity():
    # apply_D(f) = apply_W(Pi_N * f) / Pi_N with the ratios c fixed
    p = _params()
    N = 3
    base = EvaluablePoint(p.a[:N], p.nu[:N])
    c = [base.nu[j] / base.a[j] for j in range(N)]

    def f(point):
        return math.prod(1 + 0.3 * x for x in point.a) + 0.1 * point.nu[0]

    def pi_fixed_c(a_tuple):
        val = 1.0
        for ai in a_tuple:
            for cj in c:
                val /= q_pochhammer(ai * cj, p.q, INFINITY)
        return val

    def wrapped(point):
        nu = tuple(c[j] * point.a[j] for j in range(N))
        return pi_fixed_c(point.a) * f(EvaluablePoint(point.a, nu))

    lhs = apply_D(f, N, base, p.q)
    rhs = apply_W(wrapped, N, base, p.q) / pi_fixed_c(base.a)
    assert abs(lhs - rhs) < 1e-11


def test_phi_and_pi():
    p = _params()
    pt = EvaluablePoint(p.a, p.nu)
    assert phi_m(pt, (), 3) == 1.0


def test_operator_expectation_t0():
    p = _params()
    got = operator_expectation((3,), 0, 3, p)
    assert abs(got - (1 - math.prod(p.nu))) < 1e-12
    got2 = operator_expectation((2, 2), 0, 2, p)
    want = (1 - p.q * p.nu[0] * p.nu[1]) * (1 - p.nu[0] * p.nu[1])
    assert abs(got2 - want) < 1e-12


def test_operator_expectation_bernoulli():
    p = ModelParams(q=0.5, u=(-1.0,), a=(1.0,), nu=(0.0,))
    got = operator_expectation((1,), 1, 1, p)
    want = (1 - 0.5 * 1 * (-1.0)) / (1 - 1 * (-1.0))
    assert abs(got - want) < 1e-13


def test_operator_expectation_validation():
    p = _params()
    with pytest.raises(ValueError):
        operator_expectation((1, 2), 1, 2, p)  # must be non-increasing
    with pytest.raises(ValueError):
        operator_expectation((3,), 1, 2, p)  # M < N_1


def test_diffops_import_leaves_the_contour_routes_unloaded():
    # the operator route must not import the contour route it is checked against
    src = str(pathlib.Path(diffops.__file__).parents[1])
    code = "import sys, vertexlab.diffops; print('vertexlab.moments' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "False"


def test_eigen_action_on_far_configs():
    # D_N F~_kappa = q^T (1 - nu_1..nu_N) F~_kappa when all parts exceed N
    p = ModelParams(
        q=0.5,
        u=(-1.0, -0.7),
        a=(1.0, 0.85, 1.15, 0.9),
        nu=(0.4, 0.3, 0.45, 0.2),
    )
    N, T, M = 1, 2, 4
    kappa = (4, 3)  # kappa_T = 3 > N
    u = p.u[:T]

    def f(pt):
        return _f_tilde_arrays(kappa, u, pt.a, pt.nu, p.q, M)

    base = EvaluablePoint(p.a[:M], p.nu[:M])
    lhs = apply_D(f, N, base, p.q)
    rhs = p.q**T * (1 - p.nu[0]) * f(base)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_counterexample_ratio():
    # D_2 F~^2_(2)(u_1) / F~^2_(2)(u_1) = 1 - q nu1 nu2 + (1-q)(1-nu1) a2/(a1-a2):
    # the eigen-style action genuinely fails for individual weights
    p = _params()
    M, T = 2, 1
    u = p.u[:1]

    def f(pt):
        return _f_tilde_arrays((2,), u, pt.a, pt.nu, p.q, M)

    base = EvaluablePoint(p.a[:M], p.nu[:M])
    ratio = apply_D(f, 2, base, p.q) / f(base)
    want = (
        1
        - p.q * p.nu[0] * p.nu[1]
        + (1 - p.q) * (1 - p.nu[0]) * p.a[1] / (p.a[0] - p.a[1])
    )
    assert abs(ratio - want) < 1e-11


def test_key_lemma_and_multilevel():
    rng = np.random.default_rng(2)
    for _ in range(20):
        q = rng.uniform(0.3, 0.6)
        n_cols = 3
        p = ModelParams(
            q=q,
            u=tuple(-rng.uniform(0.4, 1.6, 3)),
            a=tuple(rng.uniform(0.8, 1.2, n_cols)),
            nu=tuple(rng.uniform(0.1, 0.5, n_cols)),
        )
        N = int(rng.integers(1, 4))
        T = int(rng.integers(1, 4))
        M = N
        u = p.u[:T]

        def psum(pt):
            return sum(
                _f_tilde_arrays(parts, u, pt.a, pt.nu, p.q, M)
                for parts in row_partitions(T, N)
            )

        base = EvaluablePoint(p.a[:M], p.nu[:M])
        lhs = apply_D(psum, N, base, p.q)
        rhs = (1 - p.q**T * math.prod(p.nu[:N])) * psum(base)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(rhs), 1e-12)
        # multilevel ell = 2
        N2 = int(rng.integers(1, N + 1))
        lhs2 = apply_D(lambda pt: apply_D(psum, N, pt, p.q), N2, base, p.q)
        rhs2 = 0.0
        for parts in row_partitions(T, N):
            w = _f_tilde_arrays(parts, u, base.a, base.nu, p.q, M)
            for j, Nj in enumerate((N, N2), start=1):
                h = sum(1 for x in parts if x >= Nj + 1)
                w *= p.q**h - p.q ** (T + 2 - j) * math.prod(p.nu[:Nj])
            rhs2 += w
        assert abs(lhs2 - rhs2) <= 1e-9 * max(abs(rhs2), 1e-12)


@pytest.mark.parametrize(
    "call,message",
    [(lambda: EvaluablePoint((1.0, 0.9), (0.1,)), "a and nu must have equal length"),
     (lambda: phi_m(EvaluablePoint((1.0,), (0.1,)), (-1.0,), 2), "M exceeds point arity"),
     (lambda: apply_D(lambda pt: 1.0, 2, EvaluablePoint((1.0, 1.0), (0.1, 0.2)), 0.5),
      r"a collision: a\[0\] ~ a\[1\] = 1.0")],
    ids=["point-lengths", "phi-arity", "a-collision"],
)
def test_guards_name_the_violated_condition(call, message):
    with pytest.raises(ValueError, match=message):
        call()
