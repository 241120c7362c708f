import math

import numpy as np
import pytest

from vertexlab import moments
from vertexlab.core import INFINITY, ModelParams, Specialization, q_pochhammer
from vertexlab.diffops import operator_expectation
from vertexlab.moments import (
    ContourError,
    QuadratureError,
    build_nested_a_contours,
    formal_identity_check,
    height_moment_from_products,
    matching_specialization,
    moment_height_residues,
    moment_product_quadrature,
    moment_qwhittaker,
    moment_record,
    product_moment_residues,
    q_laplace,
    qwhittaker_n1_pmf,
)


def _params(n_cols=4, t=3):
    return ModelParams(
        q=0.5,
        u=(-1.0, -0.7, -1.3, -0.9)[:t],
        a=(1.0, 0.85, 1.15, 0.95)[:n_cols],
        nu=(0.4, 0.3, 0.45, 0.25)[:n_cols],
    )


def test_height_residues_edge_cases():
    p = _params()
    # N = 0: identically q^T
    for T in (1, 2, 3):
        assert abs(moment_height_residues((0,), T, p) - p.q**T) < 1e-12
    # T = 0: heights vanish
    assert abs(moment_height_residues((2,), 0, p) - 1.0) < 1e-14
    # N=1, T=1, nu_1=0: Bernoulli expectation
    p0 = ModelParams(q=0.5, u=(-1.0,), a=(1.2,), nu=(0.0,))
    want = (1 - 0.5 * 1.2 * (-1.0)) / (1 - 1.2 * (-1.0))
    assert abs(moment_height_residues((1,), 1, p0) - want) < 1e-13


def test_pole_collision_rejected():
    p = ModelParams(q=0.5, u=(-1.0, -0.5), a=(1.0,), nu=(0.3,))
    with pytest.raises(ValueError, match="collision"):
        moment_height_residues((1,), 2, p)  # u_2 = q u_1


def test_product_quadrature_t0():
    p = _params()
    val, err = moment_product_quadrature((3,), 0, p)
    assert abs(val - (1 - math.prod(p.nu[:3]))) < 1e-10


def test_route_triangle():
    p = _params()
    for N_list, T in [((1,), 1), ((2,), 2), ((3,), 3), ((2, 1), 2), ((3, 3), 2), ((2, 2), 3)]:
        op = operator_expectation(N_list, T, max(N_list), p)
        quad, _ = moment_product_quadrature(N_list, T, p)
        res = product_moment_residues(N_list, T, p)
        assert abs(op - quad) <= 1e-9
        assert abs(quad - res) <= 1e-9
        hres = moment_height_residues(N_list, T, p)
        hrec = height_moment_from_products(N_list, T, p)
        assert abs(hres - hrec) <= 1e-9


def test_engines_agree_three_variables():
    # deeper nesting: the u-side residue engine at ell=3 against the a-side
    # engine through the 2^3-subset recombination
    p = ModelParams(
        q=0.45, u=(-1.0, -0.7, -1.3), a=(1.0, 0.85, 1.15), nu=(0.4, 0.3, 0.45)
    )
    for N_list, T in [((2, 1, 1), 2), ((3, 2, 1), 3), ((2, 2, 2), 2)]:
        hres = moment_height_residues(N_list, T, p)
        hrec = height_moment_from_products(N_list, T, p)
        assert abs(hres - hrec) < 1e-10
        assert 0.0 < hres <= 1.0


def test_moments_bounded():
    p = _params()
    for N_list, T in [((1,), 1), ((2, 1), 2), ((3, 2), 3)]:
        v = moment_height_residues(N_list, T, p)
        assert 0.0 < v <= 1.0


def test_formal_identity_examples():
    # ell = 1 base case: (X - q b) + q b = X
    assert formal_identity_check(1, [1.7], [0.3], 0.5) < 1e-15
    rng = np.random.default_rng(0)
    for _ in range(100):
        ell = int(rng.integers(1, 6))
        X = rng.uniform(-2, 2, ell)
        b = rng.uniform(-2, 2, ell)
        q = rng.uniform(0.05, 0.95)
        assert formal_identity_check(ell, X, b, q) <= 1e-12
    # setting X_ell = q^ell b_ell reduces to the (ell-1)-identity, so the
    # residual stays at zero there as well
    for _ in range(20):
        ell = int(rng.integers(2, 6))
        X = rng.uniform(-2, 2, ell)
        b = rng.uniform(-2, 2, ell)
        q = rng.uniform(0.1, 0.9)
        X[-1] = q**ell * b[-1]
        assert formal_identity_check(ell, X, b, q) <= 1e-12


def test_contour_infeasibility():
    # nu close to 1 pushes a/nu into the a cluster: no circle family exists
    with pytest.raises(ContourError):
        build_nested_a_contours((1.2, 0.8), [0.8 / 0.95], 0.5, 2)


def test_quadrature_doubling_guard(monkeypatch):
    p = _params()
    monkeypatch.setitem(moments.QUAD_NODES, 2, 8)
    with pytest.raises(QuadratureError, match="grid doubling"):
        moment_product_quadrature((2, 1), 2, p)
    # the q-Whittaker quadrature runs the same guard at QUAD_NODES[ell] nodes
    monkeypatch.setitem(moments.QUAD_NODES, 1, 8)
    rho = Specialization(alphas=(0.25,))
    with pytest.raises(QuadratureError, match="grid doubling"):
        moment_qwhittaker(1, 1, rho, (1.0,), 0.5)


def test_quadrature_rejects_four_variables_up_front(monkeypatch):
    # a 4-variable grid used to run for seconds before failing its doubling
    # check; the variable count is now refused before any node is evaluated
    def never(*args):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(moments, "nested_contour_quadrature", never)
    with pytest.raises(ValueError, match="supports up to 3 variables"):
        moment_product_quadrature((1, 1, 1, 1), 1, _params())
    rho = Specialization(alphas=(0.25,))
    with pytest.raises(ValueError, match="supports up to 3 variables"):
        moment_qwhittaker(4, 1, rho, (1.0,), 0.5)


def test_qwhittaker_matching_theorem():
    # with rho(N,T), the q-Whittaker moment equals the product-form moment
    p = _params()
    for ell, N, T in [(1, 2, 2), (2, 2, 2), (2, 3, 1)]:
        rho = matching_specialization(p, N, T)
        mw = moment_qwhittaker(ell, N, rho, p.a, p.q, method="residues")
        pm = product_moment_residues((N,) * ell, T, p)
        assert abs(mw - pm) <= 1e-10


def test_qwhittaker_n1_oracle():
    rho = Specialization(alphas=(0.2,), betas=(0.5, 0.9), gamma=0.3)
    a1, q = 0.9, 0.5
    pmf = qwhittaker_n1_pmf(rho, a1, q, 220)
    assert abs(sum(pmf) - 1.0) < 1e-12
    for k in (1, 2, 3):
        oracle = sum(q ** (k * n) * w for n, w in enumerate(pmf))
        quad = moment_qwhittaker(k, 1, rho, (a1,), q)
        res = moment_qwhittaker(k, 1, rho, (a1,), q, method="residues")
        assert abs(oracle - quad) <= 1e-8
        assert abs(oracle - res) <= 1e-10


def test_qwhittaker_empty_specialization():
    # empty rho: lambda = 0 a.s., every moment is 1
    rho = Specialization()
    assert abs(moment_qwhittaker(2, 2, rho, (1.0, 0.8), 0.5) - 1.0) < 1e-10


def test_q_laplace_zero():
    p = _params()
    assert q_laplace(2, 2, p, 0.0, "VERTEX") == (1.0, 0.0)
    assert q_laplace(2, 2, p, 0.0, "QWHITTAKER") == (1.0, 0.0)
    with pytest.raises(ValueError, match="BOGUS"):
        q_laplace(2, 2, p, 0.0, "BOGUS")


def test_q_laplace_n1_oracle():
    p = ModelParams(q=0.5, u=(-1.0, -0.7), a=(0.9,), nu=(0.45,))
    zeta = 0.05
    val, tail = q_laplace(1, 2, p, zeta, "QWHITTAKER")
    rho = matching_specialization(p, 1, 2)
    pmf = qwhittaker_n1_pmf(rho, 0.9, 0.5, 300)
    direct = sum(
        w / q_pochhammer(zeta * 0.5**n, 0.5, INFINITY) for n, w in enumerate(pmf)
    )
    assert abs(val - direct) <= 1e-10 + tail
    # the reciprocal q-Pochhammer observable is >= 1 pointwise, so the
    # transform exceeds 1 for zeta > 0 and is bounded by 1/(zeta; q)_inf
    assert 1.0 <= val <= 1.0 / q_pochhammer(zeta, 0.5, INFINITY)


def test_q_laplace_tail_bounds_the_omitted_terms():
    # the moments are at most 1, so the terms the series leaves out from ell
    # on are at most sum_{k >= ell} zeta^k / (q;q)_k, which the tail covers
    q, zeta = 0.9, 0.03
    p = ModelParams(q=q, u=(-1.0,), a=(0.9,), nu=(0.45,))
    _, tail = q_laplace(1, 1, p, zeta, "QWHITTAKER")
    coeffs = [zeta**k / q_pochhammer(q, q, k) for k in range(80)]
    ell = next(k for k, c in enumerate(coeffs) if c < moments.QLAPLACE_SERIES_TOL)
    assert tail >= sum(coeffs[ell:])


def test_q_laplace_modes_agree():
    p = ModelParams(q=0.5, u=(-1.0, -0.7), a=(0.9, 1.1, 1.0), nu=(0.0, 0.35, 0.3))
    zeta = 0.05
    qw, tail = q_laplace(2, 2, p, zeta, "QWHITTAKER")
    mc, se = q_laplace(2, 2, p, zeta, "VERTEX", budget=200_000, seed=9)
    assert abs(qw - mc) <= 4 * se + tail


def test_q_laplace_tail_unattainable():
    p = _params()
    with pytest.raises(ValueError, match="unattainable"):
        q_laplace(2, 2, p, 0.5, "QWHITTAKER")


def test_moment_record_fields():
    import json

    p = _params()
    rec = json.loads(moment_record("height-moment", p, 0.5, "residues", 0.0))
    assert set(rec) == {"formula", "params_digest", "value", "method",
                        "error_estimate"}
