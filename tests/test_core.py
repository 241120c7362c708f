import math

import numpy as np
import pytest

from vertexlab.core import (
    INFINITY,
    ModelParams,
    Partition,
    Specialization,
    params_from_config,
    params_to_config,
    pi_w,
    pi_w_coefficients,
    poch_inf_tail_bound,
    q_pochhammer,
    validate_params,
)
from vertexlab import coupling, diffops, moments, qtasep, vertex


def test_poch_examples():
    assert q_pochhammer(1.7, 0.5, 0) == 1.0
    assert abs(q_pochhammer(0.5, 0.5, 1) - 0.5) < 1e-15
    assert abs(q_pochhammer(0.3, 0.5, 2) - 0.7 * 0.85) < 1e-15


def test_poch_invalid_q():
    with pytest.raises(ValueError):
        q_pochhammer(0.3, 1.2, 2)
    with pytest.raises(ValueError):
        q_pochhammer(0.3, 0.0, INFINITY)


def test_poch_recurrence_property():
    # (z;q)_{n+1} = (z;q)_n * (1 - z q^n) over 1000 random draws
    rng = np.random.default_rng(0)
    for _ in range(1000):
        z = rng.uniform(-2, 2)
        q = rng.uniform(0.05, 0.95)
        n = int(rng.integers(0, 30))
        lhs = q_pochhammer(z, q, n + 1)
        rhs = q_pochhammer(z, q, n) * (1 - z * q**n)
        assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(rhs))


def test_q_binomial_theorem():
    # sum_j z^j/(q;q)_j = 1/(z;q)_inf for |z| <= 0.9
    rng = np.random.default_rng(1)
    for _ in range(50):
        q = rng.uniform(0.1, 0.8)
        z = rng.uniform(-0.9, 0.9)
        series = sum(z**j / q_pochhammer(q, q, j) for j in range(200))
        assert abs(series - 1.0 / q_pochhammer(z, q, INFINITY)) < 1e-10


def test_poch_tail_bound():
    assert poch_inf_tail_bound(0.5, 0.5) < 1e-14


def test_pi_w_examples():
    q = 0.5
    assert pi_w(0.7, Specialization(), q) == 1.0
    b = 0.4
    assert abs(pi_w(0.7, Specialization(betas=(b,)), q) - (1 + b * 0.7)) < 1e-15
    val = pi_w(0.5, Specialization(alphas=(0.2,)), q)
    assert abs(val - 1.0 / q_pochhammer(0.1, q, INFINITY)) < 1e-14
    with pytest.raises(ValueError):
        pi_w(6.0, Specialization(alphas=(0.2,)), q)


def test_pi_w_coefficients_examples():
    q = 0.5
    assert pi_w_coefficients(Specialization(betas=(0.3,)), q, 4) == [1.0, 0.3, 0.0, 0.0, 0.0]
    g = 0.7
    got = pi_w_coefficients(Specialization(gamma=g), q, 5)
    for n, c in enumerate(got):
        assert abs(c - g**n / math.factorial(n)) < 1e-14
    got = pi_w_coefficients(Specialization(alphas=(0.2,)), q, 8)
    for n, c in enumerate(got):
        assert abs(c - 0.2**n / q_pochhammer(q, q, n)) < 1e-14


def test_pi_w_coefficients_multiplicativity():
    q = 0.45
    r1 = Specialization(alphas=(0.2,), betas=(0.5,))
    r2 = Specialization(betas=(0.3,), gamma=0.4)
    c1 = pi_w_coefficients(r1, q, 12)
    c2 = pi_w_coefficients(r2, q, 12)
    c12 = pi_w_coefficients(r1.concat(r2), q, 12)
    conv = [
        sum(c1[i] * c2[n - i] for i in range(n + 1)) for n in range(13)
    ]
    assert np.allclose(c12, conv, atol=1e-12)


def test_partition():
    assert Partition((3, 3, 1, 0)).parts == (3, 3, 1, 0)
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(q=1.5, u=(-1,), a=(1,), nu=(0.5,))
    with pytest.raises(ValueError):
        ModelParams(q=0.5, u=(1.0,), a=(1,), nu=(0.5,))
    with pytest.raises(ValueError):
        ModelParams(q=0.5, u=(-1,), a=(0.0,), nu=(0.5,))
    with pytest.raises(ValueError):
        ModelParams(q=0.5, u=(-1,), a=(1.0,), nu=(1.0,))


def test_validate_params_examples():
    p = ModelParams(q=0.5, u=(-1.0,), a=(1.0,), nu=(0.5,))
    rep = validate_params(p, (1, 1))
    assert rep.basic_ok and rep.whittaker_ok and rep.nested_ok
    # nu close to 1 fails basic
    p2 = ModelParams(q=0.5, u=(-1.0,), a=(1.0,), nu=(1.0 - 1e-9,))
    assert not validate_params(p2, (1, 1)).basic_ok
    # a = (1, 0.4), q = 0.5: nested fails (0.4 <= 0.5)
    p3 = ModelParams(q=0.5, u=(-1.0,), a=(1.0, 0.4), nu=(0.2, 0.2))
    assert not validate_params(p3, (2, 1)).nested_ok


def test_config_round_trip():
    p = ModelParams(q=0.5, u=(-1.0, -0.7), a=(1.0, 0.9), nu=(0.0, 0.3))
    rho = Specialization(alphas=(0.1,), betas=(0.7, 2.0), gamma=0.2)
    text = params_to_config(p, rho)
    p2, rho2 = params_from_config(text)
    assert p2 == p and rho2 == rho
    p3, rho3 = params_from_config(params_to_config(p))
    assert p3 == p and rho3 is None


# two columns and two rows of parameters; every call below needs a third
_P2 = ModelParams(q=0.5, u=(-1.0, -0.8), a=(1.0, 0.9), nu=(0.0, 0.3))
_T3 = qtasep.TimeLikePath.from_moves("TTT")


@pytest.mark.parametrize(
    "call",
    [
        lambda: qtasep.sample_mixed_batch(_P2, 3, 1, 5, 0),
        lambda: qtasep.sample_mixed_batch(_P2, 2, 3, 5, 0),
        lambda: qtasep.sample_mixed_batch(_P2, 1, 1, 5, 0, L=3),
        lambda: qtasep.run_mixed(qtasep.TimeLikePath.from_moves("T"), _P2, 0, L=3),
        lambda: qtasep.run_mixed(_T3, _P2, 0),
        lambda: coupling.theorem_coupling_check(_T3, _P2),
        lambda: vertex.sum_f_stoch_truncated(_P2, 1, 3),
        lambda: vertex.sum_f_stoch_truncated(_P2, 3, 1),
        lambda: vertex.sample_quadrant_batch(_P2, vertex.STEP, (3, 1), 5, 0),
        lambda: moments.moment_product_quadrature((3,), 1, _P2),
        lambda: diffops.operator_expectation((1,), 1, 3, _P2),
        lambda: validate_params(_P2, (1, 3)),
    ],
    ids=["mixed-N", "mixed-T", "mixed-L", "run-mixed-L", "run-mixed-T",
         "coupling-T", "sum-f-stoch-N", "sum-f-stoch-T", "quadrant", "moments",
         "operator", "validate"],
)
def test_window_beyond_parameters_is_value_error(call):
    with pytest.raises(ValueError, match="window exceeds available parameters: needs"):
        call()
