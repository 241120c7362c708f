import json
import math

import numpy as np
import pytest

from vertexlab.core import (
    INFINITY,
    ModelParams,
    Partition,
    Specialization,
    check_separated,
    inv_cdf,
    params_from_config,
    params_to_config,
    pi_w,
    pi_w_coefficients,
    q_pochhammer,
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
    r12 = Specialization(r1.alphas + r2.alphas, r1.betas + r2.betas, r1.gamma + r2.gamma)
    c12 = pi_w_coefficients(r12, q, 12)
    conv = [
        sum(c1[i] * c2[n - i] for i in range(n + 1)) for n in range(13)
    ]
    assert np.allclose(c12, conv, atol=1e-12)


def test_inv_cdf_boundaries():
    pairs = [("a", 0.25), ("b", 0.25), ("c", 0.5)]
    assert inv_cdf(pairs, 0.0) == "a"
    # the comparison with the running sum is strict: a draw on a cumulative
    # boundary belongs to the next atom
    assert inv_cdf(pairs, 0.25) == "b"
    assert inv_cdf(pairs, 0.5) == "c"
    # rounding can leave the sum short of the draw: the last atom takes it
    assert inv_cdf([(0, 0.3), (1, 0.3)], 0.9) == 1
    assert inv_cdf(pairs, 1.0) == "c"


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


def test_config_round_trip():
    p = ModelParams(q=0.5, u=(-1.0, -0.7), a=(1.0, 0.9), nu=(0.0, 0.3))
    assert params_from_config(params_to_config(p)) == p
    # a key the code does not read is an error that names it
    doc = json.loads(params_to_config(p))
    for key in ("alphas", "gamma", "seed"):
        with pytest.raises(ValueError, match=f"'{key}'"):
            params_from_config(json.dumps({**doc, key: 0.2}))


@pytest.mark.parametrize(
    "doc,message",
    [
        ('{"q": 0.5, "u": [-1.0], "a": [1.0]}', "config misses key 'nu'"),
        ("[1, 2]", "config must be an object"),
        ("5", "config must be an object"),
        ('{"q": 0.5, "u": -1, "a": [1.0], "nu": [0.2]}', "'u' must be a list of numbers"),
        ('{"q": "0.5", "u": [-1.0], "a": [1.0], "nu": [0.2]}', "'q' must be a number"),
        ('{"q": 0.5, "u": [-1.0], "a": [1.0], "nu": [null]}', "'nu' must be a list"),
    ],
    ids=["missing-key", "list", "scalar", "u-scalar", "q-string", "nu-null"],
)
def test_malformed_config_is_value_error(doc, message):
    with pytest.raises(ValueError, match=message):
        params_from_config(doc)


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
    ],
    ids=["mixed-N", "mixed-T", "mixed-L", "run-mixed-L", "run-mixed-T",
         "coupling-T", "sum-f-stoch-N", "sum-f-stoch-T", "quadrant", "moments",
         "operator"],
)
def test_window_beyond_parameters_is_value_error(call):
    with pytest.raises(ValueError, match="window exceeds available parameters: needs"):
        call()


@pytest.mark.parametrize("n_samples", [-1, 2.7, True, "3", None])
@pytest.mark.parametrize(
    "sampler",
    [lambda n: qtasep.sample_mixed_batch(_P2, 2, 2, n, 0),
     lambda n: vertex.sample_quadrant_batch(_P2, vertex.STEP, (2, 2), n, 0)],
    ids=["mixed", "quadrant"],
)
def test_replica_count_must_be_a_nonnegative_integer(sampler, n_samples):
    with pytest.raises(ValueError, match="n_samples must be an integer >= 0"):
        sampler(n_samples)
    assert sampler(np.int64(3)).shape[0] == 3
    assert sampler(0).shape[0] == 0


@pytest.mark.parametrize(
    "call,message",
    [(lambda: q_pochhammer(0.3, 0.5, -1), "n must be >= 0"),
     (lambda: Specialization(alphas=(0.2, -0.1)), "must be nonnegative"),
     (lambda: Specialization(betas=(-0.1,)), "must be nonnegative"),
     (lambda: Specialization(gamma=-0.5), "gamma must be nonnegative"),
     (lambda: pi_w_coefficients(Specialization(), 0.5, -1), "n_max must be >= 0"),
     (lambda: pi_w_coefficients(Specialization(), 1.0, 3), r"q must lie in \(0,1\)"),
     (lambda: ModelParams(q=0.5, u=(-1.0,), a=(1.0, 0.9), nu=(0.2,)), "equal length"),
     (lambda: check_separated("u", (-1.0, -0.5, -1.0), 1e-12),
      r"u collision: u\[0\] ~ u\[2\] = -1.0"),
     (lambda: ModelParams(q=math.nan, u=(-1.0,), a=(1.0,), nu=(0.2,)), "q must be finite"),
     (lambda: ModelParams(q=0.5, u=(math.nan, -0.8), a=(1.0,), nu=(0.2,)),
      r"u must be finite, got u = \(nan, -0.8\)"),
     (lambda: ModelParams(q=0.5, u=(-math.inf,), a=(1.0,), nu=(0.2,)), "u must be finite"),
     (lambda: ModelParams(q=0.5, u=(-1.0,), a=(1.0, math.inf), nu=(0.2, 0.3)),
      r"a must be finite, got a = \(1.0, inf\)"),
     (lambda: ModelParams(q=0.5, u=(-1.0,), a=(math.nan,), nu=(0.2,)), "a must be finite"),
     (lambda: ModelParams(q=0.5, u=(-1.0,), a=(1.0,), nu=(math.nan,)), "nu must be finite")],
    ids=["poch-n", "alpha", "beta", "gamma", "n-max", "coeff-q", "a-nu-lengths",
         "separated", "q-nan", "u-nan", "u-inf", "a-inf", "a-nan", "nu-nan"],
)
def test_guards_name_the_violated_condition(call, message):
    with pytest.raises(ValueError, match=message):
        call()
