import numpy as np
import pytest

from vertexlab.core import INFINITY, ModelParams
from vertexlab.coupling import (
    CouplingInputs,
    _tv,
    joint_law_check_prop_A,
    joint_law_check_prop_B,
    theorem_coupling_check,
    y_dagger_law,
)
from vertexlab.qtasep import TimeLikePath


def test_tv_equal_and_disjoint_laws():
    assert _tv({0: 0.5, 1: 0.5}, {0: 0.5, 1: 0.5}) == 0.0
    assert _tv({0: 1.0}, {1: 1.0}) == 1.0


def test_y_dagger_two_atom_example():
    # q=0.5, a=1, alpha=0.3, beta=1, x_prev=0, y_prev=0, xp=-2 (g=1, j1=0)
    inp = CouplingInputs(0, 0, -2, 1.0, 0.3, 1.0)
    law = y_dagger_law(inp, 0.5)
    assert abs(law[-2] - 0.75) < 1e-14
    assert abs(law[-1] - 0.25) < 1e-14


def test_y_dagger_infinite_gap():
    # m=1: jump probability a beta/(1+a beta)
    inp = CouplingInputs(INFINITY, INFINITY, 3, 1.2, 0.3, 0.9)
    law = y_dagger_law(inp, 0.5)
    pj = 1.2 * 0.9 / (1 + 1.2 * 0.9)
    assert abs(law[4] - pj) < 1e-14
    assert abs(law[3] - (1 - pj)) < 1e-14


def test_y_dagger_blocked_case():
    # y_prev = x_prev and gap g=0: the vertex weight forces y-dagger = xp+1
    # only with the full-jump weight; the blocked branch matches the
    # Bernoulli move's 1 - q^0 = 0 factor via the g=0, j1=0 outcome
    inp = CouplingInputs(0, 0, -1, 1.0, 0.3, 1.0)
    law = y_dagger_law(inp, 0.5)
    assert abs(law[-1] - 1.0) < 1e-14  # (0,0) vertex keeps j2 = 0 surely


def test_y_dagger_atoms_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        q = rng.uniform(0.1, 0.9)
        a = rng.uniform(0.5, 1.5)
        alpha = rng.uniform(0.05, 0.6) / a
        beta = rng.uniform(0.1, 2.0)
        if rng.random() < 0.2:
            inp = CouplingInputs(INFINITY, INFINITY, 0, a, alpha, beta)
        else:
            xp = int(rng.integers(-5, 0))
            x_prev = xp + 1 + int(rng.integers(0, 6))
            y_prev = x_prev + int(rng.integers(0, 2))
            inp = CouplingInputs(x_prev, y_prev, xp, a, alpha, beta)
        law = y_dagger_law(inp, q)
        assert abs(sum(law.values()) - 1.0) <= 1e-12
        assert set(law) <= {inp.xp_m, inp.xp_m + 1}


def test_coupling_inputs_invariants():
    with pytest.raises(ValueError):
        CouplingInputs(0, 2, -2, 1.0, 0.3, 1.0)  # y - x must be 0 or 1
    with pytest.raises(ValueError):
        CouplingInputs(0, 0, 0, 1.0, 0.3, 1.0)  # x_prev must exceed xp
    with pytest.raises(ValueError):
        CouplingInputs(INFINITY, 5, 0, 1.0, 0.3, 1.0)


def test_prop_A_and_B_small_configs():
    a = (1.0, 0.9, 1.1)
    q, alpha, beta = 0.5, 0.35, 0.8
    for m, x in [(1, (0,)), (2, (0, -2)), (3, (0, -2, -3)), (3, (5, 1, -4))]:
        ra = joint_law_check_prop_A(x, m, a, alpha, beta, q)
        rb = joint_law_check_prop_B(x, m, a, alpha, beta, q)
        assert ra.passed and ra.tv_distance + ra.truncation_deficit <= 1e-8
        assert rb.passed and rb.tv_distance + rb.truncation_deficit <= 1e-8


def test_prop_checks_random_draws():
    rng = np.random.default_rng(11)
    for _ in range(50):
        L = int(rng.integers(1, 4))
        a = tuple(rng.uniform(0.7, 1.3, L))
        q = float(rng.uniform(0.3, 0.6))
        alpha = float(rng.uniform(0.1, 0.5) / max(a))
        beta = float(rng.uniform(0.3, 1.5))
        x, pos = [], int(rng.integers(-2, 3))
        for _ in range(L):
            x.append(pos)
            pos -= int(rng.integers(1, 4))
        m = int(rng.integers(1, L + 1))
        ra = joint_law_check_prop_A(tuple(x), m, a, alpha, beta, q)
        rb = joint_law_check_prop_B(tuple(x), m, a, alpha, beta, q)
        assert ra.tv_distance + ra.truncation_deficit <= 1e-8
        assert rb.tv_distance + rb.truncation_deficit <= 1e-8


def test_prop_A_degenerate_alpha():
    # alpha -> 0: the geometric move is the identity; both laws collapse to
    # the Bernoulli law, and so the TV vanishes at the truncation scale
    r = joint_law_check_prop_A((0, -2), 2, (1.0, 1.0), 1e-12, 0.8, 0.5)
    assert r.tv_distance <= 1e-10


def test_prop_B_degenerate_beta():
    # beta -> 0: the Bernoulli move is the identity; both sides equal the
    # geometric law
    r = joint_law_check_prop_B((0, -2), 2, (1.0, 1.0), 0.3, 1e-12, 0.5)
    assert r.tv_distance <= 1e-10


def _params_bernoulli():
    return ModelParams(
        q=0.5,
        u=(-1.0, -0.7, -1.3, -0.9),
        a=(1.0, 0.9, 1.1, 0.95, 1.05, 1.0),
        nu=(0.0, 0.3, 0.45, 0.25, 0.35, 0.2),
    )


def test_theorem_point_mass():
    p = _params_bernoulli()
    rep = theorem_coupling_check(TimeLikePath.from_moves(""), p)
    assert rep.tv_distance == 0.0 and rep.passed


def test_theorem_single_bernoulli_row():
    p = _params_bernoulli()
    rep = theorem_coupling_check(TimeLikePath.from_moves("T"), p)
    assert rep.tv_distance <= 1e-12
    from vertexlab.coupling import _vertex_joint_law

    law = _vertex_joint_law(TimeLikePath.from_moves("T"), p, 1)
    pb = -p.a[0] * p.u[0] / (1 - p.a[0] * p.u[0])
    assert abs(law[(0, 1)] - pb) < 1e-12
    assert abs(law[(0, 0)] - (1 - pb)) < 1e-12


def test_theorem_requires_boundary_zeros():
    p = ModelParams(q=0.5, u=(-1.0,), a=(1.0, 1.0), nu=(0.2, 0.3))
    with pytest.raises(ValueError):
        theorem_coupling_check(TimeLikePath.from_moves("T"), p)


def test_theorem_all_short_paths():
    p = _params_bernoulli()
    import itertools

    for n in range(4):
        for moves in itertools.product("NT", repeat=n):
            rep = theorem_coupling_check(TimeLikePath.from_moves("".join(moves)), p)
            assert rep.tv_distance + rep.truncation_deficit <= 1e-8, moves


def test_theorem_generalized_step_bernoulli():
    p = ModelParams(
        q=0.5,
        u=(-1.0, -0.8),
        a=(1.0, 0.9, 1.1, 0.95, 1.0),
        nu=(0.0, 0.0, 0.4, 0.3, 0.25),
    )
    rep = theorem_coupling_check(TimeLikePath.from_moves("TNT"), p, r=2)
    assert rep.tv_distance + rep.truncation_deficit <= 1e-8
    assert rep.passed


def test_report_json_fields():
    import json

    p = _params_bernoulli()
    rep = theorem_coupling_check(TimeLikePath.from_moves("T"), p)
    doc = json.loads(rep.to_json())
    assert set(doc) == {"check", "params_digest", "tv_distance",
                        "truncation_deficit", "pass"}
