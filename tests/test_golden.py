"""Bit-identity guard for the replica-vectorized samplers and the seed-0 suite.

tests/golden/ holds the seed-0 payloads of the default suite at a hundredth
of its budget and sha256 digests (dtype, shape and bytes) of the two batch
samplers on a fixed grid of edge cases.  Any change that moves a sampled bit
fails here.  It also holds the seed-0 payloads of the default suite at its
full budgets, which tests/test_acceptance.py compares with each criterion's
run.  A change that moves bits on purpose regenerates all three files with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.
"""

import hashlib
import json
import pathlib

import numpy as np

from vertexlab import harness, qtasep, vertex
from vertexlab.core import ModelParams
from vertexlab.rng import stream

GOLDEN = pathlib.Path(__file__).parent / "golden"
SUITE_FILE = GOLDEN / "suite_default_seed0_scale0.01.json"
DIGEST_FILE = GOLDEN / "sampler_digests.json"
CRITERIA_FILE = GOLDEN / "criteria_seed0.json"


def _digest(arr: np.ndarray) -> str:
    h = hashlib.sha256(f"{arr.dtype.str}|{arr.shape}|".encode())
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _special(q, nu, L, T, a=None):
    a = (1.0,) * L if a is None else a
    return ModelParams(q=q, u=(-1.0,) * T, a=a, nu=(0.0,) + (nu,) * (L - 1))


def _distinct(seed, L, T):
    return harness.draw_params(stream(seed, 0), L, T, bernoulli=True)


def mixed_grid():
    """(name, params, N, T, n_samples, seed, L) for sample_mixed_batch."""
    repeated = (1.0, 0.8, 1.0, 0.8, 1.0, 0.8, 1.0, 0.8)
    return [
        # a * c = 0.95 at q = 0.9: wide jump tables, long gap cap
        ("ac0.95-q0.9", _special(0.9, 0.95, 8, 6), 6, 6, 200, 1, None),
        ("ac0.95-q0.9-spectators", _special(0.9, 0.95, 10, 6), 6, 6, 150, 2, 10),
        ("step-q0.5", _special(0.5, 0.5, 12, 12), 12, 12, 300, 3, None),
        ("N1-bernoulli-only", _special(0.5, 0.5, 4, 5), 1, 5, 400, 4, 4),
        ("N1-T0", _special(0.5, 0.5, 3, 1), 1, 0, 50, 5, None),
        ("T0-geometric-only", _special(0.6, 0.7, 7, 1), 7, 0, 250, 6, None),
        ("repeated-rates", _special(0.45, 0.4, 8, 5, repeated), 6, 5, 300, 7, 8),
        ("distinct-rates", _distinct(8, 6, 4), 4, 4, 500, 8, 6),
        ("distinct-rates-spectators", _distinct(9, 8, 5), 5, 5, 400, 9, 8),
        ("distinct-rates-N1", _distinct(10, 3, 3), 1, 3, 300, 10, 3),
    ]


def quadrant_grid():
    """(name, params, boundary, window, n_samples, seed) for
    sample_quadrant_batch; the last case takes the int32 height path."""
    t_long = 2**15 + 10
    return [
        ("step-distinct", _distinct(11, 6, 4), vertex.STEP, (6, 4), 500, 11),
        ("step-bernoulli-distinct", _distinct(12, 6, 4), vertex.STEP_BERNOULLI,
         (6, 4), 500, 12),
        ("schur-special", ModelParams(q=0.5, u=(-2.0,) * 3, a=(1.3, 1.0, 1.0, 1.0),
                                      nu=(0.0, 0.5, 0.5, 0.5)),
         vertex.STEP_BERNOULLI, (4, 3), 400, 13),
        ("q0.9-wide", ModelParams(q=0.9, u=(-0.7, -1.5, -0.4), a=(1.0,) * 12,
                                  nu=(0.9,) * 12), vertex.STEP, (12, 3), 300, 14),
        ("single-column", _distinct(15, 1, 5), vertex.STEP, (1, 5), 200, 15),
        ("zero-rows", _distinct(16, 4, 2), vertex.STEP, (4, 0), 100, 16),
        ("int32-heights", ModelParams(q=0.5, u=(-1e6,) * t_long, a=(1.0, 0.9),
                                      nu=(0.5, 0.3)), vertex.STEP, (2, t_long), 3, 17),
    ]


def sampler_digests() -> dict:
    out = {}
    for name, p, N, T, R, seed, L in mixed_grid():
        out[f"mixed:{name}"] = _digest(qtasep.sample_mixed_batch(p, N, T, R, seed, L=L))
    for name, p, boundary, window, S, seed in quadrant_grid():
        out[f"quadrant:{name}"] = _digest(
            vertex.sample_quadrant_batch(p, boundary, window, S, seed)
        )
    return out


def suite_payloads() -> str:
    _, results = harness.run_suite(harness.DEFAULT_SUITE, seed=0, budget_scale=0.01)
    return json.dumps([r.payload() for r in results], indent=1) + "\n"


def criteria_payloads() -> str:
    _, results = harness.run_suite(harness.DEFAULT_SUITE, seed=0)
    return json.dumps({r.check_id: r.payload() for r in results}, indent=1) + "\n"


def test_sampler_digests_unchanged():
    expected = json.loads(DIGEST_FILE.read_text())
    assert sampler_digests() == expected


def test_suite_payloads_unchanged():
    assert suite_payloads() == SUITE_FILE.read_text()


def test_scalar_quadrant_sampler_matches_the_grid():
    # sample_quadrant is the one-replica reference of sample_quadrant_batch
    for name, p, boundary, window, _, seed in quadrant_grid():
        hf = vertex.sample_quadrant(p, boundary, window, seed)
        batch = vertex.sample_quadrant_batch(p, boundary, window, 1, seed)[0]
        assert np.array_equal(hf.values, batch), name


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    DIGEST_FILE.write_text(json.dumps(sampler_digests(), indent=1) + "\n")
    SUITE_FILE.write_text(suite_payloads())
    CRITERIA_FILE.write_text(criteria_payloads())
