"""Counter-based random streams.

Streams are keyed by (seed, stream index) through the Philox counter-based
generator, so they are independent by construction: stream k is the same
bits no matter how many other streams exist or in which order they are
consumed.  Being counter-based (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11), a stream can also be read from any position without
drawing what comes before it (`_draws_at`).
"""

from __future__ import annotations

import numpy as np


def _in_range(name: str, v: int) -> int:
    v = int(v)
    if not 0 <= v < 1 << 64:
        raise ValueError(f"{name} {v} is outside [0, 2**64)")
    return v


def stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Independent generator for (seed, stream_id); ValueError unless both
    lie in [0, 2**64)."""
    key = [_in_range("seed", seed), _in_range("stream id", stream_id)]
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


def _draws_at(gen: np.random.Generator, start: int, out: np.ndarray) -> np.ndarray:
    """Fill `out` with the uniforms at positions [start, start + out.size) of
    the stream `gen` was made for, whatever `gen` has drawn before.  Each
    uniform takes one 64-bit Philox word and each counter step yields four,
    so the reader rewinds the counter, advances it start // 4 steps and
    discards start % 4 words."""
    bits = gen.bit_generator
    state = bits.state
    state["state"]["counter"][:] = 0
    state["buffer_pos"] = 4  # an empty buffer: the next word needs a new step
    bits.state = state
    bits.advance(start // 4)
    gen.random(start % 4)
    return gen.random(out=out)


def offset_seed(seed: int, k: int) -> int:
    """Seed of a sub-run derived from `seed`: seed + k wrapped into
    [0, 2**64); ValueError unless `seed` itself is in range."""
    return (_in_range("seed", seed) + k) % (1 << 64)
