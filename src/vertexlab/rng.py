"""Counter-based random streams.

Streams are keyed by (seed, stream index) through the Philox counter-based
generator, so they are independent by construction: stream k is the same
bits no matter how many other streams exist or in which order they are
consumed.  Being counter-based (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11), a stream can also be read from any position without
drawing what comes before it (`_draws_at`), and a batch sampler can split
its replicas into chunks that each read only their own uniforms
(`_run_chunks`).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# A chunk of replica rows draws at most this many uniforms a step, and a larger
# batch is cut into at least one chunk per CPU; a batch that fits in one chunk
# runs on the calling thread.  Measured on a 2-core host with the q-TASEP
# kernel: two threads were slower than one below about 24,000 uniforms a move
# and faster from 32,000 (starting them costs 1-1.5 ms a call); at M = 1000
# with 500 replicas on the Tracy-Widom path, chunks of 2^15 uniforms took 26 s,
# 2^16 took 29 s and one chunk per CPU 31 s.  The bound also caps the
# temporaries that each worker's malloc arena keeps after the call: with one
# chunk per CPU the default suite's peak RSS rose by 37 MB, with this bound by
# 3.5 MB.  A chunk of the vertex sweep's 2^15 replicas keeps its per-vertex
# arrays (256 kB of uniforms) in cache.
_CHUNK_UNIFORMS = 2**15


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


def _chunk_count() -> int:
    """Fewest replica chunks of a batch above _CHUNK_UNIFORMS: one per CPU
    this process may run on."""
    return len(os.sched_getaffinity(0))


def _run_chunks(body, rows: int, width: int, seed: int) -> None:
    """Call body(r0, r1, gen) on contiguous chunks [r0, r1) of range(rows).

    Each step of the caller draws rows * width uniforms of stream(seed, 0),
    width per row, and body reads its rows' part of them by position
    (_draws_at) from gen, a generator of that stream of its own.  A batch of
    at most _CHUNK_UNIFORMS uniforms a step runs as one chunk on the calling
    thread; a larger one as chunks of at most that many, at least one per CPU,
    on one thread per CPU.  So body's results do not depend on the split as
    long as it writes only its own rows."""
    n = min(rows, max(_chunk_count(), -(-rows * width // _CHUNK_UNIFORMS)))
    if n < 2 or rows * width <= _CHUNK_UNIFORMS:
        body(0, rows, stream(seed, 0))
        return
    bounds = [rows * i // n for i in range(n + 1)]
    gens = [stream(seed, 0) for _ in range(n)]
    with ThreadPoolExecutor(min(n, len(os.sched_getaffinity(0)))) as pool:
        list(pool.map(body, bounds[:-1], bounds[1:], gens))
