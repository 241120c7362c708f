"""Random streams, in two families.

Parameter streams, `stream(seed, k)`, are keyed by (seed, stream index)
through the Philox counter-based generator (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11), so they are independent by
construction: stream k is the same bits no matter how many other streams
exist or in which order they are consumed.  The checks draw their
parameters, seeds and exact-check inputs from them.

Sampler streams, `sampler_stream(seed)`, feed the uniforms of the vertex and
q-TASEP samplers, which draw far more of them.  They are PCG64DXSM (O'Neill,
"PCG", HMC-CS-2014-0905), which costs about half as much a uniform, seeded
through SeedSequence([seed, 0]).  PCG64DXSM jumps ahead k draws in O(log k)
steps, so a batch sampler splits its replica rows into chunks (`_run_chunks`)
that each read only their rows of a block of uniforms (`_rows_reader`): the
samplers name only where each block starts.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# A chunk of replica rows draws at most this many uniforms a step, and a larger
# batch is cut into at least one chunk per CPU; a batch that fits in one chunk
# runs on the calling thread.  Measured on a 2-core host, one chunk against
# two, median of 7: with PCG64DXSM uniforms two threads were slower than one
# up to 24,000 uniforms a step and faster from 28,000 in the q-TASEP kernel
# (x0.86 at 32,000), and even at 28,000-32,000 and faster from 40,000 in the
# vertex sweep; with Philox the q-TASEP crossover sat at 16,000-20,000
# (starting the threads costs 1-1.5 ms a call).  At M = 1000 with 500
# replicas on the Tracy-Widom path (Philox), chunks of 2^15 uniforms took 26 s,
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


def sampler_stream(seed: int) -> np.random.Generator:
    """The samplers' uniform stream for `seed`; ValueError unless it lies in
    [0, 2**64)."""
    seq = np.random.SeedSequence([_in_range("seed", seed), 0])
    return np.random.Generator(np.random.PCG64DXSM(seq))


def _rows_reader(seed: int, r0: int, r1: int):
    """read(start, out) for rows [r0, r1) of sampler_stream(seed): fill `out`
    with those rows' part of the row-major block that starts at position
    `start`, out.size // (r1 - r0) uniforms a row (zero rows read nothing),
    and return it.  One uniform takes one 64-bit word, so a read restores the
    seeded state and advances it to row r0 of the block."""
    gen = sampler_stream(seed)
    bits, seeded = gen.bit_generator, gen.bit_generator.state

    def read(start: int, out: np.ndarray) -> np.ndarray:
        bits.state = seeded
        bits.advance(start + r0 * (out.size // max(r1 - r0, 1)))
        return gen.random(out=out)

    return read


def offset_seed(seed: int, k: int) -> int:
    """Seed of a sub-run derived from `seed`: seed + k wrapped into
    [0, 2**64); ValueError unless `seed` itself is in range."""
    return (_in_range("seed", seed) + k) % (1 << 64)


def _chunk_count() -> int:
    """Fewest replica chunks of a batch above _CHUNK_UNIFORMS: one per CPU
    this process may run on."""
    return len(os.sched_getaffinity(0))


def _run_chunks(body, rows: int, width: int, seed: int) -> None:
    """Call body(r0, r1, _rows_reader(seed, r0, r1)) on contiguous chunks
    [r0, r1) of range(rows).  Each step of the caller reads a block of
    rows * width uniforms of sampler_stream(seed), width per row.  A batch of
    at most _CHUNK_UNIFORMS uniforms a step runs as one chunk on the calling
    thread; a larger one as chunks of at most that many, at least one per
    CPU, on one thread per CPU.  So body's results do not depend on the
    split as long as it writes only its own rows."""
    n = min(rows, max(_chunk_count(), -(-rows * width // _CHUNK_UNIFORMS)))
    if n < 2 or rows * width <= _CHUNK_UNIFORMS:
        body(0, rows, _rows_reader(seed, 0, rows))
        return
    bounds = [rows * i // n for i in range(n + 1)]
    readers = [_rows_reader(seed, r0, r1) for r0, r1 in zip(bounds, bounds[1:])]
    with ThreadPoolExecutor(min(n, len(os.sched_getaffinity(0)))) as pool:
        list(pool.map(body, bounds[:-1], bounds[1:], readers))
