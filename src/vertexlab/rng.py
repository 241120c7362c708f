"""Counter-based random streams.

Streams are keyed by (seed, stream index) through the Philox counter-based
generator, so they are independent by construction: stream k is the same
bits no matter how many other streams exist or in which order they are
consumed.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Independent generator for (seed, stream_id)."""
    key = [int(seed) & _MASK64, int(stream_id) & _MASK64]
    return np.random.Generator(np.random.Philox(key=key))
