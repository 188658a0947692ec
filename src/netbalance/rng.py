"""Keyed counter-based random streams.

All randomness in the package flows from a 64-bit master seed through Philox
keys derived from a (seed, stream-tag, index...) path. Each consumer gets its
own stream, so results are independent of evaluation order and any stream
(one protocol round, say) can be reproduced in isolation. The trials of a
run share their round streams: round r of every trial draws from the stream
(derive_seed(master, STREAM_TRIAL, 0), STREAM_ROUND, r), trial after trial,
so a trial's draws depend on the other trials of the run. The key alone
fixes every draw. A fresh `Philox(key=...)` builds a default `SeedSequence`,
which reads OS entropy only to discard it, so a consumer that draws from one
stream after another (the round kernel) keeps one generator and re-keys it
in place (`generator_from_prefix` with `gen`): same key, same draws.
"""

from __future__ import annotations

import numpy as np

# Stream tags keep unrelated consumers of the same seed apart.
STREAM_ROUND = 1        # per (stream seed, round) protocol draws, all trials in turn
STREAM_PLACEMENT = 2    # random initial task placement
STREAM_WEIGHTS = 3      # random task-weight draws
STREAM_SPEEDS = 4       # random speed profiles
STREAM_TRIAL = 5        # the trials' round-stream seed (index 0)

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _fold(lo: int, hi: int, part: int) -> tuple[int, int]:
    part &= _MASK64
    return _splitmix64(lo ^ part), _splitmix64(hi ^ _splitmix64(part))


def key_prefix(seed: int, *path: int) -> tuple[int, int]:
    """Partial key fold, extendable with more path components later."""
    lo = _splitmix64(seed & _MASK64)
    hi = _splitmix64(lo ^ 0xD1B54A32D192ED03)
    for part in path:
        lo, hi = _fold(lo, hi, part)
    return lo, hi


def stream_key(seed: int, *path: int) -> np.ndarray:
    """Fold (seed, *path) into a 128-bit Philox key (two uint64 lanes)."""
    lo, hi = key_prefix(seed, *path)
    return np.array([lo, hi], dtype=np.uint64)


def keyed_generator(seed: int, *path: int) -> np.random.Generator:
    """Fresh generator for the stream addressed by (seed, *path)."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed, *path)))


def generator_from_prefix(prefix: tuple[int, int], part: int,
                          gen: np.random.Generator | None = None) -> np.random.Generator:
    """Generator for prefix extended by one component (fold the fixed path once).

    With gen (a Philox generator that nothing else shares), its bit generator
    is re-keyed in place, counter and buffers reset, and gen is returned: it
    then draws exactly what a fresh `Philox(key=...)` for that key draws.
    """
    lo, hi = _fold(prefix[0], prefix[1], part)
    key = np.array([lo, hi], dtype=np.uint64)
    if gen is None:
        return np.random.Generator(np.random.Philox(key=key))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0,
    }
    return gen


def derive_seed(seed: int, *path: int) -> int:
    """Deterministic 64-bit sub-seed for the given path."""
    lo, hi = stream_key(seed, *path)
    return int(lo) ^ int(hi)
