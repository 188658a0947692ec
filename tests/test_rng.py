"""Keyed streams: a re-keyed generator is the fresh generator of its key."""

import numpy as np

from netbalance.rng import _fold, generator_from_prefix, key_prefix


def draws(gen):
    return (gen.random(5).tolist(), gen.integers(0, [3, 70, 1 << 40]).tolist(),
            gen.multinomial(40, [0.125, 0.25, 0.625]).tolist(), gen.integers(0, 9).tolist())


def test_rekeyed_generator_draws_what_a_fresh_philox_draws():
    prefix = key_prefix(11, 1)
    gen = generator_from_prefix(prefix, 0)
    for part in (0, 1, 7, 2**63, 3):
        # Each leftover below sits mid-buffer: a 64-bit word half used by a
        # 32-bit draw, three of Philox's four buffered words unread, or a
        # binomial set up for the same n and p as the next multinomial.
        gen.integers(0, 5, dtype=np.uint32)
        gen.random()
        gen.multinomial(40, [0.125, 0.25, 0.625])
        lo, hi = _fold(*prefix, part)
        fresh = np.random.Generator(np.random.Philox(key=np.array([lo, hi], dtype=np.uint64)))
        rekeyed = generator_from_prefix(prefix, part, gen)
        assert rekeyed is gen
        assert draws(rekeyed) == draws(fresh)
        assert repr(gen.bit_generator.state) == repr(fresh.bit_generator.state)
