"""Deterministic random streams.

The data streams, which simulate data sets, are Philox generators keyed
by integer tuples.  Distinct keys give independent streams and equal
keys give bit-identical draws.  Per-replicate loops over data sets key
each replicate apart, typically ``(seed, replicate_index, ...)``, so
they can run in any order or across processes without changing their
output; that is what a counter-based generator is for (Salmon et al.
2011).  The null simulation instead reads everything it needs as
consecutive draws of one stream: first one gamma draw per replicate for
the small-weight remainder, then the normals of the leading weights row
by row.  That stream is never re-keyed, so it gains nothing from Philox
and is drawn from SFC64, which makes normals in about 30% less time on
x86-64; its output does not depend on chunking either (see
`regbridge.limitsim.simulate_null`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["philox_stream", "collapse_seed", "as_seed_key"]

_WORD = 1 << 64


def as_seed_key(seed) -> tuple[int, ...]:
    """Normalize a user seed (int or tuple of ints) to a tuple of ints."""
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    if isinstance(seed, (str, bytes, float)):
        raise TypeError(f"seed must be an int or a tuple of ints, got {seed!r}")
    try:
        parts = tuple(int(s) for s in seed)
    except (TypeError, ValueError):
        raise TypeError(f"seed must be an int or a tuple of ints, got {seed!r}")
    if not parts:
        raise TypeError("seed tuple must not be empty")
    return parts


def philox_stream(*key: int) -> np.random.Generator:
    """Return the generator of the stream named by an integer tuple.

    Keys of one or two integers map directly onto the 128-bit Philox key,
    a single integer s being the key ``[s, 0]``; longer keys are hashed
    through ``SeedSequence``.  Negative integers are reduced modulo 2**64,
    so ``philox_stream(s, -1)`` is the key ``[s, 2**64 - 1]``.  Each call
    builds a fresh generator (and draws OS entropy it never uses), which
    costs far more than a few hundred normals: code that needs many
    numbers draws them in bulk from one stream rather than building a
    generator per item.
    """
    parts = [int(k) % _WORD for k in as_seed_key(key if len(key) != 1 else key[0])]
    if len(parts) <= 2:
        kwords = np.zeros(2, dtype=np.uint64)
        kwords[: len(parts)] = parts
        return np.random.Generator(np.random.Philox(key=kwords))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(parts)))


def collapse_seed(seed) -> int:
    """Reduce an int-or-tuple seed to a single 64-bit stream seed.

    Single integers pass through unchanged, so documented integer seeds
    stay readable; tuples are hashed.  Used where a routine seeds a
    two-word stream ``(effective_seed, word)`` from a seed that may be a
    tuple, as the null simulation does.
    """
    parts = [p % _WORD for p in as_seed_key(seed)]
    if len(parts) == 1:
        return parts[0]
    return int(np.random.SeedSequence(parts).generate_state(1, np.uint64)[0])
