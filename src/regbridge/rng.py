"""Deterministic counter-based random streams.

All Monte Carlo code in the package draws from Philox generators keyed by
integer tuples, typically ``(seed, replicate_index, ...)``.  Distinct keys
give independent streams and equal keys give bit-identical draws, so any
per-replicate loop can run in any order, in chunks, or across processes
without changing its output.
"""

from __future__ import annotations

import numpy as np

__all__ = ["philox_stream", "ReplicateStreams", "collapse_seed", "as_seed_key"]

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

    Keys of one or two integers map directly onto the 128-bit Philox key;
    longer keys are hashed through ``SeedSequence``.  Negative integers are
    reduced modulo 2**64.  Each call builds a fresh generator (and draws OS
    entropy it never uses), so loops over many two-word keys go through
    `ReplicateStreams` instead, which yields the same draws.
    """
    parts = [int(k) % _WORD for k in as_seed_key(key if len(key) != 1 else key[0])]
    if len(parts) <= 2:
        kwords = np.zeros(2, dtype=np.uint64)
        kwords[: len(parts)] = parts
        return np.random.Generator(np.random.Philox(key=kwords))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(parts)))


class ReplicateStreams:
    """The streams ``philox_stream(seed, r)``, r = 0, 1, ..., on one generator.

    Building a Philox generator costs far more than drawing a few hundred
    normals from it, so the replicate loops re-key a single generator
    instead: stream r is the Philox state with key ``[seed, r]``, counter 0
    and an empty buffer, exactly the state ``philox_stream(seed, r)``
    starts in.  Row c of the output of `standard_normal_rows` is therefore
    bit-identical to ``philox_stream(seed, first + c).standard_normal(dim)``.

    The state dict holds its counter, key and buffer as plain lists of
    Python ints, and re-keying writes ``key[1]`` in place: the state setter
    reads those words one element at a time, and from a numpy array each
    read would build a numpy scalar, which made the re-key cost about as
    much as the draw of a few hundred normals.
    """

    def __init__(self, seed: int):
        self._bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        self._gen = np.random.Generator(self._bitgen)
        self._key = [int(seed) % _WORD, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def standard_normal_rows(self, first: int, out: np.ndarray) -> np.ndarray:
        """Fill row c of the C-contiguous 2-D `out` from stream first + c."""
        bitgen, state, key = self._bitgen, self._state, self._key
        standard_normal = self._gen.standard_normal
        for r, row in enumerate(out, first):
            key[1] = r
            bitgen.state = state
            standard_normal(out=row)
        return out


def collapse_seed(seed) -> int:
    """Reduce an int-or-tuple seed to a single 64-bit stream seed.

    Single integers pass through unchanged, so documented integer seeds
    stay readable; tuples are hashed.  Used where a routine needs to spawn
    many two-word replicate keys ``(effective_seed, r)`` cheaply.
    """
    parts = [p % _WORD for p in as_seed_key(seed)]
    if len(parts) == 1:
        return parts[0]
    return int(np.random.SeedSequence(parts).generate_state(1, np.uint64)[0])
