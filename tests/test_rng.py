"""Stream determinism and independence of the keyed generators."""

import numpy as np

from regbridge.rng import as_seed_key, collapse_seed, philox_stream


class TestPhiloxStream:
    def test_equal_keys_equal_draws(self):
        a = philox_stream(42, 7).standard_normal(16)
        b = philox_stream(42, 7).standard_normal(16)
        assert np.array_equal(a, b)

    def test_distinct_keys_distinct_draws(self):
        a = philox_stream(42, 7).standard_normal(16)
        b = philox_stream(42, 8).standard_normal(16)
        c = philox_stream(43, 7).standard_normal(16)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_long_keys_supported(self):
        a = philox_stream(1, 2, 3, 4).standard_normal(8)
        b = philox_stream(1, 2, 3, 4).standard_normal(8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, philox_stream(1, 2, 3, 5).standard_normal(8))

    def test_negative_parts_reduced(self):
        a = philox_stream(-1, 5).standard_normal(4)
        b = philox_stream((1 << 64) - 1, 5).standard_normal(4)
        assert np.array_equal(a, b)

    def test_streams_look_independent(self):
        # correlation between distinct replicate streams is O(1/sqrt(n))
        draws = np.stack([philox_stream(0, r).standard_normal(4000)
                          for r in range(8)])
        corr = np.corrcoef(draws)
        off = corr[~np.eye(8, dtype=bool)]
        assert np.max(np.abs(off)) < 0.06


class TestSeedKeys:
    def test_as_seed_key_int_and_tuple(self):
        assert as_seed_key(5) == (5,)
        assert as_seed_key((5, 6)) == (5, 6)

    def test_as_seed_key_rejects_junk(self):
        for bad in ("seed", 1.5, (), None):
            try:
                as_seed_key(bad)
            except TypeError:
                continue
            raise AssertionError(f"{bad!r} accepted as seed")

    def test_collapse_seed_int_passthrough(self):
        assert collapse_seed(123) == 123

    def test_collapse_seed_deterministic(self):
        assert collapse_seed((1, 2, 3)) == collapse_seed((1, 2, 3))
        assert collapse_seed((1, 2, 3)) != collapse_seed((1, 2, 4))
