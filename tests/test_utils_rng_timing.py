"""Unit tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import as_rng, spawn_rngs


class TestAsRng:
    def test_from_int_is_deterministic(self):
        a = as_rng(42).integers(0, 1000, size=5)
        b = as_rng(42).integers(0, 1000, size=5)
        np.testing.assert_array_equal(a, b)

    def test_from_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_passes_generator_through(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_zero_children(self):
        assert spawn_rngs(0, 0) == []

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_children_are_independent_streams(self):
        children = spawn_rngs(7, 3)
        draws = [c.integers(0, 2**31, size=4).tolist() for c in children]
        assert draws[0] != draws[1]
        assert draws[1] != draws[2]

    def test_deterministic_given_seed(self):
        a = [c.integers(0, 100) for c in spawn_rngs(9, 3)]
        b = [c.integers(0, 100) for c in spawn_rngs(9, 3)]
        assert a == b

