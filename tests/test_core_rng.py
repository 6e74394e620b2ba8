"""Tests for deterministic namespaced randomness."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.rng import DeterministicRNG, derive_rng


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = DeterministicRNG(7)
        b = DeterministicRNG(7)
        assert [a.random() for _ in range(10)] == \
            [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = DeterministicRNG(7)
        b = DeterministicRNG(8)
        assert [a.random() for _ in range(5)] != \
            [b.random() for _ in range(5)]

    def test_string_and_bytes_seeds_accepted(self):
        assert DeterministicRNG("label").random() == \
            DeterministicRNG("label").random()
        assert DeterministicRNG(b"raw").random() == \
            DeterministicRNG(b"raw").random()

    def test_derive_is_deterministic(self):
        parent = DeterministicRNG(1)
        assert parent.derive("x").random() == \
            DeterministicRNG(1).derive("x").random()

    def test_derived_labels_independent(self):
        parent = DeterministicRNG(1)
        assert parent.derive("a").random() != parent.derive("b").random()

    def test_derivation_unaffected_by_consumption(self):
        """Consuming the parent stream must not shift children."""
        parent1 = DeterministicRNG(9)
        parent1.random()
        parent2 = DeterministicRNG(9)
        assert parent1.derive("child").random() == \
            parent2.derive("child").random()


class TestHelpers:
    def test_pick_port_in_range(self):
        rng = DeterministicRNG(3)
        for _ in range(100):
            assert 1024 <= rng.pick_port() <= 65535

    def test_pick_port_custom_range(self):
        rng = DeterministicRNG(3)
        for _ in range(50):
            assert 4000 <= rng.pick_port(4000, 4010) <= 4010

    def test_pick_txid_16_bit(self):
        rng = DeterministicRNG(3)
        for _ in range(100):
            assert 0 <= rng.pick_txid() <= 0xFFFF

    def test_chance_extremes(self):
        rng = DeterministicRNG(3)
        assert not rng.chance(0.0)
        assert rng.chance(1.0)
        assert not rng.chance(-1.0)
        assert rng.chance(2.0)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_chance_returns_bool(self, probability):
        assert isinstance(DeterministicRNG(0).chance(probability), bool)

    def test_chance_statistics(self):
        rng = DeterministicRNG(42)
        hits = sum(rng.chance(0.3) for _ in range(10_000))
        assert 2700 < hits < 3300

    def test_derive_rng_shortcut(self):
        assert derive_rng(5, "x").random() == \
            DeterministicRNG(5).derive("x").random()


class TestUniformInts:
    """``uniform_ints`` is the ``randint`` loop, drawn in bulk."""

    # 2^32 - 1 is the widest range one 32-bit word per try can serve;
    # 4,097 and 9,000 values cross the 4,096-word chunk boundary.
    @settings(max_examples=40, deadline=None)
    @given(width=st.sampled_from([1, 2, 6, 2**16, 2**31, 2**32 - 1]),
           count=st.sampled_from([0, 1, 50, 4097, 9000]),
           low=st.integers(min_value=-2**40, max_value=2**40),
           seed=st.integers(min_value=0, max_value=2**16),
           warmup=st.integers(min_value=0, max_value=3))
    def test_matches_randint_loop_and_state(self, width, count, low, seed,
                                            warmup):
        bulk, loop = DeterministicRNG(seed), DeterministicRNG(seed)
        for rng in (bulk, loop):
            rng.getrandbits(32 * warmup + 1)
        high = low + width - 1
        assert bulk.uniform_ints(low, high, count) == \
            [loop.randint(low, high) for _ in range(count)]
        assert bulk.getstate() == loop.getstate()

    def test_empty_range_raises_like_randint(self):
        rng = DeterministicRNG(1)
        with pytest.raises(ValueError):
            rng.randint(5, 4)
        with pytest.raises(ValueError):
            rng.uniform_ints(5, 4, 3)

    @pytest.mark.parametrize("width", [2**32, 2**32 + 1, 2**40])
    def test_multi_word_widths_raise(self, width):
        # CPython's _randbelow draws two words per try at these widths.
        with pytest.raises(ValueError):
            DeterministicRNG(1).uniform_ints(0, width - 1, 1)
