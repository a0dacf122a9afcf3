"""Tests for the KVStore engine: verbs, TTL, CAS, eviction, invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CapacityError, ConfigurationError, StorageError
from repro.kvstore import KVStore, StoreResult
from repro.units import MB


def make_store(limit=4 * MB, policy="lru") -> KVStore:
    return KVStore(memory_limit_bytes=limit, policy=policy)


class TestBasicVerbs:
    def test_set_get_roundtrip(self):
        store = make_store()
        assert store.set(b"k", b"hello") is StoreResult.STORED
        item = store.get(b"k")
        assert item is not None and item.value == b"hello"

    def test_get_missing(self):
        store = make_store()
        assert store.get(b"k") is None
        assert store.stats.get_misses == 1

    def test_set_overwrites(self):
        store = make_store()
        store.set(b"k", b"one")
        store.set(b"k", b"two")
        assert store.get(b"k").value == b"two"
        assert len(store) == 1

    def test_add_only_if_absent(self):
        store = make_store()
        assert store.add(b"k", b"one") is StoreResult.STORED
        assert store.add(b"k", b"two") is StoreResult.NOT_STORED
        assert store.get(b"k").value == b"one"

    def test_replace_only_if_present(self):
        store = make_store()
        assert store.replace(b"k", b"x") is StoreResult.NOT_STORED
        store.set(b"k", b"one")
        assert store.replace(b"k", b"two") is StoreResult.STORED
        assert store.get(b"k").value == b"two"

    def test_delete(self):
        store = make_store()
        store.set(b"k", b"v")
        assert store.delete(b"k") is StoreResult.DELETED
        assert store.delete(b"k") is StoreResult.NOT_FOUND
        assert store.get(b"k") is None

    def test_flags_preserved(self):
        store = make_store()
        store.set(b"k", b"v", flags=42)
        assert store.get(b"k").flags == 42

    def test_append_prepend(self):
        store = make_store()
        store.set(b"k", b"mid")
        assert store.append(b"k", b"-end") is StoreResult.STORED
        assert store.prepend(b"k", b"start-") is StoreResult.STORED
        assert store.get(b"k").value == b"start-mid-end"

    def test_append_missing_not_stored(self):
        store = make_store()
        assert store.append(b"k", b"x") is StoreResult.NOT_STORED


class TestCas:
    def test_cas_success(self):
        store = make_store()
        store.set(b"k", b"one")
        cas = store.gets(b"k").cas
        assert store.cas(b"k", b"two", cas) is StoreResult.STORED
        assert store.get(b"k").value == b"two"

    def test_cas_stale_id_exists(self):
        store = make_store()
        store.set(b"k", b"one")
        stale = store.gets(b"k").cas
        store.set(b"k", b"interloper")
        assert store.cas(b"k", b"two", stale) is StoreResult.EXISTS
        assert store.get(b"k").value == b"interloper"

    def test_cas_missing_key(self):
        store = make_store()
        assert store.cas(b"k", b"v", 1) is StoreResult.NOT_FOUND


class TestArithmetic:
    def test_incr_decr(self):
        store = make_store()
        store.set(b"n", b"10")
        assert store.incr(b"n", 5) == 15
        assert store.decr(b"n", 3) == 12
        assert store.get(b"n").value == b"12"

    def test_decr_floors_at_zero(self):
        store = make_store()
        store.set(b"n", b"3")
        assert store.decr(b"n", 10) == 0

    def test_incr_missing_returns_none(self):
        assert make_store().incr(b"n", 1) is None

    def test_incr_non_numeric_raises(self):
        store = make_store()
        store.set(b"n", b"abc")
        with pytest.raises(StorageError):
            store.incr(b"n", 1)

    def test_incr_preserves_expiry(self):
        store = make_store()
        store.set(b"n", b"1", expire=100)
        store.incr(b"n", 1)
        store.advance_time(99)
        assert store.get(b"n") is not None
        store.advance_time(2)
        assert store.get(b"n") is None


class TestTtl:
    def test_relative_expiry(self):
        store = make_store()
        store.set(b"k", b"v", expire=10)
        store.advance_time(9.99)
        assert store.get(b"k") is not None
        store.advance_time(0.02)
        assert store.get(b"k") is None

    def test_absolute_expiry_beyond_30_days(self):
        store = make_store()
        absolute = 40 * 24 * 3600.0
        store.set(b"k", b"v", expire=absolute)
        store.advance_time(absolute - 1)
        assert store.get(b"k") is not None
        store.advance_time(2)
        assert store.get(b"k") is None

    def test_negative_ttl_expires_immediately(self):
        store = make_store()
        store.set(b"k", b"v", expire=-1)
        assert store.get(b"k") is None

    def test_touch_extends(self):
        store = make_store()
        store.set(b"k", b"v", expire=5)
        assert store.touch(b"k", 100) is StoreResult.TOUCHED
        store.advance_time(50)
        assert store.get(b"k") is not None

    def test_touch_missing(self):
        assert make_store().touch(b"k", 10) is StoreResult.NOT_FOUND

    def test_expired_item_frees_memory(self):
        store = make_store()
        store.set(b"k", b"v", expire=1)
        store.advance_time(2)
        store.get(b"k")
        store.check_invariants()
        assert len(store) == 0

    def test_flush_all_invalidates_everything(self):
        store = make_store()
        for i in range(10):
            store.set(b"key-%d" % i, b"v")
        store.flush_all()
        for i in range(10):
            assert store.get(b"key-%d" % i) is None

    def test_sets_after_flush_survive(self):
        store = make_store()
        store.set(b"old", b"v")
        store.flush_all()
        store.advance_time(0.001)
        store.set(b"new", b"v")
        assert store.get(b"new") is not None
        assert store.get(b"old") is None

    def test_time_cannot_go_backwards(self):
        with pytest.raises(ConfigurationError):
            make_store().advance_time(-1)


class TestEviction:
    def test_eviction_on_pressure(self):
        store = make_store(limit=1 * MB)
        value = b"x" * 1000
        for i in range(2000):  # far more than 1 MB worth
            store.set(b"key-%d" % i, value)
        assert store.stats.evictions > 0
        store.check_invariants()
        # Recent keys survive; the earliest were evicted.
        assert store.get(b"key-1999") is not None
        assert store.get(b"key-0") is None

    def test_lru_eviction_spares_touched_keys(self):
        store = make_store(limit=1 * MB)
        value = b"x" * 1000
        store.set(b"precious", value)
        for i in range(900):
            store.set(b"key-%d" % i, value)
            store.get(b"precious")  # keep it hot
        assert store.get(b"precious") is not None

    def test_bags_policy_also_evicts(self):
        store = make_store(limit=1 * MB, policy="bags")
        value = b"x" * 1000
        for i in range(2000):
            store.set(b"key-%d" % i, value)
        assert store.stats.evictions > 0
        assert store.get(b"key-1999") is not None
        store.check_invariants()

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            KVStore(4 * MB, policy="random")

    def test_evicting_set_builds_no_capacity_error(self, monkeypatch):
        # On a full store every set of a new key evicts one victim; the
        # store tests for room first instead of failing an allocation.
        store = make_store(limit=1 * MB)
        value = b"x" * 1000
        for i in range(1500):
            store.set(b"key-%d" % i, value)
        evictions = store.stats.evictions
        assert evictions > 0
        built = []
        init = CapacityError.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(CapacityError, "__init__", counting_init)
        for i in range(1500, 2000):
            assert store.set(b"key-%d" % i, value) is StoreResult.STORED
        assert store.stats.evictions == evictions + 500
        assert built == []
        store.check_invariants()


class TestStats:
    def test_hit_rate(self):
        store = make_store()
        store.set(b"k", b"v")
        store.get(b"k")
        store.get(b"missing")
        assert store.stats.hit_rate == pytest.approx(0.5)
        assert store.stats.cmd_get == 2

    def test_byte_counters(self):
        store = make_store()
        store.set(b"k", b"12345")
        store.get(b"k")
        assert store.stats.bytes_written == 5
        assert store.stats.bytes_read == 5


class TestStoreProperties:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["set", "get", "delete", "add", "tick"]),
                st.integers(min_value=0, max_value=40),
                st.integers(min_value=0, max_value=2000),
            ),
            max_size=250,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_dict_model_without_pressure(self, ops):
        # With a roomy budget and no TTLs the store must behave exactly
        # like a dict.
        store = make_store(limit=64 * MB)
        model: dict[bytes, bytes] = {}
        for op, index, size in ops:
            key = b"key-%d" % index
            value = b"v" * size
            if op == "set":
                store.set(key, value)
                model[key] = value
            elif op == "add":
                result = store.add(key, value)
                if key in model:
                    assert result is StoreResult.NOT_STORED
                else:
                    model[key] = value
            elif op == "get":
                item = store.get(key)
                if key in model:
                    assert item is not None and item.value == model[key]
                else:
                    assert item is None
            elif op == "delete":
                result = store.delete(key)
                assert (result is StoreResult.DELETED) == (key in model)
                model.pop(key, None)
            else:
                store.advance_time(1.0)
        store.check_invariants()
        assert len(store) == len(model)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_invariants_hold_under_memory_pressure(self, seed):
        import random

        rng = random.Random(seed)
        store = make_store(limit=1 * MB)
        for _ in range(300):
            key = b"key-%d" % rng.randrange(100)
            action = rng.random()
            if action < 0.6:
                store.set(key, b"x" * rng.randrange(1, 20_000))
            elif action < 0.8:
                store.get(key)
            else:
                store.delete(key)
        store.check_invariants()
