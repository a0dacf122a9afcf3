"""Tests for item records and key hashing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.kvstore import ITEM_OVERHEAD_BYTES, Item, fnv1a_32, hash_key, jenkins_oaat
from repro.kvstore.hashing import hash_cost_instructions

keys = st.binary(min_size=1, max_size=64).filter(
    lambda k: b" " not in k and b"\r" not in k and b"\n" not in k
)


class TestItem:
    def test_total_bytes_accounting(self):
        item = Item(key=b"k" * 10, value=b"v" * 100)
        assert item.total_bytes == ITEM_OVERHEAD_BYTES + 110

    def test_cas_ids_are_unique_and_increasing(self):
        a = Item(key=b"a", value=b"")
        b = Item(key=b"b", value=b"")
        assert b.cas > a.cas

    def test_bump_cas_changes_id(self):
        item = Item(key=b"a", value=b"")
        old = item.cas
        item.bump_cas()
        assert item.cas > old

    def test_expiry(self):
        item = Item(key=b"a", value=b"", expire_at=10.0)
        assert not item.is_expired(9.99)
        assert item.is_expired(10.0)

    def test_zero_expiry_never_expires(self):
        item = Item(key=b"a", value=b"")
        assert not item.is_expired(1e12)

    def test_empty_key_rejected(self):
        with pytest.raises(StorageError):
            Item(key=b"", value=b"x")

    def test_overlong_key_rejected(self):
        with pytest.raises(StorageError):
            Item(key=b"k" * 251, value=b"")

    def test_whitespace_key_rejected(self):
        with pytest.raises(StorageError):
            Item(key=b"a b", value=b"")
        with pytest.raises(StorageError):
            Item(key=b"a\r\nb", value=b"")


class TestHashes:
    def test_fnv1a_known_vectors(self):
        # Standard FNV-1a 32-bit test vectors.
        assert fnv1a_32(b"") == 0x811C9DC5
        assert fnv1a_32(b"a") == 0xE40C292C
        assert fnv1a_32(b"foobar") == 0xBF9CF968

    def test_jenkins_deterministic(self):
        assert jenkins_oaat(b"key-1") == jenkins_oaat(b"key-1")
        assert jenkins_oaat(b"key-1") != jenkins_oaat(b"key-2")

    def test_hash_key_dispatch(self):
        assert hash_key(b"x") == jenkins_oaat(b"x")  # default

    @given(key=keys)
    @settings(max_examples=100, deadline=None)
    def test_hashes_fit_32_bits(self, key):
        for func in (fnv1a_32, jenkins_oaat):
            assert 0 <= func(key) < 1 << 32

    @given(data=st.binary(max_size=256))
    @settings(max_examples=100, deadline=None)
    def test_jenkins_avalanche_is_nontrivial(self, data):
        # Flipping one bit should change the hash (not a proof of quality,
        # just a regression guard against a broken shift).
        flipped = bytes([data[0] ^ 1]) + data[1:] if data else b"\x01"
        if flipped != data:
            assert jenkins_oaat(flipped) != jenkins_oaat(data)


class TestHashCost:
    def test_linear_in_key_length(self):
        short = hash_cost_instructions(8)
        long = hash_cost_instructions(64)
        assert long > short
        assert long - short == pytest.approx(18.0 * 56)

    def test_negative_length_rejected(self):
        with pytest.raises(StorageError):
            hash_cost_instructions(-1)
