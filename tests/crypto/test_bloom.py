"""Tests for the Bloom filter and false-linkage math."""

import pytest

import numpy as np

from repro.crypto.bloom import (
    BloomFilter,
    _bit_positions,
    false_linkage_rate,
    key_positions,
    optimal_hash_count,
    unpacked_bits,
)
from repro.errors import ValidationError


class TestBloomFilter:
    def test_default_geometry_matches_paper(self):
        bloom = BloomFilter()
        assert bloom.m_bits == 2048
        assert len(bloom.to_bytes()) == 256

    def test_added_items_are_members(self):
        bloom = BloomFilter()
        items = [f"item-{i}".encode() for i in range(50)]
        for item in items:
            bloom.add(item)
        assert all(item in bloom for item in items)

    def test_absent_items_usually_not_members(self):
        bloom = BloomFilter()
        for i in range(50):
            bloom.add(f"member-{i}".encode())
        false_hits = sum(f"absent-{i}".encode() in bloom for i in range(1000))
        assert false_hits < 20  # ~0.1% expected at this load

    def test_empty_filter_has_no_members(self):
        bloom = BloomFilter()
        assert b"anything" not in bloom
        assert bloom.fill_ratio() == 0.0

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValidationError):
            BloomFilter(m_bits=0)
        with pytest.raises(ValidationError):
            BloomFilter(m_bits=100)  # not a multiple of 8
        with pytest.raises(ValidationError):
            BloomFilter(k=0)

    def test_roundtrip_serialization(self):
        bloom = BloomFilter()
        bloom.add(b"x")
        restored = BloomFilter.from_bytes(bloom.to_bytes())
        assert b"x" in restored
        assert restored.to_bytes() == bloom.to_bytes()

    @pytest.mark.parametrize(
        "k, m_bits", [(8, 2048), (8, 2040), (3, 4096), (13, 8), (1, 1 << 20), (8, (1 << 40) + 8)]
    )
    def test_batched_positions_equal_the_scalar_derivation(self, k, m_bits):
        # h1 + i * h2 overflows uint64 for nearly every key: the batch
        # must reduce mod m_bits first, for power-of-two sizes or not
        keys = [b"", b"k", bytes(72), bytes(range(72))] + [f"vd-{i}".encode() for i in range(200)]
        batch = key_positions(keys, k, m_bits)
        assert batch.shape == (len(keys), k) and batch.dtype == np.intp
        assert batch.tolist() == [_bit_positions(key, k, m_bits) for key in keys]
        assert key_positions(iter(keys[:3]), k, m_bits).tolist() == batch[:3].tolist()
        assert key_positions([], k, m_bits).shape == (0, k)

    @pytest.mark.parametrize("k, m_bits", [(8, 2048), (5, 2040), (2, 64)])
    def test_contains_positions_matches_contains(self, k, m_bits):
        bloom = BloomFilter(m_bits=m_bits, k=k)
        present = [f"present-{i}".encode() for i in range(12)]
        for key in present:
            bloom.add(key)
        keys = present + [f"absent-{i}".encode() for i in range(300)]
        held = bloom.contains_positions(key_positions(keys, k, m_bits))
        assert held.tolist() == [key in bloom for key in keys]
        assert held[: len(present)].all()
        assert bool(bloom.contains_positions(key_positions([b"present-0"], k, m_bits)[0]))
        saturated = BloomFilter.all_ones(m_bits, k)
        assert saturated.contains_positions(key_positions(keys, k, m_bits)).all()

    def test_unpacked_bits_follow_the_filters_bit_order(self):
        a, b = BloomFilter(m_bits=64, k=2), BloomFilter(m_bits=64, k=2)
        a.add(b"a")
        b.add(b"b")
        bits = unpacked_bits([a, b])
        assert bits.shape == (2, 64)
        for row, bloom in zip(bits, (a, b)):
            packed = bloom.to_bytes()
            assert row.tolist() == [(packed[p >> 3] >> (p & 7)) & 1 for p in range(64)]

    def test_no_position_cache_survives_a_lookup(self):
        # the module used to keep a 65 536-entry LRU of per-key tuples
        import repro.crypto.bloom as bloom_module

        key_positions([b"x"], 8, 2048)
        assert not any(hasattr(obj, "cache_info") for obj in vars(bloom_module).values())

    def test_all_ones_is_saturated(self):
        assert BloomFilter.all_ones().is_saturated()
        assert not BloomFilter().is_saturated()

    def test_all_ones_claims_everything(self):
        bloom = BloomFilter.all_ones()
        assert b"never-inserted" in bloom

    def test_union_combines_membership(self):
        a, b = BloomFilter(), BloomFilter()
        a.add(b"only-a")
        b.add(b"only-b")
        merged = a.union(b)
        assert b"only-a" in merged and b"only-b" in merged

    def test_union_geometry_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            BloomFilter(m_bits=1024).union(BloomFilter(m_bits=2048))

    def test_fill_ratio_monotone(self):
        bloom = BloomFilter()
        prev = 0.0
        for i in range(100):
            bloom.add(f"i{i}".encode())
            ratio = bloom.fill_ratio()
            assert ratio >= prev
            prev = ratio


class TestFalseLinkageMath:
    def test_optimal_hash_count_formula(self):
        # k = (m/n) ln 2: for m=2048, n=178 -> ~8
        assert optimal_hash_count(2048, 178) == 8
        assert optimal_hash_count(2048, 10000) == 1  # never below 1

    def test_rate_increases_with_neighbors(self):
        rates = [false_linkage_rate(2048, n) for n in (10, 100, 300, 400)]
        assert rates == sorted(rates)

    def test_rate_decreases_with_filter_size(self):
        rates = [false_linkage_rate(m, 300) for m in (1024, 2048, 3072, 4096)]
        assert rates == sorted(rates, reverse=True)

    def test_paper_design_point(self):
        # Section 6.3.2: m=2048 bits has ~0.1% false linkage at 300 entries
        rate = false_linkage_rate(2048, 300)
        assert 0.0005 < rate < 0.005

    def test_zero_neighbors_zero_rate(self):
        assert false_linkage_rate(2048, 0) == 0.0

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValidationError):
            false_linkage_rate(0, 10)
        with pytest.raises(ValidationError):
            false_linkage_rate(2048, -1)
