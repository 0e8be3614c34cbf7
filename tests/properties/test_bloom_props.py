"""Property-based tests for the Bloom filter."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.bloom import BloomFilter, key_positions

items = st.binary(min_size=1, max_size=80)


class TestBloomProperties:
    @given(st.lists(items, max_size=60))
    @settings(max_examples=40)
    def test_no_false_negatives(self, entries):
        bloom = BloomFilter()
        for entry in entries:
            bloom.add(entry)
        assert all(entry in bloom for entry in entries)

    @given(st.lists(items, max_size=40), st.lists(items, max_size=40))
    @settings(max_examples=30)
    def test_union_superset_of_parts(self, xs, ys):
        a, b = BloomFilter(), BloomFilter()
        for x in xs:
            a.add(x)
        for y in ys:
            b.add(y)
        merged = a.union(b)
        assert all(x in merged for x in xs)
        assert all(y in merged for y in ys)

    @given(st.lists(items, max_size=60))
    @settings(max_examples=30)
    def test_serialization_roundtrip(self, entries):
        bloom = BloomFilter()
        for entry in entries:
            bloom.add(entry)
        restored = BloomFilter.from_bytes(bloom.to_bytes())
        assert all(entry in restored for entry in entries)

    @given(items)
    @settings(max_examples=50)
    def test_positions_deterministic_and_in_range(self, item):
        positions = key_positions([item], 8, 2048)[0].tolist()
        assert positions == key_positions([item], 8, 2048)[0].tolist()
        assert all(0 <= p < 2048 for p in positions)
        assert len(positions) == 8

    @given(st.lists(items, min_size=1, max_size=60))
    @settings(max_examples=30)
    def test_fill_ratio_bounded_by_insertions(self, entries):
        bloom = BloomFilter()
        for entry in entries:
            bloom.add(entry)
        assert bloom.fill_ratio() <= (len(entries) * bloom.k) / bloom.m_bits
