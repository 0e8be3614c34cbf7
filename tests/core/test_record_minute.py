"""A minute recorded into its packed block equals the per-second objects.

``VDGenerator.tick`` and ``VDGenerator.record`` write 72-byte rows;
``tests/core/reference_recording.py`` keeps the implementation they
replaced (a ``ViewDigest`` per second, packed and joined).  For any
times, positions and chunks the two produce the same bytes, or fail the
same way; the upload check over packed columns agrees with the one over
unpacked digests; and a convoy recorded agent by agent equals the one
driven second by second.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.neighbors import NeighborTable
from repro.core.solicitation import validate_video_upload
from repro.core.viewdigest import VDGenerator, make_secret
from repro.core.viewprofile import build_view_profile
from repro.errors import ValidationError
from repro.sim.stream import stream_convoy_vps
from tests.core.reference_recording import (
    ReferenceGenerator,
    reference_convoy_vps,
    reference_validate_video_upload,
)

#: float64 values that change under float32, do not fit it, or are not numbers
coordinates = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-1e5, max_value=1e5),
    st.sampled_from([0.1, -0.1, 16777217.0, 1e-46, -1e-46, 3.4028235e38, 3.5e38, -1e300]),
)


@st.composite
def minutes(draw):
    """(times, positions, chunks) for 1..60 seconds of one video."""
    n = draw(st.integers(1, 60))
    times = draw(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=n, max_size=n))
    positions = draw(st.lists(st.tuples(coordinates, coordinates), min_size=n, max_size=n))
    lengths = draw(st.lists(st.integers(0, 4096), min_size=n, max_size=n))
    content = random.Random(draw(st.integers(0, 2**32)))
    return times, positions, [content.randbytes(length) for length in lengths]


def outcome(record):
    """What a recording produced: its bytes, or the class it failed with."""
    try:
        return record()
    except (ArithmeticError, ValidationError) as exc:
        return type(exc)


@given(minute=minutes(), ticked=st.integers(0, 60), secret=st.binary(min_size=8, max_size=8))
@example(  # beyond float32 in the recorded part: both refuse
    minute=([1.0, 2.0], [(0.1, -0.1), (1e300, 0.0)], [b"a", b""]), ticked=1, secret=b"8 bytes!"
)
@example(  # ... and in the ticked part
    minute=([1.0, 2.0], [(0.1, -3.5e38), (0.0, 0.0)], [b"a", b""]), ticked=1, secret=b"8 bytes!"
)
@example(  # not numbers, and values float32 flushes or rounds: same bytes
    minute=(
        [float("nan"), float("inf")],
        [(float("nan"), float("-inf")), (1e-46, 16777217.0)],
        [b"", b"x" * 10],
    ),
    ticked=0,
    secret=b"8 bytes!",
)
@settings(max_examples=150, deadline=None)
def test_block_equals_the_per_second_reference(minute, ticked, secret):
    times, positions, chunks = minute
    ticked = min(ticked, len(chunks))

    def reference() -> bytes:
        gen = ReferenceGenerator(secret)
        for second in zip(times, positions, chunks):
            gen.tick(*second)
        return gen.block()

    def block_born() -> bytes:
        gen = VDGenerator(secret)
        seconds = list(zip(times, positions, chunks))
        broadcast = [gen.tick(*second).pack() for second in seconds[:ticked]]
        gen.record(times[ticked:], positions[ticked:], chunks[ticked:])
        assert gen.seconds_recorded == len(chunks)
        block = gen.digests.block
        # what tick returned for broadcast is the row it wrote
        assert b"".join(broadcast) == block[: 72 * ticked]
        return block

    expected = outcome(reference)
    assert outcome(block_born) == expected
    if expected is OverflowError:  # a coordinate beyond float32: refused, not stored as inf
        with pytest.raises(OverflowError):
            VDGenerator(secret).record(times, positions, chunks)


def drive(minute: int = 3) -> tuple[list[float], list[tuple[float, float]], list[bytes]]:
    """A full minute with positions that need rounding and uneven chunks."""
    rng = random.Random(minute)
    times = [minute * 60.0 + i + 1 for i in range(60)]
    positions = [(1234.567 + 7.1 * i, -89.01 - 0.3 * i) for i in range(60)]
    return times, positions, [rng.randbytes(rng.randrange(0, 300)) for _ in range(60)]


@pytest.mark.parametrize("ticked", [0, 1, 17, 59, 60])
def test_ticks_then_record_of_the_rest_is_one_minute(ticked):
    times, positions, chunks = drive()
    secret = make_secret(9)
    reference = ReferenceGenerator(secret)
    for second in zip(times, positions, chunks):
        reference.tick(*second)
    gen = VDGenerator(secret)
    for second in list(zip(times, positions, chunks))[:ticked]:
        gen.tick(*second)
    gen.record(times[ticked:], positions[ticked:], chunks[ticked:])
    assert gen.complete
    assert gen.digests.block == reference.block()
    assert gen.digests == reference.digests  # the lazily unpacked view, item by item
    vp = build_view_profile(gen.digests, NeighborTable())
    assert vp.digest_block() == reference.block()


def test_a_61st_second_is_refused_by_both_entry_points():
    times, positions, chunks = drive()
    gen = VDGenerator(make_secret(1))
    gen.record(times[:59], positions[:59], chunks[:59])
    with pytest.raises(ValidationError):
        gen.record(times[:2], positions[:2], chunks[:2])
    assert gen.seconds_recorded == 59  # a refused record wrote nothing
    gen.tick(times[59], positions[59], chunks[59])
    with pytest.raises(ValidationError):
        gen.tick(61.0, (0.0, 0.0), b"c")
    with pytest.raises(ValidationError):
        gen.record([61.0], [(0.0, 0.0)], [b"c"])
    reference = ReferenceGenerator(make_secret(1))
    for second in zip(times, positions, chunks):
        reference.tick(*second)
    assert gen.digests.block == reference.block()


def test_record_needs_one_time_and_position_per_chunk():
    gen = VDGenerator(make_secret(1))
    with pytest.raises(ValidationError):
        gen.record([1.0], [(0.0, 0.0), (1.0, 0.0)], [b"a", b"b"])
    with pytest.raises(ValidationError):
        gen.record([1.0, 2.0], [(0.0, 0.0)], [b"a", b"b"])
    assert gen.seconds_recorded == 0


@pytest.mark.parametrize("secret", [b"", b"short", b"nine bytes"])
def test_wrong_length_secret_is_refused(secret):
    with pytest.raises(ValidationError):
        VDGenerator(secret)
    with pytest.raises(ValidationError):
        ReferenceGenerator(secret)


def test_upload_check_accepts_the_recording_and_rejects_any_flipped_byte():
    times, positions, chunks = drive()
    chunks = [chunk or b"\x00" for chunk in chunks]  # every second has a byte to flip
    gen = VDGenerator(make_secret(4))
    gen.record(times, positions, chunks)
    vp = build_view_profile(gen.digests, NeighborTable())
    digests = list(vp.digests)
    assert validate_video_upload(vp, chunks)
    assert reference_validate_video_upload(digests, chunks)
    for second in range(60):
        edited = list(chunks)
        edited[second] = bytes([edited[second][0] ^ 1]) + edited[second][1:]
        assert not validate_video_upload(vp, edited)
        assert not reference_validate_video_upload(digests, edited)
    for wrong_count in (chunks[:-1], chunks + [b""]):
        assert not validate_video_upload(vp, wrong_count)


# -- the convoy: one record per agent against one emit per agent per second ---

#: site and speed whose x positions are float32-exact on every fifth
#: second only, with the outermost pair one ulp inside DSRC range:
#: that pair hears each other at seconds 3, 8, ..., 58 and no others
GRAZING_SITE = (999.7, 1000.0)
GRAZING_SPEED = 5.1
GRAZING_GAP = {1: 399.99999999999994, 2: 199.99999999999997, 16: 24.999999999999996}


def assert_same_convoy(got, want):
    got_trusted, got_witnesses = got
    want_trusted, want_witnesses = want
    assert len(got_witnesses) == len(want_witnesses)
    for a, b in zip([got_trusted, *got_witnesses], [want_trusted, *want_witnesses]):
        assert a.digest_block() == b.digest_block()
        assert a.bloom.to_bytes() == b.bloom.to_bytes()
        assert a.trusted == b.trusted


@pytest.mark.parametrize("n_witnesses", [1, 2, 16])
def test_convoy_equals_the_per_second_reference(n_witnesses):
    args = (5, 2, n_witnesses, (1000.0, 1000.0))
    *want, accepted = reference_convoy_vps(*args)
    assert_same_convoy(stream_convoy_vps(*args), want)
    heard_all_minute = [pair for pair, seconds in accepted.items() if len(seconds) == 60]
    assert heard_all_minute  # and at 30 m spacing the outer pairs of 17 never meet
    assert (len(accepted) < n_witnesses * (n_witnesses + 1)) == (n_witnesses == 16)


@pytest.mark.parametrize("n_witnesses", [1, 2, 16])
def test_convoy_with_a_pair_in_range_for_part_of_the_minute(n_witnesses):
    kwargs = {"lateral_gap_m": GRAZING_GAP[n_witnesses], "speed_mps": GRAZING_SPEED}
    args = (7, 1, n_witnesses, GRAZING_SITE)
    *want, accepted = reference_convoy_vps(*args, **kwargs)
    outer = accepted[(n_witnesses, 0)]
    assert outer == list(range(3, 60, 5))  # first heard after closer peers, last before the end
    assert_same_convoy(stream_convoy_vps(*args, **kwargs), want)
