"""Tests for video solicitation and upload validation."""

import pytest

from repro.core.solicitation import (
    SolicitationBoard,
    SolicitationState,
    validate_video_upload,
)
from repro.errors import ValidationError
from repro.store.codec import decode_vp_batch, encode_vp_batch


class TestBoard:
    def test_post_and_poll(self):
        board = SolicitationBoard()
        board.post(b"\x01" * 16)
        assert board.is_requested(b"\x01" * 16)
        assert board.requested_ids() == [b"\x01" * 16]

    def test_post_idempotent(self):
        board = SolicitationBoard()
        board.post(b"\x01" * 16)
        board.mark_received(b"\x01" * 16)
        board.post(b"\x01" * 16)  # re-post must not reset state
        assert board.state_of(b"\x01" * 16) == SolicitationState.RECEIVED

    def test_lifecycle(self):
        board = SolicitationBoard()
        vp_id = b"\x02" * 16
        board.post(vp_id)
        board.mark_received(vp_id)
        assert not board.is_requested(vp_id)
        board.mark_reviewed(vp_id)
        assert board.state_of(vp_id) == SolicitationState.REVIEWED

    def test_unknown_id_rejected(self):
        board = SolicitationBoard()
        with pytest.raises(ValidationError):
            board.mark_received(b"\x03" * 16)
        with pytest.raises(ValidationError):
            board.mark_reviewed(b"\x03" * 16)
        assert board.state_of(b"\x03" * 16) is None


class TestVideoValidation:
    def test_authentic_video_accepted(self, linked_pair):
        _, _, res_a, _ = linked_pair
        assert validate_video_upload(res_a.actual_vp, res_a.video.chunks)

    def test_other_vehicles_video_rejected(self, linked_pair):
        _, _, res_a, res_b = linked_pair
        assert not validate_video_upload(res_a.actual_vp, res_b.video.chunks)

    def test_single_edited_chunk_rejected(self, linked_pair):
        _, _, res_a, _ = linked_pair
        tampered = list(res_a.video.chunks)
        tampered[30] = b"edited frame"
        assert not validate_video_upload(res_a.actual_vp, tampered)

    def test_truncated_video_rejected(self, linked_pair):
        _, _, res_a, _ = linked_pair
        assert not validate_video_upload(res_a.actual_vp, res_a.video.chunks[:59])

    def test_guard_vp_can_never_validate(self, linked_pair):
        a, _, res_a, _ = linked_pair
        if not res_a.guard_vps:
            pytest.skip("no guard created this run")
        guard = res_a.guard_vps[0]
        # even replaying the creator's own chunks fails: hash fields random
        assert not validate_video_upload(guard, res_a.video.chunks)

    def test_validation_unpacks_no_digest_of_a_stored_vp(self, linked_pair, unpack_calls):
        # a stored VP is its packed block; walking ``.digests`` here used
        # to leave 60 ViewDigest objects on it for good, per solicited video
        _, _, res_a, _ = linked_pair
        chunks = res_a.video.chunks
        stored, stored_guard = decode_vp_batch(
            encode_vp_batch([res_a.actual_vp, res_a.guard_vps[0]])
        )
        assert validate_video_upload(stored, chunks)
        assert not validate_video_upload(stored, chunks[:30] + [b"edited"] + chunks[31:])
        assert not validate_video_upload(stored_guard, chunks)  # random hash fields
        assert len(unpack_calls) == 0
