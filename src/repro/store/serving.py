"""Read-path query surface: one spec in, one result out.

:class:`QuerySpec` / :class:`QueryResult` are the one query surface of
the store layer.  Every read is a spec over orthogonal axes (minute,
area, trusted, count, encoded) handed to ``SegmentStore.query``;
there are no per-shape read methods.  ``encoded=True`` asks for the
stored frame representation (:mod:`repro.store.codec`) instead of
decoded objects — the client owns the codec, so the authority can serve
raw spans.  A decoded read is the same frame decoded: one selection
primitive.  Selection itself runs on the log's per-minute
columns (:mod:`repro.store.segments`); nothing here caches an answer.

An encoded reply is one buffer from segment file to client: the log
reads the selected records into one anonymous mapping
(``mmap``, never the malloc heap) behind :data:`REPLY_HEAD_ROOM` free
bytes, and :func:`reply_with_head` writes an envelope head into that
room, so a server answers with head and frame as one view.  The
mapping is unmapped with its last view.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ValidationError
from repro.geo.geometry import Rect

if TYPE_CHECKING:  # import cycle: base imports serving
    from repro.core.viewprofile import ViewProfile


@dataclass(frozen=True)
class QuerySpec:
    """One read request against a VP store, axes composable.

    ``minute`` scopes every query (the store partitions by minute).
    ``area`` restricts to VPs claiming a position inside the closed
    rectangle; ``trusted_only`` to authority-ingested VPs.
    ``count=True`` returns only the matching cardinality;
    ``encoded=True`` returns the stored frame representation instead of
    decoded objects.  ``count`` and ``encoded`` are exclusive.
    """

    minute: int
    area: Rect | None = None
    trusted_only: bool = False
    count: bool = False
    encoded: bool = False

    def __post_init__(self) -> None:
        if self.minute < 0:
            raise ValidationError(f"cannot query negative minute {self.minute}")
        if self.count and self.encoded:
            raise ValidationError("a query is counted or encoded, not both")


@dataclass(frozen=True)
class QueryResult:
    """What one :class:`QuerySpec` matched.

    ``n`` is always the match cardinality.  Decoded queries carry the
    VPs in ``vps`` (insertion order);
    ``encoded`` queries carry the codec batch frame in ``frame`` — a
    read-only view of the reply mapping — and leave ``vps`` ``None``;
    count queries carry neither.
    """

    spec: QuerySpec
    n: int
    vps: list["ViewProfile"] | None = None
    frame: memoryview | None = None


#: free bytes before the frame in an encoded reply's mapping: room for
#: the largest ``view`` envelope head — a 4 B length and
#: ``{"frame":{"$bytes":N},"kind":"view","n":K}`` with 10-digit N and K
REPLY_HEAD_ROOM = 64


def reply_mapping(frame_bytes: int) -> memoryview:
    """A writable anonymous mapping for a frame of ``frame_bytes``,
    which starts at :data:`REPLY_HEAD_ROOM`.

    Prefaulted (``MAP_POPULATE``): a reply writes every page but what an
    area query's dropped records leave at the tail, and one populate
    costs less than a fault per page.
    """
    flags = mmap.MAP_PRIVATE | mmap.MAP_POPULATE
    return memoryview(mmap.mmap(-1, REPLY_HEAD_ROOM + frame_bytes, flags=flags))


def reply_with_head(frame: memoryview, head: bytes) -> memoryview:
    """``head + frame`` as one read-only view, ``frame`` not copied.

    ``frame`` is an encoded reply (``SegmentStore.query_encoded``), so it
    starts at :data:`REPLY_HEAD_ROOM` of its mapping; ``head`` is
    written right-aligned into the room before it.
    """
    start = REPLY_HEAD_ROOM - len(head)
    if start < 0 or not isinstance(frame.obj, mmap.mmap):
        raise ValueError("a reply head goes into the room of a reply mapping")
    mapping = memoryview(frame.obj)
    mapping[start:REPLY_HEAD_ROOM] = head
    return mapping.toreadonly()[start : REPLY_HEAD_ROOM + len(frame)]
