"""Read-path query surface: one spec in, one result out.

:class:`QuerySpec` / :class:`QueryResult` are the one query surface of
the store layer.  Every read is a spec over orthogonal axes (minute,
area, trusted, k-nearest, count, encoded) handed to ``VPStore.query``;
there are no per-shape read methods.  ``encoded=True`` asks for the
stored frame representation (:mod:`repro.store.codec`) instead of
decoded objects — the client owns the codec, so the authority can serve
raw spans.  A decoded read is the same frame decoded: one selection
primitive a backend.  Selection itself runs on the log's per-minute
columns (:mod:`repro.store.segments`); nothing here caches an answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ValidationError
from repro.geo.geometry import Point, Rect

if TYPE_CHECKING:  # import cycle: base imports serving
    from repro.core.viewprofile import ViewProfile


@dataclass(frozen=True)
class QuerySpec:
    """One read request against a VP store, axes composable.

    ``minute`` scopes every query (the store partitions by minute).
    ``area`` restricts to VPs claiming a position inside the closed
    rectangle; ``trusted_only`` to authority-ingested VPs; ``nearest``
    + ``k`` selects the ``k`` VPs closest (point-to-trajectory) to a
    site, ties keeping insertion order.  ``count=True`` returns only
    the matching cardinality; ``encoded=True`` returns the stored
    frame representation instead of decoded objects.  ``count`` and
    ``encoded`` are exclusive, and neither composes with ``nearest``
    (ranking needs decoded trajectories).
    """

    minute: int
    area: Rect | None = None
    trusted_only: bool = False
    nearest: Point | None = None
    k: int = 1
    count: bool = False
    encoded: bool = False

    def __post_init__(self) -> None:
        if self.minute < 0:
            raise ValidationError(f"cannot query negative minute {self.minute}")
        if self.k < 1:
            raise ValidationError("k-nearest queries need k >= 1")
        if self.count and self.encoded:
            raise ValidationError("a query is counted or encoded, not both")
        if self.nearest is not None and (self.count or self.encoded):
            raise ValidationError("k-nearest queries return decoded VPs only")


@dataclass(frozen=True)
class QueryResult:
    """What one :class:`QuerySpec` matched.

    ``n`` is always the match cardinality.  Decoded queries carry the
    VPs in ``vps`` (insertion order, or distance order for k-nearest);
    ``encoded`` queries carry the codec batch frame in ``frame`` and
    leave ``vps`` ``None``; count queries carry neither.
    """

    spec: QuerySpec
    n: int
    vps: list["ViewProfile"] | None = None
    frame: bytes | None = None
