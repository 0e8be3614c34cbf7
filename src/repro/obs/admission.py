"""Bounded admission control for untrusted streaming uploads.

The streaming front-end (:mod:`repro.net.streaming`) parses frames
straight off vehicle sockets; without a bound, a burst of uploads would
queue unbounded work (and unbounded receive buffers) on the authority.
This module is the explicit back-pressure plane the ROADMAP calls for:

* **bounded per-shard queues** — admission is tracked per shard key
  (the frame's first-record minute, the axis the segment log files
  records by), so one hot minute saturating its queue cannot starve
  ingest for the rest of the fleet;
* **surfaced to clients** — a rejected upload is not silently dropped:
  the reply is a ``busy`` message carrying ``retry_after`` seconds, a
  deterministic function of the queue the upload would have joined.

Everything is observable: ``server.admission.depth`` and
``server.admission.pending_bytes`` gauges (max-merged across
snapshots, so a fleet merge keeps the worst case),
a ``server.upload.shed`` counter, and a ``server.upload.retry_after_s``
histogram of what clients were told.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry

#: per-shard cap on uploads admitted but not yet committed
DEFAULT_MAX_DEPTH = 64

#: global cap on admitted-but-uncommitted payload bytes across shards
DEFAULT_MAX_PENDING_BYTES = 32 * 1024 * 1024

#: the base unit of the retry-after estimate, scaled by how deep the
#: rejected upload's queue is
DEFAULT_RETRY_BASE_S = 0.05


@dataclass(frozen=True)
class AdmissionTicket:
    """One admitted upload: release it when the ingest completes."""

    shard: int
    nbytes: int


class AdmissionController:
    """Bounded per-shard admission queues with deterministic retry hints.

    ``try_admit`` either returns an :class:`AdmissionTicket` (the
    caller **must** :meth:`release` it, success or failure) or ``None``
    — in which case :meth:`retry_after` says what to tell the client.
    Rejection happens *before* any ingest work: a shed upload never
    partially lands.
    """

    def __init__(
        self,
        *,
        n_shards: int = 4,
        max_depth: int = DEFAULT_MAX_DEPTH,
        max_pending_bytes: int = DEFAULT_MAX_PENDING_BYTES,
        retry_base_s: float = DEFAULT_RETRY_BASE_S,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("admission needs at least one shard queue")
        if max_depth < 1:
            raise ValueError("admission depth bound must be positive")
        self.n_shards = n_shards
        self.max_depth = max_depth
        self.max_pending_bytes = max_pending_bytes
        self.retry_base_s = retry_base_s
        self.metrics = metrics if metrics is not None else MetricsRegistry(enabled=False)
        self._lock = threading.Lock()
        self._depths = [0] * n_shards
        self._pending_bytes = 0

    # -- shard keying ------------------------------------------------------

    def shard_of(self, minute: int) -> int:
        """Map a frame's first-record minute onto its admission queue."""
        return int(minute) % self.n_shards

    # -- admission ---------------------------------------------------------

    def try_admit(self, shard: int, nbytes: int) -> AdmissionTicket | None:
        """Admit one upload of ``nbytes`` onto ``shard``, or shed it."""
        with self._lock:
            if (
                self._depths[shard] >= self.max_depth
                or self._pending_bytes + nbytes > self.max_pending_bytes
            ):
                self.metrics.inc("server.upload.shed")
                return None
            self._depths[shard] += 1
            self._pending_bytes += nbytes
            depth = self._depths[shard]
            pending = self._pending_bytes
        self.metrics.set_gauge("server.admission.depth", depth)
        self.metrics.set_gauge("server.admission.pending_bytes", pending)
        return AdmissionTicket(shard=shard, nbytes=nbytes)

    def release(self, ticket: AdmissionTicket) -> None:
        """Return an admitted upload's slot (ingest done, either way)."""
        with self._lock:
            self._depths[ticket.shard] -= 1
            self._pending_bytes -= ticket.nbytes

    def retry_after(self, shard: int) -> float:
        """Deterministic back-off hint for a shed upload on ``shard``.

        Scales with the rejected queue's depth — roughly "wait for the
        backlog ahead of you to drain".  Always strictly positive.
        """
        with self._lock:
            depth = self._depths[shard]
        estimate = self.retry_base_s * (1 + depth)
        self.metrics.observe("server.upload.retry_after_s", estimate)
        return estimate

    # -- observability -----------------------------------------------------

    def depth(self, shard: int) -> int:
        """Current admitted-but-unreleased count on one shard queue."""
        with self._lock:
            return self._depths[shard]

    def pending_bytes(self) -> int:
        """Admitted payload bytes not yet released, across all shards."""
        with self._lock:
            return self._pending_bytes
