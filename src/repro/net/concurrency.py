"""Concurrent authority front-end: a worker-pool fabric and server.

The serial :class:`~repro.net.transport.InMemoryNetwork` delivers one
request at a time, so the authority's store never sees
contention and a fleet of uploading vehicles queues behind a single
in-flight request.  This module adds the concurrent execution model on
top of the same ``register``/``send`` contract:

* :class:`ThreadedNetwork` — a drop-in fabric that dispatches deliveries
  across a bounded worker pool.  ``send`` blocks for the reply (so every
  existing client works unchanged) while ``send_async`` returns a future,
  letting one caller keep many requests in flight.  Requests overlap
  wherever the work releases the GIL: segment appends and reads, and
  hashing.
* ``ConcurrentViewMapServer`` — an alias of
  :class:`~repro.net.server.ViewMapServer`, whose session log, retention
  pass and control-plane handlers are lock-guarded on every fabric.

Nested deliveries (an onion relay forwarding to the next hop from inside
a handler) run inline on the worker that is already driving the request.
Re-submitting them to the pool could deadlock once every worker is
waiting on an inner hop; one worker therefore drives a request through
its whole relay chain.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

from repro.errors import NetworkError
from repro.net.server import ViewMapServer
from repro.net.transport import Endpoint, Handler
from repro.obs.metrics import MetricsRegistry, stage_timer

#: default worker-pool width — sized for overlapping I/O-bound requests,
#: not CPU parallelism, so it intentionally exceeds typical core counts
DEFAULT_WORKERS = 8


class ThreadedNetwork:
    """Worker-pool message fabric, contract-compatible with the serial one.

    Up to ``workers`` deliveries execute concurrently; excess requests
    queue inside the pool.  The delivery log and endpoint table are
    lock-guarded, so handlers may register/unregister endpoints and
    privacy probes may read the log while traffic is in flight.
    """

    def __init__(
        self,
        workers: int = DEFAULT_WORKERS,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if workers < 1:
            raise NetworkError("a threaded network needs at least one worker")
        self.workers = workers
        #: per-delivery wall time (``net.deliver``) and pool queue-wait
        #: (``net.queue_wait_s``)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: (source, destination, payload_size) triples seen by the fabric
        self.delivery_log: list[tuple[str, str, int]] = []
        self._endpoints: dict[str, Endpoint] = {}
        self._lock = threading.RLock()
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-net"
        )
        self._on_worker = threading.local()
        self._closed = False

    # -- endpoint table ------------------------------------------------------

    def register(self, address: str, handler: Handler) -> Endpoint:
        """Attach a handler at an address."""
        with self._lock:
            if address in self._endpoints:
                raise NetworkError(f"address already registered: {address}")
            endpoint = Endpoint(address=address, handler=handler)
            self._endpoints[address] = endpoint
            return endpoint

    def unregister(self, address: str) -> None:
        """Detach an endpoint."""
        with self._lock:
            self._endpoints.pop(address, None)

    def addresses(self) -> list[str]:
        """All registered addresses."""
        with self._lock:
            return sorted(self._endpoints)

    # -- delivery ------------------------------------------------------------

    def _deliver(self, source: str, destination: str, payload: bytes) -> bytes:
        """Run one delivery on the current thread (worker or caller).

        One delivery is one ``net.deliver`` observation: the handler's
        own wall time.
        """
        with self._lock:
            endpoint = self._endpoints.get(destination)
        if endpoint is None:
            raise NetworkError(f"no endpoint at {destination}")
        with stage_timer(self.metrics, "net.deliver"):
            with self._lock:
                self.delivery_log.append((source, destination, len(payload)))
            return endpoint.handler(payload)

    def _worker_deliver(
        self, source: str, destination: str, payload: bytes, submitted: float
    ) -> bytes:
        """Pool entry point: marks the thread so nested sends run inline.

        ``submitted`` is the ``perf_counter`` stamp taken at submission;
        the gap until this frame runs is the pool queue wait — the
        congestion term an SLO budget must carry once request arrival
        outpaces the worker pool (``net.queue_wait_s``).
        """
        self.metrics.observe("net.queue_wait_s", time.perf_counter() - submitted)
        self._on_worker.active = True
        try:
            return self._deliver(source, destination, payload)
        finally:
            self._on_worker.active = False

    def send(self, source: str, destination: str, payload: bytes) -> bytes:
        """Deliver a request and (block to) return the response.

        From an ordinary thread the delivery is dispatched to the worker
        pool; from inside a worker (a relay forwarding a wrapped onion
        hop) it runs inline to keep the pool deadlock-free.
        """
        if getattr(self._on_worker, "active", False):
            return self._deliver(source, destination, payload)
        return self.send_async(source, destination, payload).result()

    def send_async(self, source: str, destination: str, payload: bytes) -> "Future[bytes]":
        """Dispatch a delivery to the pool and return its future.

        The future yields the handler's bytes response, or raises the
        handler's exception (``NetworkError`` for an unknown address).
        Called from inside a worker the delivery runs inline and a
        completed future is returned — waiting on a nested pool slot
        could starve the pool.
        """
        if self._closed:
            raise NetworkError("network is closed")
        if getattr(self._on_worker, "active", False):
            done: Future[bytes] = Future()
            try:
                done.set_result(self._deliver(source, destination, payload))
            except BaseException as exc:  # propagate through the future
                done.set_exception(exc)
            return done
        return self._pool.submit(
            self._worker_deliver, source, destination, payload, time.perf_counter()
        )

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Drain in-flight deliveries, shut the pool down, drop the endpoints.

        A registered handler is usually a method of the server or relay
        that holds this network; releasing the table breaks that cycle,
        so both are freed by reference counting once the caller drops them.
        """
        self._closed = True
        self._pool.shutdown(wait=True)
        with self._lock:
            self._endpoints.clear()

    def __enter__(self) -> "ThreadedNetwork":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: the one server is safe on every fabric; the name stays importable
#: because the pipeline benchmark and the campaign grid construct it
ConcurrentViewMapServer = ViewMapServer
