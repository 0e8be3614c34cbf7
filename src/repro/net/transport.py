"""An in-memory request/response network.

Endpoints register a handler under an address; ``send`` delivers a bytes
payload and returns the handler's bytes response.  The network keeps a
delivery log (addresses and sizes only — like a backbone observer) that
privacy tests use to check what an eavesdropper could see.

Delivery costs nothing but the handler's own time.  The worker-pool
fabric, :class:`repro.net.concurrency.ThreadedNetwork`, shares this
``register``/``send``/``close`` contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import NetworkError

Handler = Callable[[bytes], bytes]


@dataclass
class Endpoint:
    """One addressable service on the network."""

    address: str
    handler: Handler


@dataclass
class InMemoryNetwork:
    """Synchronous message fabric connecting endpoints by address.

    Delivery is strictly serial: ``send`` invokes the destination handler
    inline on the caller's thread, so at most one request is in flight at
    any time.  This is the default fabric — deterministic, and the one
    the privacy/unlinkability tests reason about.
    """

    _endpoints: dict[str, Endpoint] = field(default_factory=dict)
    #: (source, destination, payload_size) triples seen by the fabric
    delivery_log: list[tuple[str, str, int]] = field(default_factory=list)

    def register(self, address: str, handler: Handler) -> Endpoint:
        """Attach a handler at an address."""
        if address in self._endpoints:
            raise NetworkError(f"address already registered: {address}")
        endpoint = Endpoint(address=address, handler=handler)
        self._endpoints[address] = endpoint
        return endpoint

    def unregister(self, address: str) -> None:
        """Detach an endpoint."""
        self._endpoints.pop(address, None)

    def addresses(self) -> list[str]:
        """All registered addresses."""
        return sorted(self._endpoints)

    def send(self, source: str, destination: str, payload: bytes) -> bytes:
        """Deliver a request and return the response."""
        endpoint = self._endpoints.get(destination)
        if endpoint is None:
            raise NetworkError(f"no endpoint at {destination}")
        self.delivery_log.append((source, destination, len(payload)))
        return endpoint.handler(payload)

    def close(self) -> None:
        """Drop the endpoint table.

        A registered handler is usually a method of the server or relay
        that holds this network; releasing the table breaks that cycle,
        so both are freed by reference counting once the caller drops them.
        """
        self._endpoints.clear()

    def __enter__(self) -> "InMemoryNetwork":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
