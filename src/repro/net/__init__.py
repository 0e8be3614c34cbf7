"""Anonymous networking substrate: the Tor stand-in and the service API.

ViewMap requires sender anonymity and unlinkable sessions for VP uploads
(Section 5.1.2: "We use Tor for this purpose... users constantly change
sessions with the system").  This package provides:

* :mod:`repro.net.transport` — an in-memory request/response network;
* :mod:`repro.net.concurrency` — the worker-pool fabric
  (:class:`ThreadedNetwork`) for many vehicles talking at once;
* :mod:`repro.net.onion` — layered-encryption onion circuits over either
  transport, with per-request circuit and session rotation;
* :mod:`repro.net.messages` — the wire formats for VP upload,
  solicitation polling, video upload and reward claims (catalogued in
  ``docs/protocol.md#message-kinds``);
* :mod:`repro.net.server` / :mod:`repro.net.client` — the system service
  endpoint and the vehicle-side client.
"""

from repro.net.transport import InMemoryNetwork, Endpoint
from repro.net.concurrency import ThreadedNetwork
from repro.net.onion import OnionNetwork, OnionCircuit, Relay
from repro.net.messages import encode_message, decode_message
from repro.net.server import ViewMapServer
from repro.net.client import VehicleClient

__all__ = [
    "InMemoryNetwork",
    "ThreadedNetwork",
    "Endpoint",
    "OnionNetwork",
    "OnionCircuit",
    "Relay",
    "encode_message",
    "decode_message",
    "ViewMapServer",
    "VehicleClient",
]
