"""Miniature onion routing: layered encryption with per-request circuits.

Every relay holds a symmetric key (established out-of-band, standing in
for Tor's circuit handshake).  A client builds a circuit of ``hops``
relays and wraps its payload in one encryption layer per relay; each
relay strips its layer, learns only the next hop, and forwards.  Replies
travel back through the circuit gaining one layer per relay, which the
client unwinds.

Encryption is a SHA-256 keystream XOR (CTR construction) — not meant to
resist cryptanalysis beyond this simulation, but structurally faithful:
no relay or backbone observer sees both the sender address and the
plaintext, and the exit presents a fresh random session id per circuit so
the server cannot link uploads into user sessions.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from repro.errors import NetworkError
from repro.net.transport import InMemoryNetwork
from repro.util.rng import make_rng

_LEN_BYTES = 4


def _keystream_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """XOR ``data`` with a SHA-256 keystream derived from (key, nonce)."""
    n = len(data)
    prefix = key + nonce
    stream = b"".join(
        hashlib.sha256(prefix + counter.to_bytes(8, "big")).digest()
        for counter in range(-(-n // 32))
    )
    # XOR the layer as two big integers: one pass in C, not one per byte
    mixed = int.from_bytes(data, "big") ^ int.from_bytes(stream[:n], "big")
    return mixed.to_bytes(n, "big")


def _frame(*parts: bytes) -> bytes:
    """Length-prefix and concatenate byte strings."""
    out = bytearray()
    for part in parts:
        out += len(part).to_bytes(_LEN_BYTES, "big")
        out += part
    return bytes(out)


def _unframe(data: bytes, count: int) -> list[bytes]:
    """Parse ``count`` length-prefixed byte strings."""
    parts = []
    offset = 0
    for _ in range(count):
        if offset + _LEN_BYTES > len(data):
            raise NetworkError("truncated onion frame")
        n = int.from_bytes(data[offset : offset + _LEN_BYTES], "big")
        offset += _LEN_BYTES
        if offset + n > len(data):
            raise NetworkError("truncated onion frame body")
        parts.append(data[offset : offset + n])
        offset += n
    return parts


@dataclass
class Relay:
    """One onion relay: strips a layer, forwards, re-wraps the reply."""

    address: str
    key: bytes
    network: InMemoryNetwork

    def __post_init__(self) -> None:
        self.network.register(self.address, self._handle)

    def _handle(self, payload: bytes) -> bytes:
        nonce, body = _unframe(payload, 2)
        plain = _keystream_xor(self.key, nonce, body)
        next_hop_raw, inner = _unframe(plain, 2)
        next_hop = next_hop_raw.decode()
        reply = self.network.send(self.address, next_hop, inner)
        # wrap the reply in this relay's layer on the way back
        return _keystream_xor(self.key, nonce, reply)


@dataclass
class OnionCircuit:
    """A client-built circuit through an ordered list of relays."""

    relays: list[Relay]
    nonce: bytes
    session_id: str

    def wrap(self, destination: str, payload: bytes) -> bytes:
        """Apply one encryption layer per relay, innermost = destination."""
        inner = payload
        hop_after: list[str] = [r.address for r in self.relays[1:]] + [destination]
        for relay, next_hop in zip(reversed(self.relays), reversed(hop_after)):
            body = _frame(next_hop.encode(), inner)
            inner = _frame(self.nonce, _keystream_xor(relay.key, self.nonce, body))
        return inner

    def unwrap_reply(self, reply: bytes) -> bytes:
        """Strip the layers the relays added to the response."""
        out = reply
        for relay in self.relays:
            out = _keystream_xor(relay.key, self.nonce, out)
        return out


@dataclass
class OnionNetwork:
    """A pool of relays plus circuit construction and anonymous send."""

    network: InMemoryNetwork
    n_relays: int = 6
    hops: int = 3
    seed: int = 0
    relays: list[Relay] = field(init=False)
    _rng: random.Random = field(init=False)

    def __post_init__(self) -> None:
        if self.hops > self.n_relays:
            raise NetworkError("circuit length exceeds relay pool")
        self._rng = make_rng(self.seed)
        self.relays = [
            Relay(
                address=f"relay-{i}",
                key=self._rng.getrandbits(256).to_bytes(32, "big"),
                network=self.network,
            )
            for i in range(self.n_relays)
        ]

    def build_circuit(self) -> OnionCircuit:
        """Pick a fresh relay path, nonce and session id."""
        path = self._rng.sample(self.relays, self.hops)
        nonce = self._rng.getrandbits(128).to_bytes(16, "big")
        session_id = self._rng.getrandbits(64).to_bytes(8, "big").hex()
        return OnionCircuit(relays=path, nonce=nonce, session_id=session_id)

    def anonymous_send(
        self, destination: str, payload: bytes, circuit: OnionCircuit | None = None
    ) -> bytes:
        """Send through a (fresh by default) circuit; returns the reply.

        The entry relay sees only the client; the exit relay sees only the
        destination; the destination sees the exit relay's address as the
        source.  Each call with ``circuit=None`` rotates the session.
        """
        circuit = circuit or self.build_circuit()
        wrapped = circuit.wrap(destination, payload)
        reply = self.network.send("client", circuit.relays[0].address, wrapped)
        return circuit.unwrap_reply(reply)
