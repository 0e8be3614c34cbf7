"""Shared fixtures: linked vehicle minutes, small road grids, key pairs."""

from __future__ import annotations

import pytest

from repro.core.vehicle import VehicleAgent
from repro.core.viewdigest import ViewDigest
from repro.crypto.rsa import RSAKeyPair
from repro.geo.geometry import Point
from repro.geo.roadnet import grid_city


def run_linked_minute(
    agent_a: VehicleAgent,
    agent_b: VehicleAgent,
    minute: int = 0,
    lateral_gap: float = 50.0,
    deliver: bool = True,
):
    """Drive two agents through one minute with mutual VD reception."""
    base = minute * 60
    for i in range(60):
        t = base + i + 1.0
        pa = Point(10.0 * i, 0.0)
        pb = Point(10.0 * i, lateral_gap)
        vda = agent_a.emit(t, pa, minute=minute)
        vdb = agent_b.emit(t, pb, minute=minute)
        if deliver:
            agent_b.receive(vda, t, pb)
            agent_a.receive(vdb, t, pa)
    return agent_a.finalize_minute(), agent_b.finalize_minute()


@pytest.fixture
def unpack_calls(monkeypatch):
    """Counts the ``ViewDigest`` objects made while the test runs: one
    entry per ``ViewDigest.unpack`` call and one per construction."""
    calls = []
    real_unpack = ViewDigest.unpack.__func__
    real_init = ViewDigest.__init__

    def counting_unpack(cls, data):
        calls.append(1)
        return real_unpack(cls, data)

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(ViewDigest, "unpack", classmethod(counting_unpack))
    monkeypatch.setattr(ViewDigest, "__init__", counting_init)
    return calls


@pytest.fixture
def linked_pair():
    """Two agents that completed one mutually-linked minute."""
    a = VehicleAgent(vehicle_id=1, seed=11)
    b = VehicleAgent(vehicle_id=2, seed=22)
    res_a, res_b = run_linked_minute(a, b)
    return a, b, res_a, res_b


@pytest.fixture
def unlinked_pair():
    """Two agents that recorded simultaneously but never heard each other."""
    a = VehicleAgent(vehicle_id=3, seed=33)
    b = VehicleAgent(vehicle_id=4, seed=44)
    res_a, res_b = run_linked_minute(a, b, deliver=False)
    return a, b, res_a, res_b


@pytest.fixture
def small_grid():
    """A 1 km x 1 km Manhattan grid with 200 m blocks."""
    return grid_city(1000.0, 1000.0, block_m=200.0)


@pytest.fixture(scope="session")
def rsa_keypair():
    """A session-cached 512-bit RSA key pair (tests only)."""
    return RSAKeyPair.generate(bits=512, rng=42)
