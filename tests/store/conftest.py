"""Shared helpers for the VP store tests."""

from __future__ import annotations

import itertools
import tempfile

from repro.core.neighbors import NeighborTable
from repro.core.viewdigest import VDGenerator, make_secret
from repro.core.viewprofile import ViewProfile, build_view_profile
from repro.geo.geometry import Point
from repro.obs.metrics import MetricsRegistry
from repro.store import SegmentStore, make_store
from repro.store.codec import encode_vp_batch

#: named segment files of ``build_store("named")``, removed at exit
_SCRATCH = tempfile.TemporaryDirectory(prefix="repro-store-tests-")
_PREFIXES = itertools.count()


def make_vp(
    seed: int = 1,
    n: int = 4,
    minute: int = 0,
    x0: float = 0.0,
    y0: float = 0.0,
    step: float = 10.0,
) -> ViewProfile:
    """A small deterministic VP at a chosen minute and location."""
    gen = VDGenerator(make_secret(seed))
    base = minute * 60.0
    for i in range(n):
        gen.tick(base + i + 1, Point(x0 + step * i, y0), b"chunk")
    return build_view_profile(gen.digests, NeighborTable())


def insert_vp(store: SegmentStore, vp: ViewProfile) -> None:
    """Write one VP as a one-record frame, strictly: a duplicate id
    raises ``ValidationError`` and lands nothing."""
    store.insert_encoded(encode_vp_batch([vp]), strict=True)


def insert_trusted_vp(store: SegmentStore, vp: ViewProfile) -> None:
    """Write one VP as a trusted one-record frame, strictly; the object
    is flagged trusted once the write has returned, as the authority
    path (``ViewMapSystem.ingest_trusted_vp``) flags it."""
    store.insert_encoded(encode_vp_batch([vp], trusted=True), strict=True)
    vp.trusted = True


def insert_vps(store: SegmentStore, vps: list[ViewProfile]) -> int:
    """Write VPs as one frame, duplicates skipped; returns how many landed."""
    return store.insert_encoded(encode_vp_batch(list(vps)))


def fingerprint(vp: ViewProfile) -> tuple:
    """Content identity of a VP, independent of object identity."""
    return (
        vp.vp_id,
        tuple(vd.pack() for vd in vp.digests),
        vp.bloom.to_bytes(),
        vp.bloom.k,
        vp.trusted,
    )


def fingerprints(vps: list[ViewProfile]) -> list[tuple]:
    """Ordered content identities of a VP list."""
    return [fingerprint(vp) for vp in vps]


def fresh_prefix() -> str:
    """A segment-file prefix no other store in this run uses."""
    return f"{_SCRATCH.name}/log{next(_PREFIXES)}"


#: the log's two placements: unlinked anonymous segments, or named files
STORE_PLACEMENTS = ("anonymous", "named")


def build_store(placement: str) -> SegmentStore:
    """A fresh log in one of ``STORE_PLACEMENTS``; a named one gets a
    prefix no other store in this run uses."""
    return SegmentStore(fresh_prefix() if placement == "named" else "")


def _reopened(path: str) -> SegmentStore:
    """A named log opened twice over files that are not its records: a
    sibling prefix's segment and a rewrite that died before its rename."""
    with SegmentStore(f"{path}.old") as sibling:
        insert_vp(sibling, make_vp(seed=9_999))
    with open(f"{path}.00000000.seg.tmp", "wb") as fh:
        fh.write(b"half a rewrite")
    SegmentStore(path).close()
    return SegmentStore(path)


#: every way a caller gets the one log, by row name -> builder(prefix)
PLACEMENTS = {
    "anonymous": lambda path: SegmentStore(),
    "named": SegmentStore,
    "reopened": _reopened,
    # the store with its registry disabled
    "metrics-off": lambda path: SegmentStore(metrics=MetricsRegistry(enabled=False)),
    # the call the pipeline workloads still make: a retired kind name
    # and three placement keywords that are accepted and ignored
    "workload-call": lambda path: make_store(
        "procs", path, n_shards=2, shard_cells=2, ingest_workers=2
    ),
}


def build_placement(name: str) -> SegmentStore:
    """A fresh store of the named ``PLACEMENTS`` row, on its own prefix."""
    return PLACEMENTS[name](fresh_prefix())
