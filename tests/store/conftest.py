"""Shared helpers for the VP store backend tests."""

from __future__ import annotations

import itertools
import tempfile

from repro.core.neighbors import NeighborTable
from repro.core.viewdigest import VDGenerator, make_secret
from repro.core.viewprofile import ViewProfile, build_view_profile
from repro.geo.geometry import Point
from repro.obs.metrics import MetricsRegistry
from repro.store import SegmentStore, VPStore, make_store

#: named segment files of ``build_store("sqlite")``, removed at exit
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


def build_store(kind: str, **kwargs) -> VPStore:
    """``make_store(kind, **kwargs)``, the ``sqlite`` kind on fresh named
    segment files: without a path it would be the ``memory`` placement
    again, and a ``memory``/``sqlite`` row pair would test one thing twice."""
    path = fresh_prefix() if kind == "sqlite" else ""
    return make_store(kind, path, **kwargs)


def _reopened(path: str) -> VPStore:
    """A named log opened twice over files that are not its records: a
    sibling prefix's segment and a rewrite that died before its rename."""
    with SegmentStore(f"{path}.old") as sibling:
        sibling.insert(make_vp(seed=9_999))
    with open(f"{path}.00000000.seg.tmp", "wb") as fh:
        fh.write(b"half a rewrite")
    SegmentStore(path).close()
    return SegmentStore(path)


#: every way a caller gets the one log, by row name -> builder(prefix)
PLACEMENTS = {
    "memory": lambda path: make_store("memory"),
    "named": lambda path: make_store("sqlite", path),
    "reopened": _reopened,
    # the instrumentation-off arm of the SLO bench
    "metrics-off": lambda path: SegmentStore(metrics=MetricsRegistry(enabled=False)),
    # the call the pipeline workloads still make: a retired kind name
    # and three placement keywords that are accepted and ignored
    "workload-call": lambda path: make_store(
        "procs", path, n_shards=2, shard_cells=2, ingest_workers=2
    ),
}


def build_placement(name: str) -> VPStore:
    """A fresh store of the named ``PLACEMENTS`` row, on its own prefix."""
    return PLACEMENTS[name](fresh_prefix())
