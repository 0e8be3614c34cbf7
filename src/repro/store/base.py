"""What the store shares with its callers: occupancy stats and the exact
geometry tests a read's selection is defined by.

The store itself is one class, :class:`~repro.store.segments.SegmentStore`;
its contract is stated there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.viewprofile import ViewProfile
from repro.geo.geometry import Point, Rect


@dataclass(frozen=True)
class StoreStats:
    """Aggregate health/occupancy numbers reported by the store.

    ``backend`` names the engine (``"segments"``); ``vps``/``trusted``/
    ``minutes`` count stored VPs, trusted VPs and distinct minute
    indices.  ``detail`` carries the log's path and metric registry.
    """

    backend: str
    vps: int
    trusted: int
    minutes: int
    detail: dict[str, Any] = field(default_factory=dict)


def vp_claims_in_area(vp: ViewProfile, area: Rect) -> bool:
    """Exact membership test: does the VP claim any position in ``area``?"""
    pos = vp.positions_array
    inside = (
        (pos[:, 0] >= area.x_min)
        & (pos[:, 0] <= area.x_max)
        & (pos[:, 1] >= area.y_min)
        & (pos[:, 1] <= area.y_max)
    )
    return bool(inside.any())


def min_squared_distance(vp: ViewProfile, site: Point) -> float:
    """Squared distance from ``site`` to the VP's nearest claimed position."""
    pos = vp.positions_array
    dx = pos[:, 0] - site.x
    dy = pos[:, 1] - site.y
    return float(np.min(dx * dx + dy * dy))
