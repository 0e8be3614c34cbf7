"""Geometry and road-network substrate.

Provides the pieces the paper outsourced to OpenStreetMap, SUMO's road
graph, and the Google Directions API: planar geometry, grid road networks,
shortest-path driving routes, timestamped trajectories, and obstacle maps
with line-of-sight queries.
"""

from repro.util.lazy import lazy_exports

#: public name -> defining submodule, imported on first access (PEP 562):
#: ``repro.geo.geometry`` must not cost ``roadnet``'s networkx import
_EXPORTS = {
    "Point": ".geometry",
    "Rect": ".geometry",
    "distance": ".geometry",
    "segment_intersects_rect": ".geometry",
    "segments_intersect": ".geometry",
    "RoadNetwork": ".roadnet",
    "grid_city": ".roadnet",
    "Router": ".routing",
    "route_polyline": ".routing",
    "Trajectory": ".trajectory",
    "Building": ".obstacles",
    "ObstacleMap": ".obstacles",
    "corridor_los": ".obstacles",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
