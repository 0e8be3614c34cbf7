"""Driving-route computation between two points on a road network.

Stands in for the Google Directions API the paper used for guard-VP
trajectories (Section 5.1.2): "There are readily available on/offline
tools that instantly return a driving route between two points on a road
map."  We answer the same query with Dijkstra over the road graph and
return a metre-accurate polyline that the guard-VP factory samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import RoutingError
from repro.geo.geometry import Point, distance

if TYPE_CHECKING:  # the polyline helpers below must not cost roadnet's networkx
    from repro.geo.roadnet import NodeId, RoadNetwork


@dataclass
class Router:
    """Shortest-path router over a :class:`RoadNetwork`."""

    network: RoadNetwork

    def route_nodes(self, origin: NodeId, destination: NodeId) -> list[NodeId]:
        """Return the node sequence of the shortest path."""
        import networkx as nx

        try:
            return nx.shortest_path(
                self.network.graph, origin, destination, weight="length"
            )
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise RoutingError(f"no route from {origin} to {destination}") from exc

    def route_points(self, start: Point, end: Point) -> list[Point]:
        """Route between arbitrary points by snapping to nearest nodes.

        The returned polyline starts exactly at ``start`` and ends exactly
        at ``end`` (with the on-network path in between), because a guard
        VP's trajectory must begin at the neighbour's logged position and
        finish at the creator's own position.
        """
        origin = self.network.nearest_node(start)
        destination = self.network.nearest_node(end)
        nodes = self.route_nodes(origin, destination)
        polyline = [start]
        for node in nodes:
            p = self.network.position(node)
            if polyline[-1].distance_to(p) > 1e-9:
                polyline.append(p)
        if polyline[-1].distance_to(end) > 1e-9:
            polyline.append(end)
        return polyline

    def route_length(self, polyline: list[Point]) -> float:
        """Total length of a polyline in metres."""
        return sum(
            polyline[i].distance_to(polyline[i + 1]) for i in range(len(polyline) - 1)
        )


def route_polyline(
    polyline: list[Point], fractions: list[float]
) -> list[Point]:
    """Sample a polyline at arc-length fractions in [0, 1].

    Used to place guard-VP view digests "variably spaced (within the
    predefined margin) along the given routes" — callers pass slightly
    jittered fractions to avoid perfectly regular, recognisable spacing.
    """
    if not polyline:
        raise RoutingError("cannot sample an empty polyline")
    if len(polyline) == 1:
        return [polyline[0] for _ in fractions]
    seg_lengths = [
        polyline[i].distance_to(polyline[i + 1]) for i in range(len(polyline) - 1)
    ]
    total = sum(seg_lengths)
    if total == 0:
        return [polyline[0] for _ in fractions]
    samples = []
    for frac in fractions:
        target = min(max(frac, 0.0), 1.0) * total
        acc = 0.0
        for i, seg in enumerate(seg_lengths):
            if acc + seg >= target or i == len(seg_lengths) - 1:
                local = 0.0 if seg == 0 else (target - acc) / seg
                a, b = polyline[i], polyline[i + 1]
                samples.append(
                    Point(a.x + local * (b.x - a.x), a.y + local * (b.y - a.y))
                )
                break
            acc += seg
    return samples


def polyline_point_at(polyline: list[Point], fraction: float) -> Point:
    """Convenience: a single arc-length sample of a polyline."""
    return route_polyline(polyline, [fraction])[0]


def polyline_length(polyline: list[Point]) -> float:
    """Total arc length of a polyline."""
    return sum(distance(polyline[i], polyline[i + 1]) for i in range(len(polyline) - 1))


def make_grid_route_fn(block_m: float):
    """Fast Directions-API stand-in specialised to Manhattan grids.

    Returns a route function producing an L-shaped street path between two
    points: travel along the start point's street to the corner nearest
    the destination, then along the perpendicular street.  Avoids running
    Dijkstra per guard VP in 1000-vehicle simulations; the resulting path
    is exactly what a road router would return on a grid.
    """

    def snap(coord: float) -> float:
        return round(coord / block_m) * block_m

    def grid_route(start: Point, end: Point) -> list[Point]:
        # Corner choice: follow the street the start point is on.  On a
        # grid every point lies on (or near) a horizontal or vertical
        # street; pick the corner that keeps both legs on streets.
        on_vertical = abs(start.x - snap(start.x)) <= abs(start.y - snap(start.y))
        if on_vertical:
            corner = Point(snap(start.x), snap(end.y))
        else:
            corner = Point(snap(end.x), snap(start.y))
        polyline = [start]
        if corner.distance_to(start) > 1e-9 and corner.distance_to(end) > 1e-9:
            polyline.append(corner)
        polyline.append(end)
        return polyline

    return grid_route
