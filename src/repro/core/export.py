"""Viewmap export: serialized structure and terminal rendering (Fig. 21).

The paper depicts traffic-derived viewmaps as city-shaped meshes.  This
module provides the equivalents a library user needs: a JSON export with
node positions and viewlinks (ready for any plotting tool) and an ASCII
density rendering for terminals and logs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.viewmap import ViewMapGraph


def viewmap_to_dict(vmap: ViewMapGraph) -> dict:
    """Serialize a viewmap: nodes with positions/kind, edges as id pairs."""
    nodes = []
    for row, vp_id in enumerate(vmap.members.ids):
        vp = vmap.members.profile(row)
        start = vp.start_point
        end = vp.end_point
        nodes.append(
            {
                "id": vp_id.hex(),
                "start": [start.x, start.y],
                "end": [end.x, end.y],
                "trusted": bool(vp.trusted),
                "degree": vmap.graph.degree(vp_id),
            }
        )
    edges = [[a.hex(), b.hex()] for a, b in vmap.graph.edges]
    return {
        "minute": vmap.minute,
        "nodes": nodes,
        "edges": edges,
        "stats": vmap.degree_stats(),
    }


def save_viewmap(vmap: ViewMapGraph, path: str | Path) -> None:
    """Write the JSON export to disk."""
    Path(path).write_text(json.dumps(viewmap_to_dict(vmap), indent=1))


def render_ascii(vmap: ViewMapGraph, width: int = 72, height: int = 24) -> str:
    """Render VP density as an ASCII heat map (the Fig. 21 look).

    Each cell counts VPs whose minute-midpoint falls inside it; darker
    glyphs mean more VPs.  Edges are not drawn — on a road grid the node
    density already traces the street pattern the paper's figure shows.
    """
    if not vmap.node_count:
        return "(empty viewmap)"
    vps = map(vmap.members.profile, range(vmap.node_count))
    mids = np.array(
        [vp.trajectory.at((vp.start_time + vp.end_time) / 2).to_tuple() for vp in vps]
    )
    x_min, y_min = mids.min(axis=0)
    x_max, y_max = mids.max(axis=0)
    x_span = max(x_max - x_min, 1e-9)
    y_span = max(y_max - y_min, 1e-9)
    grid = np.zeros((height, width), dtype=np.int64)
    for x, y in mids:
        col = min(int((x - x_min) / x_span * (width - 1)), width - 1)
        row = min(int((y - y_min) / y_span * (height - 1)), height - 1)
        grid[height - 1 - row, col] += 1
    glyphs = " .:+*#@"
    top = max(grid.max(), 1)
    lines = []
    for row in grid:
        lines.append(
            "".join(
                glyphs[min(int(v / top * (len(glyphs) - 1) + (v > 0)), len(glyphs) - 1)]
                for v in row
            )
        )
    return "\n".join(lines)
