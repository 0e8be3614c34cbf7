"""Uniform spatial grid index over the claimed positions of one minute.

The area query is the investigation hot path: the authority spans a
coverage area over the incident site and trusted seeds, then asks for
every VP of the minute claiming a position inside it.  A linear scan
touches all VPs of the minute; at city scale (tens of thousands of VPs
per minute) that dominates investigation latency.

The grid hashes every claimed position into a square cell keyed by
``(floor(x / cell_m), floor(y / cell_m))``.  An area query only visits
the cells overlapped by the query rectangle (or, for a rectangle wider
than the index, the occupied cells inside it), gathers candidate VPs, and
exact-checks each one — so results are *identical* to the linear scan
(including insertion order) while work scales with the query area
instead of the minute population.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.core.viewprofile import ViewProfile
from repro.geo.geometry import Rect
from repro.store.base import vp_claims_in_area
from repro.store.serving import occupied_cells_in

#: default cell edge — on the order of the DSRC radio range, so typical
#: site queries (a few hundred metres) touch a handful of cells
DEFAULT_CELL_M = 250.0


@dataclass
class SpatialGrid:
    """Cell index of one minute's VPs (insertion-order preserving)."""

    cell_m: float = DEFAULT_CELL_M
    #: cell -> list of (sequence number, vp) in insertion order
    _cells: dict[tuple[int, int], list[tuple[int, ViewProfile]]] = field(
        default_factory=lambda: defaultdict(list)
    )
    _next_seq: int = 0

    def _cell_of(self, x: float, y: float) -> tuple[int, int]:
        return (int(x // self.cell_m), int(y // self.cell_m))

    def insert(self, vp: ViewProfile) -> None:
        """Index one VP under every cell its trajectory touches."""
        seq = self._next_seq
        self._next_seq += 1
        pos = vp.positions_array
        cells = {self._cell_of(float(x), float(y)) for x, y in pos}
        for cell in cells:
            self._cells[cell].append((seq, vp))

    def candidates(self, area: Rect) -> list[ViewProfile]:
        """VPs with at least one position hashed into an overlapped cell."""
        found: list[tuple[int, ViewProfile]] = []
        seen: set[int] = set()
        for cell in occupied_cells_in(self._cells, area, self.cell_m):
            for seq, vp in self._cells[cell]:
                if seq not in seen:
                    seen.add(seq)
                    found.append((seq, vp))
        found.sort(key=lambda pair: pair[0])
        return [vp for _, vp in found]

    def in_area(self, area: Rect) -> list[ViewProfile]:
        """Exact area selection: candidates filtered by per-point membership.

        Named for the axis it implements (``QuerySpec.area``) — across
        the store layer ``query`` is reserved for the unified
        ``VPStore.query(QuerySpec)`` entry point.
        """
        return [vp for vp in self.candidates(area) if vp_claims_in_area(vp, area)]

    @property
    def n_cells(self) -> int:
        """How many non-empty cells the index currently holds."""
        return len(self._cells)
