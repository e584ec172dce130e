"""Cell model for mixed-cell-height designs.

A :class:`Cell` records both its **global placement** position (the
optimiser output that legalization must preserve as closely as possible)
and its **current** position (updated by pre-move, insertion and cell
shifting).  Displacement metrics are always measured against the global
placement position, following the MGL convention of accumulating
displacement from the original location rather than from the most recent
one (paper Section 6, Related Works).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple


@dataclass
class Cell:
    """A standard cell (or fixed blockage) in a row-based layout.

    Attributes
    ----------
    index:
        Integer identifier, unique within a :class:`~repro.geometry.Layout`.
    name:
        Human-readable name (``c123`` by default).
    width:
        Width in placement sites (positive integer for standard cells;
        fixed blockages may have arbitrary positive width).
    height:
        Height in row units (1 for single-row cells, >= 2 for multi-row
        "multi-deck" cells).
    gp_x, gp_y:
        Global placement coordinates of the bottom-left corner, in site /
        row units.  These never change during legalization.
    x, y:
        Current coordinates of the bottom-left corner.  ``y`` is a row
        index once the cell has been pre-moved / legalized.  When omitted
        (``None``) the cell starts at its global placement position;
        an explicit value — including ``0.0`` — is kept exactly, so
        copies and deserialized cells sitting at the origin survive.
    fixed:
        True for blockages and macros that legalization must not move.
    legalized:
        True once the cell has been assigned its final legal position.
    """

    index: int
    width: float
    height: int
    gp_x: float
    gp_y: float
    x: Optional[float] = None
    y: Optional[float] = None
    fixed: bool = False
    legalized: bool = False
    name: str = field(default="")

    def __post_init__(self) -> None:
        if self.width < 0 or (self.width == 0 and not self.fixed):
            # Fixed markers (zero-footprint blockage pins) may have zero
            # width; movable cells must occupy at least part of a site.
            raise ValueError(f"cell {self.index}: width must be positive, got {self.width}")
        if self.height < 1 or int(self.height) != self.height:
            raise ValueError(f"cell {self.index}: height must be a positive integer, got {self.height}")
        self.height = int(self.height)
        if not self.name:
            self.name = f"c{self.index}"
        # A cell starts at its global placement location unless an
        # explicit position was given.  (An explicit (0, 0) is a real
        # position — the old "(0, 0) means unset" heuristic corrupted
        # copies of cells legalized at the chip origin.)
        self.x = self.gp_x if self.x is None else float(self.x)
        self.y = self.gp_y if self.y is None else float(self.y)

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    @property
    def right(self) -> float:
        """Current right edge (x + width)."""
        return self.x + self.width

    @property
    def top(self) -> float:
        """Current top edge in row units (y + height)."""
        return self.y + self.height

    @property
    def area(self) -> float:
        """Cell area in site*row units."""
        return self.width * self.height

    @property
    def row_span(self) -> Tuple[int, int]:
        """Rows currently covered, as ``(bottom_row, top_row_exclusive)``.

        Only meaningful after the cell has been snapped to a row grid.
        """
        bottom = int(round(self.y))
        return bottom, bottom + self.height

    def rows_covered(self) -> range:
        """Iterate over the row indexes currently covered by the cell."""
        bottom, top = self.row_span
        return range(bottom, top)

    def overlaps(self, other: "Cell") -> bool:
        """Axis-aligned rectangle overlap test on current positions."""
        return (
            self.x < other.x + other.width
            and other.x < self.x + self.width
            and self.y < other.y + other.height
            and other.y < self.y + self.height
        )

    def overlap_area(self, other: "Cell") -> float:
        """Area of the overlap rectangle between two cells (0 if disjoint)."""
        dx = min(self.right, other.right) - max(self.x, other.x)
        dy = min(self.top, other.top) - max(self.y, other.y)
        if dx <= 0 or dy <= 0:
            return 0.0
        return dx * dy

    # ------------------------------------------------------------------
    # Displacement
    # ------------------------------------------------------------------
    def displacement(self, row_height: float = 1.0, site_width: float = 1.0) -> float:
        """Manhattan displacement from the global placement position (Eq. 1).

        ``row_height`` and ``site_width`` convert the internal row/site
        units into a common physical unit; with the default unit grid the
        displacement is simply ``|dx| + |dy|`` in site/row units.
        """
        return abs(self.x - self.gp_x) * site_width + abs(self.y - self.gp_y) * row_height

    # ------------------------------------------------------------------
    # Mutation helpers
    # ------------------------------------------------------------------
    def move_to(self, x: float, y: float) -> None:
        """Move the cell's bottom-left corner to ``(x, y)``.

        Raises
        ------
        ValueError
            If the cell is fixed.
        """
        if self.fixed:
            raise ValueError(f"cell {self.name} is fixed and cannot be moved")
        self.x = float(x)
        self.y = float(y)

    def copy(self) -> "Cell":
        """Return an independent copy of the cell."""
        return Cell(
            index=self.index,
            width=self.width,
            height=self.height,
            gp_x=self.gp_x,
            gp_y=self.gp_y,
            x=self.x,
            y=self.y,
            fixed=self.fixed,
            legalized=self.legalized,
            name=self.name,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = "F" if self.fixed else ("L" if self.legalized else "U")
        return (
            f"Cell({self.name}, w={self.width:g}, h={self.height}, "
            f"at=({self.x:g},{self.y:g}), gp=({self.gp_x:g},{self.gp_y:g}), {tag})"
        )
