"""Discrete rectangle algebra for droplets and zones.

The paper models a droplet as a tuple ``delta = (xa, ya, xb, yb)`` of the
lower-left and upper-right corners of the actuated rectangle (Sec. V-A), with
*inclusive* integer coordinates (the unit is the center distance between two
adjacent microelectrodes).  The same representation is used for goal regions
and hazard bounds, so the rectangle algebra lives in its own module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True, order=True)
class Rect:
    """An axis-aligned rectangle with inclusive integer corners.

    ``Rect(xa, ya, xb, yb)`` covers every microelectrode ``(i, j)`` with
    ``xa <= i <= xb`` and ``ya <= j <= yb``.  Degenerate rectangles with
    ``xb < xa`` or ``yb < ya`` are rejected; the paper's off-chip sentinel
    ``(0, 0, 0, 0)`` is a valid 1x1 rectangle by this definition and is
    handled by the routing-job layer, not here.
    """

    xa: int
    ya: int
    xb: int
    yb: int

    def __post_init__(self) -> None:
        if self.xb < self.xa or self.yb < self.ya:
            raise ValueError(
                f"degenerate rectangle: ({self.xa}, {self.ya}, {self.xb}, {self.yb})"
            )
        # Rects key the strategy dicts hashed ~1M times per lifetime run;
        # cache the value the generated dataclass hash would compute, so
        # set/dict orders (and therefore routes) are unchanged.
        object.__setattr__(
            self, "_hash", hash((self.xa, self.ya, self.xb, self.yb))
        )

    def __hash__(self) -> int:
        return self._hash

    # -- geometry ---------------------------------------------------------

    @property
    def width(self) -> int:
        """Droplet width ``w = xb - xa + 1``."""
        return self.xb - self.xa + 1

    @property
    def height(self) -> int:
        """Droplet height ``h = yb - ya + 1``."""
        return self.yb - self.ya + 1

    @property
    def area(self) -> int:
        """Number of covered microelectrodes ``A = w * h``."""
        return self.width * self.height

    @property
    def aspect_ratio(self) -> float:
        """Aspect ratio ``AR = w / h`` as defined in Sec. V-A."""
        return self.width / self.height

    @property
    def center(self) -> tuple[float, float]:
        """Geometric center ``((xa + xb) / 2, (ya + yb) / 2)``.

        For the paper's examples the center is reported in MC units, e.g. the
        4x4 droplet ``(16, 1, 19, 4)`` has center ``(17.5, 2.5)``.
        """
        return ((self.xa + self.xb) / 2, (self.ya + self.yb) / 2)

    # -- set-like operations ----------------------------------------------

    def cells(self) -> Iterator[tuple[int, int]]:
        """Iterate over every covered cell ``(i, j)`` in row-major order."""
        for i in range(self.xa, self.xb + 1):
            for j in range(self.ya, self.yb + 1):
                yield (i, j)

    def contains_cell(self, i: int, j: int) -> bool:
        """Whether the cell ``(i, j)`` is covered by this rectangle."""
        return self.xa <= i <= self.xb and self.ya <= j <= self.yb

    def contains(self, other: "Rect") -> bool:
        """Whether ``other`` lies entirely inside this rectangle.

        This is the paper's *goal* predicate: a droplet satisfies *goal* when
        its rectangle is contained in the goal rectangle (Sec. VI-C uses
        inequalities rather than equality precisely to allow a larger goal
        region).
        """
        return (
            self.xa <= other.xa
            and self.ya <= other.ya
            and other.xb <= self.xb
            and other.yb <= self.yb
        )

    def overlaps(self, other: "Rect") -> bool:
        """Whether the two rectangles share at least one cell."""
        return (
            self.xa <= other.xb
            and other.xa <= self.xb
            and self.ya <= other.yb
            and other.ya <= self.yb
        )

    def adjacent_or_overlapping(self, other: "Rect") -> bool:
        """Whether the rectangles touch (Chebyshev gap <= 1) or overlap.

        Two droplets whose actuation patterns come within one MC of each
        other will merge under EWOD (each physical droplet bulges about one
        MC past its pattern); the simulator uses this predicate for merge
        detection.  Equivalent to ``self.expanded(1).overlaps(other.expanded(1))``.
        """
        return (
            self.xa - 2 <= other.xb
            and other.xa - 2 <= self.xb
            and self.ya - 2 <= other.yb
            and other.ya - 2 <= self.yb
        )

    def intersection(self, other: "Rect") -> "Rect | None":
        """The common sub-rectangle, or ``None`` when disjoint."""
        if not self.overlaps(other):
            return None
        return Rect(
            max(self.xa, other.xa),
            max(self.ya, other.ya),
            min(self.xb, other.xb),
            min(self.yb, other.yb),
        )

    def union_bbox(self, other: "Rect") -> "Rect":
        """The bounding box of the two rectangles (used when droplets merge)."""
        return Rect(
            min(self.xa, other.xa),
            min(self.ya, other.ya),
            max(self.xb, other.xb),
            max(self.yb, other.yb),
        )

    # -- transforms --------------------------------------------------------

    def translated(self, dx: int, dy: int) -> "Rect":
        """The rectangle shifted by ``(dx, dy)``."""
        return _trusted_rect(
            self.xa + dx, self.ya + dy, self.xb + dx, self.yb + dy
        )

    def expanded(self, margin: int) -> "Rect":
        """The rectangle grown by ``margin`` cells on every side."""
        return Rect(
            self.xa - margin, self.ya - margin, self.xb + margin, self.yb + margin
        )

    def clamped(self, bounds: "Rect") -> "Rect":
        """This rectangle clipped to ``bounds`` (which must overlap it)."""
        clipped = self.intersection(bounds)
        if clipped is None:
            raise ValueError(f"{self} does not overlap clamp bounds {bounds}")
        return clipped

    # -- distances ----------------------------------------------------------

    def manhattan_gap(self, other: "Rect") -> int:
        """Number of empty cells separating the rectangles (Manhattan).

        Zero when the rectangles overlap or their cells are directly
        adjacent; ``adjacent_or_overlapping`` is ``manhattan_gap <= 1`` for
        axis-aligned separation (diagonal separation uses Chebyshev).
        """
        dx = max(self.xa - other.xb - 1, other.xa - self.xb - 1, 0)
        dy = max(self.ya - other.yb - 1, other.ya - self.yb - 1, 0)
        return dx + dy

    def center_manhattan(self, other: "Rect") -> float:
        """Manhattan distance between rectangle centers."""
        (cx0, cy0), (cx1, cy1) = self.center, other.center
        return abs(cx0 - cx1) + abs(cy0 - cy1)

    def as_tuple(self) -> tuple[int, int, int, int]:
        """The plain ``(xa, ya, xb, yb)`` tuple."""
        return (self.xa, self.ya, self.xb, self.yb)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.xa:02d}, {self.ya:02d}, {self.xb:02d}, {self.yb:02d})"


def _trusted_rect(xa: int, ya: int, xb: int, yb: int) -> Rect:
    """A :class:`Rect` from corners the caller already knows are valid.

    Skips the dataclass constructor and its degeneracy check, which hot
    paths (translations, action successors, model state inventories,
    strategy rehydration) would repeat on corners derived from a valid
    rectangle.  The cached hash is the one ``__post_init__`` computes, so
    hashing and equality match a constructed ``Rect`` exactly.
    """
    rect = object.__new__(Rect)
    d = rect.__dict__
    d["xa"], d["ya"], d["xb"], d["yb"] = xa, ya, xb, yb
    d["_hash"] = hash((xa, ya, xb, yb))
    return rect


def manhattan(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Manhattan distance between two cells."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def rect_from_center(
    cx: float, cy: float, width: int, height: int
) -> Rect:
    """Build a ``width x height`` rectangle approximately centered at (cx, cy).

    The center of the returned rectangle is within half an MC of the request
    in each axis; this mirrors how the RJ helper places droplet goal regions
    from an MO's center location (Example 5 / Table IV).
    """
    xa = round(cx - (width - 1) / 2)
    ya = round(cy - (height - 1) / 2)
    return Rect(xa, ya, xa + width - 1, ya + height - 1)
