"""Deterministic chord-diagram SVG rendering.

Each panel draws the universe as n labeled points on a circle, point 1 at
the top and labels increasing clockwise.  A two-element part becomes a
chord; a larger part becomes its filled convex hull (the points lie on a
circle, so index order is hull order); singletons stay bare dots.  Chains
render one panel per member, left to right in chain order; spanning trees
render their edges as chords.  Output depends only on the input object:
coordinates are fixed-point strings and nothing (ids, timestamps) varies
between runs.
"""

from __future__ import annotations

import math

from ncpverify.apartments import NCSpanningTree
from ncpverify.chains import Chain
from ncpverify.core import Partition, elements_of

__all__ = ["render_svg", "render_to_file"]

_PANEL = 240
_RADIUS = 86.0
_LABEL_RADIUS = 103.0
_CAPTION_HEIGHT = 26

_HULL_FILL = "#7f9fd1"
_EDGE_STROKE = "#2d4f8f"
_CIRCLE_STROKE = "#b0b0b0"
_POINT_FILL = "#1a1a1a"


def _coord(value: float) -> str:
    # Round before formatting so -0.001 prints as 0.00, not -0.00.
    rounded = round(value, 2) + 0.0
    return f"{rounded:.2f}"


def _point(n: int, i: int, radius: float, cx: float, cy: float) -> tuple[float, float]:
    angle = math.pi / 2 - 2 * math.pi * (i - 1) / n
    return cx + radius * math.cos(angle), cy - radius * math.sin(angle)


def _panel(n: int, part_masks: list[int], offset_x: float, caption: str) -> list[str]:
    cx = offset_x + _PANEL / 2
    cy = _PANEL / 2
    out = [
        f'<circle cx="{_coord(cx)}" cy="{_coord(cy)}" r="{_coord(_RADIUS)}"'
        f' fill="none" stroke="{_CIRCLE_STROKE}" stroke-width="1"/>'
    ]
    for mask in part_masks:
        members = elements_of(mask)
        points = [_point(n, i, _RADIUS, cx, cy) for i in members]
        if len(members) == 2:
            (x1, y1), (x2, y2) = points
            out.append(
                f'<line x1="{_coord(x1)}" y1="{_coord(y1)}" x2="{_coord(x2)}"'
                f' y2="{_coord(y2)}" stroke="{_EDGE_STROKE}" stroke-width="2"/>'
            )
        elif len(members) >= 3:
            path = " ".join(f"{_coord(x)},{_coord(y)}" for x, y in points)
            out.append(
                f'<polygon points="{path}" fill="{_HULL_FILL}" fill-opacity="0.45"'
                f' stroke="{_EDGE_STROKE}" stroke-width="1.5"/>'
            )
    for i in range(1, n + 1):
        x, y = _point(n, i, _RADIUS, cx, cy)
        out.append(
            f'<circle cx="{_coord(x)}" cy="{_coord(y)}" r="3"'
            f' fill="{_POINT_FILL}"/>'
        )
        lx, ly = _point(n, i, _LABEL_RADIUS, cx, cy)
        out.append(
            f'<text x="{_coord(lx)}" y="{_coord(ly + 4)}" font-family="sans-serif"'
            f' font-size="12" text-anchor="middle">{i}</text>'
        )
    if caption:
        out.append(
            f'<text x="{_coord(cx)}" y="{_coord(_PANEL + 14)}"'
            f' font-family="monospace" font-size="12"'
            f' text-anchor="middle">{caption}</text>'
        )
    return out


def render_svg(obj: Partition | Chain | NCSpanningTree) -> str:
    """Render a partition, a chain, or a non-crossing spanning tree."""
    if isinstance(obj, Partition):
        panels = [(obj.n, list(obj.parts), obj.text())]
    elif isinstance(obj, Chain):
        panels = [
            (member.n, list(member.parts), member.text())
            for member in obj.members
        ]
    elif isinstance(obj, NCSpanningTree):
        # each edge is drawn as the chord of a two-element part
        panels = [(obj.n, [1 << a - 1 | 1 << b - 1 for a, b in obj.edges], obj.text())]
    else:
        raise TypeError(f"cannot render {type(obj).__name__}")

    width = _PANEL * len(panels)
    height = _PANEL + _CAPTION_HEIGHT
    body: list[str] = []
    for index, (n, masks, caption) in enumerate(panels):
        body.extend(_panel(n, masks, index * _PANEL, caption))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}"'
        f' height="{height}" viewBox="0 0 {width} {height}">\n'
        + "\n".join(body)
        + "\n</svg>\n"
    )


def render_to_file(obj: Partition | Chain | NCSpanningTree, path: str) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write(render_svg(obj))
