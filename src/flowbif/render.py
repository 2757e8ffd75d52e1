"""Deterministic SVG + CSV emission of separatrix portraits.

SVG output is assembled by hand so identical inputs produce identical bytes:
fixed 1000x1000 viewBox, world-to-view affine map recorded in a comment
header, separatrix polylines, singular points as circles colored by kind.
The CSV twin lists every polyline vertex in world coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .singular import DEFAULT_SEARCH, SearchOptions, SingularPoint
from .topology import Orbit, TopologySignature, separatrix_portrait

VIEW = 1000.0

_NODE_FILL = {
    "saddle": "#d62728",
    "center": "#1f77b4",
    "degenerate": "#9467bd",
}
_FALLBACK_FILL = "#7f7f7f"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


@dataclass(frozen=True)
class Portrait:
    signature: TopologySignature
    points: list[SingularPoint]
    orbits: list[Orbit]
    svg: str
    csv: str


class _ViewMap:
    """Affine world -> view transform; SVG y runs downward."""

    def __init__(self, box):
        x0, y0, x1, y1 = (float(b) for b in box)
        self.ax = VIEW / (x1 - x0)
        self.bx = -self.ax * x0
        self.ay = -VIEW / (y1 - y0)
        self.by = VIEW - self.ay * y0

    def __call__(self, x: float, y: float) -> tuple[float, float]:
        return self.ax * x + self.bx, self.ay * y + self.by

    def header(self, box) -> str:
        x0, y0, x1, y1 = (float(b) for b in box)
        return (
            f"<!-- world box ({_fmt(x0)}, {_fmt(y0)}) .. ({_fmt(x1)}, {_fmt(y1)})"
            f" to view {VIEW:g}x{VIEW:g}:"
            f" X = {_fmt(self.ax)}*x + {_fmt(self.bx)},"
            f" Y = {_fmt(self.ay)}*y + {_fmt(self.by)} -->"
        )


def _svg_text(box, points, orbits) -> str:
    vm = _ViewMap(box)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {VIEW:g} {VIEW:g}">',
        vm.header(box),
        f'<rect x="0" y="0" width="{VIEW:g}" height="{VIEW:g}" '
        'fill="white" stroke="#888888"/>',
    ]
    for orb in orbits:
        # drop consecutive vertices that collapse at 0.01-px resolution
        seen: list[str] = []
        for p in orb.points:
            vx, vy = vm(p[0], p[1])
            s = f"{vx:.2f},{vy:.2f}"
            if not seen or seen[-1] != s:
                seen.append(s)
        coords = " ".join(seen)
        out.append(
            f'<polyline points="{coords}" fill="none" '
            'stroke="#333333" stroke-width="1.5"/>'
        )
    for pt in points:
        vx, vy = vm(float(pt.location[0]), float(pt.location[1]))
        fill = _NODE_FILL.get(pt.kind, _FALLBACK_FILL)
        label = pt.kind
        if pt.degeneracy is not None:
            label += f" {pt.degeneracy.case_label}"
        out.append(
            f'<circle cx="{vx:.2f}" cy="{vy:.2f}" r="6" fill="{fill}" '
            f'stroke="black"><title>{label} at '
            f"({_fmt(float(pt.location[0]))}, {_fmt(float(pt.location[1]))})"
            "</title></circle>"
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _csv_text(orbits) -> str:
    rows = ["orbit,vertex,x,y"]
    for i, orb in enumerate(orbits):
        for j, p in enumerate(orb.points):
            rows.append(f"{i},{j},{_fmt(float(p[0]))},{_fmt(float(p[1]))}")
    return "\n".join(rows) + "\n"


def render_portrait(
    field, box, search_opts: SearchOptions = DEFAULT_SEARCH
) -> Portrait:
    """Trace the separatrix skeleton and return SVG/CSV strings."""
    sig, points, orbits = separatrix_portrait(field, box, search_opts)
    return Portrait(sig, points, orbits, _svg_text(box, points, orbits), _csv_text(orbits))


def write_portrait(portrait: Portrait, out_path) -> tuple[str, str]:
    """Write ``<out>.svg`` and a sibling ``.csv``; returns the two paths."""
    out = str(out_path)
    svg_path = out if out.endswith(".svg") else out + ".svg"
    csv_path = svg_path[: -len(".svg")] + ".csv"
    with open(svg_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(portrait.svg)
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(portrait.csv)
    return svg_path, csv_path
