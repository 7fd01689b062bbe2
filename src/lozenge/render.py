"""Deterministic ASCII and SVG pictures of regions and tilings.

Both renderers map cell ``(row, col)`` through the fixed lattice embedding
(vertex ``(va, vb)`` at ``x = 2*va + vb``, ``y`` decreasing with vb in SVG
units), sort every drawing primitive, and emit byte-identical output for
equal inputs.
"""

from __future__ import annotations

from .count import enumerate_tilings
from .lattice import Cell, Loz, Region, is_up, partners

SCALE = 20  # half a lattice unit in SVG pixels
ROWH = 35  # vertical pixels per row (2 * SCALE * sqrt(3)/2, rounded)


def validate_tiling(r: Region, tiling: frozenset[Loz]) -> None:
    seen: set[Cell] = set()
    for a, b in tiling:
        if b not in partners(a):
            raise ValueError(f"{(a, b)} is not a lozenge")
        if a in seen or b in seen:
            raise ValueError(f"tiling covers {a if a in seen else b} twice")
        if a not in r.cells or b not in r.cells:
            raise ValueError(f"tiling leaves the region at {(a, b)}")
        seen.add(a)
        seen.add(b)
    if seen != r.cells:
        missing = sorted(r.cells - seen)[:3]
        raise ValueError(f"tiling misses cells {missing}")


def render_ascii(r: Region) -> str:
    """One character per triangle: ^ and v, capitalized A/V on the cells of
    half-weighted positions."""
    lines = [f"region {len(r.cells)} cells {len(r.half)} half"]
    if not r.cells:
        return "\n".join(lines) + "\n"
    half_cells = {c for pos in r.half for c in pos}
    rows = sorted({row for row, _ in r.cells})
    xmin = min(row + col for row, col in r.cells)
    xmax = max(row + col for row, col in r.cells)
    for row in reversed(rows):
        line = [" "] * (xmax - xmin + 1)
        for rr, cc in r.cells:
            if rr != row:
                continue
            ch = "^" if is_up((rr, cc)) else "v"
            if (rr, cc) in half_cells:
                ch = "A" if ch == "^" else "V"
            line[rr + cc - xmin] = ch
        lines.append("".join(line).rstrip())
    return "\n".join(lines) + "\n"


def _vertices(cell: Cell) -> list[tuple[int, int]]:
    row, col = cell
    va = col // 2
    if is_up(cell):
        return [(va, row), (va + 1, row), (va, row + 1)]
    return [(va + 1, row), (va + 1, row + 1), (va, row + 1)]


def _svg_point(va: int, vb: int, vb_max: int) -> str:
    return f"{2 * va * SCALE + vb * SCALE},{(vb_max - vb) * ROWH}"


def render_svg(r: Region, tiling: frozenset[Loz] | None = None) -> str:
    """Unit triangles with shaded ovals on half-weighted positions; if a
    tiling is given its lozenges are outlined (and validated first)."""
    if tiling is not None:
        validate_tiling(r, tiling)
    if r.cells:
        vb_min = min(row for row, _ in r.cells)
        vb_max = max(row for row, _ in r.cells) + 1
        va_x = [2 * va * SCALE + vb * SCALE for c in r.cells for va, vb in _vertices(c)]
        x_min, x_max = min(va_x), max(va_x)
    else:
        vb_min, vb_max, x_min, x_max = 0, 0, 0, 0
    width = x_max - x_min + 2 * SCALE
    height = (vb_max - vb_min) * ROWH + 2 * SCALE
    shift_x = SCALE - x_min
    shift_y = SCALE - 0

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}">',
        f'<g transform="translate({shift_x},{shift_y})">',
    ]
    for cell in sorted(r.cells):
        pts = " ".join(_svg_point(va, vb, vb_max) for va, vb in _vertices(cell))
        fill = "#e8e8e8" if is_up(cell) else "#ffffff"
        out.append(f'<polygon points="{pts}" fill="{fill}" stroke="#777777" stroke-width="1"/>')
    if tiling is not None:
        for a, b in sorted(tiling):
            quad = _lozenge_outline(a, b)
            pts = " ".join(_svg_point(va, vb, vb_max) for va, vb in quad)
            out.append(f'<polygon points="{pts}" fill="none" stroke="#000000" stroke-width="3"/>')
    for a, b in sorted(r.half):
        corners = {*_vertices(a), *_vertices(b)}
        cx = sum(2 * va * SCALE + vb * SCALE for va, vb in corners) // len(corners)
        cy = sum((vb_max - vb) * ROWH for va, vb in corners) // len(corners)
        out.append(f'<ellipse cx="{cx}" cy="{cy}" rx="{SCALE // 2}" ry="{SCALE // 2}" '
                   f'fill="#999999" fill-opacity="0.8"/>')
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _lozenge_outline(a: Cell, b: Cell) -> list[tuple[int, int]]:
    va = set(_vertices(a))
    vb = set(_vertices(b))
    shared = sorted(va & vb)
    outer = sorted((va | vb) - set(shared))
    # the shared edge is a diagonal; alternating corners walks the boundary
    return [outer[0], shared[0], outer[1], shared[1]]


def first_tiling(r: Region) -> frozenset[Loz] | None:
    """The lexicographically first tiling, or None if untileable."""
    for t in enumerate_tilings(r):
        return t
    return None
