"""File writers for command results: CSV tables, key-value reports, SVG plots.

Every writer goes through the same atomic-replace path used for measure
files, and floats are rendered with repr() so a value survives a
write/read round trip bit for bit.  The SVG writer is deliberately
minimal: a fixed 800x500 viewport, one polyline, axis labels at the data
extremes.  It exists so a run directory is self-contained without
pulling in a plotting stack.
"""

from __future__ import annotations

import os

import numpy as np

from .measures import _atomic_write_text

__all__ = [
    "ensure_dir",
    "format_value",
    "render_pairs",
    "write_csv",
    "write_report",
    "write_svg",
]


def format_value(value):
    """Shortest exact decimal for floats, str() for everything else."""
    # floats first, the common cell: np.float64 subclasses float, and
    # neither bool nor np.bool_ does
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, header, columns):
    """Write equal-length columns under a header line; returns the path.

    A column is an array of one dtype: a float column renders with repr(),
    any other through format_value.
    """
    cells = [
        map(repr if col.dtype.kind == "f" else format_value, col.tolist())
        for col in map(np.asarray, columns)
    ]
    lines = [",".join(header), *map(",".join, zip(*cells))]
    _atomic_write_text(path, "\n".join(lines) + "\n")
    return path


def write_report(path, pairs):
    """Write 'key = value' lines; same rendering as the stdout summary."""
    _atomic_write_text(path, render_pairs(pairs) + "\n")
    return path


def render_pairs(pairs):
    return "\n".join(f"{key} = {format_value(value)}" for key, value in pairs)


_SVG_W, _SVG_H = 800, 500
_MARGIN = 60


def write_svg(path, x, y, title, ylabel=""):
    """One polyline over the data range, extremes labelled on the axes."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("svg plot needs two matched coordinate arrays")
    x0, x1 = float(x.min()), float(x.max())
    y0, y1 = float(y.min()), float(y.max())
    xspan = x1 - x0 or 1.0
    # a y-range at rounding level is drawn flat, not stretched to full height
    flat = y1 - y0 <= 1e-12 * max(1.0, abs(y0), abs(y1))
    inner_w = _SVG_W - 2 * _MARGIN
    inner_h = _SVG_H - 2 * _MARGIN
    px = _MARGIN + (x - x0) / xspan * inner_w
    rise = np.zeros_like(y) if flat else (y - y0) / (y1 - y0) * inner_h
    py = _SVG_H - _MARGIN - rise
    points = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px.tolist(), py.tolist()))
    left, right, bottom = _MARGIN, _SVG_W - _MARGIN, _SVG_H - _MARGIN
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W // 2}" y="30" text-anchor="middle" '
        f'font-family="monospace" font-size="16">{title}</text>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{_MARGIN}" x2="{left}" y2="{bottom}" stroke="black"/>',
        f'<text x="{left}" y="{bottom + 20}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">{x0:.6g}</text>',
        f'<text x="{right}" y="{bottom + 20}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">{x1:.6g}</text>',
        f'<text x="{left - 8}" y="{bottom + 4}" text-anchor="end" '
        f'font-family="monospace" font-size="12">{y0:.6g}</text>',
        f'<text x="{left - 8}" y="{_MARGIN + 4}" text-anchor="end" '
        f'font-family="monospace" font-size="12">{y1:.6g}</text>',
    ]
    if ylabel:
        parts.append(
            f'<text x="20" y="{_SVG_H // 2}" text-anchor="middle" '
            f'font-family="monospace" font-size="12" '
            f'transform="rotate(-90 20 {_SVG_H // 2})">{ylabel}</text>'
        )
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>'
    )
    parts.append("</svg>")
    _atomic_write_text(path, "\n".join(parts) + "\n")
    return path


def ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path
