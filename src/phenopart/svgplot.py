"""Minimal deterministic SVG line plots.

Hand-rolled on purpose: artifacts must be byte-reproducible across runs and
machines, so all geometry is formatted with a fixed %.6g and nothing depends
on fonts, locale, or library versions.  Output is a single standalone SVG
element; wide data should be plotted, not embedded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

__all__ = ["PlotSeries", "line_plot"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf")


@dataclass(frozen=True)
class PlotSeries:
    label: str
    x: Sequence[float]
    y: Sequence[float]
    color: Optional[str] = None


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _ticks(lo: float, hi: float, count: int = 5):
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    return list(np.linspace(lo, hi, count))


def _log_ticks(lo: float, hi: float):
    d0 = math.floor(math.log10(lo))
    d1 = math.ceil(math.log10(hi))
    ticks = [10.0 ** d for d in range(d0, d1 + 1)]
    return [t for t in ticks if lo / 1.001 <= t <= hi * 1.001] or [lo, hi]


def _widen(lo: float, hi: float, log: bool):
    """Open a flat range by half a unit of the plotted coordinate: +-0.5 in
    data units on a linear axis, +-0.5 decades on a log axis."""
    if hi != lo:
        return lo, hi
    if log:
        return lo / math.sqrt(10.0), hi * math.sqrt(10.0)
    return lo - 0.5, hi + 0.5


def line_plot(path, series: Sequence[PlotSeries], title: str,
              xlabel: str, ylabel: str, logx: bool = False, logy: bool = False,
              width: int = 720, height: int = 480,
              annotations: Sequence[str] = ()) -> None:
    """Write a standalone SVG with the given line series."""
    series = list(series)
    if not series:
        raise ValueError("nothing to plot")
    xs = np.concatenate([np.asarray(s.x, dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s.y, dtype=float) for s in series])
    if logx and np.any(xs <= 0):
        raise ValueError("log x-axis needs positive data")
    if logy and np.any(ys <= 0):
        raise ValueError("log y-axis needs positive data")

    def tx(v):
        return math.log10(v) if logx else v

    def ty(v):
        return math.log10(v) if logy else v

    x0, x1 = _widen(float(np.min(xs)), float(np.max(xs)), logx)
    y0, y1 = _widen(float(np.min(ys)), float(np.max(ys)), logy)
    X0, X1 = tx(x0), tx(x1)
    Y0, Y1 = ty(y0), ty(y1)
    padx = 0.04 * (X1 - X0)
    pady = 0.06 * (Y1 - Y0)
    X0, X1 = X0 - padx, X1 + padx
    Y0, Y1 = Y0 - pady, Y1 + pady

    ml, mr, mt, mb = 64, 16, 34, 46
    pw, ph = width - ml - mr, height - mt - mb

    def px(v):
        return ml + (tx(v) - X0) / (X1 - X0) * pw

    def py(v):
        return mt + (Y1 - ty(v)) / (Y1 - Y0) * ph

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">')
    out.append(f'<rect width="{width}" height="{height}" fill="#ffffff"/>')
    out.append(
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" fill="#222222">{title}</text>')

    xticks = _log_ticks(x0, x1) if logx else _ticks(x0, x1)
    yticks = _log_ticks(y0, y1) if logy else _ticks(y0, y1)
    for v in xticks:
        X = px(v)
        out.append(f'<line x1="{X:.2f}" y1="{mt}" x2="{X:.2f}" '
                   f'y2="{mt + ph}" stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{X:.2f}" y="{mt + ph + 18}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11" '
                   f'fill="#444444">{_fmt(v)}</text>')
    for v in yticks:
        Y = py(v)
        out.append(f'<line x1="{ml}" y1="{Y:.2f}" x2="{ml + pw}" '
                   f'y2="{Y:.2f}" stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{ml - 6}" y="{Y + 4:.2f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11" '
                   f'fill="#444444">{_fmt(v)}</text>')
    out.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
               f'fill="none" stroke="#888888" stroke-width="1"/>')
    out.append(f'<text x="{ml + pw / 2:.1f}" y="{height - 10}" '
               f'text-anchor="middle" font-family="sans-serif" font-size="12" '
               f'fill="#222222">{xlabel}</text>')
    out.append(f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12" fill="#222222" '
               f'transform="rotate(-90 16 {mt + ph / 2:.1f})">{ylabel}</text>')

    for i, s in enumerate(series):
        color = s.color or _PALETTE[i % len(_PALETTE)]
        sx = np.asarray(s.x, dtype=float)
        sy = np.asarray(s.y, dtype=float)
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(sx, sy))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.6"/>')
        if sx.shape[0] <= 64:
            for a, b in zip(sx, sy):
                out.append(f'<circle cx="{px(a):.2f}" cy="{py(b):.2f}" r="2.6" '
                           f'fill="{color}"/>')
        out.append(f'<text x="{ml + pw - 8}" y="{mt + 16 + 15 * i}" '
                   f'text-anchor="end" font-family="sans-serif" font-size="11" '
                   f'fill="{color}">{s.label}</text>')

    for j, note in enumerate(annotations):
        out.append(f'<text x="{ml + 8}" y="{mt + 16 + 15 * j}" '
                   f'font-family="sans-serif" font-size="11" '
                   f'fill="#333333">{note}</text>')
    out.append("</svg>")
    data = "\n".join(out) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(data)
