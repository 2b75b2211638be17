"""Minimal static SVG line charts.

Charts are built by direct string assembly so that identical inputs always
produce identical bytes; there are no timestamps, random ids or library
version strings in the output.

`escape` covers `&`, `<` and `>`, which is all a text node needs. User text
(titles, axis labels, series names) only ever lands in text nodes: attribute
values are numbers and `PALETTE` colours, so quotes need no escaping.
"""

from __future__ import annotations

WIDTH = 720
HEIGHT = 440
MARGIN_LEFT = 70
MARGIN_RIGHT = 20
MARGIN_TOP = 40
MARGIN_BOTTOM = 50

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def escape(text: str) -> str:
    """text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")"""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _bounds(values: list[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if lo == hi:
        pad = abs(lo) * 0.1 + 1.0
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def line_chart(
    series: list[tuple[str, list[float], list[float]]],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Render named (xs, ys) series as one SVG document string."""
    if not series or any(len(xs) == 0 or len(xs) != len(ys) for _, xs, ys in series):
        raise ValueError("each series needs matching non-empty xs and ys")
    all_x = [float(x) for _, xs, _ in series for x in xs]
    all_y = [float(y) for _, _, ys in series for y in ys]
    x_lo, x_hi = _bounds(all_x)
    y_lo, y_hi = _bounds(all_y)
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}"'
        f' viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH / 2:.2f}" y="24" text-anchor="middle"'
        f' font-family="sans-serif" font-size="16">{escape(title)}</text>',
    ]
    n_ticks = 5
    for i in range(n_ticks):
        frac = i / (n_ticks - 1)
        x_val = x_lo + frac * (x_hi - x_lo)
        y_val = y_lo + frac * (y_hi - y_lo)
        px = sx(x_val)
        py = sy(y_val)
        parts.append(
            f'<line x1="{px:.2f}" y1="{MARGIN_TOP}" x2="{px:.2f}"'
            f' y2="{MARGIN_TOP + plot_h}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<line x1="{MARGIN_LEFT}" y1="{py:.2f}" x2="{MARGIN_LEFT + plot_w}"'
            f' y2="{py:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{MARGIN_TOP + plot_h + 18}" text-anchor="middle"'
            f' font-family="sans-serif" font-size="11">{escape(_fmt(x_val))}</text>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{py + 4:.2f}" text-anchor="end"'
            f' font-family="sans-serif" font-size="11">{escape(_fmt(y_val))}</text>'
        )
    parts.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}"'
        f' fill="none" stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.2f}" y="{HEIGHT - 10}"'
        f' text-anchor="middle" font-family="sans-serif" font-size="13">'
        f"{escape(x_label)}</text>"
    )
    parts.append(
        f'<text x="18" y="{MARGIN_TOP + plot_h / 2:.2f}" text-anchor="middle"'
        f' font-family="sans-serif" font-size="13"'
        f' transform="rotate(-90 18 {MARGIN_TOP + plot_h / 2:.2f})">'
        f"{escape(y_label)}</text>"
    )
    for idx, (name, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        points = " ".join(f"{sx(float(x)):.2f},{sy(float(y)):.2f}" for x, y in zip(xs, ys))
        if len(xs) == 1:
            parts.append(
                f'<circle cx="{sx(float(xs[0])):.2f}" cy="{sy(float(ys[0])):.2f}"'
                f' r="3.5" fill="{color}"/>'
            )
        else:
            parts.append(
                f'<polyline points="{points}" fill="none" stroke="{color}"'
                f' stroke-width="2"/>'
            )
        if len(series) > 1:
            ly = MARGIN_TOP + 14 + idx * 16
            lx = MARGIN_LEFT + plot_w - 150
            parts.append(
                f'<rect x="{lx}" y="{ly - 9}" width="10" height="10" fill="{color}"/>'
            )
            parts.append(
                f'<text x="{lx + 15}" y="{ly}" font-family="sans-serif"'
                f' font-size="11">{escape(name)}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
