"""Self-contained SVG charts of a run's per-seed return, cost and multiplier curves."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2"]


def _nice_ticks(lo: float, hi: float, target: int = 6):
    if not math.isfinite(lo) or not math.isfinite(hi):
        return [0.0, 1.0]
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(m * mag for m in (1.0, 2.0, 2.5, 5.0, 10.0) if raw <= m * mag)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


def _format_tick(value: float) -> str:
    if value == int(value) and abs(value) < 1e6:
        return str(int(value))
    return f"{value:.4g}"


def render_line_chart(path: Path, series: list, title: str, xlabel: str, ylabel: str, hlines=()):
    """Write a self-contained SVG line chart.

    `series` entries are dicts with keys x, y, label, color; `hlines` entries
    are (label, value, color) reference lines.
    """
    width, height = 880, 540
    left, right, top, bottom = 80, 20, 50, 60
    plot_w, plot_h = width - left - right, height - top - bottom

    xs = np.concatenate([np.asarray(s["x"], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s["y"], dtype=float) for s in series])
    y_extra = np.array([v for _, v, _ in hlines], dtype=float)
    x_lo, x_hi = float(xs.min()), float(xs.max())
    all_y = np.concatenate([ys, y_extra]) if y_extra.size else ys
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0

    def sx(x):
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="Helvetica, Arial, sans-serif">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="28" text-anchor="middle" font-size="17">{title}</text>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
    ]
    for t in _nice_ticks(x_lo, x_hi):
        if not x_lo <= t <= x_hi:
            continue
        x = sx(t)
        parts.append(
            f'<line x1="{x:.1f}" y1="{top + plot_h}" x2="{x:.1f}" '
            f'y2="{top + plot_h + 5}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{top + plot_h + 20}" text-anchor="middle" '
            f'font-size="12">{_format_tick(t)}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        if not y_lo <= t <= y_hi:
            continue
        y = sy(t)
        parts.append(
            f'<line x1="{left - 5}" y1="{y:.1f}" x2="{left}" y2="{y:.1f}" stroke="#444"/>'
        )
        parts.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{left + plot_w}" y2="{y:.1f}" '
            'stroke="#ddd" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{left - 9}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-size="12">{_format_tick(t)}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 15}" text-anchor="middle" '
        f'font-size="14">{xlabel}</text>'
    )
    parts.append(
        f'<text x="22" y="{top + plot_h / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 22 {top + plot_h / 2:.1f})">{ylabel}</text>'
    )
    for label, value, color in hlines:
        y = sy(value)
        parts.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{left + plot_w}" y2="{y:.1f}" '
            f'stroke="{color}" stroke-width="1.3" stroke-dasharray="7,5"/>'
        )
    for s in series:
        pts = " ".join(
            f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(s["x"], s["y"])
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{s["color"]}" stroke-width="1.4"/>'
        )
    legend_y = top + 14
    for entry in list(series) + [
        {"label": lbl, "color": col} for lbl, _, col in hlines
    ]:
        parts.append(
            f'<line x1="{left + plot_w - 150}" y1="{legend_y - 4}" '
            f'x2="{left + plot_w - 122}" y2="{legend_y - 4}" '
            f'stroke="{entry["color"]}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{left + plot_w - 115}" y="{legend_y}" font-size="12">'
            f'{entry["label"]}</text>'
        )
        legend_y += 17
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def _downsample(x: np.ndarray, y: np.ndarray, limit: int = 2000):
    stride = max(1, len(x) // limit)
    idx = np.arange(0, len(x), stride)
    if idx[-1] != len(x) - 1:
        idx = np.append(idx, len(x) - 1)
    return x[idx], y[idx]


def write_experiment_plots(out_dir: Path, series: dict, thresholds, reference, window: int):
    """Write returns.svg, costs_k.svg and multipliers_k.svg of a run's curves
    (see `experiment_cli.read_run_series`); a feasible `reference` adds the J* line."""
    j_star = []
    if reference and reference["feasible"]:
        j_star.append(("reference J*", reference["best_return"], "#000000"))
    charts = [
        ("returns.svg", series["ma_return"], f"Moving-average return (window {window})",
         "return", j_star),
    ]
    for k, threshold in enumerate(thresholds):
        charts.append((f"costs_{k + 1}.svg", series["ma_costs"][k],
                       f"Moving-average constraint cost {k + 1} (window {window})",
                       f"cost {k + 1}", [("threshold", float(threshold), "#000000")]))
        charts.append((f"multipliers_{k + 1}.svg", series["multipliers"][k],
                       f"Lagrange multiplier {k + 1}", f"lambda_{k + 1}", []))
    for name, curves, title, ylabel, hlines in charts:
        episodes = np.arange(1, curves.shape[1] + 1)
        lines = []
        for i, (seed, curve) in enumerate(zip(series["seeds"], curves)):
            x, y = _downsample(episodes, curve)
            lines.append(
                {"x": x, "y": y, "label": f"seed {seed}", "color": PALETTE[i % len(PALETTE)]}
            )
        render_line_chart(out_dir / name, lines, title, "episode", ylabel, hlines)
