"""Paper-style figures from sweep/compare JSON documents.

A figure is described declaratively (usually in the ``figures`` section of a
``sweep_request/v1`` grid file, see :mod:`repro.experiments.request`)::

    {"name": "e3-filters", "title": "Victim-gateway filters vs R1",
     "x": "workloads.0.params.rate",
     "y": [{"path": "collector_stats.victim-gw-filters.peak",
            "label": "measured peak"},
           {"path": "collector_stats.paper.predicted_filters",
            "label": "paper nv = R1*Ttmp"}],
     "xlabel": "R1 (requests/s)", "ylabel": "wire-speed filters"}

``x`` is a dotted path into each cell's ``overrides``; ``y`` paths walk the
cell's ``result`` dict; an optional ``series`` path groups cells into one
line per value of another axis.  :func:`figure_series` extracts the plot
data and :func:`render_figure_builtin` writes it as SVG text: a
dependency-free writer under full byte control.  Given the same document it
produces the same bytes on any machine, which is what the paper-grid CI
job's determinism gate compares across worker counts and the cluster path.

Everything downstream (``repro report --plot``, ``repro paper``) goes
through :func:`render_figure`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

#: Default metrics plotted when a document has no figure descriptions.
DEFAULT_FIGURE_METRICS = (
    ("effective_bandwidth_ratio", "effective-bandwidth ratio"),
    ("legit_goodput_bps", "legitimate goodput (bps)"),
)


# ----------------------------------------------------------------------
# data extraction
# ----------------------------------------------------------------------
@dataclass
class FigureData:
    """Extracted plot data for one figure."""

    name: str
    title: str
    xlabel: str
    ylabel: str
    xscale: str = "linear"
    yscale: str = "linear"
    #: (label, [(x, y), ...]) per line, in description order.
    series: List[Tuple[str, List[Tuple[Any, float]]]] = field(default_factory=list)


def lookup_path(data: Any, path: str) -> Any:
    """Resolve a dotted ``path``: as a flat key first (cell ``overrides``
    store whole dotted paths), then by walking nested dicts (result
    documents).  None when absent either way."""
    if isinstance(data, Mapping) and path in data:
        return data[path]
    node = data
    for segment in path.split("."):
        if not isinstance(node, Mapping) or segment not in node:
            return None
        node = node[segment]
    return node


def _normalise_y(y: Any) -> List[Dict[str, str]]:
    """The figure's ``y`` entry as a list of {path, label} dicts."""
    if isinstance(y, str):
        y = [y]
    if not isinstance(y, Sequence) or not y:
        raise ValueError("figure 'y' must be a path or a non-empty list")
    entries = []
    for item in y:
        if isinstance(item, str):
            entries.append({"path": item, "label": item.split(".")[-1]})
        else:
            if "path" not in item:
                raise ValueError(f"figure 'y' entry {item!r} needs a 'path'")
            entries.append({"path": str(item["path"]),
                            "label": str(item.get("label", item["path"]))})
    return entries


def figure_series(doc: Mapping[str, Any],
                  figure: Mapping[str, Any]) -> FigureData:
    """Extract one figure's plot data from a sweep document."""
    if doc.get("schema") != "experiment_sweep/v1":
        raise ValueError("figures are rendered from experiment_sweep/v1 documents")
    x_path = figure.get("x")
    if not x_path:
        raise ValueError("figure description needs an 'x' override path")
    y_entries = _normalise_y(figure.get("y", [m for m, _ in DEFAULT_FIGURE_METRICS[:1]]))
    series_path = figure.get("series")
    if series_path and len(y_entries) > 1:
        raise ValueError("a figure may have 'series' or several 'y' paths, not both")

    lines: Dict[str, List[Tuple[Any, float]]] = {}
    order: List[str] = []
    for cell in doc.get("cells", []):
        overrides = cell.get("overrides", {})
        result = cell.get("result", {})
        x_value = lookup_path(overrides, x_path)
        if x_value is None:
            continue
        for entry in y_entries:
            y_value = lookup_path(result, entry["path"])
            if y_value is None or isinstance(y_value, (dict, list)):
                continue
            if series_path is not None:
                label = f"{series_path} = {lookup_path(overrides, series_path)}"
            else:
                label = entry["label"]
            if label not in lines:
                lines[label] = []
                order.append(label)
            lines[label].append((x_value, float(y_value)))

    name = str(figure.get("name", "figure"))
    return FigureData(
        name=name,
        title=str(figure.get("title", name)),
        xlabel=str(figure.get("xlabel", x_path)),
        ylabel=str(figure.get("ylabel", y_entries[0]["label"])),
        xscale=str(figure.get("xscale", "linear")),
        yscale=str(figure.get("yscale", "linear")),
        series=[(label, _sorted_points(lines[label])) for label in order],
    )


def _sorted_points(points: List[Tuple[Any, float]]) -> List[Tuple[Any, float]]:
    if all(isinstance(x, (int, float)) and not isinstance(x, bool)
           for x, _ in points):
        return sorted(points, key=lambda p: (p[0], p[1]))
    return points  # categorical x keeps cell (grid) order


def default_figures(doc: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Generic figure descriptions for a sweep with no committed ones:
    each default metric against the last grid axis, one line per value of
    the first axis when the grid has two or more axes."""
    from repro.experiments.sweep import axis_paths

    axes = list(doc.get("grid", {}))
    if not axes:
        return []
    x_path = axis_paths(axes[-1])[0]
    series = axis_paths(axes[0])[0] if len(axes) > 1 else None
    figures = []
    for metric, label in DEFAULT_FIGURE_METRICS:
        figure: Dict[str, Any] = {
            "name": metric.replace("_", "-"),
            "title": f"{label} vs {x_path}",
            "x": x_path, "y": metric, "xlabel": x_path, "ylabel": label,
        }
        if series:
            figure["series"] = series
        figures.append(figure)
    return figures


# ----------------------------------------------------------------------
# SVG renderer (dependency-free, byte-deterministic)
# ----------------------------------------------------------------------
#: Line colors, the Tableau 10 cycle (stable, colorblind-tolerable).
PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")

_WIDTH, _HEIGHT = 640.0, 420.0
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72.0, 24.0, 48.0, 56.0


def _fmt(value: float) -> str:
    """Fixed, locale-free number formatting (coordinates and tick labels)."""
    text = f"{value:.6g}"
    return "0" if text in ("-0", "-0.0") else text


def _nice_ticks(lo: float, hi: float, target: int = 5) -> List[float]:
    """Round tick positions covering [lo, hi] (inclusive-ish)."""
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw_step = span / max(1, target)
    magnitude = 10.0 ** math.floor(math.log10(raw_step))
    for multiple in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = magnitude * multiple
        if span / step <= target:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + step * 1e-9:
        ticks.append(0.0 if abs(value) < step * 1e-9 else value)
        value += step
    return ticks


def _scale_value(value: float, scale: str) -> float:
    if scale == "log":
        if value <= 0:
            raise ValueError("log scale needs positive values")
        return math.log10(value)
    return value


def render_figure_builtin(data: FigureData) -> str:
    """The figure as standalone SVG text, bytes fully under our control."""
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    # Categorical x: map labels to 0..n-1 in first-appearance order.
    categories: List[str] = []
    numeric_x = True
    for _, points in data.series:
        for x, _ in points:
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                numeric_x = False
    if not numeric_x:
        for _, points in data.series:
            for x, _ in points:
                label = str(x)
                if label not in categories:
                    categories.append(label)

    def x_of(raw: Any) -> float:
        if numeric_x:
            return _scale_value(float(raw), data.xscale)
        return float(categories.index(str(raw)))

    xs: List[float] = []
    ys: List[float] = []
    for _, points in data.series:
        for x, y in points:
            xs.append(x_of(x))
            ys.append(_scale_value(y, data.yscale))

    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_WIDTH)}" '
        f'height="{_fmt(_HEIGHT)}" viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">',
        f'<rect width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" fill="#ffffff"/>',
        f'<text x="{_fmt(_WIDTH / 2)}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15" font-weight="bold">'
        f'{_escape(data.title)}</text>',
    ]

    if not xs:
        parts.append(
            f'<text x="{_fmt(_WIDTH / 2)}" y="{_fmt(_HEIGHT / 2)}" '
            'text-anchor="middle" font-family="sans-serif" font-size="13" '
            'fill="#666666">no data points</text></svg>')
        return "\n".join(parts) + "\n"

    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    y_pad = (y_hi - y_lo) * 0.06
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def px(value: float) -> float:
        return _MARGIN_L + (value - x_lo) / (x_hi - x_lo) * plot_w

    def py(value: float) -> float:
        return _MARGIN_T + (1.0 - (value - y_lo) / (y_hi - y_lo)) * plot_h

    # Frame and grid.
    parts.append(
        f'<rect x="{_fmt(_MARGIN_L)}" y="{_fmt(_MARGIN_T)}" '
        f'width="{_fmt(plot_w)}" height="{_fmt(plot_h)}" fill="none" '
        'stroke="#333333" stroke-width="1"/>')
    if numeric_x:
        x_ticks = [t for t in _nice_ticks(x_lo, x_hi) if x_lo <= t <= x_hi]
        x_tick_items = [(t, _fmt(10.0 ** t if data.xscale == "log" else t))
                        for t in x_ticks]
    else:
        x_tick_items = [(float(i), label) for i, label in enumerate(categories)]
    for tick, label in x_tick_items:
        x = px(tick)
        parts.append(f'<line x1="{_fmt(x)}" y1="{_fmt(_MARGIN_T)}" '
                     f'x2="{_fmt(x)}" y2="{_fmt(_MARGIN_T + plot_h)}" '
                     'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(x)}" y="{_fmt(_MARGIN_T + plot_h + 18)}" '
                     'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{_escape(label)}</text>')
    for tick in (t for t in _nice_ticks(y_lo, y_hi) if y_lo <= t <= y_hi):
        y = py(tick)
        label = _fmt(10.0 ** tick if data.yscale == "log" else tick)
        parts.append(f'<line x1="{_fmt(_MARGIN_L)}" y1="{_fmt(y)}" '
                     f'x2="{_fmt(_MARGIN_L + plot_w)}" y2="{_fmt(y)}" '
                     'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(_MARGIN_L - 8)}" y="{_fmt(y + 4)}" '
                     'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{_escape(label)}</text>')

    # Axis labels.
    parts.append(f'<text x="{_fmt(_MARGIN_L + plot_w / 2)}" '
                 f'y="{_fmt(_HEIGHT - 14)}" text-anchor="middle" '
                 'font-family="sans-serif" font-size="13">'
                 f'{_escape(data.xlabel)}</text>')
    parts.append(f'<text x="18" y="{_fmt(_MARGIN_T + plot_h / 2)}" '
                 'text-anchor="middle" font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 18 {_fmt(_MARGIN_T + plot_h / 2)})">'
                 f'{_escape(data.ylabel)}</text>')

    # Lines, markers, legend.
    for index, (label, points) in enumerate(data.series):
        color = PALETTE[index % len(PALETTE)]
        coords = [(px(x_of(x)), py(_scale_value(y, data.yscale)))
                  for x, y in points]
        if len(coords) > 1:
            path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in coords)
            parts.append(f'<polyline points="{path}" fill="none" '
                         f'stroke="{color}" stroke-width="2"/>')
        for x, y in coords:
            parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3.5" '
                         f'fill="{color}"/>')
        legend_y = _MARGIN_T + 10 + index * 18
        parts.append(f'<rect x="{_fmt(_MARGIN_L + plot_w - 180)}" '
                     f'y="{_fmt(legend_y - 5)}" width="10" height="10" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{_fmt(_MARGIN_L + plot_w - 165)}" '
                     f'y="{_fmt(legend_y + 4)}" font-family="sans-serif" '
                     f'font-size="11">{_escape(label)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def render_figure(doc: Mapping[str, Any], figure: Mapping[str, Any]) -> str:
    """Extract and render one figure from a sweep document to SVG text."""
    return render_figure_builtin(figure_series(doc, figure))


def render_figures(doc: Mapping[str, Any],
                   figures: Sequence[Mapping[str, Any]], figures_dir: str, *,
                   prefix: str = "") -> List[str]:
    """Render every figure description to ``<figures_dir>/<prefix><name>.svg``.

    The one write path behind ``repro report --plot`` and ``repro paper``,
    so file naming and render behavior cannot drift between them.  Returns
    the written paths in description order.
    """
    import os

    os.makedirs(figures_dir, exist_ok=True)
    written: List[str] = []
    for index, figure in enumerate(figures):
        svg = render_figure(doc, figure)
        name = str(figure.get("name", f"figure{index}"))
        path = os.path.join(figures_dir, f"{prefix}{name}.svg")
        with open(path, "w") as handle:
            handle.write(svg)
        written.append(path)
    return written
