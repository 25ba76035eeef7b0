"""Report tables.

Benchmarks print the rows the paper's evaluation reports: paper-predicted
value next to the simulated measurement, one row per parameter point.
:class:`ResultTable` does the column sizing and a few convenience formats so
every benchmark prints consistently and EXPERIMENTS.md can paste the output
verbatim.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import Any, List, Sequence


def result_to_dict(result: Any) -> Any:
    """Any result object -> JSON-serializable data.

    The one serializer every output path uses (the CLI's ``--json`` mode,
    ``repro sweep`` documents, the experiment runner): dataclasses become
    dicts recursively, tuples become lists, enums collapse to their values,
    ``Optional`` fields pass ``None`` through untouched, and anything else
    non-JSON-native falls back to ``str``.
    """
    if dataclasses.is_dataclass(result) and not isinstance(result, type):
        return {f.name: result_to_dict(getattr(result, f.name))
                for f in dataclasses.fields(result)}
    if isinstance(result, enum.Enum):
        return result_to_dict(result.value)
    if isinstance(result, dict):
        return {str(key): result_to_dict(value) for key, value in result.items()}
    if isinstance(result, (list, tuple)):
        return [result_to_dict(item) for item in result]
    if result is None or isinstance(result, (bool, int, float, str)):
        return result
    return str(result)


def format_bps(value_bps: float) -> str:
    """Human-readable bit-rate (e.g. '9.53 Mbps')."""
    for unit, scale in (("Gbps", 1e9), ("Mbps", 1e6), ("kbps", 1e3)):
        if abs(value_bps) >= scale:
            return f"{value_bps / scale:.2f} {unit}"
    return f"{value_bps:.0f} bps"


def format_seconds(value: float) -> str:
    """Human-readable duration (e.g. '50 ms', '1.5 s', '2.0 min')."""
    if abs(value) < 1.0:
        return f"{value * 1e3:.0f} ms"
    if abs(value) < 120.0:
        return f"{value:.2f} s"
    return f"{value / 60.0:.1f} min"


def format_ratio(value: float) -> str:
    """Ratio with enough precision for values like 0.00083."""
    if value == 0:
        return "0"
    if abs(value) < 0.01:
        return f"{value:.5f}"
    return f"{value:.3f}"


@dataclass
class ResultTable:
    """A fixed-column text table."""

    title: str
    columns: Sequence[str]
    rows: List[List[str]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        """Add one row; values are str()-ed."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values but table has {len(self.columns)} columns"
            )
        self.rows.append([str(v) for v in values])

    def add_note(self, note: str) -> None:
        """Attach a footnote printed under the table."""
        self.notes.append(note)

    def render(self) -> str:
        """The table as text."""
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(self.columns))
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def print(self) -> None:
        """Print the rendered table (benchmarks call this so -s shows the rows)."""
        print()
        print(self.render())

    def render_markdown(self) -> str:
        """The table as GitHub-flavoured markdown (``repro report`` output)."""
        lines = [f"### {self.title}", ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join(" --- " for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(cell.replace("|", "\\|")
                                           for cell in row) + " |")
        for note in self.notes:
            lines.append("")
            lines.append(f"*{note}*")
        return "\n".join(lines)

    def to_csv(self) -> str:
        """The table as CSV text (header row first)."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        return buffer.getvalue()
