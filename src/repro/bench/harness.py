"""The experiment harness: run, tabulate, compare with the paper.

Every experiment module exposes ``run(scale=1.0) -> ExperimentResult``.
``scale`` shrinks the workload (fewer shards, fewer tasks) so the pytest
benches finish quickly; ``scale=1.0`` is the paper's configuration.

Results print as aligned tables with a paper-reported column, and the
shape helpers (:func:`ordering_holds`, :func:`factor`) implement
the reproduction's acceptance criterion: *who wins, by roughly what
factor, where crossovers fall* - never absolute equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence


@dataclass
class ExperimentResult:
    """Rows of one regenerated table/figure."""

    experiment: str  # e.g. "fig8b"
    title: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def row(self, system: str) -> Dict[str, object]:
        for row in self.rows:
            if row.get("system") == system:
                return row
        raise KeyError(f"{self.experiment}: no row for {system!r}")

    def value(self, system: str, column: str) -> float:
        return float(self.row(system)[column])  # type: ignore[arg-type]

    def systems(self) -> List[str]:
        return [str(r.get("system")) for r in self.rows]

    # ------------------------------------------------------------------

    def format_table(self) -> str:
        if not self.rows:
            return f"== {self.experiment}: {self.title} ==\n(no rows)"
        columns: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        widths = {c: len(c) for c in columns}
        rendered: List[List[str]] = []
        for row in self.rows:
            cells = []
            for c in columns:
                value = row.get(c, "")
                text = _format_cell(value)
                widths[c] = max(widths[c], len(text))
                cells.append(text)
            rendered.append(cells)
        lines = [f"== {self.experiment}: {self.title} =="]
        lines.append("  ".join(c.ljust(widths[c]) for c in columns))
        lines.append("  ".join("-" * widths[c] for c in columns))
        for cells in rendered:
            lines.append(
                "  ".join(cell.ljust(widths[c]) for cell, c in zip(cells, columns))
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def show(self) -> None:
        print(self.format_table())


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.3g}"
        return f"{value:.3g}"
    return str(value)


# ----------------------------------------------------------------------
# Shape assertions


def ordering_holds(
    result: ExperimentResult, column: str, fastest_to_slowest: Sequence[str]
) -> bool:
    """True when the named systems rank in the given order on ``column``."""
    values = [result.value(s, column) for s in fastest_to_slowest]
    return all(a <= b for a, b in zip(values, values[1:]))


def factor(result: ExperimentResult, column: str, slow: str, fast: str) -> float:
    """How many times larger ``slow``'s value is than ``fast``'s."""
    denominator = result.value(fast, column)
    if denominator == 0:
        return float("inf")
    return result.value(slow, column) / denominator


def relative_error(measured: float, reported: float) -> float:
    if reported == 0:
        return float("inf")
    return abs(measured - reported) / abs(reported)
