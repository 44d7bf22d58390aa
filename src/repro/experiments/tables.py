"""Text rendering of figure results for the benchmark harness output."""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.experiments.figures import FigureResult

__all__ = ["render_series_table", "render_figure"]


def render_series_table(
    x_label: str,
    x_values: Sequence[float],
    series: Dict[str, Sequence[float]],
    value_format: str = "{:10.3f}",
    max_rows: int = 12,
) -> str:
    """Align named series into a fixed-width text table.

    Long series (per-slot curves) are subsampled to ``max_rows`` evenly
    spaced rows so benchmark output stays readable.
    """
    if not series:
        raise ValueError("need at least one series")
    lengths = {len(v) for v in series.values()}
    if lengths != {len(x_values)}:
        raise ValueError(
            f"series lengths {lengths} do not all match x length {len(x_values)}"
        )
    n = len(x_values)
    if n > max_rows:
        picks = np.linspace(0, n - 1, max_rows).round().astype(int)
    else:
        picks = np.arange(n)

    names = sorted(series)
    header = f"{x_label:>16} " + " ".join(f"{name:>12}" for name in names)
    lines = [header, "-" * len(header)]
    for index in picks:
        row = f"{x_values[index]:>16.6g} "
        row += " ".join(
            value_format.format(series[name][index]).rjust(12) for name in names
        )
        lines.append(row)
    return "\n".join(lines)


def render_figure(figure: FigureResult, max_rows: int = 12) -> str:
    """Render every panel of a figure result."""
    chunks: List[str] = [f"== {figure.figure_id}: {figure.title} =="]
    for panel, algorithms in figure.panels.items():
        chunks.append(f"-- panel: {panel} --")
        if panel.startswith("as1755_"):
            for name in sorted(algorithms):
                chunks.append(f"  {name:>12}: {algorithms[name][0]:.4f}")
            continue
        chunks.append(
            render_series_table(
                figure.x_label, figure.x_values, algorithms, max_rows=max_rows
            )
        )
    return "\n".join(chunks)
