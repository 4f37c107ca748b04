"""Persist experiment results to a directory (text tables + SVG charts).

``save_result`` writes what a result object can produce: its rendered text
table always, one SVG file per chart when the result exposes
``to_svg_charts()``.  ``python -m repro experiment NAME... --out DIR``
calls it for every experiment the command runs.
"""

from __future__ import annotations

import os
from typing import List

__all__ = ["save_result"]


def save_result(result, directory: str, stem: str) -> List[str]:
    """Write one result's artifacts; returns the paths written."""
    os.makedirs(directory, exist_ok=True)
    written = []
    text_path = os.path.join(directory, f"{stem}.txt")
    with open(text_path, "w") as handle:
        handle.write(result.render() + "\n")
    written.append(text_path)
    if hasattr(result, "to_svg_charts"):
        for chart_name, svg in result.to_svg_charts().items():
            svg_path = os.path.join(directory, f"{stem}_{chart_name}.svg")
            with open(svg_path, "w") as handle:
                handle.write(svg)
            written.append(svg_path)
    return written
