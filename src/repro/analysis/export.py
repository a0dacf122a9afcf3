"""Machine-readable export of regenerated artefacts (CSV / JSON).

The text renderer serves humans; downstream analysis (plotting notebooks,
regression dashboards) wants structured data.  These helpers serialise
any ``(headers, rows)`` table or :class:`FigureSeries` panel without
pulling in pandas.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Sequence

from repro.analysis.figures import FigureSeries
from repro.errors import ConfigurationError


def table_to_csv(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Serialise a table to CSV text."""
    if not headers:
        raise ConfigurationError("a table needs headers")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        if len(row) != len(headers):
            raise ConfigurationError("row width does not match headers")
        writer.writerow(row)
    return buffer.getvalue()


def table_to_json(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Serialise a table to a JSON list of objects."""
    if not headers:
        raise ConfigurationError("a table needs headers")
    records = []
    for row in rows:
        if len(row) != len(headers):
            raise ConfigurationError("row width does not match headers")
        records.append(dict(zip(headers, row)))
    return json.dumps(records, indent=2)


def figure_to_json(panel: FigureSeries) -> str:
    """Serialise one figure panel (x values + named series)."""
    payload = {
        "title": panel.title,
        "x_label": panel.x_label,
        "x": list(panel.x_values),
        "series": {name: list(values) for name, values in panel.series.items()},
    }
    return json.dumps(payload, indent=2)


def write_artefact(
    path: str | Path,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> Path:
    """Write a table to ``path``; format chosen by suffix (.csv / .json).

    Raises:
        ConfigurationError: for an unsupported suffix.
    """
    path = Path(path)
    if path.suffix == ".csv":
        text = table_to_csv(headers, rows)
    elif path.suffix == ".json":
        text = table_to_json(headers, rows)
    else:
        raise ConfigurationError(
            f"unsupported export suffix {path.suffix!r}; use .csv or .json"
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path
