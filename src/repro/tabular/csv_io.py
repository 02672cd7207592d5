"""CSV round-trips for :class:`repro.tabular.Table`.

Used by the dataset loaders to ingest the *real* German/Adult/SQF files when
a user has them on disk; the offline default is the synthetic generators.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from repro.tabular.table import Table


def read_csv(path: str | Path, numeric_columns: set[str] | None = None) -> Table:
    """Read a CSV file with a header row into a :class:`Table`.

    Columns listed in ``numeric_columns`` are parsed as floats; any other
    column whose every value parses as a float is also treated as numeric,
    the rest become categorical.  A numeric column must hold finite
    numbers: a ``nan``/``inf`` cell, or a forced-numeric cell that does not
    parse, raises ``ValueError`` naming the file, the column and the row
    (counted from 1 after the header).
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path} is empty") from None
        rows = [row for row in reader if row]
    if not rows:
        raise ValueError(f"{path} has a header but no data rows")
    widths = {len(r) for r in rows}
    if widths != {len(header)}:
        raise ValueError(f"{path} has ragged rows: widths {sorted(widths)} vs header {len(header)}")

    data: dict[str, list[object]] = {}
    for j, name in enumerate(header):
        raw = [row[j] for row in rows]
        force_numeric = numeric_columns is not None and name in numeric_columns
        parsed = [_float(v) for v in raw]
        if None in parsed and not force_numeric:
            data[name] = raw
            continue
        for i, (cell, value) in enumerate(zip(raw, parsed), 1):
            if value is None or not math.isfinite(value):
                raise ValueError(
                    f"{path}: numeric column {name!r} row {i} holds {cell!r}, "
                    "which is not a finite number"
                )
        data[name] = parsed
    return Table.from_dict(data)


def write_csv(table: Table, path: str | Path) -> None:
    """Write a :class:`Table` to ``path`` with a header row."""
    path = Path(path)
    materialized = table.to_dict()
    names = list(materialized)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for i in range(table.num_rows):
            writer.writerow([materialized[name][i] for name in names])


def _float(value: str) -> float | None:
    try:
        return float(value)
    except ValueError:
        return None
