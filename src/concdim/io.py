"""The package's one reader and one writer of files.

Every CSV file concdim reads goes through :func:`read_csv_rows`, and every
CSV and JSON file it writes through :func:`write_csv` and
:func:`write_json`, so reruns with equal inputs produce identical bytes:
floats are written as ``repr(float(v))`` (the shortest round-tripping
form), everything else as ``csv`` formats it, and JSON keys are sorted.
Every manifest, of a command or of an experiment, is written by
:func:`write_manifest`, which stamps it with the package version and the
RNG algorithm.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from . import __version__
from .errors import InputError

#: the bit generator behind every seeded draw, recorded in each manifest.
RNG_ALGORITHM = "numpy PCG64"


def read_csv_rows(path) -> tuple[list[str] | None, list[list[float]]]:
    """``(header, rows)`` of a CSV of numbers: a first record that does not
    parse as numbers is the header (None if there is none), empty cells and
    blank lines are skipped, and every row, the header too, must have one
    width.  Parsing is locale-independent with ``.`` as the decimal
    separator.  A file that cannot be opened or read as CSV text is an
    ``InputError`` that names it."""
    try:
        with open(path, newline="") as fh:
            return _parse_csv_rows(path, csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"{path}: cannot read: {exc}") from None


def _parse_csv_rows(path, records) -> tuple[list[str] | None, list[list[float]]]:
    rows: list[list[float]] = []
    header: list[str] | None = None
    for lineno, rec in enumerate(records, start=1):
        rec = [c.strip() for c in rec if c.strip() != ""]
        if not rec:
            continue
        if header is None and rows == []:
            try:
                rows.append([float(c) for c in rec])
                continue
            except ValueError:
                header = rec
                continue
        try:
            rows.append([float(c) for c in rec])
        except ValueError as exc:
            raise InputError(f"{path}: line {lineno}: {exc}") from None
    if not rows:
        raise InputError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise InputError(f"{path}: ragged rows (widths {sorted(widths)})")
    if header is not None and len(header) not in widths:
        raise InputError(f"{path}: the header names {len(header)} columns, "
                         f"the rows hold {widths.pop()}")
    return header, rows


def split_weight_column(header, data: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """``(data without the weight column, normalized weights)`` where the
    header names a ``weight`` column, else ``(data, None)``."""
    if header is not None and "weight" in header:
        wi = header.index("weight")
        w = data[:, wi]
        data = np.delete(data, wi, axis=1)
        total = w.sum()
        if total <= 0:
            raise InputError("weight column must have positive total mass")
        return data, w / total
    return data, None


def write_csv(path, header, rows) -> None:
    """Write a header row and then `rows`, floats as ``repr``."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def write_json(path, payload: dict) -> None:
    """Write `payload` with sorted keys, two-space indent and a final newline.
    A non-finite float is a ValueError, raised before the file is opened:
    JSON has no such number."""
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_manifest(path, **fields) -> dict:
    """Write `fields`, with the package version and the RNG algorithm, as
    JSON (:func:`write_json`); return what was written."""
    payload = {"package_version": __version__, "rng_algorithm": RNG_ALGORITHM, **fields}
    write_json(path, payload)
    return payload
