"""The package's one reader and one writer of files.

Every CSV file concdim reads goes through :func:`read_csv_rows`, and every
file it writes through :func:`write_outputs`, CSV files by way of
:func:`write_csv`, so reruns with equal inputs produce identical bytes:
floats are written as ``repr(float(v))`` (the shortest round-tripping
form), everything else as ``csv`` formats it, and JSON keys are sorted.
Every manifest, of a command or of an experiment, is encoded by
:func:`write_outputs`, which stamps it with the package version and the
RNG algorithm.

This module also owns the output directory.  :func:`check_writable`
refuses, before any work and without creating anything, a directory that
cannot be made; :func:`write_outputs`, called once the work is done, is
the one place that makes an output directory and writes its files and
manifest, after the manifest is encoded.  Either failure is an
``OutputError``.
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InputError, OutputError

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


def check_writable(out_dir) -> None:
    """Refuse an `out_dir` that cannot be made, before any work is done:
    its nearest existing ancestor must be a writable directory.  Nothing is
    created; :func:`write_outputs` makes `out_dir` once the work is done."""
    p = Path(out_dir).absolute()
    while not p.exists():
        p = p.parent
    if not (p.is_dir() and os.access(p, os.W_OK | os.X_OK)):
        raise OutputError(f"output directory {out_dir} is not writable: "
                          f"{p} is not a writable directory")


def write_outputs(out_dir, files, manifest: str, **fields) -> dict:
    """Write a finished piece of work to `out_dir`; return its manifest.

    `fields`, stamped with the package version and the RNG algorithm, are
    encoded first, as JSON with sorted keys, a two-space indent and a final
    newline: a non-finite float is a ValueError, raised before anything is
    made, as JSON has no such number.  Only then is `out_dir` made, each
    ``(name, write)`` pair of `files` written as ``write(path)``, and the
    manifest written to the file `manifest`.  An OSError on the way is an
    ``OutputError``."""
    payload = {"package_version": __version__, "rng_algorithm": RNG_ALGORITHM, **fields}
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, write in files:
            write(out / name)
        (out / manifest).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OutputError(f"output directory {out} is not writable: {exc}") from exc
    return payload
