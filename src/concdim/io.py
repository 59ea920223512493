"""The package's one writer of output files.

Every CSV and JSON file concdim writes goes through these two functions,
so reruns with equal inputs produce identical bytes: floats are written as
``repr(float(v))`` (the shortest round-tripping form), everything else as
``csv`` formats it, and JSON keys are sorted.
"""

from __future__ import annotations

import csv
import json


def write_csv(path, header, rows) -> None:
    """Write a header row and then `rows`, floats as ``repr``."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def write_json(path, payload: dict) -> None:
    """Write `payload` with sorted keys, two-space indent and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
