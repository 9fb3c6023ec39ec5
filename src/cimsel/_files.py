"""The one writer of each file format cimsel writes.

JSON files are indented by one space and end in a newline.  CSV files are
comma-separated with ``\\n`` line ends, optionally after a ``# format: N``
first line, and write ``bool`` cells as ``true``/``false`` and floats in
their shortest round-trip form.  Callers convert numpy scalars with
``float()``/``bool()`` first: ``csv`` would print them as ``np.float64(...)``
and ``True``.
"""

from __future__ import annotations

import csv
import json


def write_json(path, payload, sort_keys: bool = False) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=sort_keys)
        fh.write("\n")


def write_csv(path, header, rows, version: int | None = None) -> None:
    with open(path, "w", newline="") as fh:
        if version is not None:
            fh.write(f"# format: {version}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [("true" if v else "false") if type(v) is bool else v for v in row]
            for row in rows
        )
