"""The one artifact writer: every output file of a CLI job or script passes through it.

A JSON report is a dict, a CSV a ``(header, columns)`` table of float
columns; a job passes all of its files to one call, which writes all of
them or none.  The module imports only the standard library and numpy, so a
job that writes only JSON loads none of the integrators.
"""
from __future__ import annotations

import csv
import errno
import json
import os

import numpy as np

#: rows per formatted block of a CSV artifact; bounds the writer's memory
CSV_BLOCK_ROWS = 1024


def write_artifacts(artifacts: dict) -> None:
    """Write every output file of a job, all or none; each path maps to an ``_encode`` payload.

    A directory path or columns of unequal length are refused before the
    first write.  Each file streams to ``<path>.<pid>.part`` beside its
    target (mode as ``open(path, "w")``), and the staged files replace their
    targets once all were written; on any error they are removed.
    """
    for path, payload in artifacts.items():
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        if not isinstance(payload, dict) and len(set(lengths := list(map(len, payload[1])))) > 1:
            raise ValueError(f"CSV columns have unequal lengths {lengths}")
    staged = []
    try:
        for path, payload in artifacts.items():
            try:
                fh = open(f"{path}.{os.getpid()}.part", "x", newline="")
            except (FileNotFoundError, NotADirectoryError, PermissionError) as exc:
                exc.filename = str(path)  # the message of open(path, "w")
                raise
            with fh:
                staged.append(fh.name)
                _encode(fh, payload)
        for path in artifacts:
            os.replace(staged.pop(0), path)
    except BaseException:
        for part in staged:
            os.remove(part)
        raise


def _encode(fh, payload) -> None:
    """Write one artifact to an open text file: a dict as JSON, a ``(header,
    columns)`` table of equal-length float columns as CSV at 17 significant digits.

    Per block of CSV_BLOCK_ROWS rows, each distinct column is formatted
    once, with one ``%`` on a "%.17g" template, and the rows are joined
    from the per-column texts, so memory is bounded by the block, not the
    table.  Columns whose block bytes are equal share one text (an
    extremal's u1..u4 are its h1..h4), and a block column holding one value
    bit for bit formats it once.  The bytes are those of csv.writer on
    format(v, ".17g") (nan, inf and -0 included), and the floats written
    are exactly the floats a reader gets back.
    """
    if isinstance(payload, dict):
        fh.write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
        return
    columns = [np.asarray(c) for c in payload[1]]
    csv.writer(fh).writerow(payload[0])
    for start in range(0, max(map(len, columns), default=0), CSV_BLOCK_ROWS):
        texts, cells = {}, []
        for c in columns:
            block = c[start:start + CSV_BLOCK_ROWS]
            key = (block.dtype.str, block.tobytes())
            if key not in texts:
                m, raw = len(block), key[1]
                if raw == raw[:block.itemsize] * m:
                    texts[key] = _format17(block[:1].tolist()) * m
                else:
                    texts[key] = _format17(block.tolist())
            cells.append(texts[key])
        fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _format17(values: list) -> list[str]:
    """format(v, ".17g") of each of a non-empty list of values, in one ``%``."""
    return ("\n".join(["%.17g"] * len(values)) % tuple(values)).split("\n")
