"""Readers and writers the tests need beside the program's own writers.

The program writes trajectory CSV (``artifacts.write_artifacts``) and reads
solution-constants fixtures (``pmp.load_solution_constants``); the tests
read the CSV back and write fixtures, with the column names and JSON form
the program uses, and snapshot output directories.
"""
import csv
import json

import numpy as np

from trident47.charts import ORIGINAL
from trident47.pmp import _BASE_COLUMNS, _CONTROL_COLUMNS, _MOMENTA_COLUMNS, Trajectory


def read_trajectory_csv(path) -> Trajectory:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        data = np.array([[float(v) for v in row] for row in reader])
    if tuple(header[:8]) != _BASE_COLUMNS:
        raise ValueError(f"unexpected trajectory header {header[:8]}")
    blocks = [data[:, header.index(names[0]):header.index(names[0]) + len(names)]
              if names[0] in header else None for names in (_MOMENTA_COLUMNS, _CONTROL_COLUMNS)]
    return Trajectory(ORIGINAL, data[:, 0], data[:, 1:8], *blocks, None)


def save_solution_constants(c, path) -> None:
    with open(path, "w") as fh:
        json.dump(c.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def tree_bytes(root) -> dict:
    """Every path under root, relative, with its bytes (None for a directory)."""
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
            for p in sorted(root.rglob("*"))}
