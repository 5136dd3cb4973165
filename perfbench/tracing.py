"""Spans around calls into trident47's public functions, and self times.

The benchmark times each module from outside: ``Tracer.install`` replaces
every reference to a listed public function, in every loaded ``trident47``
module, by a wrapper that records a span (name, start, end, parent).  Spans
live in memory in one flat ``array('q')`` and are written once, when the
run ends.  A span's self time is its duration minus the durations of its
direct children; children never overlap because the program is single
threaded.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

#: public functions timed per module, as "module.function"
TARGETS = (
    "fields.evaluate",
    "mechanism.controllability",
    "mechanism.pfaffian_signature",
    "mechanism.check_dynamic_pair",
    "mechanism.horizontal_frame",
    "nilpotent.from_adapted",
    "nilpotent.nilpotent_frame_matrix",
    "nilpotent.check_left_invariance",
    "symmetry.symmetry_flow",
    "symmetry.flow_invariance_report",
    "symmetry.so3_structure",
    "symmetry.check_symmetry_conditions",
    "symmetry.w_structure_report",
    "pmp.integrate_extremal",
    "pmp.closed_form_base",
    "pmp.bracket_motion",
    "pmp.write_trajectory_csv",
)

#: the lambdify compile caches (functools caches); a later version of the
#: program may drop any of them, which then simply contributes nothing
COMPILE_CACHES = (
    "fields._compiled",
    "fields._compiled_denominators",
    "symmetry._field_jacobian_fn",
)

#: RK4 integrators of pmp whose returned trajectory length gives the step count
_RK4_FUNCTIONS = ("pmp.integrate_extremal", "pmp.bracket_motion")


def _module(short: str):
    return sys.modules.get(f"trident47.{short}")


def compile_cache_counts() -> tuple[int, int]:
    """(hits, misses) summed over the lambdify compile caches loaded now."""
    hits = misses = 0
    for dotted in COMPILE_CACHES:
        mod_name, attr = dotted.split(".")
        fn = getattr(_module(mod_name), attr, None)
        if fn is not None and hasattr(fn, "cache_info"):
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
    return hits, misses


class Tracer:
    """Records spans around the listed public functions while installed."""

    def __init__(self):
        self.names: list[str] = list(TARGETS)
        self.spans = array("q")
        self.counters = {"pmp.rk4_steps": 0, "pmp.integrate_extremal.steps": 0,
                         "pmp.write_trajectory_csv.bytes": 0}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid: int) -> int:
        idx = len(self.spans) // 4
        self.spans.extend((nid, time.perf_counter_ns(), 0, self._stack[-1]))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[4 * idx + 2] = time.perf_counter_ns()

    @contextmanager
    def span(self, name: str):
        """A root (or nested) span that is not a program function, e.g. one op."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if name in _RK4_FUNCTIONS:
                steps = len(out) - 1
                counters["pmp.rk4_steps"] += steps
                if name == "pmp.integrate_extremal":
                    counters["pmp.integrate_extremal.steps"] += steps
            elif name == "pmp.write_trajectory_csv":
                path = args[1] if len(args) > 1 else kwargs["path"]
                counters["pmp.write_trajectory_csv.bytes"] += os.path.getsize(path)
            return out

        return wrapper

    def install(self) -> None:
        """Patch every reference to each target in the loaded trident47 modules."""
        if self._patches:
            return
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "trident47" or n.startswith("trident47."))]
        for name in self.names:
            mod_name, _, attr = name.partition(".")
            original = getattr(_module(mod_name), attr, None)
            if not callable(original):
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def dump(self, path: str, extra: dict | None = None) -> None:
        """Write the spans (binary int64 rows) and a JSON header beside them."""
        with open(path + ".bin", "wb") as fh:
            self.spans.tofile(fh)
        header = {"names": self.names, "counters": self.counters}
        header.update(extra or {})
        with open(path + ".json", "w") as fh:
            json.dump(header, fh)


def load_self_times(path: str) -> tuple[dict, dict, dict]:
    """Per-name (calls, self_ns) from a dumped trace, plus its header counters.

    Returns ({name: calls}, {name: self_ns}, header).
    """
    with open(path + ".json") as fh:
        header = json.load(fh)
    rows = np.fromfile(path + ".bin", dtype=np.int64).reshape(-1, 4)
    names = header["names"]
    if len(rows) == 0:
        return {}, {}, header
    dur = rows[:, 2] - rows[:, 1]
    child = np.zeros(len(rows), dtype=np.int64)
    nested = rows[:, 3] >= 0
    np.add.at(child, rows[nested, 3], dur[nested])
    self_ns = dur - child
    calls = np.bincount(rows[:, 0], minlength=len(names))
    selfs = np.bincount(rows[:, 0], weights=self_ns, minlength=len(names))
    return ({n: int(calls[i]) for i, n in enumerate(names)},
            {n: float(selfs[i]) for i, n in enumerate(names)}, header)
