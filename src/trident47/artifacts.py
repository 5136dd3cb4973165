"""The one artifact writer: every output file of a CLI job or script passes through it.

A JSON report is a dict, a CSV a ``(header, columns)`` table of float
columns; a job passes all of its files to one call, which writes all of
them or none.  The module imports only the standard library and numpy, so a
job that writes only JSON loads none of the integrators.

CSV values are written as ``format(v, ".17g")`` writes them, a block of
rows at a time, by a numpy kernel (``_cells17``).  Its certified range is
|x| in [1e-4, 1e16), and +-0.  There k = floor(log10 |x|) is read against
exact thresholds, and |x| 10**(16 - k) is formed exactly as Dekker's
error-free product hi + lo (Dekker, Numer. Math. 18, 1971): the scale
10**(16 - k) <= 1e20 is an exact double, both factors are split into
26-bit halves whose products are exact, and hi + lo is the product with no
error.  The product lies in [1e16, 1e17), so hi >= 2**53 is an even integer
and hi + rint(lo) is the product rounded to an integer, an exact tie to even
as %.17g rounds it (rint rounds lo half to even, and hi is even): the 17
significant digits, which are read four at a time from a table.  None of
them rounds up to 1e17, as the largest double below each power of ten lies
at least 8 units of the 17th digit below it, so k is also the exponent that
%.17g writes, and it fixes where the point goes.  The other values go through
``_format17``, the per-value ``%.17g`` and their only path: nan and inf,
and |x| below 1e-4 or from 1e16 on (mostly exponent form).
"""
from __future__ import annotations

import bisect
import csv
import errno
import functools
import json
import math
import os

import numpy as np

#: rows per formatted block of a CSV artifact; bounds the writer's memory
CSV_BLOCK_ROWS = 256

# bytes per CSV cell: the widest %.17g text ("-1.7976931348623157e+308"),
# then the separator and a NUL, or the row's "\r\n"
_CELL = 26


def write_artifacts(artifacts: dict) -> None:
    """Write every output file of a job, all or none; each path maps to an ``_encode`` payload.

    A directory path or columns of unequal length are refused before the
    first write.  Each file streams to ``<path>.<pid>.part`` beside its
    target (mode as ``open(path, "w")``), and the staged files replace their
    targets once all were written; on any error they are removed.  A
    staging file of the same name is this process's (it carries the pid),
    left by a killed job whose pid was reused: it is overwritten.
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
                fh = open(f"{path}.{os.getpid()}.part", "w", newline="")
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

    The bytes are those of csv.writer on format(v, ".17g") (nan, inf and -0
    included), and the floats written are exactly the floats a reader gets
    back.  Per block of CSV_BLOCK_ROWS rows, the distinct block columns pass
    through ``_cells17`` as one float64 array (ints are written as the
    floats ``%.17g`` makes of them): columns with equal bytes (an extremal's
    u1..u4 are its h1..h4) share their cells, and a column holding one
    value bit for bit passes that value once.  One gather lays the cells
    out as rows of fixed-width NUL-padded cells, and the NULs are dropped
    once per block, so memory is bounded by the block, not the table.
    """
    if isinstance(payload, dict):
        fh.write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
        return
    columns = [np.asarray(c) for c in payload[1]]
    csv.writer(fh).writerow(payload[0])
    for start in range(0, max(map(len, columns), default=0), CSV_BLOCK_ROWS):
        blocks = [c[start:start + CSV_BLOCK_ROWS] for c in columns]
        m = len(blocks[0])
        parts, spans, where = [], {}, []  # distinct block columns; each column's (offset, step)
        for block in blocks:
            key = (block.dtype.str, raw := block.tobytes())
            if key not in spans:
                const = raw == raw[:block.itemsize] * m
                spans[key] = (sum(map(len, parts)), 0 if const else 1)
                parts.append(block[:1] if const else block)
            where.append(spans[key])
        cells, rank = _cells17(np.concatenate(parts).astype(np.float64, copy=False))
        offset, step = zip(*where)
        text = bytearray(m * len(blocks) * _CELL)
        rows = np.frombuffer(text, np.uint8).reshape(m, len(blocks), _CELL)
        # (the indices are in range; "clip" lets take write into rows unbuffered)
        cells.take(rank.take(np.multiply.outer(np.arange(m), step) + offset), axis=0,
                   out=rows, mode="clip")
        rows[:, -1, -2:] = (13, 10)  # "\r\n"
        fh.write(text.translate(None, b"\0").decode("ascii"))


def _format17(values: list) -> list[str]:
    """format(v, ".17g") of each of a non-empty list of values, in one ``%``."""
    return ("\n".join(["%.17g"] * len(values)) % tuple(values)).split("\n")


@functools.cache
def _kernel_tables():
    """The tables of ``_cells17``, built on the first CSV write."""
    low = []  # low[k + 4]: the least double >= 10**k, k = -4..16
    for k in range(-4, 17):
        v = float(f"1e{k}")  # the double nearest 10**k, 10**k itself for k >= 0
        p, q = v.as_integer_ratio()
        low.append(math.nextafter(v, math.inf) if k < 0 and p * 10**-k < q else v)
    # values of binary exponent e (frexp) lie in [2**(e-1), 2**e): decimal exponent
    # index kt[e + 13] or, from threshold thr[e + 13] on, the next one
    kt = [min(max(bisect.bisect_right(low, 2.0 ** (e - 1)) - 1, 0), 19) for e in range(-13, 55)]
    thr = [low[i + 1] for i in kt]
    # scale[k + 4] = 10**(16 - k) and its Veltkamp split into 26-bit halves
    scale = [float(10 ** (16 - k)) for k in range(-4, 16)]
    scale_hi = [v * 134217729.0 - (v * 134217729.0 - v) for v in scale]
    scale_lo = [v - h for v, h in zip(scale, scale_hi)]
    # 4-digit groups 0000..9999 as uint32 of their ASCII bytes; entries 10000+
    # have their trailing zeros as NUL (0 is all NUL)
    digits = np.indices((10, 10, 10, 10), np.uint8).reshape(4, -1).T.copy() + 48
    stripped = digits * np.logical_or.accumulate(digits[:, ::-1] != 48, axis=1)[:, ::-1]
    groups = np.concatenate([digits, stripped]).view(np.uint32).ravel()
    return (np.array(low), np.array(kt), np.array(thr), np.array(scale), np.array(scale_hi),
            np.array(scale_lo), groups)


def _cells17(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSV cells of a float64 array, and where each value's cell is.

    Returns ``cells``, an (n, _CELL) uint8 array of NUL-padded format(v,
    ".17g") texts each followed by "," and a NUL, and ``rank``, with
    ``cells[rank[j]]`` the cell of ``x[j]``: the cells are sorted by decimal
    exponent, so each exponent class is laid out by slices.
    """
    low, kt, thr, scale, scale_hi, scale_lo, groups = _kernel_tables()
    n = len(x)
    a = np.abs(x)
    fast = a >= low[0]
    fast &= a < 1e16
    s = np.where(fast, a, 1.0)  # +-0 and the fallbacks take k = 0 and the product 0
    np.copyto(a, 0.0, where=~fast)
    e = np.frexp(s)[1]
    e += 13
    ki = kt.take(e)  # k + 4, with k = floor(log10 |x|)
    ki += s >= thr.take(e)
    # Dekker: hi + lo = a * scale exactly, from the 26-bit halves of a and of the scale
    hi = a * scale.take(ki)
    c = np.multiply(a, 134217729.0, out=s)
    t = c - a
    c -= t  # the high half of a
    a -= c  # its low half
    scale_hi.take(ki, out=t)
    lo = c * t
    lo -= hi
    t *= a
    b = scale_lo.take(ki)
    c *= b
    lo += c
    lo += t
    a *= b
    lo += a
    r = np.rint(lo, out=a)
    digits = hi.astype(np.int64)
    digits += r.astype(np.int64)  # the 17 significant digits
    fallback = ~fast & (x != 0)
    del a, s, e, hi, c, t, lo, b, r, fast  # the float scratch, before the digit stage

    order = np.argsort(ki.astype(np.uint8), kind="stable")
    bounds = [0, *np.cumsum(np.bincount(ki, minlength=20)).tolist()]
    rank = np.empty_like(order)
    rank[order] = np.arange(n)
    digits = digits.take(order)
    # the 17 digits as d0 and four groups g1..g4, one row of G each; the groups
    # read from their stripped table entries after the last nonzero group
    G = np.empty((5, n), np.intp)
    np.floor_divide(digits, 10**8, out=G[2])
    digits -= G[2] * 10**8
    np.floor_divide(digits, 10**4, out=G[3])
    np.subtract(digits, G[3] * 10**4, out=G[4])
    np.floor_divide(G[2], 10**4, out=G[1])
    G[2] -= G[1] * 10**4
    np.floor_divide(G[1], 10**4, out=G[0])
    G[1] -= G[0] * 10**4
    tail_zero = G[4] == 0
    G[4] += 10000
    for j in (3, 2, 1):
        G[j] += 10000 * tail_zero
        tail_zero &= G[j] == 10000  # g(j)..g4 all zero
    # digit i at [:, i]; d0 is never stripped, and a stripped digit is NUL
    digits = groups.take(G.T).view(np.uint8)[:, 3:]
    del G, tail_zero

    cells = np.zeros((n, _CELL), np.uint8)
    cells[:, 0] = np.signbit(x.take(order))
    cells[:, 0] *= 45  # "-"
    cells[:, 24] = 44  # ","
    for k, (first, end) in enumerate(zip(bounds, bounds[1:]), start=-4):
        if first == end:
            continue
        cell, d = cells[first:end], digits[first:end]
        if k >= 0:  # d0..dk (their NULs are zeros) "." d(k+1)..d16, the point if a digit follows
            np.maximum(d[:, :1 + k], 48, out=cell[:, 1:2 + k])
            np.minimum(d[:, 1 + k], 46, out=cell[:, 2 + k])
            cell[:, 3 + k:19] = d[:, 1 + k:]
        else:  # "0." then -1 - k zeros, d0..d16
            cell[:, 1:2 - k] = 48
            cell[:, 2] = 46
            cell[:, 2 - k:19 - k] = d
    slow = np.flatnonzero(fallback.take(order))
    if len(slow):
        texts = _format17(x.take(order[slow]).tolist())
        cells[slow, :24] = np.array(texts, dtype="S24").view(np.uint8).reshape(-1, 24)
    return cells, rank
