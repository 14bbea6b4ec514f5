"""Row-by-row reference forms of the time-tag CSV reader and writer.

`ingest_timetags` is the `csv.reader` loop that parsed every row into
Python lists, with an unconditional `np.lexsort`, before
`timebin.coincidence.ingest_timetags` decoded export's own rows as byte
blocks and read every other file with its own csv row loop.  It serves as
the oracle of the ingest conformance tests: for any file it accepts, both
read paths must return the same arrays bit for bit with the same warnings,
and for any file it rejects, the same ParseError message and line.  Files
holding a byte that is not UTF-8 are outside its domain: it fails on them
with a UnicodeDecodeError, and on a field over csv's field limit with
csv.Error.

`export_timetags` is the writer that formatted each chunk of rows with one
`"%s,%.6f,%d\r\n"` template before `timebin.coincidence.export_timetags`
built the rows as byte matrices; the array writer must match its bytes.
"""
from __future__ import annotations

import csv
import math
import warnings
from pathlib import Path

import numpy as np

from timebin.coincidence import TagArrays
from timebin.errors import ParseError

_CSV_HEADER = ["detector", "time_ns", "repetition"]
_MAX_REPETITION = 2**63 - 1
_EXPORT_CHUNK = 65_536
_ROW_FORMAT = "%s,%.6f,%d\r\n"


def export_timetags(path, tags: TagArrays) -> None:
    """Write tags as `detector,time_ns,repetition` rows, one %-template per
    chunk of rows."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_CSV_HEADER) + "\r\n")
        for lo in range(0, len(tags), _EXPORT_CHUNK):
            hi = lo + _EXPORT_CHUNK
            fh.write(format_rows(tags.detector[lo:hi], tags.time[lo:hi],
                                 tags.repetition[lo:hi]))


def format_rows(det, time, rep) -> str:
    """The rows of one chunk through one %-template."""
    fields = [None] * (3 * len(time))
    fields[0::3] = np.where(det == 0, "D1", "D2").tolist()
    fields[1::3] = time.tolist()
    fields[2::3] = rep.tolist()
    return (_ROW_FORMAT * len(time)) % tuple(fields)


def ingest_timetags(path) -> TagArrays:
    """Parse, validate and sort a time-tag CSV, one row at a time."""
    path = Path(path)
    det_codes, times, reps = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return TagArrays(np.zeros(0, np.int8), np.zeros(0), np.zeros(0, np.int64))
        if [h.strip() for h in header] != _CSV_HEADER:
            raise ParseError(f"header {header!r} does not match {_CSV_HEADER!r}", line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ParseError(f"expected 3 fields, got {len(row)}", line=lineno)
            det, t, rep = row
            if det not in ("D1", "D2"):
                raise ParseError(f"unknown detector {det!r}", line=lineno)
            try:
                t_val = float(t)
                r_val = int(rep)
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            if not math.isfinite(t_val):
                raise ParseError(f"non-finite time {t!r}", line=lineno)
            if t_val < 0:
                raise ParseError(f"negative time {t_val}", line=lineno)
            if r_val < 0:
                raise ParseError(f"negative repetition {r_val}", line=lineno)
            if r_val > _MAX_REPETITION:
                raise ParseError(f"repetition {r_val} above 2^63 - 1", line=lineno)
            det_codes.append(0 if det == "D1" else 1)
            times.append(t_val)
            reps.append(r_val)
    arr = TagArrays(np.array(det_codes, np.int8), np.array(times, float),
                    np.array(reps, np.int64))
    for d in (0, 1):
        sel = arr.detector == d
        d_rep = np.diff(arr.repetition[sel])
        if np.any((d_rep < 0) | ((d_rep == 0) & (np.diff(arr.time[sel]) < 0))):
            warnings.warn(f"non-monotone timestamps in detector D{d + 1} stream; sorting",
                          stacklevel=2)
    order = np.lexsort((arr.detector, arr.time, arr.repetition))
    return TagArrays(arr.detector[order], arr.time[order], arr.repetition[order])
