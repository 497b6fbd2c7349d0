"""Matrix file formats.

Binary ".lplr": magic "LPLR", u32 version (= 1), u64 rows, u64 cols, all
little-endian, followed by rows*cols IEEE-754 binary64 values in row-major
order with no padding.  Round-trips bit-exactly.

CSV: comma-separated decimal text, one newline-terminated row per line, no
header.  Values are written with 17 significant digits, which round-trips
float64 exactly.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import HeaderMismatch, ParseError
from .matcore import as_matrix

MAGIC = b"LPLR"
VERSION = 1
_HEADER = struct.Struct("<4sIQQ")


def store_matrix(path, a) -> None:
    """Write a matrix to ``path``: CSV if its suffix is ".csv", else the binary format."""
    path = Path(path)
    m = as_matrix(a, "a")
    if path.suffix.lower() == ".csv":
        lines = "\n".join(",".join(f"{v:.17g}" for v in row) for row in m)
        path.write_text(lines + "\n")
        return
    rows, cols = m.shape
    payload = np.ascontiguousarray(m, dtype="<f8").tobytes()
    path.write_bytes(_HEADER.pack(MAGIC, VERSION, rows, cols) + payload)


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by :func:`store_matrix`; the suffix picks the format as there."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return _load_csv(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise ParseError(f"{path}: file shorter than the {_HEADER.size}-byte header")
    magic, version, rows, cols = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ParseError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise ParseError(f"{path}: unsupported version {version}")
    if rows == 0 or cols == 0:
        raise HeaderMismatch(f"{path}: header declares empty {rows}x{cols} matrix")
    expected = rows * cols * 8
    payload = len(raw) - _HEADER.size
    if payload < expected:
        raise ParseError(f"{path}: payload truncated ({payload} bytes, header promises {expected})")
    if payload > expected:
        raise HeaderMismatch(f"{path}: {payload - expected} trailing bytes beyond the declared shape")
    data = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(rows, cols)
    if not np.all(np.isfinite(data)):
        raise ParseError(f"{path}: non-finite entries in payload")
    return data.astype(np.float64, copy=True)


def _load_csv(path: Path) -> np.ndarray:
    rows = []
    width = None
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ParseError(f"{path}:{lineno}: expected {width} columns, found {len(cells)}")
        row = []
        for offset, cell in enumerate(cells):
            try:
                row.append(float(cell))
            except ValueError:
                raise ParseError(f"{path}:{lineno}: column {offset + 1}: not a number: {cell.strip()!r}") from None
        rows.append(row)
    if not rows:
        raise ParseError(f"{path}: no rows")
    out = np.asarray(rows, dtype=np.float64)
    if not np.all(np.isfinite(out)):
        raise ParseError(f"{path}: non-finite entries")
    return out
