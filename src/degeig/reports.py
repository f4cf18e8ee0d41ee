"""Deterministic report and table emission.

Reports are JSON documents written by a small serializer that prints every
float with 17 significant digits, so two runs with the same configuration and
seed produce byte-identical files; the command line runs on one OpenBLAS
thread, so OPENBLAS_NUM_THREADS moves no digit. Wall-clock information lives
in a separate 'meta' field, the single nondeterministic part of a report.
Small tables are CSV in the same format. Eigenvector tables are NumPy .npy files: the float64 bits
themselves behind a short text header, which write in about 1% of the time
"%.17g" text takes and read back with np.load.
"""

import dataclasses
import json
import time

import numpy as np


def format_float(x):
    if np.isnan(x):
        return "null"
    if np.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return "%.17g" % x


def _serialize(obj, indent):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [inner + _serialize(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            inner + json.dumps(str(k)) + ": " + _serialize(v, indent + 1)
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj):
    return _serialize(obj, 0) + "\n"


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(dumps(obj))


def run_meta():
    """The only nondeterministic report content, kept in its own field."""
    return {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


def write_csv(path, header, rows):
    """CSV with a header row; every value printed with 17 significant digits.

    The rows are converted to one float table, so an integral value such as a
    mesh size prints as an integer ("%.17g").
    """
    np.savetxt(path, np.asarray(rows, dtype=float), fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")


def write_npy(path, names, columns):
    """One .npy file holding a structured array with a little-endian float64
    field per name, filled from the matching column.

    The table has as many rows as the longest column; a shorter column fills
    the leading rows of its field and leaves the rest zero. The array is
    allocated once and each column is copied into its field, so no other
    table-sized array is made. Read a field back with np.load(path)[name].
    """
    rows = max(len(c) for c in columns)
    table = np.zeros(rows, dtype=[(name, "<f8") for name in names])
    for name, column in zip(names, columns, strict=True):
        table[name][:len(column)] = column
    with open(path, "wb") as fh:
        np.save(fh, table, allow_pickle=False)
