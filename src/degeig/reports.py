"""Deterministic report and table emission.

Reports are JSON documents written by a small serializer that prints every
float with 17 significant digits, so two runs with the same configuration and
seed produce byte-identical files. Wall-clock information lives in a separate
'meta' field, the single nondeterministic part of a report.
"""

import dataclasses
import json
import time

import numpy as np

CSV_BLOCK_ROWS = 4096  # rows formatted per call by write_csv


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
    mesh size prints as an integer ("%.17g"). The table is formatted
    CSV_BLOCK_ROWS rows per call, which keeps the Python floats and the text
    of only one block alive at a time.
    """
    table = np.asarray(rows, dtype=float)
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), CSV_BLOCK_ROWS):
            block = table[start:start + CSV_BLOCK_ROWS]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))
