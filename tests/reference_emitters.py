"""Reference emitters: the recursive JSON and CSV writers that walk a report
one value at a time, each matrix first turned into its {"dim", "entries"}
layout by a per-entry loop.  The CLI writes matrices straight from their
arrays; the tests hold its bytes to these."""

import csv
import io
import json
import math

import numpy as np

_NONFINITE = {math.inf: "Infinity", -math.inf: "-Infinity"}


def matrix_layout(mat):
    mat = np.asarray(mat, dtype=complex)
    return {"dim": mat.shape[0],
            "entries": [[float(z.real), float(z.imag)] for z in mat.reshape(-1)]}


def with_matrix_layouts(obj):
    """The payload with every ndarray replaced by its layout."""
    if isinstance(obj, np.ndarray):
        return matrix_layout(obj)
    if isinstance(obj, dict):
        return {key: with_matrix_layouts(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [with_matrix_layouts(val) for val in obj]
    return obj


def _json_float(x):
    x = float(x)
    return x if math.isfinite(x) else _NONFINITE.get(x, "NaN")


def _jsonable(obj):
    if isinstance(obj, float):
        return _json_float(obj)
    if isinstance(obj, dict):
        return {key: _jsonable(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(val) for val in obj]
    if isinstance(obj, complex):
        return [_json_float(obj.real), _json_float(obj.imag)]
    return obj


def json_text(payload):
    return json.dumps(_jsonable(with_matrix_layouts(payload)), allow_nan=False) + "\n"


def _flatten(prefix, obj, rows):
    if isinstance(obj, dict):
        for key, val in obj.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), val, rows)
    elif isinstance(obj, (list, tuple)):
        for i, val in enumerate(obj):
            _flatten(f"{prefix}[{i}]", val, rows)
    else:
        rows.append((prefix, obj))


def _csv_float(x):
    x = float(x)
    return format(x, ".17g") if math.isfinite(x) else _json_float(x)


def _csv_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return ""
    if isinstance(v, complex):
        return f"{_csv_float(v.real)}{'+' if v.imag >= 0 else '-'}{_csv_float(abs(v.imag))}i"
    if isinstance(v, float):
        return _csv_float(v)
    return str(v)


def csv_text(payload):
    payload = with_matrix_layouts(payload)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    rows = payload.get("rows") if isinstance(payload, dict) else None
    if isinstance(rows, list) and rows and all(isinstance(r, dict) for r in rows):
        header = []
        for row in rows:
            for key in row:
                if key not in header:
                    header.append(key)
        writer.writerow(header)
        for row in rows:
            writer.writerow(_csv_cell(row.get(k)) for k in header)
        return out.getvalue()
    flat = []
    _flatten("", payload, flat)
    writer.writerow(["key", "value"])
    for key, val in flat:
        writer.writerow([key, _csv_cell(val)])
    return out.getvalue()
