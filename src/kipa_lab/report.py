"""Report bundles emitted by every CLI command, and the package's one CSV writer.

A bundle is a plain dict: echoed inputs, a results block, optional
per-point residuals, and a provenance block (tool version + config hash).
Timestamps are deliberately absent so identical config and seed give a
byte-identical result document.
"""

from __future__ import annotations

import io
import json
import os
from functools import cached_property
from itertools import chain, repeat
from typing import Optional, Sequence

try:  # CPython's built-in SHA-256, which hashlib falls back to: hashlib itself loads OpenSSL (_hashlib), ~2.5 ms of a fresh process
    from _sha256 import sha256
except ImportError:  # Python 3.12 renamed it _sha2, and some builds leave it out
    from hashlib import sha256

from . import __version__
from .errors import DomainError


def float_column(col) -> bool:
    """Whether col is a float array, told by its dtype so numpy need not be loaded."""
    return getattr(getattr(col, "dtype", None), "kind", None) == "f"


def float_cells(col) -> list:
    """Each cell of a float array as float.__repr__ writes it, from one orjson
    call: orjson's shortest round-trip digits are repr's for zero and for
    1e-4 <= |x| < 1e16.  repr writes the other cells, where orjson's layout
    differs (0.00001 and 1e16 for repr's 1e-05 and 1e+16, null for nan)."""
    import numpy as np
    import orjson
    col = np.ascontiguousarray(col, dtype=float)
    if not col.size:
        return []
    cells = orjson.dumps(col, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    mag = np.abs(col)
    for i in np.flatnonzero(~((mag >= 1e-4) & (mag < 1e16) | (col == 0.0))).tolist():
        cells[i] = float.__repr__(float(col[i]))
    return cells


def _csv_cells(col) -> list:
    """A float array's cells as float.__repr__ (float_cells); any other cell as
    str() (None as empty), quoted where it holds a comma, a quote or a line break."""
    if float_column(col):
        return float_cells(col)
    cells = ["" if v is None else str(v) for v in col]
    text = "".join(cells)
    if any(c in text for c in ',"\r\n'):
        cells = ['"' + t.replace('"', '""') + '"' if any(c in t for c in ',"\r\n') else t for t in cells]
    return cells


def write_csv(fh, header: Sequence[str], columns: Sequence) -> None:
    """Write a header and equal-length columns to an open text stream as csv.writer
    writes the rows.  Every CSV file and CSV report of the package goes through here."""
    head, cells = _csv_cells(list(header)), [_csv_cells(c) for c in columns]
    if len(cells) == 1:  # csv.writer quotes a row that is one empty field
        head, cells[0] = [[t or '""' for t in col] for col in (head, cells[0])]
    fh.write("\r\n".join([",".join(head), *map(",".join, zip(*cells)), ""]))


class Table(dict):
    """Residuals as equal-length columns, name -> float numpy array or list of
    JSON scalars, in CSV order.  The cells are encoded once: keep columns fixed."""

    @cached_property
    def cells(self) -> dict:
        """name -> JSON cell texts, names sorted; float.__repr__ (float_cells) is
        what json and csv.writer write for a float.  A NaN or inf raises json's ValueError."""
        try:  # json.dumps raises at a non-finite cell; the dump in row order names the first one
            return {k: _json_cells(self[k]) for k in sorted(self)}
        except ValueError:
            json.dumps(list(zip(*(self[k].tolist() if float_column(self[k]) else self[k] for k in sorted(self)))),
                       indent=2, allow_nan=False)
            raise


def _json_cells(col) -> list:
    """A column's JSON cell texts; json.dumps raises at a non-finite cell."""
    if float_column(col):
        import numpy as np
        if np.isfinite(col).all():
            return float_cells(col)
        col = col.tolist()
    return [json.dumps(c, allow_nan=False) for c in col]


def config_hash(cfg: dict) -> str:
    """SHA-256 of the canonical (sorted-key, compact) JSON encoding; stable
    under key reordering of the source document."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"), allow_nan=True)
    return sha256(canon.encode("utf-8")).hexdigest()


def make_bundle(command: str, inputs: dict, results: dict, residuals: Optional[dict] = None) -> dict:
    bundle = {
        "command": command,
        "inputs": inputs,
        "results": results,
        "provenance": {"tool": "kipa-lab", "version": __version__, "config_sha256": config_hash(inputs)},
    }
    if residuals is not None:
        bundle["residuals"] = Table(residuals)
    return bundle


def bundle_json(bundle: dict) -> str:
    """Strict JSON text of the bundle; a non-finite number in it is a
    DomainError, since strict JSON has no NaN or Infinity.  The residual
    rows are written from the cells of their columns."""
    table = bundle.get("residuals")
    try:
        cells = None if table is None else table.cells
        text = json.dumps({k: v for k, v in bundle.items() if k != "residuals"}, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise DomainError(f"the result holds a non-finite number ({exc})") from None
    if table is None:
        return text
    # Each row's text opens by closing the row before it; the first row's close is sliced off.
    heads = [f",\n      {json.dumps(k)}: " for k in cells]
    if heads:
        heads[0] = "\n    },\n    {\n" + heads[0][2:]
    columns = chain.from_iterable(zip(map(repeat, heads), cells.values()))  # head 0, cells 0, head 1, cells 1, ...
    rows = "".join(chain.from_iterable(zip(*columns)))[len("\n    },"):]
    at = text.index('\n  "results": ')  # "residuals" sorts just before; at indent 2 this is the top-level key
    return text[:at] + '\n  "residuals": ' + (f"[{rows}\n    }}\n  ]" if rows else "[]") + "," + text[at:]


def _flatten(prefix: str, obj, rows: list) -> None:
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], rows)
    elif isinstance(obj, (list, tuple)):
        rows.append((prefix, json.dumps(obj)))
    else:
        rows.append((prefix, obj))


def bundle_csv(bundle: dict) -> str:
    """key,value flattening of the results block (CSV output format)."""
    rows: list = []
    _flatten("", bundle.get("results", {}), rows)
    buf = io.StringIO()
    write_csv(buf, ["key", "value"], list(zip(*rows)) or [(), ()])
    return buf.getvalue()


def write_bundle(bundle: dict, out_dir: str, json_text: str, csv_text: Optional[str]) -> list[str]:
    """Write the bundle under out_dir from the texts its caller encoded once:
    result.json (bundle_json), result.csv unless csv_text is None
    (bundle_csv), and residuals.csv from the cells; returns the created paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, text in (("result.json", json_text), ("result.csv", csv_text)):
        if text is not None:
            paths.append(os.path.join(out_dir, name))
            with open(paths[-1], "w") as fh:
                fh.write(text)
    table = bundle.get("residuals")
    if table and len(next(iter(table.values()))):
        paths.append(os.path.join(out_dir, "residuals.csv"))
        with open(paths[-1], "w", newline="") as fh:
            write_csv(fh, list(table), [table.cells[k] if float_column(col) else col for k, col in table.items()])
    return paths
