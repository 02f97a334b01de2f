"""Report bundles emitted by every CLI command, and the package's one CSV writer.

A bundle is a plain dict: echoed inputs, a results block, optional
per-point residuals, and a provenance block (tool version + config hash).
Timestamps are deliberately absent so identical config and seed give a
byte-identical result document.
"""

from __future__ import annotations

import io
import json
import math
import os
from functools import cached_property
from typing import Optional, Sequence

from . import __version__
from .config import config_hash
from .errors import DomainError


def float_column(col) -> bool:
    """Whether col is a float array, told by its dtype so numpy need not be loaded."""
    return getattr(getattr(col, "dtype", None), "kind", None) == "f"


def _csv_cells(col) -> list:
    """A float array's cells as float.__repr__; any other cell as str() (None
    as empty), quoted where it holds a comma, a quote or a line break."""
    if float_column(col):
        return list(map(float.__repr__, col.tolist()))
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
        """name -> JSON cell texts, names sorted; float.__repr__ is what json and
        csv.writer write for a float.  A NaN or inf raises json's ValueError."""
        values = {k: self[k].tolist() if float_column(self[k]) else list(self[k]) for k in sorted(self)}
        try:  # json.dumps raises at a non-finite cell; the dump in row order names the first one
            return {k: list(map(float.__repr__, v)) if float_column(self[k]) and all(map(math.isfinite, v))
                    else [json.dumps(c, allow_nan=False) for c in v] for k, v in values.items()}
        except ValueError:
            json.dumps(list(zip(*values.values())), indent=2, allow_nan=False)
            raise


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
    row = "    {\n" + ",\n".join(f"      {json.dumps(k).replace('%', '%%')}: %s" for k in cells) + "\n    }"
    rows = ",\n".join(map(row.__mod__, zip(*cells.values())))
    at = text.index('\n  "results": ')  # "residuals" sorts just before; at indent 2 this is the top-level key
    return text[:at] + '\n  "residuals": ' + (f"[\n{rows}\n  ]" if rows else "[]") + "," + text[at:]


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
