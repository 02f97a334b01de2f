"""Machine-readable report bundles emitted by every CLI command.

A bundle is a plain dict: echoed inputs, a results block, optional
per-point residuals, and a provenance block (tool version + config hash).
Timestamps are deliberately absent so identical config and seed give a
byte-identical result document.
"""

from __future__ import annotations

import io
import json
import os
from typing import Optional

from . import __version__
from .config import config_hash
from .errors import DomainError
from .fitkit import write_csv


def make_bundle(command: str, inputs: dict, results: dict, residuals: Optional[list] = None) -> dict:
    bundle = {
        "command": command,
        "inputs": inputs,
        "results": results,
        "provenance": {"tool": "kipa-lab", "version": __version__, "config_sha256": config_hash(inputs)},
    }
    if residuals is not None:
        bundle["residuals"] = residuals
    return bundle


def bundle_json(bundle: dict) -> str:
    """Strict JSON text of the bundle; a non-finite number in it is a
    DomainError, since strict JSON has no NaN or Infinity."""
    try:
        return json.dumps(bundle, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise DomainError(f"the result holds a non-finite number ({exc})") from None


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
    write_csv(buf, ["key", "value"], rows)
    return buf.getvalue()


def write_bundle(bundle: dict, out_dir: str, json_text: str, csv_text: Optional[str]) -> list[str]:
    """Write the bundle under out_dir from the texts its caller encoded once:
    result.json (bundle_json), result.csv unless csv_text is None
    (bundle_csv), and residuals.csv; returns the created paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, text in (("result.json", json_text), ("result.csv", csv_text)):
        if text is not None:
            paths.append(os.path.join(out_dir, name))
            with open(paths[-1], "w") as fh:
                fh.write(text)
    if "residuals" in bundle and bundle["residuals"]:
        res_path = os.path.join(out_dir, "residuals.csv")
        keys = list(bundle["residuals"][0].keys())
        with open(res_path, "w", newline="") as fh:
            write_csv(fh, keys, ([row[k] for k in keys] for row in bundle["residuals"]))
        paths.append(res_path)
    return paths
