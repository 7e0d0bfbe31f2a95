"""Deterministic JSON/CSV report writing.

JSON documents are dumped with sorted keys and Python's shortest-round-trip
float repr, so identical runs produce byte-identical files. A NaN or
infinite float has no RFC 8259 JSON form, so a document holding one is not
written. The shipped JSON Schema files live in ``proxprune/schemas``;
``load_schema`` reads them for any JSON Schema validator (the test suite
uses ``jsonschema``).
"""
from __future__ import annotations

import csv
import io
import json
from importlib import resources
from pathlib import Path


def canonical_json(doc: dict) -> str:
    """Raises ValueError when doc holds a NaN or infinite float."""
    return json.dumps(doc, sort_keys=True, indent=1, allow_nan=False) + "\n"


def write_json(path, doc: dict) -> None:
    """Writes nothing when ``canonical_json`` raises; the ValueError names the file."""
    try:
        text = canonical_json(doc)
    except ValueError as e:
        raise ValueError(f"cannot write {path}: {e}") from e
    Path(path).write_text(text, encoding="utf-8")


def write_csv(path, rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


def load_schema(name: str) -> dict:
    text = resources.files("proxprune.schemas").joinpath(name).read_text("utf-8")
    return json.loads(text)

