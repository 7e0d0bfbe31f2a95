"""Deterministic JSON/CSV report writing.

JSON documents are dumped with sorted keys and Python's shortest-round-trip
float repr, so identical runs produce byte-identical files. The shipped
JSON Schema files live in ``proxprune/schemas``; ``load_schema`` reads them
for any JSON Schema validator (the test suite uses ``jsonschema``).
"""
from __future__ import annotations

import csv
import io
import json
from importlib import resources
from pathlib import Path


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def write_json(path, doc: dict) -> None:
    Path(path).write_text(canonical_json(doc), encoding="utf-8")


def write_csv(path, rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


def load_schema(name: str) -> dict:
    text = resources.files("proxprune.schemas").joinpath(name).read_text("utf-8")
    return json.loads(text)

