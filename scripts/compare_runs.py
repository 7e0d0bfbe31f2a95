#!/usr/bin/env python3
"""Semantic diff of two proxprune output directories.

For every file of either directory (matched by relative path) it prints:

* for a JSON report, each field that differs, with list indices folded to
  ``[]`` and counted (an empty object or array is a field, and a key that
  is not a name is written ``["key"]``, so two fields never print alike);
  the largest relative change of a float field (scores, losses,
  distances; ids and counts are ints); the ids that each prune set
  (``prune_set``, ``prune_set_a``, ``prune_set_b``, a list of int ids)
  holds in one run only; and, for an importance report, the classes whose
  prune cut falls between equal scores in one run only. Cuts are taken per
  class because that is how ``prune`` ranks. A robustness report holds no
  per-group scores, so its tied cuts cannot be compared, and neither can
  those of a document whose ``groups`` entries are not objects holding an
  int ``id``, a numeric ``score``, a bool ``pruned`` and a string
  ``class``;
* for any other file (checkpoints, CSV), and for a ``.json`` file that is
  not UTF-8 JSON in either run, or nests deeper than json loads, whether its
  bytes are equal; the line of such a ``.json`` file names the run (A, B,
  or A and B) whose copy is not JSON.

The last line is the verdict. Exit code 0: the runs are equal (same files,
equal JSON values, equal bytes elsewhere); 1: they differ; 2: bad arguments.

    python scripts/compare_runs.py runs/parent runs/change
"""
import argparse
import json
import math
import re
import sys
from pathlib import Path

from proxprune.importance import tied_cuts


NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def child(path, key):
    """The path of member ``key`` under ``path``: ``a.b`` for a name, and
    ``a["b.c"]`` for any other key, so that no two paths print alike."""
    if NAME.fullmatch(key):
        return f"{path}.{key}" if path else key
    return f"{path}[{json.dumps(key)}]"


def leaves(doc, path="", folded=""):
    """(path, folded path, value) of every scalar and every empty object or
    array of a JSON document; the folded path writes each list index as
    ``[]``."""
    if isinstance(doc, dict) and doc:
        for key in sorted(doc):
            yield from leaves(doc[key], child(path, key), child(folded, key))
    elif isinstance(doc, list) and doc:
        for i, value in enumerate(doc):
            yield from leaves(value, f"{path}[{i}]", f"{folded}[]")
    else:
        yield path, folded, doc


def same(a, b) -> bool:
    if type(a) is not type(b):
        return False
    return a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))


def rel_change(a, b) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def prune_sets(doc, path=""):
    """(path, (label, ids)) of every prune_set* list of int ids; the label
    adds to the path the criterion of the row or report that holds it."""
    if isinstance(doc, dict):
        for key in sorted(doc):
            where = child(path, key)
            ids = doc[key]
            if key.startswith("prune_set") and isinstance(ids, list) and all(
                type(i) is int for i in ids
            ):
                crit = f" ({doc['criterion']})" if "criterion" in doc else ""
                yield where, (where + crit, ids)
            else:
                yield from prune_sets(ids, where)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from prune_sets(value, f"{path}[{i}]")


def is_group(g) -> bool:
    """Whether g is a group of an importance report: an object with an int
    id, a numeric score, a bool pruned and a string class."""
    return (isinstance(g, dict) and type(g.get("id")) is int
            and type(g.get("score")) in (int, float)
            and type(g.get("pruned")) is bool and isinstance(g.get("class"), str))


def tied(doc):
    """The classes whose cut falls between equal scores, or None for a
    document whose ``groups`` are not those of an importance report."""
    groups = doc.get("groups") if isinstance(doc, dict) else None
    if not isinstance(groups, list) or not all(map(is_group, groups)):
        return None
    scores = {g["id"]: g["score"] for g in groups}
    chosen = [g["id"] for g in groups if g["pruned"]]
    return tied_cuts(scores, chosen, {g["id"]: g["class"] for g in groups})


def compare_json(a, b) -> list[str]:
    """Lines describing how document b differs from a; empty when equal."""
    la, lb, folded = {}, {}, {}
    for doc, found in ((a, la), (b, lb)):
        for path, fold, value in leaves(doc):
            found[path], folded[path] = value, fold
    by_pattern: dict[str, list[str]] = {}
    for path in sorted(la.keys() | lb.keys()):
        by_pattern.setdefault(folded[path], []).append(path)
    lines, largest = [], None
    for pattern, paths in by_pattern.items():
        diff = [p for p in paths if not (p in la and p in lb and same(la[p], lb[p]))]
        if not diff:
            continue
        p = diff[0]
        shown = f"{p}: {la.get(p, '<absent>')!r} -> {lb.get(p, '<absent>')!r}"
        if len(paths) > 1:
            shown = f"{pattern}: {len(diff)} of {len(paths)} differ, e.g. {shown}"
        lines.append(shown)
        for p in diff:
            if isinstance(la.get(p), float) and isinstance(lb.get(p), float):
                r = rel_change(la[p], lb[p])
                if largest is None or r > largest[0]:
                    largest = (r, p)
    if largest is not None:
        r, p = largest
        lines.append(f"largest relative change: {r:.3g} at {p} ({la[p]!r} -> {lb[p]!r})")
    sets_a, sets_b = dict(prune_sets(a)), dict(prune_sets(b))
    for where in sorted(sets_a.keys() | sets_b.keys()):
        label = (sets_a.get(where) or sets_b[where])[0]
        ids_a, ids_b = (set(sets.get(where, ("", ()))[1]) for sets in (sets_a, sets_b))
        if ids_a != ids_b:
            lines.append(
                f"prune set {label}: only in A {sorted(ids_a - ids_b)}, only in B {sorted(ids_b - ids_a)}"
            )
    ties_a, ties_b = tied(a), tied(b)
    if ties_a != ties_b:
        lines.append(f"tied cuts: A {list(ties_a or ())}, B {list(ties_b or ())}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Semantic diff of two proxprune output directories.")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    args = p.parse_args(argv)
    for d in (args.a, args.b):
        if not d.is_dir():
            p.error(f"{d} is not a directory")
    files = {
        f.relative_to(d).as_posix()
        for d in (args.a, args.b) for f in d.rglob("*") if f.is_file()
    }
    differ = False
    for name in sorted(files):
        fa, fb = args.a / name, args.b / name
        if not (fa.is_file() and fb.is_file()):
            print(f"{name}: only in {'A' if fa.is_file() else 'B'}")
            differ = True
            continue
        note = ""
        if name.endswith(".json"):
            docs, broken = [], []
            for side, f in (("A", fa), ("B", fb)):
                try:
                    docs.append(json.loads(f.read_text(encoding="utf-8")))
                except (ValueError, RecursionError):  # not UTF-8 JSON, or nested too deep
                    broken.append(side)
            if not broken:
                doc_a, doc_b = docs
                lines = compare_json(doc_a, doc_b)
                n_sets = len(dict(prune_sets(doc_a)))
                ties = tied(doc_a)
                summary = f"{n_sets} prune set{'s' * (n_sets != 1)}"
                summary += f", tied cuts {list(ties)}" if ties is not None else ", no tied cuts recorded"
                print(f"{name}: {'differs' if lines else 'equal'} ({summary})")
                for line in lines:
                    print(f"  {line}")
                differ |= bool(lines)
                continue
            note = f" (not JSON in {' and '.join(broken)})"
        equal = fa.read_bytes() == fb.read_bytes()
        print(f"{name}: bytes {'equal' if equal else 'differ'}{note}")
        differ |= not equal
    print(f"verdict: {'differ' if differ else 'equal'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
