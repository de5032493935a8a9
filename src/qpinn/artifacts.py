"""Artifact directories compared across runs and trees (``qpinn compare``).

Two runs of one ``qpinn train`` config differ only in the fields that
``masked_artifacts`` masks, the one place that names them: the ``wall_ms``
column of the run CSVs, and the timestamp and ``config.out_dir`` of
``summary.json``.  ``compare`` masks both trees the same way; the trees
match when every masked file is byte-identical.  Otherwise it reports, per
file, the largest absolute and relative deviation of each numeric column
that moved (a JSON file's column is a leaf path, list positions as ``[]``),
and every other field that differs, such as those of the ``manifest``.
"""
from __future__ import annotations

import csv
import io
import json
import math
import re
from pathlib import Path


def masked_artifacts(root, also=()) -> dict:
    """Every file under ``root`` by relative path, as text with the run's
    volatile fields masked: the ``wall_ms`` column of the run CSVs, and the
    timestamp and ``config.out_dir`` of ``summary.json``, with its
    top-level keys named in ``also``.  A file that cannot be masked (not
    UTF-8, or a ``summary.json`` that does not parse or lacks a masked
    field) is its raw bytes."""
    root, out = Path(root), {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        try:
            text = path.read_text()
            if path.name == "summary.json":
                doc = json.loads(text)
                doc["metadata"]["timestamp"] = doc["config"]["out_dir"] = "*"
                doc.update(dict.fromkeys(also, "*"))
                text = json.dumps(doc, indent=2)
            elif path.parent.name == "runs" and path.suffix == ".csv":
                text = re.sub(r",[^,\n]*$", ",*", text, flags=re.MULTILINE)
        except (ValueError, KeyError, TypeError):
            text = path.read_bytes()
        out[path.relative_to(root).as_posix()] = text
    return out


def _number(value):
    """``value`` as a float when it is a number (a JSON bool is not), else None."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _deviation(a: float, b: float) -> tuple[float, float]:
    """|a − b| and |a − b|/max(|a|, |b|); NaN matches only NaN, and a
    non-finite value matches only itself."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf, math.inf
    diff = abs(a - b)
    return diff, diff / max(abs(a), abs(b))


def _csv_fields(text: str) -> dict:
    """Column name → list of cells; an empty file has no columns."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return {}
    header, body = rows[0], rows[1:]
    return {name: [row[i] if i < len(row) else None for row in body]
            for i, name in enumerate(header)}


def _json_fields(text: str) -> dict:
    """Column name → list of leaves: each leaf path of the document, with
    list positions written ``[]`` so a list of numbers is one column."""
    fields: dict[str, list] = {}

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{path}.{key}" if path else str(key))
        elif isinstance(node, list):
            for value in node:
                walk(value, f"{path}[]")
        else:
            fields.setdefault(path, []).append(node)

    walk(json.loads(text), "")
    return fields


def _field_report(fields_a: dict, fields_b: dict) -> list[str]:
    """One line per column that differs between two files' fields."""
    lines = []
    for name in sorted(fields_a.keys() | fields_b.keys()):
        if name not in fields_a or name not in fields_b:
            lines.append(f"{name}: only in {'A' if name in fields_a else 'B'}")
            continue
        col_a, col_b = fields_a[name], fields_b[name]
        if col_a == col_b:
            continue
        if len(col_a) != len(col_b):
            lines.append(f"{name}: {len(col_a)} values in A, {len(col_b)} in B")
            continue
        nums = [(_number(a), _number(b)) for a, b in zip(col_a, col_b)]
        if all(a is not None and b is not None for a, b in nums):
            devs = [_deviation(a, b) for a, b in nums]
            lines.append(f"{name}: max abs deviation {max(d for d, _ in devs):.3g}, "
                         f"max rel deviation {max(r for _, r in devs):.3g}")
        else:
            differ = [(a, b) for a, b in zip(col_a, col_b) if a != b]
            a, b = differ[0]
            more = f" (and {len(differ) - 1} more)" if len(differ) > 1 else ""
            lines.append(f"{name}: {a!r} in A, {b!r} in B{more}")
    return lines


def _file_report(rel: str, text_a, text_b) -> list[str]:
    if isinstance(text_a, bytes) or isinstance(text_b, bytes):
        return ["does not parse; the texts differ"]
    try:
        if rel.endswith(".csv"):
            return _field_report(_csv_fields(text_a), _csv_fields(text_b))
        if rel.endswith(".json"):
            return _field_report(_json_fields(text_a), _json_fields(text_b))
    except (ValueError, csv.Error):
        return ["does not parse; the texts differ"]
    return ["the texts differ"]


def compare(dir_a, dir_b, also=()) -> tuple[int, list[str]]:
    """The number of files in either tree, and the report of how the trees
    differ once masked (``also`` as in ``masked_artifacts``): a line per
    file only one tree holds, and per file that differs its name and then
    one indented line per field.  The report is empty when the masked trees
    are byte-identical."""
    a, b = masked_artifacts(dir_a, also), masked_artifacts(dir_b, also)
    lines = []
    for rel in sorted(a.keys() | b.keys()):
        if rel not in a or rel not in b:
            lines.append(f"{rel}: only in {'A' if rel in a else 'B'}")
        elif a[rel] != b[rel]:
            lines.append(f"{rel}:")
            lines += [f"  {line}" for line in _file_report(rel, a[rel], b[rel])
                      or ["the texts differ in layout only"]]
    return len(a.keys() | b.keys()), lines
