"""Small shared helpers: the one writer of every JSON (strict: no NaN or
infinity) and CSV artifact."""

from __future__ import annotations

import dataclasses
import json
from typing import Iterable, Sequence


def fmt_float(x: float) -> str:
    """Shortest round-trip decimal form, identical across runs."""
    return repr(float(x))


def strict_json(obj) -> str:
    """Sorted-key JSON; a NaN or infinity raises ValueError."""
    return json.dumps(obj, sort_keys=True, allow_nan=False)


def artifact_json(kind: str, fields: dict) -> str:
    """One JSON artifact: the fields plus `schema: 1` and its kind."""
    return strict_json({"schema": 1, "kind": kind, **fields})


def report_json(kind: str, report, **as_json) -> str:
    """The artifact of a report dataclass: every field under its own name,
    with `as_json` giving the JSON form of each field that is not JSON
    already."""
    fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    return artifact_json(kind, {**fields, **as_json})


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV with a header line; float cells use fmt_float, others str."""
    lines = [",".join(header)]
    lines += [",".join(fmt_float(c) if isinstance(c, float) else str(c) for c in row)
              for row in rows]
    return "\n".join(lines) + "\n"
