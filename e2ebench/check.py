"""Correctness checks on one command's exit code and artifacts.

`summarize` reduces a command's outputs to the record stored in
references.json; `checks` compares a fresh record with the stored one and
returns one (name, ok) pair per check.  Numbers compare within 1e-6
relative, or 1e-12 absolute where the reference is exactly zero: wide
enough for a roundoff-level change of a kernel, narrow enough to catch a
wrong answer.  Every JSON artifact must be strict JSON with finite numbers,
and every check the verify suite itself made must be ok.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REL_TOL = 1e-6
ZERO_ABS_TOL = 1e-12
REFERENCES = Path(__file__).resolve().parent / "references.json"


def close(got: float, want: float) -> bool:
    if want == 0.0:
        return abs(got) <= ZERO_ABS_TOL
    return abs(got - want) <= REL_TOL * abs(want)


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _finite(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite(v) for v in obj)
    return True


def strict_json(text: str):
    """Parse JSON, refusing NaN/Infinity literals and overflowing numbers."""
    obj = json.loads(text, parse_constant=_reject_constant)
    if not _finite(obj):
        raise ValueError("non-finite number")
    return obj


def digest(out: Path) -> str:
    """sha256 over every artifact's name and bytes, in name order."""
    h = hashlib.sha256()
    for p in sorted(out.iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _coeff_norm(point: dict) -> float:
    total = 0.0
    for row in point["val"]:
        for x in (row if isinstance(row, list) else [row]):
            total += x * x
    return math.sqrt(total)


def summarize(rc: int, out: Path) -> dict:
    """The reference-comparable content of one command's outputs.

    Raises ValueError when an artifact is not strict, finite JSON.
    """
    rec = {"rc": rc, "files": sorted(p.name for p in out.iterdir())}
    for p in sorted(out.glob("*.json")):
        obj = strict_json(p.read_text())
        kind = obj["kind"]
        if kind == "omega":
            rec.update(converged=obj["converged"], points=len(obj["points"]),
                       point_norms=[_coeff_norm(q) for q in obj["points"]],
                       profile=obj["profile"])
        elif kind == "verify":
            rec.update(verdict=obj["verdict"],
                       results=[[r["name"], r["ok"]] for r in obj["results"]])
        elif kind == "uniform-inclusion":
            rec.update(verdict=obj["verdict"], equal=obj["equal"],
                       union_in_uniform=obj["union_in_uniform"],
                       uniform_in_union=obj["uniform_in_union"])
    return rec


def checks(rec: dict, ref: dict) -> list[tuple[str, bool]]:
    out = [("exit code", rec["rc"] == ref["rc"]), ("artifact set", rec["files"] == ref["files"])]
    for key in ("converged", "points", "verdict", "equal"):
        if key in ref:
            out.append((key, rec.get(key) == ref[key]))
    for key in ("union_in_uniform", "uniform_in_union"):
        if key in ref:
            out.append((key, close(rec[key], ref[key])))
    if "point_norms" in ref:
        got, want = rec["point_norms"], ref["point_norms"]
        out.append(("point norms", len(got) == len(want)
                    and all(close(g, w) for g, w in zip(got, want))))
    if "profile" in ref:
        got, want = rec["profile"], ref["profile"]
        out.append(("profile", len(got) == len(want) and all(
            close(gs, ws) and close(gd, wd) for (gs, gd), (ws, wd) in zip(got, want))))
    if "results" in ref:
        out.append(("verify check names",
                    [n for n, _ in rec["results"]] == [n for n, _ in ref["results"]]))
        out.extend((f"verify: {name}", ok is True) for name, ok in rec["results"])
    return out


def load_references() -> dict:
    return json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
