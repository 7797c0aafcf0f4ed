"""Compare two sets of benchmark runs, per workload and end-to-end metric.

    python3 e2ebench/compare.py PARENT.txt CHANGE.txt

Each file holds the concatenated stdout of `run.py` runs (tracing off).
Prints each side's median and quartiles and the change's median relative to
the parent's, flagged against the bound in BENCHMARK.json.  Refuses to
compare runs made on different kernel backends or with failed checks.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(path: str) -> tuple[dict, set[str]]:
    """{workload: {metric: [values]}} and the set of backends seen."""
    values: dict = defaultdict(lambda: defaultdict(list))
    backends: set[str] = set()
    meta = None
    for line in Path(path).read_text().splitlines():
        if line.startswith("meta "):
            meta = json.loads(line[5:])
            backends.add(meta.get("backend", "unknown"))
        elif line.startswith('{"correct"') and meta is not None:
            result = json.loads(line)
            if not result["correct"]:
                raise SystemExit(f"{path}: a {meta['workload']} run failed its checks")
            for name, m in result["metrics"].items():
                values[meta["workload"]][name].append(m["value"])
            meta = None
    return values, backends


def main(argv: list[str]) -> int:
    (a, ba), (b, bb) = load(argv[0]), load(argv[1])
    if len(ba | bb) != 1:
        print(f"refusing to compare: kernel backends differ ({sorted(ba | bb)})")
        return 2
    worse = 0
    for workload in sorted(set(a) & set(b)):
        for spec in SPEC["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            xa, xb = a[workload][name], b[workload][name]
            if len(xa) < 2 or len(xb) < 2:
                continue
            ma, mb = statistics.median(xa), statistics.median(xb)
            change = (mb - ma) / ma if spec["better"] == "lower" else (ma - mb) / ma
            flag = "WORSE" if change > bound else "ok"
            worse += flag == "WORSE"
            qa, qb = statistics.quantiles(xa, n=4), statistics.quantiles(xb, n=4)
            print(f"{workload:15s} {name:12s} parent {ma:.4g} [{qa[0]:.4g}, {qa[2]:.4g}] "
                  f"n={len(xa)}  change {mb:.4g} [{qb[0]:.4g}, {qb[2]:.4g}] n={len(xb)}  "
                  f"{100 * change:+.1f}% worse (bound {100 * bound:.0f}%) {flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
