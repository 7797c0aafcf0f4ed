"""Rewrite references.json from the checked-out code.

    python3 e2ebench/record_references.py [WORKLOAD ...]

Runs every reference CLI seed of the named workloads (default: all) once
and stores check.summarize's record for it.  References pin the answers of
the commit they were recorded at; record them again only when a change is
meant to alter an answer, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import check
import run
from workloads import WORKLOADS


def main(names: list[str]) -> int:
    refs = check.load_references()
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        bench = run.Run(workload, {})
        refs[name] = {}
        for seed in workload.seeds:
            run.OUT_ROOT.mkdir(exist_ok=True)
            out = Path(tempfile.mkdtemp(dir=run.OUT_ROOT))
            try:
                rec = bench.worker(name, str(seed), str(out), "0")
                refs[name][str(seed)] = check.summarize(rec["rc"], out)
            finally:
                shutil.rmtree(out, ignore_errors=True)
            print(f"{name} seed {seed}: rc {rec['rc']} wall {rec['wall_s']:.2f} s", flush=True)
    check.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
