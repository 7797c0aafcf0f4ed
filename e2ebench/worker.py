"""One fresh process of the benchmark: set up a workload, optionally run its
command once, and print one JSON record on stdout.

    python3 worker.py SRC WORKLOAD                          # set-up only
    python3 worker.py SRC WORKLOAD CLI_SEED OUT_DIR TRACE   # set-up + command

Set-up is what every CLI call pays: importing `ges.cli` and building the
workload's systems with `make_system` (for NSE this fills the pair-table
cache).  The command's time is the time inside `ges.cli.main(argv)`.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS


def _artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def main(argv: list[str]) -> dict:
    src, workload = argv[0], WORKLOADS[argv[1]]
    sys.path.insert(0, src)
    t0 = perf_counter()
    import ges.cli
    from ges.systems import make_system
    for sys_id in workload.systems:
        make_system(sys_id)
    rec = {"setup_s": perf_counter() - t0}
    if len(argv) == 2:
        return rec

    cli_seed, out, trace = int(argv[2]), Path(argv[3]), argv[4] == "1"
    entry = ges.cli.main
    if trace:
        import tracer
        tr = tracer.Tracer()
        entry = tracer.install(tr)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        t1 = perf_counter()
        rc = entry(workload.argv(cli_seed, str(out)))
        wall = perf_counter() - t1
    import ges.backend
    import numpy
    import scipy
    rec.update(wall_s=wall, rc=rc, stdout=stdout.getvalue(), stderr=stderr.getvalue(),
               rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               backend=ges.backend.backend(), python=sys.version.split()[0],
               numpy=numpy.__version__, scipy=scipy.__version__)
    if trace:
        rec["layers"] = tr.metrics(wall)
        rec["layers"]["cli.artifact_bytes"] = _artifact_bytes(out)
    return rec


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
