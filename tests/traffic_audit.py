"""Opt-in traffic audit: which statements under src/ does no benchmark
job or demo run?

The trace audit (`trace_audit.py`) asks what the test suite runs; this
script asks what real traffic runs.  It runs every job of each workload
in `bench/jobs.py` at one seed, CLI jobs in-process through
`aswcurves.cli.main` and library jobs through `bench/api.py`, then the
four demos, all under `trace_audit.LineAudit`, and prints each
statement under `src/` that none of them ran (`raise` statements and
`return NotImplemented` left out, as in the trace audit).  A statement
on the list is code that no workload and no demo needs.  Run it with

    PYTHONPATH=src:tests python tests/traffic_audit.py [--seed N]

It imports the bench modules only to read them and writes no bytecode,
so nothing under `bench/` changes.  Job outputs are discarded and not
checked; a job that raises is counted and named.  The file is no test
module, so pytest never collects it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import runpy
import sys
import threading
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import jobs  # noqa: E402  (bench/jobs.py imports no package module)
from trace_audit import LineAudit  # noqa: E402


def run_job(job) -> None:
    # imported under the trace, so module-level statements count as run
    import api  # bench/api.py

    from aswcurves import cli

    if job.api:
        getattr(api, job.api)(*job.args, threads=1)
    else:
        cli.main([*job.argv, "--threads", "1"])


def main() -> int:
    parser = argparse.ArgumentParser(
        description="List the statements under src/ that no benchmark job or demo runs."
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    args = parser.parse_args()
    runs = [
        (f"{workload}/{job.name}", run_job, job)
        for workload in jobs.WORKLOADS
        for job in jobs.build(workload, args.seed)
    ] + [
        (f"demos/{path.name}", runpy.run_path, str(path))
        for path in sorted((ROOT / "demos").glob("*.py"))
    ]
    audit, failed = LineAudit(), []
    threading.settrace(audit.trace)
    sys.settrace(audit.trace)
    try:
        for name, run, arg in runs:
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    run(arg)
            except (Exception, SystemExit) as exc:  # reported, not fatal
                failed.append(f"{name}: {type(exc).__name__}: {exc}")
    finally:
        sys.settrace(None)
        threading.settrace(None)
    report = audit.report()
    print(f"{len(runs)} runs at seed {args.seed}, {len(failed)} failed")
    for entry in failed:
        print(entry)
    print(f"{len(report)} statements under src/ never ran")
    for entry in report:
        print(entry)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
