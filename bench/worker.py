"""One pass over a workload's job list, in a fresh process.

Usage: python3 bench/worker.py --workload W --seed N --threads T --trace 0|1

Imports the package from `src/` of this checkout, runs every job in
order (CLI jobs in-process through `aswcurves.cli.main`, library jobs
through `api.py`), then checks every output and prints one JSON line:
pass wall time and per-job seconds (raw), the reference unit times
that turn them into reference seconds (`reference.py`), failure
reasons, output digests and route tallies (`tracing.RouteTally`), peak
resident memory, the totals parsed from the outputs and, when traced,
the per-layer metrics and microbenchmarks.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]


def _run_job(job, threads, cli, api):
    """(output text, exit code or None, exception text or None)."""
    if job.api:
        try:
            record = getattr(api, job.api)(*job.args, threads=threads)
        except Exception:
            return "", None, traceback.format_exc(limit=3)
        return json.dumps(record, sort_keys=True), 0, None
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main([*job.argv, "--threads", str(threads)])
    except SystemExit as exc:  # argparse rejects the command line
        return buf.getvalue(), exc.code, None
    except Exception:
        return buf.getvalue(), None, traceback.format_exc(limit=3)
    return buf.getvalue(), code, None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="traced run: file the spans are written to")
    args = parser.parse_args()

    import aswcurves

    if not Path(aswcurves.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"aswcurves was imported from {aswcurves.__file__}, not from {ROOT / 'src'}")
    from aswcurves import cli

    import api
    import checks
    import jobs
    import reference
    from tracing import RouteTally

    job_list = jobs.build(args.workload, args.seed)
    tally = RouteTally()
    tally.install([api])
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install([api])

    # Reference units run before the first job and after every job,
    # outside the timed work (and outside every span).
    units = [reference.unit()]
    outputs = []
    t_pass = perf_counter()
    reference_s = 0.0
    for index, job in enumerate(job_list):
        if tracer is not None:
            tracer.job = index
        t0 = perf_counter()
        text, code, raised = _run_job(job, args.threads, cli, api)
        outputs.append((perf_counter() - t0, text, code, raised, tally.take()))
        t1 = perf_counter()
        units.append(reference.unit())
        reference_s += perf_counter() - t1
    wall = perf_counter() - t_pass - reference_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    totals = checks.new_totals()
    records = []
    for job, (seconds, text, code, raised, routes) in zip(job_list, outputs):
        if raised is not None:
            reason = "raised " + raised.strip().splitlines()[-1]
        elif job.api:
            reason = checks.check_api(job, json.loads(text))
        else:
            reason, found = checks.check_cli(job, code, text)
            for key, value in found.items():
                totals[key] += value
        digest = hashlib.sha256(text.encode()).hexdigest()
        records.append([job.name, seconds, reason, digest, routes])

    result = {"wall_s": wall, "units": units, "peak_rss_mb": peak_rss_mb, "jobs": records, "totals": totals}
    if tracer is not None:
        import micro
        from tracing import ISOLATION

        tracer.uninstall()
        layers = tracer.metrics(sum(r[1] for r in records))
        layers.update({f"cli.{key}": value for key, value in totals.items()})
        claim, holds = ISOLATION[args.workload]
        layers["trace.isolation_holds"] = int(holds(layers))
        layers.update(micro.run(args.seed))
        result["layers"] = layers
        result["isolation_claim"] = claim
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
