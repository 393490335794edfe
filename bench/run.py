"""Benchmark of the aswcurves package: one workload, one seed, one run.

Usage:
    python3 bench/run.py --workload oracle|families|sweep --seed N
                         --seconds S --trace 0|1 [--threads T]

Run from anywhere inside a checkout; the package is imported from its
`src/`.  The load is a closed loop with one client: each pass runs the
workload's job list (`jobs.py`) in order, in a fresh process
(`worker.py`), and the next pass starts when the previous one ends.

--trace 0 measures set-up time in fresh processes, then repeats passes
while another fits in --seconds (at least one), and reports the
end-to-end metrics named in BENCHMARK.json: pass and job times as
medians over the passes and set-up time as the median over fresh
processes, all in reference seconds (`reference.py`).  --trace 1 runs one untraced and one
traced pass and reports the per-layer metrics, in raw seconds except
`trace.overhead_s`.
Either way every job's output is checked (`checks.py`, plus the golden
digests in `golden.json` when the seed has them), and every job must
call the counting, hd-check and eigenvalue routes at least as often as
`routes.json` records for it (the same on every seed), so work that
leaves no trace in the output cannot be skipped.  A traced run also
fails when its workload no longer isolates its layer (`tracing.ISOLATION`).
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  Details of the run go to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import reference  # noqa: E402
import stats  # noqa: E402

GOLDEN = HERE / "golden.json"
ROUTES = HERE / "routes.json"
OUT = HERE / "out"
SETUP_RUNS = 9
SETUP_RUNS_BEFORE = 5
RUN_LIMIT_S = 170  # a run must end well within 180 s

# Set-up as a CLI user pays it: a fresh interpreter imports numpy and the
# package and finishes one trivial command.
SETUP_CODE = (
    "import contextlib, io, numpy, aswcurves\n"
    "from aswcurves import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    raise SystemExit(cli.main(['analyze', 'q=F4; R=1,0']))\n"
)


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(workload: str, seed: int, threads: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "workload": workload,
        "seed": seed,
        "threads": threads,
    }


def measure_setup(runs: int) -> tuple[list[tuple[float, float]], int]:
    """(set-up seconds, start-up reference seconds) of `runs` pairs of
    fresh processes, after one unmeasured pair that warms the file
    cache, and how many set-ups failed.  The two processes of a pair run
    back to back, so they see the same state of the machine.
    """
    pairs, failed = [], 0
    for i in range(runs + 1):
        pair = []
        for code in (SETUP_CODE, reference.START_CODE):
            t0 = perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", code], cwd=ROOT, env=_env(),
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60,
            )
            pair.append(perf_counter() - t0)
            if i > 0 and code is SETUP_CODE and proc.returncode != 0:
                failed += 1
                sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
        if i > 0:
            pairs.append(tuple(pair))
    return pairs, failed


def run_pass(workload: str, seed: int, threads: int, trace: int, timeout: float) -> dict | None:
    """One pass in a fresh worker process; None when the worker failed."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--threads", str(threads), "--trace", str(trace)]
    if trace:
        OUT.mkdir(exist_ok=True)
        cmd += ["--spans", str(OUT / f"spans-{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        print(f"pass timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _golden(workload: str, seed: int) -> dict | None:
    if not GOLDEN.is_file():
        return None
    return json.loads(GOLDEN.read_text()).get(workload, {}).get(str(seed))


def _routes(workload: str) -> dict | None:
    if not ROUTES.is_file():
        return None
    return json.loads(ROUTES.read_text()).get(workload)


def _record_golden(workload: str, seed: int, result: dict) -> None:
    data = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    data.setdefault(workload, {})[str(seed)] = {name: digest for name, _, _, digest, _ in result["jobs"]}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    data = json.loads(ROUTES.read_text()) if ROUTES.is_file() else {}
    data[workload] = {name: routes for name, _, _, _, routes in result["jobs"]}
    ROUTES.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def short_routes(expected: dict, got: dict) -> str | None:
    """Which route a job took fewer times than expected, or None."""
    for key, want in sorted(expected.items()):
        if got.get(key, 0) < want:
            return f"route skipped: {key} {got.get(key, 0)} < {want}"
    return None


def judge(passes: list[dict | None], job_list: list, golden: dict | None,
          routes: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over all passes.

    A job fails when its output check fails, its digest differs from the
    golden one, or it took a route fewer times than `routes` expects;
    every job of a pass whose worker died fails.
    """
    attempted = failed = 0
    reasons: list[str] = []
    names = [job.name for job in job_list]
    for result in passes:
        attempted += len(names)
        if result is None or [r[0] for r in result["jobs"]] != names:
            failed += len(names)
            reasons.append("worker failed or returned another job list")
            continue
        for name, _, reason, digest, took in result["jobs"]:
            if reason is None and golden is not None and golden.get(name) != digest:
                reason = "output differs from its golden digest"
            if reason is None and routes is not None:
                reason = short_routes(routes[name], took) if name in routes else "no route tally recorded"
            if reason is not None:
                failed += 1
                reasons.append(f"{name}: {reason}")
    return attempted, failed, reasons


def _pass_times(p: dict, scaled: bool) -> tuple[float, list[float]]:
    """(wall seconds, job seconds) of one pass, in reference seconds when
    scaled, else raw."""
    raw = [r[1] for r in p["jobs"]]
    if not scaled:
        return p["wall_s"], raw
    jobs_s = [t * k for t, k in zip(raw, reference.job_scales(p["units"]))]
    return p["wall_s"] * sum(jobs_s) / sum(raw), jobs_s


def end_to_end(passes: list[dict], setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """End-to-end metric values, in reference seconds, and what the run
    measured raw."""
    n = len(passes[0]["jobs"])
    pct = stats.tail_percentile(n)

    def times(scaled: bool) -> dict:
        per_pass = [_pass_times(p, scaled) for p in passes]
        return {
            "wall_s": statistics.median([wall for wall, _ in per_pass]),
            "job_s_p50": statistics.median([stats.nearest_rank(t, 50) for _, t in per_pass]),
            "job_s_tail": statistics.median([stats.nearest_rank(t, pct) for _, t in per_pass]),
        }

    values = {**times(True), "setup_s": reference.setup_seconds(setup),
              "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in passes])}
    info = {"tail_percentile": pct, "jobs_per_pass": n, "passes": len(passes),
            "scales": [statistics.median(reference.job_scales(p["units"])) for p in passes],
            "raw_seconds": {**times(False), "setup_s": statistics.median([s for s, _ in setup])}}
    return values, info


def traced_run(args, threads: int, deadline: float) -> tuple[list, dict, dict]:
    """One untraced and one traced pass: (passes, per-layer values, info)."""
    plain = run_pass(args.workload, args.seed, threads, 0, deadline - perf_counter())
    traced = run_pass(args.workload, args.seed, threads, 1, deadline - perf_counter())
    values, info = {}, {}
    if plain is not None and traced is not None:
        values = dict(traced["layers"])
        values["wall_raw_s"] = plain["wall_s"]
        # in reference seconds, so drift between the two passes cancels
        values["trace.overhead_s"] = _pass_times(traced, True)[0] - _pass_times(plain, True)[0]
        info["isolation_claim"] = traced["isolation_claim"]
    return [plain, traced], values, info


def untraced_run(args, threads: int, deadline: float) -> tuple[list, dict, dict, int]:
    """Set-up samples and as many passes as fit in --seconds:
    (passes, end-to-end values, info, failed set-ups)."""
    # set-up is sampled before and after the passes, so its median does
    # not rest on one moment of the machine
    setup, setup_failed = measure_setup(SETUP_RUNS_BEFORE)
    passes, durations = [], []
    t_measure = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(run_pass(args.workload, args.seed, threads, 0, deadline - perf_counter()))
        durations.append(perf_counter() - t0)
        if passes[-1] is None:
            break
        typical = statistics.median(durations)
        if perf_counter() - t_measure + typical > args.seconds or perf_counter() + typical > deadline - 10:
            break
    after, after_failed = measure_setup(SETUP_RUNS - SETUP_RUNS_BEFORE)
    good = [p for p in passes if p is not None]
    values, info = end_to_end(good, setup + after) if good else ({}, {})
    return passes, values, info, setup_failed + after_failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="workload seed; golden digests exist for the default 0")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=1, help="counting threads, at most nproc")
    parser.add_argument("--record-golden", action="store_true",
                        help="store this seed's output digests in golden.json and "
                             "the workload's route tallies in routes.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "aswcurves" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'aswcurves'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    threads = max(1, min(args.threads, len(os.sched_getaffinity(0))))
    deadline = perf_counter() + RUN_LIMIT_S
    env = environment(args.workload, args.seed, threads)
    print(json.dumps({"environment": env}))
    job_list = jobs.build(args.workload, args.seed)
    golden = None if args.record_golden else _golden(args.workload, args.seed)
    routes = None if args.record_golden else _routes(args.workload)

    if args.trace:
        passes, values, info = traced_run(args, threads, deadline)
        setup_failed, declared = 0, spec["per_layer"]
    else:
        passes, values, info, setup_failed = untraced_run(args, threads, deadline)
        declared = spec["end_to_end"]
    info["golden_checked"] = golden is not None
    info["routes_checked"] = routes is not None

    attempted, failed, reasons = judge(passes, job_list, golden, routes)
    if values.get("trace.isolation_holds") == 0:
        reasons.append(f"the workload does not isolate its layer: {info['isolation_claim']}")
        failed = max(failed, 1)
    if not args.trace:
        attempted += SETUP_RUNS
        failed += setup_failed
    values["error_rate"] = failed / attempted
    if args.record_golden and failed == 0:
        _record_golden(args.workload, args.seed, passes[0])

    metrics = {}
    for metric in declared:
        if metric["name"] not in values:
            reasons.append(f"metric {metric['name']} was not measured")
            failed = max(failed, 1)
            continue
        metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}

    good = [p for p in passes if p is not None]
    for name in jobs.BASELINES:
        raw = [s for p in good for n, s, _, _, _ in p["jobs"] if n == name]
        if raw:
            print(f"baseline job {name}: {statistics.median(raw):.4f} s raw (median of {len(raw)})")
    for line in reasons[:20]:
        print(f"FAILED {line}")
    print(json.dumps({"info": info}))

    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "info": info, "metrics": metrics,
                    "failures": reasons, "passes": passes}, indent=1)
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
