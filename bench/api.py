"""Library jobs of the `sweep` workload, through the public package API.

Each function returns a JSON-ready record of what it computed; the
record is the job's output, digested for the golden check and read by
`checks.check_api`.  Package names are looked up as module attributes
(`curves.brute_count`) so that the traced run sees every call.  Every
function takes the run's `threads`; those whose calls have no counting
threads ignore it.
"""

from __future__ import annotations

from aswcurves import curves, gf2field, skew
from aswcurves.errors import CapExceeded


def datum_sweep(q_deg: int, p_log: int, poly: int, batch: tuple, threads: int) -> dict:
    """Build each datum F of the batch over F_q = F_2[x]/(poly); when its
    first three flags hold, compare every twist's eigenvalue count with a
    direct count at m = 1 and 2."""
    ctx = gf2field.make_field(q_deg, poly, p_log)
    out = []
    for coeffs in batch:
        fd = curves.TwistDatum(skew.SkewPoly(ctx, dict(enumerate(coeffs))), q_deg)
        record = {"flags": list(fd.conditions), "head": None, "counts": []}
        if all(fd.conditions[:3]):
            record["head"] = curves.format_curve_spec(curves.head_curve(fd))
            for t in sorted(ctx.subfield_elements(q_deg)):
                lp = curves.l_polynomial(fd, t)
                spec = curves.build_curve(fd, t)
                for m in (1, 2):
                    counted = curves.brute_count(spec, m, threads=threads)
                    record["counts"].append([t, m, lp.point_count(m), counted])
        out.append(record)
    return {"data": out}


def presentation_sweep(batch: tuple, threads: int) -> dict:
    """The four presentation conditions of each curve; with a witness,
    its eigenvalue count over F_q against a direct count."""
    out = []
    for text in batch:
        spec = curves.parse_curve_spec(text)
        report = curves.presentation_conditions(spec)
        record = {"curve": curves.format_curve_spec(spec), "flags": list(report.flags), "counts": []}
        if report.witness is not None:
            fd, t = report.witness
            formula = curves.l_polynomial(fd, t).point_count(1)
            record["counts"].append([t, 1, formula, curves.brute_count(spec, 1, threads=threads)])
        out.append(record)
    return {"curves": out}


def period_sweep(p: int, coeffs: tuple[int, ...], cap: int, threads: int) -> dict:
    """First bound-attaining extension degree of a curve over F_p."""
    spec = curves.parse_curve_spec(f"q=F{p}:p={p}; R=" + ",".join(f"{c:x}" for c in reversed(coeffs)))
    try:
        pp = curves.period_parity(spec, cap=cap)
    except CapExceeded:
        return {"curve": curves.format_curve_spec(spec), "cap": cap, "period": None}
    return {"curve": curves.format_curve_spec(spec), "cap": cap, "period": [pp.mu, pp.delta]}


def impossibility_sweep(p_log: int, e_max: int, n_max: int, threads: int) -> dict:
    """Exhaustive scan of every curve over F_p up to skew degree e_max."""
    report = curves.impossibility_scan(p_log, e_max, n_max)
    return {
        "p_log": p_log,
        "e_max": e_max,
        "n_max": n_max,
        "scanned": len(report.periods),
        "observed": sorted(report.observed),
    }
