"""Output checks that make skipped or wrong work a job failure.

Every job's output is checked on every seed, independently of the
package: exit code 0 and parseable JSON or CSV, every reported count
inside the Weil bound, all presentation flags equal, `ok` true, and the
number of route comparisons and counting cross-checks a complete run
makes.  So a change that drops a route, or degrades to formula-only
output, fails here even on seeds without golden digests.  Work whose
skipping leaves the output unchanged (the direct count behind a count
that `analyze` reports from eigenvalues, the eigenvalue replay behind
`search`, the enumeration behind `hd-check`) is caught by the route
tallies that `run.py` compares with `routes.json`.

Each check returns a failure reason (None when the output passes) and
the totals the output reports (`routes_compared`, `counting_checked`,
`warnings`).
"""

from __future__ import annotations

import csv
import io
import json
import re
from math import isqrt

from jobs import Job

_FIELD = re.compile(r"^F(\d+)(?::(?:0[xX][0-9a-fA-F]+|\d+))?(?::p=(\d+))?$")
_CURVE = re.compile(r"^q=([^;]+); R=([0-9a-f,]+)$")
_GAUSS = re.compile(r"^(-?\d+)([+-]\d+)i$")

CLASSES = ("maximal", "minimal", "neutral", "interior")


class CheckFailed(Exception):
    pass


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def curve_params(text: str) -> tuple[int, int, int]:
    """(q, p, genus) of a curve text 'q=F<q>[:poly][:p=<p>]; R=...'."""
    m = _CURVE.match(text)
    require(m is not None, f"unparseable curve {text!r}")
    f = _FIELD.match(m.group(1))
    require(f is not None, f"unparseable field in {text!r}")
    q = int(f.group(1))
    p = int(f.group(2) or 2)
    e = len(m.group(2).split(",")) - 1
    return q, p, (p - 1) * p**e // 2


def weil_ok(q: int, genus: int, m: int, count: int) -> bool:
    """|count - q^m - 1| <= 2 g q^(m/2), in integers."""
    deviation = count - q**m - 1
    return deviation * deviation <= 4 * genus * genus * q**m


def extremal_gap(q: int, genus: int) -> int | None:
    """2 g sqrt(q) when q is a square, else None."""
    root = isqrt(q)
    return 2 * genus * root if root * root == q else None


def forbidden(p: int, pair: tuple[int, int]) -> bool:
    """Whether a first attainment (mu, delta) over F_p is impossible.

    Odd degrees never attain; degree 2 is never minimal (delta = +1);
    degree 4 is never minimal when p = 2; and degree 2m is never
    minimal for odd m > 1 dividing p - 1.
    """
    mu, delta = pair
    if mu % 2:
        return True
    if delta != 1:
        return False
    m = mu // 2
    return mu == 2 or (p == 2 and mu == 4) or (m % 2 == 1 and m > 1 and (p - 1) % m == 0)


def _gauss(text: str) -> tuple[int, int]:
    m = _GAUSS.match(text)
    require(m is not None, f"unparseable Gaussian integer {text!r}")
    return int(m.group(1)), int(m.group(2))


def _gauss_pow(z: tuple[int, int], m: int) -> tuple[int, int]:
    a, b = z
    x, y = 1, 0
    for _ in range(m):
        x, y = x * a - y * b, x * b + y * a
    return x, y


def _roots(texts: list[str], q: int, p: int, genus: int) -> list[tuple[int, int]]:
    """Eigenvalues from their text; each has norm q and multiplicity p - 1."""
    roots = [_gauss(t) for t in texts]
    require(all(a * a + b * b == q for a, b in roots), "an eigenvalue does not have norm q")
    require(len(roots) * (p - 1) == 2 * genus, "L-polynomial degree is not 2g")
    return roots


def _count_from_roots(q: int, p: int, roots: list[tuple[int, int]], m: int) -> int:
    """q^m + 1 - (p - 1) * sum r^m, the count the eigenvalues predict."""
    re_sum = im_sum = 0
    for root in roots:
        x, y = _gauss_pow(root, m)
        re_sum, im_sum = re_sum + x, im_sum + y
    require(im_sum == 0, "eigenvalue power sum is not real")
    return q**m + 1 - (p - 1) * re_sum


def _within(job: Job, q: int) -> int:
    return sum(1 for m in job.extensions if q**m <= job.budget)


def _counts(q: int, genus: int, counts: dict) -> None:
    for m, count in counts.items():
        require(weil_ok(q, genus, int(m), count), f"count {count} over degree {m} breaks the Weil bound")


def _analyze(job: Job, data: dict, totals: dict) -> None:
    q, p, genus = curve_params(data["curve"])
    require(data["genus"] == genus, "genus differs from (p-1)p^e/2")
    if data["verdicts"] is not None:
        require(len(set(data["verdicts"].values())) == 1, "presentation verdicts disagree")
    witnessed = data["L_roots"] is not None
    expected = len(job.extensions) if witnessed else _within(job, q)
    require(len(data["counts"]) == expected, f"{len(data['counts'])} counts, expected {expected}")
    _counts(q, genus, data["counts"])
    if witnessed:
        roots = _roots(data["L_roots"], q, p, genus)
        for m, count in data["counts"].items():
            require(count == _count_from_roots(q, p, roots, int(m)), f"count over degree {m} differs from its roots")
    require(data["twist_class"] in CLASSES, "no twist class")
    totals["warnings"] += len(data["warnings"])


def _verify(job: Job, data: dict, totals: dict) -> None:
    q, _, genus = curve_params(data["curve"])
    checks = data["checks"]
    require(data["ok"] is True, "ok is not true")
    require(checks.get("flags_agree") is True, "presentation flags disagree")
    require(checks.get("witness_degree_matches_genus", True) is True, "witness degree is not 2g")
    witnessed = checks["flags"][0]
    within = _within(job, q)
    expected_routes = within if witnessed else 0
    require(checks["routes_compared"] == expected_routes,
            f"{checks['routes_compared']} routes compared, expected {expected_routes}")
    expected_counts = len(job.extensions) if witnessed else within
    require(checks["weil_bound_checked"] == len(data["counts"]) == expected_counts,
            f"{len(data['counts'])} counts checked, expected {expected_counts}")
    _counts(q, genus, data["counts"])
    totals["routes_compared"] += checks["routes_compared"]
    totals["warnings"] += len(data["warnings"])


def _twists(job: Job, data: dict, totals: dict) -> None:
    q, _, genus = curve_params(data["head"])
    gap = extremal_gap(q, genus)
    require(len(data["rows"]) == q, "the twist table does not cover F_q")
    for row in data["rows"]:
        deviation = {"max": gap, "min": -gap if gap else None, "zero": 0}[row["class"]]
        require(deviation is not None and row["count"] == q + 1 + deviation, f"row {row} is inconsistent")
        require(weil_ok(q, genus, 1, row["count"]), f"row {row} breaks the Weil bound")
    require(data["counting_checked"] is True, "the counting route was skipped")
    require(data["warnings"] == [], "unexpected warnings")
    totals["counting_checked"] += 1


def _construct(job: Job, data: dict, totals: dict) -> None:
    require(data["counting_checked"] is True, "the counting route was skipped")
    if data["family"] == "recipe":
        q, p, genus = curve_params(data["curve"])
        require(data["class"] in ("maximal", "minimal"), "recipe curve is not extremal")
        roots = _roots(data["L_roots"], q, p, genus)
        sign = 1 if data["class"] == "maximal" else -1
        require(_count_from_roots(q, p, roots, 1) == q + 1 + sign * extremal_gap(q, genus), "recipe class differs from its roots")
    elif data["family"] == "hermitian":
        curve_params(data["curve"])
        require(data["class"] in CLASSES, "no class")
    else:
        curve_params(data["head"])
        require(data["maximal_twists"] or data["minimal_twists"], "no extremal twist")
    totals["counting_checked"] += 1


def _search(job: Job, data: list, totals: dict) -> None:
    for rec in data:
        q, _, genus = curve_params(rec["curve"])
        gap = extremal_gap(q, genus)
        sign = {"maximal": 1, "minimal": -1}[rec["class"]]
        require(gap is not None and rec["count"] == q + 1 + sign * gap, f"{rec} is not extremal")


def _hd_check(job: Job, rows: list[list[str]], totals: dict) -> None:
    cap = int(job.argv[job.argv.index("--cap") + 1])
    require(rows[0] == ["degree", "sum", "closed_form"], "bad CSV header")
    body = rows[1:]
    require([int(r[0]) for r in body] == list(range(1, cap + 1)), "degrees missing")
    for degree, total, closed in body:
        expected = _gauss_pow((-1, -1), int(degree))
        require(_gauss(total) == expected == _gauss(closed), f"degree {degree}: sum {total}")


_CLI = {
    "analyze": _analyze,
    "verify": _verify,
    "twists": _twists,
    "construct": _construct,
    "search": _search,
    "hd-check": _hd_check,
}


def new_totals() -> dict:
    return {"routes_compared": 0, "counting_checked": 0, "warnings": 0}


def check_cli(job: Job, code: int, text: str) -> tuple[str | None, dict]:
    """Failure reason of a CLI job's exit code and output, and its totals."""
    totals = new_totals()
    try:
        require(code == 0, f"exit code {code}: {text.strip()[:200]}")
        if job.fmt == "csv":
            data = list(csv.reader(io.StringIO(text)))
            require(bool(data) and all(len(r) == len(data[0]) for r in data), "malformed CSV")
        else:
            try:
                data = json.loads(text)
            except ValueError as exc:
                raise CheckFailed(f"malformed JSON: {exc}") from exc
        _CLI[job.argv[0]](job, data, totals)
    except (CheckFailed, KeyError, TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}", totals
    return None, totals


def _agreeing_counts(q: int, genus: int, counts: list) -> None:
    for t, m, formula, counted in counts:
        require(formula == counted, f"t={t:x} m={m}: eigenvalue count {formula} != direct count {counted}")
        require(weil_ok(q, genus, m, counted), f"t={t:x} m={m}: count {counted} breaks the Weil bound")


def _datum(job: Job, rec: dict) -> None:
    q = 1 << job.args[0]
    require(len(rec["data"]) == len(job.args[3]), "a datum of the batch is missing")
    for datum in rec["data"]:
        if all(datum["flags"][:3]):
            _, _, genus = curve_params(datum["head"])
            require(len(datum["counts"]) == 2 * q, "not every twist was counted twice")
            _agreeing_counts(q, genus, datum["counts"])
        else:
            require(datum["counts"] == [], "counts for a datum without its flags")


def _presentation(job: Job, rec: dict) -> None:
    require(len(rec["curves"]) == len(job.args[0]), "a curve of the batch is missing")
    for curve in rec["curves"]:
        q, _, genus = curve_params(curve["curve"])
        require(len(set(curve["flags"])) == 1, "presentation flags disagree")
        require(len(curve["counts"]) == (1 if curve["flags"][0] else 0), "witness count missing")
        _agreeing_counts(q, genus, curve["counts"])


def _period(job: Job, rec: dict) -> None:
    p, _, cap = job.args
    if rec["period"] is not None:
        mu, delta = rec["period"]
        require(1 <= mu <= cap and delta in (-1, 1), f"bad period {rec['period']}")
        require(not forbidden(p, (mu, delta)), f"forbidden pair {rec['period']} attained")


def _impossibility(job: Job, rec: dict) -> None:
    p_log, e_max, n_max = job.args
    p = 1 << p_log
    universe = sum(p**e * (p - 1) for e in range(1, e_max + 1))
    require(rec["scanned"] == universe, f"scanned {rec['scanned']} curves, expected {universe}")
    for mu, delta in rec["observed"]:
        require(mu <= n_max and not forbidden(p, (mu, delta)), f"forbidden pair {(mu, delta)} attained")


_API = {
    "datum_sweep": _datum,
    "presentation_sweep": _presentation,
    "period_sweep": _period,
    "impossibility_sweep": _impossibility,
}


def check_api(job: Job, record: dict) -> str | None:
    """Failure reason of a library job's record, or None."""
    try:
        _API[job.api](job, record)
    except (CheckFailed, KeyError, TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None
