"""Command-line front end for curve analysis, search, and verification.

Subcommands: `analyze` (full report for one curve), `twists`
(per-coefficient class table of a family), `construct` (certified
curves from the closed-form constructions), `period` (first
bound-attaining extension degree over F_p), `verify` (dual-route
consistency audit), `search` (exhaustive sweep for bound-attaining
curves), and `hd-check` (full-field character sums against the closed
form).  Each formats a library report; routes meet only in `curves.zeta`.

Structured reports are JSON; tables (twists, search, hd-check) render
as CSV with --format csv.  Exit codes are stable: 0 success, 1 domain
error, 2 parse error, 3 ambient field too small, 4 oracle mismatch,
5 cap or budget exceeded.  Runs degrade to formula-only output, with a
warning record, when a direct count would exceed the budget or the
32-bit ambient field.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .curves import (
    CurveSpec,
    DEFAULT_BUDGET,
    classify_twists,
    extremal_from_subspace,
    extremal_search,
    format_curve_spec,
    hd_check,
    hermitian_twist,
    palindromic_family,
    parse_curve_spec,
    period_parity,
    zeta_report,
)
from .curves.base import parse_hex, weil_class
from .curves.count import checked_count
from .errors import (
    AmbientTooSmall,
    BudgetExceeded,
    CapExceeded,
    Char2Error,
    NonRealCount,
    OracleMismatch,
    ParseError,
)
from .gf2field import Fp2Subspace, parse_field_spec, parse_int

__all__ = ["main"]


@dataclass(frozen=True)
class _Output:
    """A JSON-ready payload with an optional CSV table rendering."""

    data: object
    table: tuple[tuple[str, ...], list[list[object]]] | None = None


# ---------------------------------------------------------------------------
# small parsing helpers

_PRIME_CURVE = re.compile(r"^\s*p\s*=\s*(\d+)\s*;\s*R\s*=\s*(.+?)\s*$")
_DIGIT_RUN = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def _hex_list(text: str, order: int) -> list[int]:
    return [parse_hex(part, order) for part in text.split(",")]


def _decimal(text: str) -> int:
    """int(text), except that a digit run int() refuses, which only its
    length can make it do, raises parse_int's short ParseError instead
    of a ValueError that echoes every digit."""
    return parse_int(text) if _DIGIT_RUN.fullmatch(text) else int(text)


def _int_option(text: str) -> int:
    """`_decimal` for argparse, which would echo a ParseError's input."""
    try:
        return _decimal(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_extensions(text: str | None) -> list[int]:
    if text is None or not text.strip():
        return []
    degrees = []
    for part in text.split(","):
        try:
            m = _decimal(part)
        except ParseError:  # past the digit limit: parse_int's short record
            raise
        except ValueError as exc:
            raise ParseError(f"extension degree {part!r} is not an integer") from exc
        if m < 1:
            raise ParseError(f"extension degree {m} must be >= 1")
        if m not in degrees:
            degrees.append(m)
    return degrees


def _parse_prime_curve(text: str) -> CurveSpec:
    """Parse 'p=<2^k>; R=<hex>,...' (or a q= form declared over F_p)."""
    m = _PRIME_CURVE.match(text)
    if m:
        p = parse_int(m.group(1))
        if p < 2 or p & (p - 1):
            raise ParseError(f"base order {p} is not a power of 2")
        text = f"q=F{p}:p={p}; R={m.group(2)}"
    spec = parse_curve_spec(text)
    if spec.q_deg != spec.ctx.p_log:
        raise ParseError("the period needs coefficients declared over F_p itself")
    return spec


# ---------------------------------------------------------------------------
# subcommands

_CLASS_SHORT = {"maximal": "max", "minimal": "min", "neutral": "zero"}


def _base_period(spec: CurveSpec, budget: int, warnings: list[str]) -> list[int] | None:
    """Period of the coefficient tuple over F_p, when it lives there."""
    ctx = spec.ctx
    if not all(ctx.in_subfield(c, ctx.p_log) for c in spec.coeffs):
        return None
    base = CurveSpec(ctx, ctx.p_log, spec.coeffs)
    try:
        pp = period_parity(base, budget=budget)
        return [pp.mu, pp.delta]
    except (CapExceeded, AmbientTooSmall) as exc:
        warnings.append(f"period search abandoned: {exc}")
        return None


def cmd_analyze(args: argparse.Namespace) -> _Output:
    """The `zeta_report` of one curve, with its class over F_q (from the
    eigenvalue route, else a direct count) and its base period."""
    spec = parse_curve_spec(args.curve)
    zeta = zeta_report(spec, _parse_extensions(args.extensions), args.budget, args.threads)
    report, lp = zeta.presentation, zeta.lpoly
    warnings: list[str] = []
    verdicts = None
    if report is None:
        warnings.append(f"presentation conditions unavailable: {zeta.unavailable}")
    else:
        verdicts = {
            "witnessed": report.witnessed,
            "extension_trace_vanishes": report.extension_trace_vanishes,
            "radical_trace_vanishes": report.radical_trace_vanishes,
            "lagrangian_in_subfield": report.lagrangian_in_subfield,
        }
    route = " and no eigenvalue route" if lp is None else "; eigenvalue route only"
    for m, limit in zeta.skipped:
        warnings.append(f"extension {m}: size {spec.q**m} over {limit}{route}")
    if lp is not None:
        count = lp.point_count(1)
    else:  # a second direct count of F_q when extension 1 was counted
        count = checked_count(spec, 1, None, args.budget, args.threads)
    twist_class = None if count is None else weil_class(spec, 1, count)
    if count is None:
        warnings.append("class unavailable: no eigenvalue route and field over budget")
    return _Output(
        {
            "curve": format_curve_spec(spec),
            "genus": spec.genus,
            "L_roots": lp.format_roots() if lp is not None else None,
            "counts": {str(m): n for m, n in zeta.counts.items()},
            "twist_class": twist_class,
            "verdicts": verdicts,
            "period_parity": _base_period(spec, args.budget, warnings),
            "warnings": warnings,
        }
    )


def cmd_twists(args: argparse.Namespace) -> _Output:
    head = parse_curve_spec(f"{args.head},0")  # the linear term is implied
    if not head.is_head:
        raise ParseError("the twist table needs a head curve (zero linear term)")
    tc = classify_twists(head, budget=args.budget)
    warnings: list[str] = []
    if not tc.counting_checked:
        warnings.append(
            f"field size {head.q} over budget {args.budget}; "
            f"classes from the eigenvalue route only"
        )
    labels = [tc.twist_class(a) for a in range(head.q)]
    rows = [
        [f"{a:x}", _CLASS_SHORT[label], tc.class_counts[label]] for a, label in enumerate(labels)
    ]
    data = {
        "head": format_curve_spec(head),
        "rows": [{"a": a, "class": c, "count": n} for a, c, n in rows],
        "counting_checked": tc.counting_checked,
        "warnings": warnings,
    }
    return _Output(data, (("a", "class", "count"), rows))


def cmd_construct(args: argparse.Namespace) -> _Output:
    ctx = parse_field_spec(args.field)
    if args.family == "recipe":
        if args.space is None:
            raise ParseError("--family recipe needs --space")
        space = Fp2Subspace.from_vectors(ctx, _hex_list(args.space, ctx.order))
        t = None  # the least admissible parameter
        if args.t is not None:
            t = parse_hex(args.t, ctx.order)
        rec = extremal_from_subspace(space, t, ctx.n, budget=args.budget)
        data = {
            "family": "recipe",
            "curve": format_curve_spec(rec.curve),
            "parameter": f"{rec.parameter:x}",
            "class": "maximal" if rec.is_maximal else "minimal",
            "L_roots": rec.lpoly.format_roots(),
            "counting_checked": rec.counting_checked,
        }
    elif args.family == "hermitian":
        if args.a is None:
            raise ParseError("--family hermitian needs --a")
        a = parse_hex(args.a, ctx.order)
        if args.q_deg is not None and args.q_deg < 1:
            raise ParseError(f"--q-deg {args.q_deg} must be >= 1")
        rep = hermitian_twist(ctx, a, args.q_deg, budget=args.budget)
        if not rep.is_extremal:
            label = "interior"
        else:
            label = "maximal" if rep.is_maximal else "minimal"
        data = {
            "family": "hermitian",
            "curve": format_curve_spec(rep.curve),
            "relative_trace": f"{rep.relative_trace:x}",
            "class": label,
            "eigenvalues": [str(z) for z in rep.eigenvalues],
            "counting_checked": rep.counting_checked,
        }
    else:
        if args.poly is None:
            raise ParseError("--family palindromic needs --poly")
        f_coeffs = _hex_list(args.poly, ctx.order)
        fam = palindromic_family(ctx, ctx.n, tuple(f_coeffs), budget=args.budget)
        tc = fam.classification
        data = {
            "family": "palindromic",
            "head": format_curve_spec(tc.head),
            "pivot": f"{fam.pivot:x}",
            "order": fam.order,
            "tower": fam.power,
            "maximal_twists": [f"{a:x}" for a in tc.maximal_twists],
            "minimal_twists": [f"{a:x}" for a in tc.minimal_twists],
            "counting_checked": tc.counting_checked,
        }
    return _Output(data)


def cmd_period(args: argparse.Namespace) -> _Output:
    spec = _parse_prime_curve(args.curve)
    pp = period_parity(spec, cap=args.cap, budget=args.budget)
    return _Output(
        {"curve": format_curve_spec(spec), "mu": pp.mu, "delta": pp.delta}
    )


def cmd_verify(args: argparse.Namespace) -> _Output:
    spec = parse_curve_spec(args.curve)
    requested = _parse_extensions(args.extensions)
    if not requested:
        requested = [m for m in range(1, 5) if spec.q**m <= args.budget]
    zeta = zeta_report(spec, requested, args.budget, args.threads)
    checks: dict[str, object] = {}
    warnings: list[str] = []
    if zeta.presentation is None:
        warnings.append(f"presentation conditions unavailable: {zeta.unavailable}")
    else:
        checks["flags"] = list(zeta.presentation.flags)
        checks["flags_agree"] = len(set(zeta.presentation.flags)) == 1
    if zeta.lpoly is not None:
        checks["witness_degree_matches_genus"] = zeta.lpoly.degree == 2 * spec.genus
    else:
        warnings += [f"extension {m}: no route within {limit}" for m, limit in zeta.skipped]
    checks["routes_compared"] = len(zeta.compared)
    checks["weil_bound_checked"] = len(zeta.counts)
    return _Output(
        {
            "curve": format_curve_spec(spec),
            "checks": checks,
            "counts": {str(m): n for m, n in zeta.counts.items()},
            "warnings": warnings,
            "ok": True,
        }
    )


def cmd_search(args: argparse.Namespace) -> _Output:
    ctx = parse_field_spec(args.field)
    found = extremal_search(ctx, args.e_max, args.predicate, args.budget, args.threads)
    rows = [[format_curve_spec(spec), count, label] for spec, count, label in found]
    results = [{"curve": text, "count": n, "class": c} for text, n, c in rows]
    return _Output(results, (("curve", "count", "class"), rows))


def cmd_hd_check(args: argparse.Namespace) -> _Output:
    header = ("degree", "sum", "closed_form")
    rows = [[s, str(total), str(closed)] for s, total, closed in hd_check(args.cap, args.budget)]
    records = [dict(zip(header, row)) for row in rows]
    return _Output({"max_degree": args.cap, "rows": records}, (header, rows))


# ---------------------------------------------------------------------------
# wiring

def _emit(out: _Output, fmt: str, output: str) -> None:
    if fmt == "csv":
        if out.table is None:
            raise ParseError("this subcommand has no CSV rendering; use json")
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(out.table[0])
        writer.writerows(out.table[1])
        text = buffer.getvalue()
    else:
        text = json.dumps(out.data, indent=2) + "\n"
    if output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _fail(exc: Exception, code: int) -> int:
    record = {"error": type(exc).__name__, "detail": str(exc)}
    sys.stdout.write(json.dumps(record, indent=2) + "\n")
    return code


def _add_common(
    parser: argparse.ArgumentParser, func: Callable, fmt: str = "json", cap: int | None = None
) -> None:
    parser.set_defaults(func=func)
    parser.register("type", int, _int_option)  # the errors still name the type int
    parser.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="largest field size enumerated directly",
    )
    parser.add_argument("--threads", type=int, default=1, help="counting threads")
    parser.add_argument(
        "--format", choices=("json", "csv"), default=fmt, help="output rendering"
    )
    parser.add_argument("--output", default="-", help="output path, - for stdout")
    if cap is not None:
        parser.add_argument(
            "--cap", type=int, default=cap, help="largest degree searched"
        )


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ParseError, so they
    come out as a JSON record like every other error; --help still
    prints and exits 0.  Subcommand parsers take the same class."""

    def error(self, message: str):
        raise ParseError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="aswcurves",
        description="Analysis of y^p - y = x*R(x) over binary fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for one curve")
    p.add_argument("curve", help="curve text, e.g. 'q=F4; R=1,0'")
    p.add_argument(
        "--extensions", default="1", help="comma list of degrees to count over"
    )
    _add_common(p, cmd_analyze)

    p = sub.add_parser("twists", help="class table of a head curve's family")
    p.add_argument(
        "head",
        help="head coefficients a_e..a_1, zero linear term implied, "
        "e.g. 'q=F4; R=1'",
    )
    _add_common(p, cmd_twists, fmt="csv")

    p = sub.add_parser("construct", help="certified curves from closed forms")
    p.add_argument(
        "--family", required=True, choices=("recipe", "hermitian", "palindromic")
    )
    p.add_argument("--field", required=True, help="field spec, e.g. F16 or F16:p=4")
    p.add_argument("--space", help="recipe: comma hex F_p-basis of the subspace")
    p.add_argument("--t", help="recipe: twist parameter (default: least admissible)")
    p.add_argument("--a", help="hermitian: linear coefficient")
    p.add_argument("--q-deg", type=int, dest="q_deg", help="hermitian: degree of F_q")
    p.add_argument("--poly", help="palindromic: comma hex coefficients of f")
    _add_common(p, cmd_construct)

    p = sub.add_parser("period", help="first bound-attaining extension over F_p")
    p.add_argument("curve", help="curve text, e.g. 'p=2; R=1,0'")
    _add_common(p, cmd_period, cap=16)

    p = sub.add_parser("verify", help="dual-route consistency audit for a curve")
    p.add_argument("curve", help="curve text, e.g. 'q=F4; R=1,0'")
    p.add_argument(
        "--extensions", default="", help="degrees to audit (default: within budget)"
    )
    _add_common(p, cmd_verify)

    p = sub.add_parser("search", help="sweep a field for bound-attaining curves")
    p.add_argument("--field", required=True, help="field spec, e.g. F4")
    p.add_argument("--e-max", type=int, default=1, dest="e_max")
    p.add_argument(
        "--predicate",
        required=True,
        choices=("maximal", "minimal", "extremal"),
    )
    _add_common(p, cmd_search)

    p = sub.add_parser("hd-check", help="character sums against the closed form")
    _add_common(p, cmd_hd_check, cap=16)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        for name, least in (("cap", 1), ("e_max", 1), ("threads", 1), ("budget", 0)):
            value = getattr(args, name, least)
            if value < least:
                flag = "--" + name.replace("_", "-")
                raise ParseError(f"{flag} {value} must be >= {least}")
        _emit(args.func(args), args.format, args.output)
    except ParseError as exc:
        return _fail(exc, 2)
    except AmbientTooSmall as exc:
        return _fail(exc, 3)
    except (OracleMismatch, NonRealCount) as exc:
        return _fail(exc, 4)
    except (CapExceeded, BudgetExceeded) as exc:
        return _fail(exc, 5)
    except (Char2Error, OSError) as exc:  # OSError: --output is not writable
        return _fail(exc, 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
