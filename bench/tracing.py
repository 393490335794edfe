"""Spans and counters around calls into each layer, from outside `src/`.

The package binds names at import (`from .count import brute_count`),
so a function is wrapped at every place a caller looks it up: each
module global of the package (and of the extra modules given to
`install`) that holds the original object is rebound to the wrapper.
Methods are wrapped on their class.  Scalar `FieldCtx` operations take
microseconds, so they get call counters instead of timing spans.

A span is [name, start, end, parent, job]: parent is the index of the
enclosing span (None at the top of a job, and in worker threads) and
job the index of the job in the pass.  Spans stay in memory until the
pass ends.
"""

from __future__ import annotations

import contextvars
import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import stats

LAYERS = (
    "gf2field", "bitvec", "witt2", "skew", "symplectic", "curves.base",
    "curves.count", "curves.lpoly", "curves.presentation", "curves.twists",
    "curves.families", "curves.period", "cli",
)


def _count_note(result, spec, m=1, to_deg=None, *rest, **kwargs):
    ctx = spec.ctx
    deg = spec.q_deg * m
    key = (ctx.n, ctx.poly, ctx.p_log, deg, ctx.p_log if to_deg is None else to_deg)
    return key, 1 << deg


def _qtable_note(result, deg):
    return 1 << deg


def _search_note(result, fd, a0):
    return fd.ctx, fd.q_deg, result


def _result_note(result, *args, **kwargs):
    return result


def _targets():
    """(owner, attribute, span name, layer, kind, note) for every wrapped call.

    kind is "span" or "count"; owner is a module name (the function is
    rebound wherever it is imported) or a class (wrapped in place).
    """
    from aswcurves.curves.base import TwistDatum
    from aswcurves.gf2field import FieldCtx
    from aswcurves.skew import SkewPoly
    from aswcurves.symplectic import PairingCtx

    pkg = "aswcurves."
    return [
        (pkg + "curves.count", "trace_zero_count", "curves.count", "curves.count", "span", _count_note),
        (pkg + "bitvec", "field_mul", "bitvec.field_mul", "bitvec", "span", None),
        (pkg + "bitvec", "apply_linear", "bitvec.apply_linear", "bitvec", "span", None),
        (pkg + "witt2", "q_exponent_table", "witt2.q_exponent_table", "witt2", "span", _qtable_note),
        (pkg + "witt2", "q_char", "witt2.q_char", "witt2", "count", None),
        (pkg + "symplectic", "maximal_isotropic", "symplectic.maximal_isotropic", "symplectic", "span", None),
        (pkg + "curves.presentation", "presentation_conditions", "curves.presentation_conditions",
         "curves.presentation", "span", None),
        (pkg + "curves.presentation", "parameter_search", "curves.parameter_search",
         "curves.presentation", "span", _search_note),
        (pkg + "curves.twists", "classify_twists", "curves.classify_twists", "curves.twists", "span", None),
        (pkg + "curves.lpoly", "l_polynomial", "curves.l_polynomial", "curves.lpoly", "span", None),
        (pkg + "curves.families", "hermitian_twist", "curves.hermitian_twist", "curves.families", "span", None),
        (pkg + "curves.families", "extremal_from_subspace", "curves.extremal_from_subspace",
         "curves.families", "span", None),
        (pkg + "curves.families", "palindromic_family", "curves.palindromic_family",
         "curves.families", "span", None),
        (pkg + "curves.period", "period_parity", "curves.period_parity", "curves.period", "span", None),
        (pkg + "curves.period", "impossibility_scan", "curves.impossibility_scan", "curves.period", "span", None),
        (pkg + "cli", "main", "cli.main", "cli", "span", None),
        (SkewPoly, "kernel_splitting_degree", "skew.kernel_splitting_degree", "skew", "span", _result_note),
        (SkewPoly, "kernel", "skew.kernel", "skew", "span", None),
        (TwistDatum, "__init__", "curves.base.TwistDatum", "curves.base", "span", None),
        (PairingCtx, "__init__", "symplectic.PairingCtx", "symplectic", "span", None),
        (FieldCtx, "mul", "gf2field.mul", "gf2field", "count", None),
        (FieldCtx, "frob", "gf2field.frob", "gf2field", "count", None),
        (FieldCtx, "trace", "gf2field.trace", "gf2field", "count", None),
        (FieldCtx, "inv", "gf2field.inv", "gf2field", "count", None),
    ]


def rebind_everywhere(original, wrapped, extra_modules, undo_log: list) -> None:
    """Rebind every module global of the package (and of extra_modules)
    that holds original to wrapped, logging (module, name, original)."""
    modules = [m for name, m in sys.modules.items() if name == "aswcurves" or name.startswith("aswcurves.")]
    for module in modules + list(extra_modules):
        for key, value in list(vars(module).items()):
            if value is original:
                undo_log.append((module, key, original))
                setattr(module, key, wrapped)


def undo(undo_log: list) -> None:
    while undo_log:
        owner, attr, original = undo_log.pop()
        setattr(owner, attr, original)


# The routes whose work a job's output does not show: the direct count
# (`trace_zero_count`, behind `brute_count` and `psi_sum`), the hd-check
# enumeration (`q_exponent_table`) and the eigenvalue route
# (`l_polynomial`).  A job that skips one of them can print the same
# bytes, so `RouteTally` counts their calls, and the elements the two
# enumerations were asked for, in every pass.
ROUTES = (
    ("aswcurves.curves.count", "trace_zero_count", "count",
     lambda spec, m=1, *rest, **kwargs: 1 << (spec.q_deg * m)),
    ("aswcurves.witt2", "q_exponent_table", "qtable", lambda deg: 1 << deg),
    ("aswcurves.curves.lpoly", "l_polynomial", "lpoly", None),
)


class RouteTally:
    """Call counters on the routes of ROUTES, cheap enough for the
    untraced pass: one dict update per call of a function that takes
    at least microseconds."""

    def __init__(self):
        self.counts: Counter = Counter()
        self._undo: list = []  # kept for the life of the worker

    def _wrap(self, key, fn, size):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[f"{key}.calls"] += 1
            if size is not None:
                counts[f"{key}.elements"] += size(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def install(self, extra_modules=()) -> None:
        for module, attr, key, size in ROUTES:
            original = getattr(sys.modules[module], attr)
            rebind_everywhere(original, self._wrap(key, original, size), extra_modules, self._undo)

    def take(self) -> dict[str, int]:
        """The tallies since the last take, every route listed."""
        out = {f"{key}.{what}": 0 for _, _, key, size in ROUTES
               for what in (("calls", "elements") if size else ("calls",))}
        out.update(self.counts)
        self.counts.clear()
        return out


class Tracer:
    """Records spans, call counters, errors and per-call notes of one pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.notes: defaultdict = defaultdict(list)
        self.job: int | None = None
        self._current = contextvars.ContextVar("bench_span", default=None)
        self._undo: list[tuple[object, str, object]] = []
        self._names: list[str] = []

    def _span(self, name, layer, fn, note):
        spans, errors, notes, current = self.spans, self.errors, self.notes[name], self._current

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, current.get(), self.job]
            token = current.set(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[layer] += 1
                raise
            finally:
                rec[2] = perf_counter()
                current.reset(token)
            if note is not None:
                notes.append(note(result, *args, **kwargs))
            return result

        return wrapper

    def _counter(self, name, layer, fn):
        calls, errors = self.calls, self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[layer] += 1
                raise

        return wrapper

    def install(self, extra_modules=()) -> None:
        for owner, attr, name, layer, kind, note in _targets():
            self._names.append(name)
            if isinstance(owner, str):
                original = getattr(sys.modules[owner], attr)
            else:
                original = owner.__dict__[attr]
            if kind == "span":
                wrapped = self._span(name, layer, original, note)
            else:
                wrapped = self._counter(name, layer, original)
            if isinstance(owner, str):
                rebind_everywhere(original, wrapped, extra_modules, self._undo)
            else:
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        undo(self._undo)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"], "spans": self.spans}, fh)

    def metrics(self, job_seconds: float) -> dict[str, float]:
        """Per-layer numbers of the pass; call after `uninstall`.

        job_seconds is the summed job time of the pass, the base of the
        share metrics.
        """
        selfs = stats.self_times(self.spans)
        calls: Counter = Counter(self.calls)
        self_s: defaultdict = defaultdict(float)
        total_s: defaultdict = defaultdict(float)
        by_name: defaultdict = defaultdict(list)
        for (name, start, end, parent, job), own in zip(self.spans, selfs):
            calls[name] += 1
            self_s[name] += own
            total_s[name] += end - start
            by_name[name].append((start, end))

        out: dict[str, float] = {}
        for name in self._names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]

        count_notes = self.notes["curves.count"]
        elements = sum(n for _, n in count_notes)
        out["curves.count.elements"] = elements
        out["curves.count.ns_per_element"] = total_s["curves.count"] / elements * 1e9 if elements else 0.0
        out["curves.count.repeat_share"] = stats.repeat_share([key for key, _ in count_notes])
        out["witt2.q_exponent_table.elements"] = sum(self.notes["witt2.q_exponent_table"])
        out["skew.kernel_splitting_degree.degree_sum"] = stats.degree_sum(
            self.notes["skew.kernel_splitting_degree"]
        )
        out["curves.parameter_search.scanned"] = sum(
            stats.scanned(sorted(ctx.subfield_elements(q_deg)), t)
            for ctx, q_deg, t in self.notes["curves.parameter_search"]
        )

        base = job_seconds or 1.0
        oracle_spans = by_name["curves.count"] + by_name["witt2.q_exponent_table"]
        out["trace.share.count_qtable"] = stats.covered(oracle_spans) / base
        out["trace.share.kernel_splitting_degree"] = stats.covered(by_name["skew.kernel_splitting_degree"]) / base
        out["trace.share.kernel_splitting_degree_self"] = self_s["skew.kernel_splitting_degree"] / base
        return out


# The layer each workload isolates, as a test on the traced metrics.
ISOLATION = {
    "oracle": ("count and q_exponent_table cover >= 80% of job time, kernel_splitting_degree < 5%",
               lambda m: m["trace.share.count_qtable"] >= 0.8 and m["trace.share.kernel_splitting_degree"] < 0.05),
    "families": ("curves.count.repeat_share >= 0.9",
                 lambda m: m["curves.count.repeat_share"] >= 0.9),
    "sweep": ("kernel_splitting_degree self time >= 40% of job time",
              lambda m: m["trace.share.kernel_splitting_degree_self"] >= 0.4),
}
