"""Job lists of the three benchmark workloads, generated from a seed.

A job is one unit a user waits for: one CLI invocation (argv for
`aswcurves.cli.main`) or one library call sequence through the public
`aswcurves.curves` API (the name of a function in `api.py` and its
arguments).  This module is plain Python and does not import the
package, so the parent process can size a pass without loading it.

Each workload is built in tiers of similar jobs so that the pass median
and the tail percentile (see `stats.tail_percentile`) land inside a
tier, not on the boundary between two tiers of very different cost.
The tier sizes below are chosen for that; change them together.  A
job's name is stable across seeds; the seed only changes its inputs.

Workloads and why each was chosen:

- `oracle`: `analyze` and `verify` whose enumerated universes run from
  2^16 to 2^24, plus `hd-check` up to degree 20.  The time is in the
  vectorised enumeration oracle (`curves.count`, `bitvec`,
  `witt2.q_exponent_table`); the hd-check jobs form the tail tier.
- `families`: `twists` on heads from F256 to F4096, the three `construct`
  families and `search`.  The time is in scalar `gf2field` code, in
  thousands of small counts that share one field, and in the hermitian
  `parameter_search` of the tail tier.
- `sweep`: library sweeps with enumeration kept at 2^8 or below.  The
  time is in `skew.kernel_splitting_degree` and `symplectic`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("oracle", "families", "sweep")
DEFAULT_BUDGET = 1 << 24  # the CLI's default --budget

# The README/ROADMAP baseline commands, under stable job names.
BASELINES = {
    "analyze_F256_123": ("analyze", "q=F256; R=1,0,0", "--extensions", "1,2,3"),
    "hd_check_cap20": ("hd-check", "--cap", "20", "--format", "csv"),
    "twists_F4096": ("twists", "q=F4096; R=1,0", "--format", "json"),
    "construct_hermitian_F65536p4": (
        "construct", "--family", "hermitian", "--field", "F65536:p=4", "--a", "0",
    ),
    "search_F16_e2": ("search", "--field", "F16", "--e-max", "2", "--predicate", "maximal"),
}


@dataclass(frozen=True)
class Job:
    """One benchmark job.

    `argv` is set for a CLI job, `api` (with `args`) for a library job.
    `fmt` is the rendering a CLI job asks for.  `budget` is the
    enumeration budget in force, which the output checks need to know
    how many route comparisons a complete run makes.
    """

    name: str
    argv: tuple[str, ...] = ()
    api: str = ""
    args: tuple = ()
    fmt: str = "json"
    budget: int = DEFAULT_BUDGET
    extensions: tuple[int, ...] = ()


# ---------------------------------------------------------------------------
# inputs
#
# A seed draws, for each job, a scaling s of a base curve that is fixed
# for the workload: x -> s*x maps y^p - y = x*R(x) to an isomorphic
# curve over F_q, so kernels, splitting degrees, witnesses and counts
# keep their structure.  Every seed therefore does the same amount of
# work on different coefficients, and the run-to-run spread measures
# the program rather than the draw.  The field arithmetic here is the
# benchmark's own, so inputs do not depend on the package.

# field text -> (degree n, modulus, p); moduli are written out so the
# generated text does not depend on the package's default choice.
FIELDS = {
    "F4": (2, 0x7, 2),
    "F4:p=4": (2, 0x7, 4),
    "F16": (4, 0x13, 2),
    "F16:p=4": (4, 0x13, 4),
    "F16:0x19": (4, 0x19, 2),
    "F64:p=8": (6, 0x43, 8),
    "F256": (8, 0x11B, 2),
    "F256:p=4": (8, 0x11B, 4),
    "F512:0x211": (9, 0x211, 2),
    "F1024": (10, 0x409, 2),
    "F4096:0x1053": (12, 0x1053, 2),
}


def gf_mul(a: int, b: int, n: int, poly: int) -> int:
    """Product in F_2[x]/(poly), poly of degree n."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> n:
            a ^= poly
    return r


def gf_pow(a: int, k: int, n: int, poly: int) -> int:
    r = 1
    while k:
        if k & 1:
            r = gf_mul(r, a, n, poly)
        a = gf_mul(a, a, n, poly)
        k >>= 1
    return r


def rescaled(coeffs: tuple[int, ...], s: int, field: str, shift: int = 1) -> tuple[int, ...]:
    """Coefficients c_0..c_e multiplied by s^(shift + p^i).

    shift = 1 maps the curve coefficients a_i of R under x -> s*x
    (x*R(x) has monomials x^(1+p^i)); shift = 0 maps a skew polynomial
    F to F(s*x), which keeps every flag of its datum.
    """
    n, poly, p = FIELDS[field]
    return tuple(gf_mul(c, gf_pow(s, shift + p**i, n, poly), n, poly) for i, c in enumerate(coeffs))


def field_text(field: str) -> str:
    n, poly, p = FIELDS[field]
    return f"F{1 << n}:{poly:#x}" + (f":p={p}" if p != 2 else "")


def curve_text(field: str, coeffs: tuple[int, ...]) -> str:
    """Curve text for coefficients a_0..a_e given in ascending order."""
    return f"q={field_text(field)}; R=" + ",".join(f"{c:x}" for c in reversed(coeffs))


def _bases(label: str, field: str, e: int, count: int) -> list[tuple[int, ...]]:
    """Fixed base coefficient tuples a_0..a_e (a_e != 0) of one tier."""
    q = 1 << FIELDS[field][0]
    rng = random.Random(f"base:{label}")
    return [tuple(rng.randrange(q) for _ in range(e)) + (rng.randrange(1, q),) for _ in range(count)]


def _scaled(rng: random.Random, field: str, base: tuple[int, ...], shift: int = 1) -> tuple[int, ...]:
    return rescaled(base, rng.randrange(1, 1 << FIELDS[field][0]), field, shift)


def _cli(name: str, *argv: str, fmt: str = "json", budget: int = DEFAULT_BUDGET, extensions=()):
    return Job(name, argv=tuple(argv), fmt=fmt, budget=budget, extensions=tuple(extensions))


def _curve_jobs(rng, tier: str, command: str, field: str, bases, extensions, *extra, budget=DEFAULT_BUDGET):
    degrees = ",".join(map(str, extensions))
    return [
        _cli(f"{tier}.{i}", command, curve_text(field, _scaled(rng, field, base)),
             "--extensions", degrees, *extra, budget=budget, extensions=extensions)
        for i, base in enumerate(bases)
    ]


# Curves without a presentation witness (a_0, a_1), for the median tier:
# with a witness, the search for the twist parameter runs for as many
# steps as the parameter's rank, which a scaling changes, so the job
# cost would depend on the seed.
_UNWITNESSED = {
    "F512:0x211": [(158, 265), (447, 28), (161, 154), (97, 360), (47, 308), (131, 102),
                   (483, 31), (169, 115), (244, 122), (270, 462), (500, 220), (431, 410)],
    "F64:p=8": [(44, 19), (17, 6), (43, 37), (40, 49), (60, 46), (6, 37),
                (26, 39), (3, 5), (11, 26), (8, 42), (59, 35), (9, 47)],
}


# ---------------------------------------------------------------------------
# workloads


def _oracle(rng: random.Random) -> list[Job]:
    return [
        _cli("analyze_F256_123", *BASELINES["analyze_F256_123"], extensions=(1, 2, 3)),
        _cli("hd_check_cap20", *BASELINES["hd_check_cap20"], fmt="csv"),
        # the tail tier: hd-check takes no input, so these jobs are the
        # same on every seed; their time is q_exponent_table's.  A cache
        # of its tables across calls would make the repeats nearly free,
        # a gain that a CLI user, one command per process, would not see.
        *[_cli(f"hd-check.cap17.{i}", "hd-check", "--cap", "17", "--format", "csv", fmt="csv")
          for i in range(12)],
        # 2^20 universes
        *_curve_jobs(rng, "verify.F1024", "verify", "F1024", _bases("verify.F1024", "F1024", 1, 12), (1, 2)),
        # 2^18 universes: the median tier
        *_curve_jobs(rng, "verify.F512", "verify", "F512:0x211", _UNWITNESSED["F512:0x211"], (1, 2)),
        *_curve_jobs(rng, "analyze.F64p8", "analyze", "F64:p=8", _UNWITNESSED["F64:p=8"], (1, 2, 3)),
        # 2^16 universes, as many jobs as lie above the median tier
        *_curve_jobs(rng, "verify.F16x19", "verify", "F16:0x19", _bases("verify.F16x19", "F16:0x19", 2, 16),
                     (1, 2, 3, 4)),
        *_curve_jobs(rng, "analyze.F256p4", "analyze", "F256:p=4", _bases("analyze.F256p4", "F256:p=4", 1, 10),
                     (1, 2)),
        # the second extension lies past --budget: the formula-only path
        *_curve_jobs(rng, "verify.F4096.over_budget", "verify", "F4096:0x1053",
                     _bases("verify.F4096.over_budget", "F4096:0x1053", 1, 4), (1, 2),
                     "--budget", "65536", budget=1 << 16),
    ]


# A head with a twist table (its symmetrization kernel is rational) over
# every field of even degree; its scalings give the twist jobs.
_GOOD_HEAD = (0, 1)


def _twist_jobs(rng, field: str, count: int) -> list[Job]:
    return [
        _cli(f"twists.{field}.{i}", "twists",
             curve_text(field, _scaled(rng, field, _GOOD_HEAD)[1:]), "--format", "json")
        for i in range(count)
    ]


# Coefficients a over F65536:p=4 whose relative trace to F_16 vanishes,
# so `construct --family hermitian` runs `parameter_search`.  The search
# stops at ranks 14337-14421 of the 65536 parameters, so each job takes
# about 0.8 s, most of it in the search, and the tier's costs are equal.
_SEARCHED_A = (0xF6F4, 0x9BD7, 0x4150, 0x2C73, 0x2832, 0x4511,
               0x9F96, 0xF2B5, 0xE6FC, 0x504E, 0x3D6D, 0xE7EA)


def _families(rng: random.Random) -> list[Job]:
    jobs = [
        _cli("twists_F4096", *BASELINES["twists_F4096"]),
        _cli("construct_hermitian_F65536p4", *BASELINES["construct_hermitian_F65536p4"]),
        _cli("search_F16_e2", *BASELINES["search_F16_e2"]),
        *_twist_jobs(rng, "F1024", 2),
        *_twist_jobs(rng, "F256", 8),
    ]
    # Hermitian jobs take fixed coefficients: their cost follows the
    # rank of the twist parameter, and x -> s*x leaves the family, so no
    # scaling keeps it.  F65536 is the tail tier, F256 the median tier;
    # the cheap F16 jobs below them take seeded coefficients.
    for i, a in enumerate(_SEARCHED_A):
        jobs.append(
            _cli(f"construct.hermitian.F65536p4.{i}", "construct", "--family", "hermitian",
                 "--field", "F65536:p=4", "--a", f"{a:x}")
        )
    fixed = random.Random("hermitian.F256p4")
    for i in range(24):
        jobs.append(
            _cli(f"construct.hermitian.F256p4.{i}", "construct", "--family", "hermitian",
                 "--field", "F256:p=4", "--a", f"{fixed.randrange(256):x}")
        )
    for i in range(16):
        jobs.append(
            _cli(f"construct.hermitian.F16p4.{i}", "construct", "--family", "hermitian",
                 "--field", "F16:p=4", "--a", f"{rng.randrange(16):x}")
        )
    for fld in ("F16", "F64", "F256", "F256:p=4"):
        jobs.append(_cli(f"construct.recipe.{fld}", "construct", "--family", "recipe", "--field", fld, "--space", "1"))
    for fld in ("F16", "F256", "F16:p=4", "F256:p=4"):
        jobs.append(
            _cli(f"construct.palindromic.{fld}", "construct", "--family", "palindromic",
                 "--field", fld, "--poly", "1,1")
        )
    return jobs


def _sweep(rng: random.Random) -> list[Job]:
    """Library jobs, each a batch of calls of one kind over one field."""
    jobs = []
    # (field, e, jobs, data per job): TwistDatum builds, weighted like an
    # exhaustive sweep, where F16 with e = 2 dominates
    for field, e, count, size in (
        ("F4", 1, 1, 20), ("F4", 2, 1, 20), ("F4:p=4", 1, 1, 20), ("F4:p=4", 2, 1, 20),
        ("F16", 1, 8, 25), ("F16:p=4", 1, 4, 25), ("F16", 2, 60, 25), ("F16:p=4", 2, 120, 25),
    ):
        n, poly, p = FIELDS[field]
        bases = _bases(f"datum.{field}.{e}", field, e, count * size)
        for i in range(count):
            batch = tuple(
                _scaled(rng, field, (b[0] or 1,) + b[1:], shift=0)  # F = f_0 + f_1 t + ..., f_0 != 0
                for b in bases[i * size:(i + 1) * size]
            )
            jobs.append(Job(f"datum.{field}.e{e}.{i}", api="datum_sweep", args=(n, p.bit_length() - 1, poly, batch)))
    for field, e, count in (
        ("F16", 1, 2), ("F16", 2, 2), ("F16:p=4", 1, 2), ("F16:p=4", 2, 2),
        ("F256", 1, 6), ("F256", 2, 6), ("F256:p=4", 1, 6), ("F256:p=4", 2, 6),
    ):
        bases = _bases(f"presentation.{field}.{e}", field, e, count * 10)
        for i in range(count):
            batch = tuple(curve_text(field, _scaled(rng, field, b)) for b in bases[i * 10:(i + 1) * 10])
            jobs.append(Job(f"presentation.{field}.e{e}.{i}", api="presentation_sweep", args=(batch,)))
    for field, e in (("F4:p=4", 1), ("F4:p=4", 2)):
        for i, base in enumerate(_bases(f"period.{field}.{e}", field, e, 4)):
            jobs.append(Job(f"period.{field}.e{e}.{i}", api="period_sweep", args=(4, _scaled(rng, field, base), 6)))
    for i, coeffs in enumerate(((1, 1), (0, 1), (1, 0, 1), (0, 1, 1))):  # over F_2 no scaling is left
        jobs.append(Job(f"period.F2.{i}", api="period_sweep", args=(2, coeffs, 12)))
    jobs.append(Job("impossibility.p2", api="impossibility_sweep", args=(1, 2, 12)))
    jobs.append(Job("impossibility.p4", api="impossibility_sweep", args=(2, 1, 6)))
    return jobs


def build(workload: str, seed: int) -> list[Job]:
    """The job list of one pass; the same seed gives the same list."""
    makers = {"oracle": _oracle, "families": _families, "sweep": _sweep}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    job_list = makers[workload](random.Random(f"{workload}:{seed}"))
    # One fixed order for every seed that spreads each tier over the
    # pass, so a tier's percentile does not rest on one moment of the
    # machine.
    random.Random(f"order:{workload}").shuffle(job_list)
    return job_list
