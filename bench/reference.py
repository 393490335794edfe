"""A fixed unit of work, independent of the package, that tracks the
speed of the machine while a run measures.

The machine this benchmark was written on (2 vCPUs of a shared Intel
Xeon VM) drifts in speed by 10-30% over tens of seconds to minutes,
more than the bounds the end-to-end metrics must hold.  The worker
times one unit before the first job and one after every job, outside
the timed work and while no counting thread runs, so neither a job nor
the thread count can move the units.  Each job's seconds are scaled to
reference seconds by the units taken near it (`job_scales`), so drift
within a pass is corrected where it happens.  Raw seconds are kept next
to the scaled ones (the `info` line, bench/out/, and `wall_raw_s` in
the traced run).

Set-up time has a reference of its own, since process start-up drifts
apart from the compute speed the unit measures: a fresh interpreter
that only imports numpy (START_CODE), run right after each measured
set-up.  Set-up in reference seconds is NOMINAL_START_S times the
median ratio of set-up to start-up time (`setup_seconds`).
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 1.8e-3  # median unit time on the machine described above
NOMINAL_START_S = 0.18  # median START_CODE process time on that machine
START_CODE = "import numpy\n"
WINDOW = 32  # jobs on each side whose units set a job's scale
_ARRAY = np.arange(1 << 17, dtype=np.uint64)
_LEFT = np.empty_like(_ARRAY)
_RIGHT = np.empty_like(_ARRAY)


def unit() -> float:
    """Seconds taken by one unit, in two halves of about equal time on
    the machine above: scalar bit arithmetic in the interpreter, as in
    gf2field, and shifts and XORs over uint64 arrays of 1 MiB, as in
    bitvec.  Over four minutes of drift, the interpreter half alone
    tracked an interpreter-bound job but added noise to a numpy-bound
    one; the two halves together tracked both.

    The arrays are allocated once and written in place: a unit that
    allocated them would take its speed from the state the jobs left
    the allocator in (freshly mapped pages fault), and so from the
    program it is meant to be independent of.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(10000):
        acc ^= (i * i) & 0xFFFF
    np.left_shift(_ARRAY, np.uint64(1), out=_LEFT)
    for j in range(4):
        np.right_shift(_ARRAY, np.uint64(j), out=_RIGHT)
        np.bitwise_xor(_LEFT, _RIGHT, out=_LEFT)
        np.left_shift(_LEFT, np.uint64(1), out=_LEFT)
    return perf_counter() - t0


def job_scales(units: list[float]) -> list[float]:
    """Factor from raw to reference seconds for each job of a pass.

    units[i] is the unit time taken before job i and units[-1] the one
    after the last job; a job's factor is NOMINAL_S over the median of
    the units within WINDOW jobs of it.
    """
    return [
        NOMINAL_S / statistics.median(units[max(0, i - WINDOW): i + WINDOW + 2])
        for i in range(len(units) - 1)
    ]


def setup_seconds(pairs: list[tuple[float, float]]) -> float:
    """Set-up time in reference seconds, from (set-up, start-up) pairs."""
    return NOMINAL_START_S * statistics.median(setup / start for setup, start in pairs)
