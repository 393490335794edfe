"""Layer microbenchmarks of the traced run.

Each figure is the median over a few repeats of a timed loop over fixed
or seeded inputs, run with no wrappers installed.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter_ns

import numpy as np

# Skew polynomials (field degree, p_log, coefficients a_0..a_e) whose
# kernel splitting degrees are timed; fixed so the figure is comparable
# across seeds.
KSD_FIXED = (
    (4, 2, (1, 2, 3)),
    (4, 2, (5, 0, 7)),
    (4, 2, (9, 4, 1)),
    (4, 1, (3, 1, 6)),
    (4, 1, (7, 11)),
    (8, 1, (0x53, 0xCA)),
    (8, 2, (0x1B, 0x02, 0x8D)),
)


def _ns_per_call(fn, inputs, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = perf_counter_ns()
        for args in inputs:
            fn(*args)
        samples.append((perf_counter_ns() - t0) / len(inputs))
    return statistics.median(samples)


def run(seed: int) -> dict[str, float]:
    from aswcurves.bitvec import field_mul
    from aswcurves.gf2field import make_field
    from aswcurves.skew import SkewPoly

    rng = random.Random(f"micro:{seed}")
    f12, f20, f32 = make_field(12), make_field(20), make_field(32)
    pairs12 = [(rng.randrange(1 << 12), rng.randrange(1 << 12)) for _ in range(4000)]
    pairs32 = [(rng.randrange(1 << 32), rng.randrange(1 << 32)) for _ in range(2000)]
    units32 = [(rng.randrange(1, 1 << 32),) for _ in range(100)]
    out = {
        "gf2field.mul_ns.n12": _ns_per_call(f12.mul, pairs12, 5),
        "gf2field.mul_ns.n32": _ns_per_call(f32.mul, pairs32, 5),
        "gf2field.frob_ns.n32": _ns_per_call(lambda a: f32.frob(a, 31), units32, 5),
        "gf2field.trace_ns.n32": _ns_per_call(lambda a: f32.trace(a, 32, 1), units32, 5),
        "gf2field.inv_ns.n32": _ns_per_call(f32.inv, units32, 5),
    }

    gen = np.random.default_rng(seed)
    a = gen.integers(0, 1 << 20, size=1 << 20, dtype=np.uint64)
    b = gen.integers(0, 1 << 20, size=1 << 20, dtype=np.uint64)
    out["bitvec.field_mul_ns_per_elem.n20"] = _ns_per_call(lambda: field_mul(f20, a, b), [()], 3) / a.size

    polys = [
        (SkewPoly(make_field(n, None, p_log), dict(enumerate(coeffs))),)
        for n, p_log, coeffs in KSD_FIXED
    ]
    out["skew.kernel_splitting_degree_us.fixed"] = (
        _ns_per_call(lambda f: f.kernel_splitting_degree(), polys, 3) / 1000
    )
    return out
