#!/usr/bin/env python3
"""Walk through the point-order counting algorithm step by step.

Counts a curve over a moderately sized prime field and replays the count's
own record of its samples: points drawn alternately on the curve and its
quadratic twist, each order narrowing the congruence on the trace of
Frobenius until a single value survives.
"""

import random

from hassecount import (
    Congruence,
    Curve,
    count_exhaustive,
    count_points,
    crt_merge,
    hasse_interval,
    make_spec,
    trace_candidates,
)
from hassecount.order import Stats

q = 1009
spec = make_spec(q)
curve = Curve(spec, 0, 0, 0, 1, 7)  # y^2 = x^3 + x + 7
h = hasse_interval(q)
print(f"F_{q}: Hasse interval [{h.lo}, {h.hi}], trace bound {h.trace_bound}")

stats = Stats()
result = count_points(curve, "point_order", random.Random(1), stats)
cong = Congruence(0, 1)
for step, (side, (x, y), order) in enumerate(stats.samples, 1):
    residue = (-(q + 1)) % order if side == "E'" else (q + 1) % order
    cong = crt_merge(cong, Congruence(residue, order))
    cands = trace_candidates(cong, q)
    print(
        f"sample {step}: {side:<2} point ({x},{y}) "
        f"has order {order:4d} -> t = {cong.a} (mod {cong.m}), "
        f"{len(cands)} admissible trace(s)"
    )

t = cands[0]
print(f"\ntrace pinned to t = {t}: #E = {q + 1 - t}, #E' = {q + 1 + t}")

assert result.count == q + 1 - t == count_exhaustive(curve)
print(f"count_points agrees and verifies: {result}")
