#!/usr/bin/env python3
"""Walk through the point-order counting algorithm step by step.

Picks a curve over a moderately sized prime field, samples points alternately
on the curve and its quadratic twist, and shows how each point order narrows
the congruence on the trace of Frobenius until a single value survives.
"""

import random

from hassecount import (
    Congruence,
    Curve,
    bsgs_annihilator,
    count_exhaustive,
    count_points,
    crt_merge,
    exact_order,
    hasse_interval,
    make_spec,
    quadratic_twist,
    random_point,
    trace_candidates,
)

q = 1009
spec = make_spec(q)
curve = Curve(spec, 0, 0, 0, 1, 7)  # y^2 = x^3 + x + 7
twist = quadratic_twist(curve)
h = hasse_interval(q)
print(f"F_{q}: Hasse interval [{h.lo}, {h.hi}], trace bound {h.trace_bound}")

rng = random.Random(1)
cong = Congruence(0, 1)
step = 0
while True:
    on_twist = step % 2 == 1
    e = twist if on_twist else curve
    pt = random_point(e, rng)
    order = exact_order(e, pt, bsgs_annihilator(e, pt))
    residue = (-(q + 1)) % order if on_twist else (q + 1) % order
    cong = crt_merge(cong, Congruence(residue, order))
    cands = trace_candidates(cong, q)
    side = "E'" if on_twist else "E "
    print(
        f"sample {step + 1}: {side} point ({pt.x},{pt.y}) "
        f"has order {order:4d} -> t = {cong.a} (mod {cong.m}), "
        f"{len(cands)} admissible trace(s)"
    )
    step += 1
    if len(cands) == 1:
        break

t = cands[0]
print(f"\ntrace pinned to t = {t}: #E = {q + 1 - t}, #E' = {q + 1 + t}")

result = count_points(curve, "point_order", random.Random(1))
assert result.count == q + 1 - t == count_exhaustive(curve)
print(f"count_points agrees and verifies: {result}")
