#!/usr/bin/env python3
"""The square-field supersingular story.

Over F_{r^2} there are curves with group (Z/(r-1))^2 whose twists have group
(Z/(r+1))^2; both exponents have several multiples in the Hasse interval.
For r > 7 only one multiple pair sums to 2(q+1), which rescues uniqueness,
but at q = 49 two pairs do: 100 = 36 + 64 = 60 + 40.
"""

from hassecount import (
    Curve,
    count_exhaustive,
    group_structure,
    hasse_interval,
    make_spec,
    multiples_in_interval,
    quadratic_twist,
)
from hassecount.errors import SingularCurve

for r in (3, 5, 7, 11, 13):
    q = r * r
    # find a trace-zero curve over the prime field and lift it to F_{r^2}
    base = None
    spec_r = make_spec(r)
    for a4 in range(r):
        for a6 in range(r):
            try:
                cand = Curve(spec_r, 0, 0, 0, a4, a6)
            except SingularCurve:
                continue
            if count_exhaustive(cand) == r + 1:
                base = (a4, a6)
                break
        if base:
            break

    spec = make_spec(r, 2)
    curve = Curve(spec, 0, 0, 0, base[0], base[1])
    twist = quadratic_twist(curve)
    g, gt = group_structure(curve), group_structure(twist)
    print(f"\nq = {q}: y^2 = x^3 + {base[0]}x + {base[1]} lifted from F_{r}")
    print(f"  #E = {count_exhaustive(curve):4d} = (r+1)^2, structure Z/{g.n1} x Z/{g.n2}")
    print(f"  #E' = {count_exhaustive(twist):4d} = (r-1)^2, structure Z/{gt.n1} x Z/{gt.n2}")

    h = hasse_interval(q)
    pairs = [
        (u, 2 * (q + 1) - u)
        for u in multiples_in_interval(r - 1, h)
        if (2 * (q + 1) - u) % (r + 1) == 0 and (2 * (q + 1) - u) in h
    ]
    verdict = "unique -> counts recoverable" if len(pairs) == 1 else "AMBIGUOUS"
    print(f"  multiple pairs of (r-1, r+1) summing to 2(q+1): {pairs}  [{verdict}]")
