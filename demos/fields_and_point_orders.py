#!/usr/bin/env python3
"""Tour of the field layer and the BSGS order machinery.

Shows the deterministic field models (modulus choice, canonical encodings,
square-root tie-breaks, primitive elements) and then measures how the number
of group operations per baby-step giant-step call grows like q^(1/4).
"""

import random

from hassecount import (
    Curve,
    make_spec,
    primitive_element,
    random_point,
    spec_for_q,
    sqrt,
)
from hassecount.errors import SingularCurve
from hassecount.order import Stats, bsgs_annihilator, exact_order

print("deterministic field models")
for q in (4, 8, 9, 25, 49, 1024):
    spec = spec_for_q(q)
    alpha = primitive_element(spec)
    print(
        f"  F_{q:<5} modulus coefficients {list(spec.modulus)}  "
        f"primitive element enc {alpha.enc}"
    )

f13 = make_spec(13)
a = f13.element(10)
r = sqrt(a)
print(f"\nsquare roots pick the smaller encoding: sqrt(10) = {r.enc} in F_13 "
      f"(the other root is {(-r).enc})")

print("\nBSGS group operations vs the q^(1/4) yardstick")
rng = random.Random(4)
for p in (101, 1009, 10007, 100003, 1000003):
    spec = make_spec(p)
    while True:
        try:
            curve = Curve(spec, 0, 0, 0, rng.randrange(p), rng.randrange(p))
            break
        except SingularCurve:
            continue
    pt = random_point(curve, rng)
    stats = Stats()
    annihilator = bsgs_annihilator(curve, pt, stats)
    order = exact_order(curve, pt, annihilator)
    print(
        f"  q={p:>8}: annihilator {annihilator:>8}, |P| = {order:>8}, "
        f"{stats.adds:>4} group ops  ({stats.adds / p**0.25:.1f} x q^(1/4))"
    )
