"""Where a count_points call spends its time, phase by phase.

    python3 tools/count_phases.py --q 1000000000039 --seed 27001 --curves 240

Run from the repository root.  It builds the panel of perfbench's count
workloads for q and the seed (uniformly random nonsingular long-Weierstrass
curves from Random(seed), counted with Random(seed + i)), counts each curve
once with count_points(curve, "point_order"), and prints, per count, the
time and the bits of Curve.mul spent in each phase:

  count_points  the whole count, every phase below nested in it
  twist         counting.quadratic_twist, E' built when a count first
                samples on it
  priors        counting._two_torsion_prior and _three_torsion_prior
  random_point  counting.random_point, and within it Curve.y_solutions
  bsgs          counting.bsgs_annihilator
  exact_order   counting.exact_order, and within it order.factorize
  final check   counting._verify_count (it draws its points by random_point)

The phases are measured by wrapping those module attributes for the run, as
a count calls them, and restoring them after it.  A phase's row includes the
phases nested in it, so a row's time includes its wrappers' overhead of
about a microsecond per nested call.  A phase that never ran is printed with
0.00 calls, nested in count_points.  Curve.mul bits are the bit lengths of
its scalars.  Exponentiations are the calls of pow with a nonnegative
exponent in finite_field (prime fields) and of its polynomial powering
(odd extensions above the log-table limit).  Log-table fields take none,
and neither do the roots of prime fields up to
finite_field._ROOT_TABLE_MAX_P, which are table reads: there the pows
column and the y_solutions line read 0, but for the twist's non-square.
The BSGS line gives the mean logical group operations per bsgs_annihilator
call, from the order.Stats each count is given.  The samples line gives, from
the CountResults' samples_used, the shares of counts that took 1, 2, 3 and
4 or more samples, and the share settled on a sample of E (an odd
samples_used; the samples alternate E, E', E, ...).  The last line is a digest of
every CountResult and every exact order (the orders of the Stats' samples),
so two trees can be compared on the same panel.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from contextlib import ExitStack
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hassecount import counting, curve, finite_field, order, sweep  # noqa: E402

# (row name, module, attribute), outermost phases first
PHASES = (
    ("count_points", counting, "count_points"),
    ("twist", counting, "quadratic_twist"),
    ("priors", counting, "_two_torsion_prior"),
    ("priors", counting, "_three_torsion_prior"),
    ("random_point", counting, "random_point"),
    ("y_solutions", curve.Curve, "y_solutions"),
    ("bsgs", counting, "bsgs_annihilator"),
    ("exact_order", counting, "exact_order"),
    ("factorize", order, "factorize"),
    ("final check", counting, "_verify_count"),
)


def curve_panel(spec, seed: int, size: int) -> list:
    """perfbench's count panel: random nonsingular curves from Random(seed)."""
    rng = random.Random(seed)
    return [sweep.sample_random_curve(spec, rng) for _ in range(size)]


class Meter:
    """Per phase path (the tuple of the phases open, outermost first):
    calls, seconds, Curve.mul bits and exponentiations, each inclusive of
    the phases nested in it; and the Stats that every count records in."""

    def __init__(self):
        self.stack: list[str] = []
        self.rows: dict[tuple[str, ...], list] = {}
        self.stats = order.Stats()

    def row(self) -> list:
        return self.rows.setdefault(tuple(self.stack), [0, 0.0, 0, 0])

    def charge(self, column: int, amount: int) -> None:
        for depth in range(1, len(self.stack) + 1):
            self.rows[tuple(self.stack[:depth])][column] += amount

    def phase(self, name: str, fn):
        def wrapped(*args, **kwargs):
            self.stack.append(name)
            row = self.row()
            row[0] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                row[1] += perf_counter() - t0
                self.stack.pop()

        return wrapped


def install(meter: Meter, stack: ExitStack) -> None:
    """Wrap the phases, Curve.mul and the exponentiations until `stack` closes."""

    def patch(owner, attr, value):
        stack.callback(setattr, owner, attr, getattr(owner, attr))
        setattr(owner, attr, value)

    def charging(fn, column: int, amount):
        """fn, charging amount(*args) to the meter's column at each call."""

        def wrapped(*args):
            meter.charge(column, amount(*args))
            return fn(*args)

        return wrapped

    for name, owner, attr in PHASES:
        patch(owner, attr, meter.phase(name, getattr(owner, attr)))
    patch(curve.Curve, "mul", charging(curve.Curve.mul, 2, lambda self, n, x, y: abs(n).bit_length()))
    patch(finite_field, "_poly_powmod", charging(finite_field._poly_powmod, 3, lambda *args: 1))
    stack.callback(delattr, finite_field, "pow")
    # shadows the builtin in the module; a negative exponent is an inversion
    finite_field.pow = charging(pow, 3, lambda base, exp, mod=None: int(exp >= 0))


def measure(q: int, seed: int, curves: int) -> tuple[Meter, float, list]:
    """Count the panel once under the wrappers: the meter, the seconds of
    all counts and the CountResults."""
    spec = finite_field.spec_for_q(q)
    panel = curve_panel(spec, seed, curves)
    meter = Meter()
    with ExitStack() as stack:
        install(meter, stack)
        t0 = perf_counter()
        results = [counting.count_points(e, "point_order", random.Random(seed + i), meter.stats)
                   for i, e in enumerate(panel)]
        total = perf_counter() - t0
    return meter, total, results


def report(meter: Meter, total: float, results: list, q: int, seed: int) -> list[str]:
    n = len(results)
    lines = [f"q = {q}, seed {seed}, {n} curves: {1e6 * total / n:.1f} us per count",
             f"{'phase':<22} {'calls':>8} {'us':>9} {'share':>7} {'mul bits':>9} {'pows':>7}"]
    order_rows = {name: i for i, (name, _, _) in enumerate(PHASES)}
    rows = dict(meter.rows)
    ran = {path[-1] for path in rows}
    outer = PHASES[0][0]
    for name in order_rows:
        if name not in ran:
            rows[(name,) if name == outer else (outer, name)] = [0, 0.0, 0, 0]
    for path in sorted(rows, key=lambda p: [order_rows[name] for name in p]):
        calls, seconds, bits, pows = rows[path]
        label = "  " * (len(path) - 1) + path[-1]
        lines.append(f"{label:<22} {calls / n:8.2f} {1e6 * seconds / n:9.1f} "
                     f"{seconds / total:7.1%} {bits / n:9.1f} {pows / n:7.2f}")
    searches = sum(row[0] for path, row in meter.rows.items() if path[-1] == "bsgs")
    if searches:
        lines.append(f"bsgs: {meter.stats.adds / searches:.1f} logical group ops per call ({searches} calls)")
    draws = sum(row[0] for path, row in meter.rows.items() if path[-1] == "y_solutions")
    pows = sum(row[3] for path, row in meter.rows.items() if path[-1] == "y_solutions")
    if draws:
        lines.append(f"y_solutions: {pows / draws:.3f} exponentiations per drawn x ({draws} draws)")
    used = [res.samples_used for res in results]
    shares = [sum(u == k for u in used) for k in (1, 2, 3)] + [sum(u >= 4 for u in used)]
    lines.append("samples per count: " + ", ".join(
        f"{label} {k / n:.1%}" for label, k in zip(("1", "2", "3", ">=4"), shares))
        + f"; settled on E {sum(u % 2 for u in used) / n:.1%}")
    orders = [n for _, _, n in meter.stats.samples]
    digest = hashlib.sha256(repr((results, orders)).encode()).hexdigest()[:16]
    lines.append(f"digest of results and exact orders: {digest}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q", type=int, default=10**12 + 39, help="the field size (default 10^12+39)")
    ap.add_argument("--seed", type=int, default=1, help="the panel's seed")
    ap.add_argument("--curves", type=int, default=240, help="the panel size")
    args = ap.parse_args(argv)
    if args.curves < 1:
        ap.error("--curves must be positive")
    meter, total, results = measure(args.q, args.seed, args.curves)
    print("\n".join(report(meter, total, results, args.q, args.seed)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
