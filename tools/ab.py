"""In-process A/B of count_points on two commits, with an A/A control.

    python3 tools/ab.py --parent REV --change REV --q 2187 --seed 27001 \\
        --curves 200 --rounds 21

Run from the repository root.  Both commits are exported with `git archive`
(bench_pairs.export) into --workdir (a fresh temporary directory by default),
and the src/hassecount of each is imported into this one process under its
own package name; the package uses relative imports only.  The control is
the parent's export imported a second time, under a third name.

The panel is count_phases.curve_panel(spec, seed, curves): the coefficient
vectors of count_prime's and count_ext's panel for q.  Each side builds its
own field and curves from them, untimed, and counts each curve i with
count_points(curve, "point_order", Random(seed + i)), as count_phases does.
Each round counts the panel curve by curve, each curve on the three sides
in turn.  The six orders of the sides take turns from curve to curve, and
start one further on each round, so that over six curves each side runs
first, last and right after each other side equally often.  A side's time
for the round is the sum of its counts' times.  One untimed warm-up round
comes first.  Every round checks that the three sides gave the same
CountResults, and exits 1 if not.

It prints the median us per count of each side over the rounds, and for the
change and the control against the parent the median of the per-round time
ratios and the rounds in which that side was faster.  Both sides run in one
interpreter, interleaved, so they share the machine's state; read the
change's ratio against the control's spread from 1.
"""

from __future__ import annotations

import argparse
import importlib.util
import random
import statistics
import sys
import tempfile
from itertools import permutations
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_pairs  # noqa: E402
import count_phases  # noqa: E402

SIDES = ("parent", "change", "control")
ORDERS = tuple(permutations(SIDES))


def load(src: Path, name: str):
    """Import the package src/hassecount under the top-level name `name`."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    init = src / "hassecount" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def counter(package, q: int, seed: int, panel: list):
    """A function that counts curve i of the panel on the package, returning
    its CountResult as a plain tuple, so that sides compare."""
    spec = package.finite_field.spec_for_q(q)
    curves = [package.curve.Curve(spec, *e.coefficients()) for e in panel]
    count_points = package.counting.count_points

    def run(i: int) -> tuple:
        r = count_points(curves[i], "point_order", random.Random(seed + i))
        return r.count, r.trace, r.method, r.samples_used, r.twist_count

    return run


def compare(srcs: dict, q: int, seed: int, curves: int, rounds: int) -> list[str]:
    """srcs maps each of SIDES to a src directory; the report's lines."""
    panel = count_phases.curve_panel(count_phases.finite_field.spec_for_q(q), seed, curves)
    runs = {side: counter(load(srcs[side], f"hassecount_ab_{side}"), q, seed, panel) for side in SIDES}
    times = {side: [] for side in SIDES}
    for r in range(-1, rounds):
        spent = dict.fromkeys(SIDES, 0.0)
        results = {side: [] for side in SIDES}
        for i in range(curves):
            for side in ORDERS[(r + i) % len(ORDERS)]:
                t0 = perf_counter()
                results[side].append(runs[side](i))
                spent[side] += perf_counter() - t0
        if r >= 0:
            for side in SIDES:
                times[side].append(spent[side])
        if not results["parent"] == results["change"] == results["control"]:
            raise SystemExit(f"round {r}: the sides gave different counts")
    lines = [f"q = {q}, seed {seed}, {curves} curves, {rounds} rounds"]
    for side in SIDES:
        lines.append(f"{side:<8} {1e6 * statistics.median(times[side]) / curves:10.1f} us per count")
    for side, label in (("change", "change/parent"), ("control", "control/parent (A/A)")):
        ratios = [t / p for t, p in zip(times[side], times["parent"])]
        wins = sum(t < p for t, p in zip(times[side], times["parent"]))
        lines.append(f"{label}: median ratio {statistics.median(ratios):.4f}, "
                     f"{side} faster in {wins}/{rounds} rounds")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the parent commit")
    ap.add_argument("--change", required=True, help="the commit with the change")
    ap.add_argument("--q", type=int, default=3**7, help="the field size (default 3^7)")
    ap.add_argument("--seed", type=int, default=27001, help="the panel's seed")
    ap.add_argument("--curves", type=int, default=200, help="the panel size")
    ap.add_argument("--rounds", type=int, default=21, help="timed rounds")
    ap.add_argument("--workdir", type=Path, help="where the exports go; default a new temporary directory")
    args = ap.parse_args(argv)
    if args.curves < 1 or args.rounds < 1:
        ap.error("--curves and --rounds must be positive")
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="ab_"))
    commits = {side: bench_pairs.export(getattr(args, side), workdir / side) for side in ("parent", "change")}
    srcs = {"parent": workdir / "parent" / "src", "change": workdir / "change" / "src",
            "control": workdir / "parent" / "src"}
    print(f"parent {commits['parent'][:12]}, change {commits['change'][:12]}")
    print("\n".join(compare(srcs, args.q, args.seed, args.curves, args.rounds)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
