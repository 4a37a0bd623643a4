"""In-process A/B of count_points on two commits, with an A/A control.

    python3 tools/ab.py --parent REV --change REV --q 2187 --seed 27001 \\
        --curves 200 --rounds 21
    python3 tools/ab.py --parent REV --change REV --q 53,113,241,251 \\
        --curves 100 --rounds 15

Run from the repository root.  Both commits are exported with `git archive`
(bench_pairs.export) into --workdir (a fresh temporary directory by default),
and the src/hassecount of each is imported into this one process under its
own package name; the package uses relative imports only.  The control is
the parent's export imported a second time, under a third name.

--q takes one field size or a comma-separated list of them, one panel per
field.  A field's panel is count_phases.curve_panel(spec, seed, curves): the
coefficient vectors of count_prime's and count_ext's panel for q.  Each side
builds its own fields and curves from them, untimed, and counts each curve i
with count_points(curve, "point_order", Random(seed + i)), as count_phases
does.  Each round counts the panels field by field and curve by curve, each
curve on the three sides in turn.  The six orders of the sides take turns
from curve to curve, across the fields, and start one further on each round,
so that over six curves each side runs first, last and right after each
other side equally often.  A side's time for the round in a field is the
sum of its counts' times there.  One untimed warm-up round comes first.
Every round checks that the three sides gave the same CountResults, and
exits 1 if not.

For each field it prints the median us per count of each side over the
rounds, and for the change and the control against the parent the median of
the per-round time ratios and the rounds in which that side was faster.
With more than one field, two pooled lines follow: the same ratios on each
side's round time summed over the fields.  Both sides run in one
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


def ratio_lines(times: dict, rounds: int) -> list[str]:
    """The change's and the control's per-round time ratios to the parent's."""
    lines = []
    for side, label in (("change", "change/parent"), ("control", "control/parent (A/A)")):
        ratios = [t / p for t, p in zip(times[side], times["parent"])]
        wins = sum(t < p for t, p in zip(times[side], times["parent"]))
        lines.append(f"{label}: median ratio {statistics.median(ratios):.4f}, "
                     f"{side} faster in {wins}/{rounds} rounds")
    return lines


def compare(srcs: dict, qs: list[int], seed: int, curves: int, rounds: int) -> list[str]:
    """srcs maps each of SIDES to a src directory; the report's lines."""
    packages = {side: load(srcs[side], f"hassecount_ab_{side}") for side in SIDES}
    runs = []  # per field, each side's counter
    for q in qs:
        panel = count_phases.curve_panel(count_phases.finite_field.spec_for_q(q), seed, curves)
        runs.append({side: counter(packages[side], q, seed, panel) for side in SIDES})
    times = [{side: [] for side in SIDES} for _ in qs]
    for r in range(-1, rounds):
        results = {side: [] for side in SIDES}
        for f, field_runs in enumerate(runs):
            spent = dict.fromkeys(SIDES, 0.0)
            for i in range(curves):
                for side in ORDERS[(r + f * curves + i) % len(ORDERS)]:
                    t0 = perf_counter()
                    results[side].append(field_runs[side](i))
                    spent[side] += perf_counter() - t0
            if r >= 0:
                for side in SIDES:
                    times[f][side].append(spent[side])
        if not results["parent"] == results["change"] == results["control"]:
            raise SystemExit(f"round {r}: the sides gave different counts")
    lines = []
    for q, field_times in zip(qs, times):
        lines.append(f"q = {q}, seed {seed}, {curves} curves, {rounds} rounds")
        for side in SIDES:
            lines.append(f"{side:<8} {1e6 * statistics.median(field_times[side]) / curves:10.1f} us per count")
        lines += ratio_lines(field_times, rounds)
    if len(qs) > 1:
        pooled = {side: [sum(t[side][r] for t in times) for r in range(rounds)] for side in SIDES}
        lines.append(f"pooled over q = {', '.join(map(str, qs))}")
        lines += ratio_lines(pooled, rounds)
    return lines


def field_sizes(text: str) -> list[int]:
    """'2187' or '53,113,241' as a list of field sizes, each once."""
    qs = [int(q) for q in text.split(",")]
    if len(set(qs)) < len(qs):
        raise argparse.ArgumentTypeError(f"{text!r}: give each field once")
    return qs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the parent commit")
    ap.add_argument("--change", required=True, help="the commit with the change")
    ap.add_argument("--q", type=field_sizes, default=[3**7],
                    help="the field size, or a comma-separated list of them (default 3^7)")
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
