"""Alternated parent/change pairs of perfbench runs, written as BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent REV --change REV --pr N \\
        --seeds 25001-25010 --what "one sentence on the change"

Run from the repository root.  Each commit is exported with `git archive` into
its own directory under --workdir (a fresh temporary directory by default), so
each side runs its committed files only.  For every workload of BENCHMARK.json,
in its order, and every seed, both exports run

    python3 perfbench/run.py --workload W --seed S --seconds 20 --trace 0

with PYTHONDONTWRITEBYTECODE=1, the parent first on even pair indexes.  The
file records each run (the last stdout line of run.py with its '# name value'
lines as notes) and, for each end-to-end metric of BENCHMARK.json, both
medians, both quartile pairs (statistics.quantiles, exclusive method), the
ratio of the medians, the number of pairs the change wins in the metric's
"better" direction, ties counting for neither, the parent's quartile spread
q3 - q1, and whether the medians differ by more than that spread, the
margin a claimed gain must clear.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 20


def parse_seeds(text: str) -> list[int]:
    """'25001-25010' or '901,902' as a list of ints: at least two, each once,
    since quartiles need two runs and runs are keyed by seed."""
    if "-" in text:
        lo, hi = (int(s) for s in text.split("-"))
        seeds = list(range(lo, hi + 1))
    else:
        seeds = [int(s) for s in text.split(",")]
    if len(seeds) < 2 or len(set(seeds)) < len(seeds):
        raise argparse.ArgumentTypeError(f"{text!r}: give at least two seeds, each once")
    return seeds


def export(rev: str, dest: Path) -> str:
    """Write the tree of commit rev into dest by git archive; return its full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {sha} failed")
    return sha


def parse_run(stdout: str) -> dict:
    """The final JSON line of a run.py stdout, with its '# name value' lines as notes."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    run = json.loads(lines[-1])
    notes = {}
    for line in lines[:-1]:
        if line.startswith("# "):
            name, _, value = line[2:].partition(" ")
            notes[name] = json.loads(value)
    run["notes"] = notes
    return run


def run_once(tree: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return parse_run(proc.stdout)


def summarise(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: medians, exclusive quartiles, change/parent,
    the pairs the change wins, the parent's quartile spread and whether the
    medians differ by more than it.  pairs holds {"parent": run, "change": run}."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        sign = -1 if metric["better"] == "lower" else 1
        values = {side: [pair[side]["metrics"][name]["value"] for pair in pairs]
                  for side in ("parent", "change")}
        parent, change = values["parent"], values["change"]
        medians = {side: statistics.median(v) for side, v in values.items()}
        quartiles = {side: statistics.quantiles(v, n=4)[::2] for side, v in values.items()}
        spread = quartiles["parent"][1] - quartiles["parent"][0]
        out[name] = {
            "unit": metric["unit"],
            "parent_median": medians["parent"],
            "parent_quartiles": quartiles["parent"],
            "change_median": medians["change"],
            "change_quartiles": quartiles["change"],
            "change_over_parent": medians["change"] / medians["parent"],
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
            "parent_quartile_spread": spread,
            "median_shift_exceeds_spread": abs(medians["change"] - medians["parent"]) > spread,
        }
    return out


def protocol(n_pairs: int, workloads: list[str], provenance: dict) -> str:
    return (
        f"{n_pairs} pairs of runs per workload on one {provenance['nproc']}-vCPU machine "
        f"({provenance['cpu_model']}, Python {provenance['python']}, numpy "
        f"{provenance['numpy']}), one seed per pair, alternating which side runs first "
        "(even pair index parent first: the 1st, 3rd, ... seed), workloads run one after "
        f"another ({', '.join(workloads)}) by tools/bench_pairs.py. Each side runs from a git "
        "archive export of its commit, with PYTHONDONTWRITEBYTECODE=1 and no bytecode cache, "
        "so every interpreter compiles the library source; the provenance git_commit recorded "
        "by run.py is null. Each run entry is the final stdout line of run.py with the "
        "'# name value' lines it prints as notes. Quartiles are those of Python's "
        "statistics.quantiles (exclusive method). 'change_wins' counts pairs where the "
        "change is better; ties count for neither. 'median_shift_exceeds_spread' tells "
        "whether the medians differ by more than the parent's q3 - q1."
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the parent commit")
    ap.add_argument("--change", required=True, help="the commit with the change")
    ap.add_argument("--pr", required=True, type=int, help="N of the BENCH_<N>.json written")
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="A-B or A,B,...")
    ap.add_argument("--what", required=True, help="what the change is, for the file's 'what'")
    ap.add_argument("--workdir", type=Path, help="where the exports go; default a new temporary directory")
    args = ap.parse_args(argv)

    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    trees = {side: workdir / side for side in ("parent", "change")}
    commits = {side: export(getattr(args, side), tree) for side, tree in trees.items()}
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]

    results = {}
    for workload in workloads:
        runs = {}
        for i, seed in enumerate(args.seeds):
            first, second = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {}
            for side in (first, second):
                pair[side] = {**run_once(trees[side], workload, seed), "ran_first": side == first}
                print(f"{workload} seed {seed} {side}: {json.dumps(pair[side]['metrics'])}",
                      file=sys.stderr, flush=True)
            runs[str(seed)] = {"parent": pair["parent"], "change": pair["change"]}
        pairs = list(runs.values())
        results[workload] = {
            "seeds": args.seeds,
            "all_correct": all(pair[side]["correct"] for pair in pairs for side in pair),
            "failed_operations": {side: sum(pair[side]["failed"] for pair in pairs)
                                  for side in ("parent", "change")},
            "summary": summarise(pairs, bench["end_to_end"]),
            "runs": runs,
        }
    first_run = next(iter(results[workloads[0]]["runs"].values()))["parent"]
    result = {
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "protocol": protocol(len(args.seeds), workloads, first_run["notes"]["provenance"]),
        "workloads": results,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
