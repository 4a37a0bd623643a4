"""hassecount benchmark: one workload, one run.

    python3 perfbench/run.py --workload count_prime --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each exists):
  count_prime  count_points(curve, "point_order") over F_p, p = 10^12+39
  count_ext    the same over F_{3^7}, a polynomial-arithmetic field
  certify      certification passes over small fields, each in a fresh interpreter

With --trace 0 the run measures the end-to-end metrics; with --trace 1 it
wraps the library's module boundaries in spans (spans.py) and reports the
per-layer metrics instead.  Either way every output is checked by an oracle
outside the timed region.  Human-readable lines come first; the last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}.
The library is imported from src/ next to this directory; without it the run
exits with code 2.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import probes
import spans
import summary

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPS = 9  # fresh interpreters per run; setup_s is their median
NUMPY_REPS = 3
OVERHEAD_CURVES = 32  # count_*: curves counted both traced and untraced for the overhead
CERTIFY_PROBE_FIELD = 9  # largest extension field in the certify sweep list


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("count_prime", "count_ext", "certify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, samples: int) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def timing_metrics(setup_s, lat_s, run_s, curves_per_s) -> tuple[dict, int]:
    """The end-to-end timings by name, and the tail percentile."""
    lat_ms = [1e3 * t for t in lat_s]
    tail_p, tail_ms = summary.tail_percentile(lat_ms)
    return {
        "setup_s": (setup_s, "s"),
        "curves_per_s": (curves_per_s, "1/s"),
        "curve_ms_p50": (statistics.median(lat_ms), "ms"),
        "curve_ms_tail": (tail_ms, "ms"),
        "run_s": (run_s, "s"),
    }, tail_p


def plain_run(args, workloads) -> dict:
    """End-to-end metrics, tracing off.  The timings are reported at
    reference speed (refspeed.py), and printed as measured in a note."""
    probed = probes.setup_probes(args.workload, args.seed, SETUP_REPS)
    size = workloads.run_size(args.workload, args.seconds)
    cap_s = workloads.TIME_CAP * args.seconds
    if workloads.is_count(args.workload):
        setup = workloads.prepare(args.workload, args.seed)
        run = workloads.count_loop(setup, size, cap_s)
        rss = peak_rss_mb()
        failures = workloads.count_failures(setup, run)
        attempted = len(run.results) + 1  # + the known-answer probe
        done = len(run.results)
        # (per-curve latencies, run_s, curves_per_s) at reference speed and as measured
        ref, raw = ((lat, sum(lat), done / sum(lat)) for lat in (run.ref_latencies, run.latencies))
        kernel_s = run.kernel_s
        notes = {"curves": done}
    else:
        passes, _, rss = certify_passes(workloads, args.seed, size, cap_s)
        failures = [f for p in passes for f in p.failures]
        attempted = sum(p.checks for p in passes)
        done = len(passes)
        curves = sum(p.curves_verified + len(p.curve_latencies) for p in passes)
        ref = ([t for p in passes for t in p.curve_latencies],
               statistics.median(p.run_s for p in passes),
               curves / sum(p.run_s for p in passes))
        raw = ([t for p in passes for t in p.raw_curve_latencies],
               statistics.median(p.wall_s for p in passes),
               curves / sum(p.wall_s for p in passes))
        kernel_s = [t for p in passes for t in p.kernel_s]
        notes = {"passes": done, "pass_s": [p.run_s for p in passes], "curves": curves}
    if done < size:
        notes["stopped_at_time_cap"] = f"{done} of {size} after {cap_s:.0f} s"
    metrics, tail_p = timing_metrics(statistics.median(r for _, r, _ in probed), *ref)
    metrics["peak_rss_mb"] = (rss, "MB")
    measured, _ = timing_metrics(statistics.median(t for t, _, _ in probed), *raw)
    q1, q2, q3 = statistics.quantiles(kernel_s, n=4)
    notes.update({
        "failed_frac": summary.failed_frac(attempted, len(failures)),
        "curve_ms_tail_percentile": tail_p,
        "curve_latency_samples": len(ref[0]),
        "as_measured": {name: value for name, (value, _) in measured.items()},
        "kernel_ms": {"samples": len(kernel_s), "median": 1e3 * q2,
                      "quartile_spread": (q3 - q1) / q2},
    })
    return {"metrics": metrics, "attempted": attempted, "failures": failures,
            "samples": len(ref[0]), "notes": notes}


def certify_passes(workloads, seed: int, n: int, cap_s: float, spans_prefix: str | None = None):
    """n certification passes, each in a fresh interpreter, stopping early
    once `cap_s` have passed: (passes, their per-layer metrics if traced,
    the largest peak RSS among them).  A pass is traced if `spans_prefix`
    names the span files."""
    passes, layers, rss = [], [], 0.0
    start = perf_counter()
    for k in range(n):
        out = probes.certify_pass(seed, spans_prefix and OUT / f"{spans_prefix}_pass{k}.tsv.gz")
        passes.append(workloads.CertifyPass(**out["pass"]))
        layers.append(out["layer"])
        rss = max(rss, out["peak_rss_mb"])
        if perf_counter() - start >= cap_s:
            break
    return passes, layers, rss


def traced_run(args, workloads) -> dict:
    """Per-layer metrics from spans; set-up and single-operation probes run
    outside the traced region."""
    from hassecount import finite_field

    probed = probes.setup_probes(args.workload, args.seed, SETUP_REPS)
    layer = {
        f"setup.{k}": statistics.median(d[k] for _, _, d in probed)
        for k in ("import_s", "field_s", "panel_s")
    }
    layer["integers.prime_check_s"] = statistics.median(d["prime_check_s"] for _, _, d in probed)
    layer["setup.numpy_import_s"] = statistics.median(
        probes.fresh_interpreter("numpy")[1]["numpy_import_s"] for _ in range(NUMPY_REPS)
    )
    size = workloads.run_size(args.workload, args.seconds)
    cap_s = workloads.TIME_CAP * args.seconds
    count = workloads.is_count(args.workload)
    if count:
        setup = workloads.prepare(args.workload, args.seed)
        probe_spec = setup.specs[0]
    else:
        probe_spec = finite_field.spec_for_q(CERTIFY_PROBE_FIELD)
    layer.update(probes.field_op_us(probe_spec))
    layer.update(probes.group_op_us(probe_spec))

    notes = {}
    if count:
        tracer = spans.Tracer()
        saved = spans.install(tracer)
        try:
            run = workloads.count_loop(setup, size, cap_s, tracer=tracer)
        finally:
            spans.restore(saved)
        layer["trace.overhead_frac"] = count_overhead(workloads, setup)
        failures = workloads.count_failures(setup, run)
        attempted = len(run.results) + 1
        samples = len(run.results)
        layer.update(summary.count_layer_metrics(tracer))
        shares = summary.count_time_by_layer(tracer)
        notes["count_points_time_by_span"] = shares
        notes["count_points_self_share"] = shares[summary.CP]
        budget = 8 * setup.specs[0].q ** 0.25
        notes["bsgs_budget"] = budget
        if layer["order.bsgs_group_ops"] > budget:
            failures.append(f"BSGS gate: mean {layer['order.bsgs_group_ops']:.1f} "
                            f"group ops exceeds 8 q^(1/4) = {budget:.1f}")
        tracer.dump(OUT / f"spans_{args.workload}.tsv.gz")
        notes["spans"] = len(tracer)
        # The certify layers are not on this workload's path: one traced
        # certification pass measures them here as well.
        passes, layers, _ = certify_passes(workloads, args.seed, 1, cap_s,
                                           f"spans_{args.workload}_certify_probe")
        for name, value in layers[0].items():
            layer.setdefault(name, value)
        failures += passes[0].failures
        attempted += passes[0].checks
    else:
        passes, layers, _ = certify_passes(workloads, args.seed, size, cap_s, "spans_certify")
        ref = workloads.CertifyPass(**probes.certify_pass(args.seed)["pass"])
        layer["trace.overhead_frac"] = summary.paired_overhead([passes[-1].run_s], [ref.run_s])
        failures = [f for p in passes + [ref] for f in p.failures]
        attempted = sum(p.checks for p in passes + [ref])
        samples = sum(len(p.curve_latencies) for p in passes)
        layer.update({name: statistics.median(lay[name] for lay in layers) for name in layers[0]})
        notes["passes"] = len(passes)
    metrics = {name: (value, unit_of(name)) for name, value in sorted(layer.items())}
    return {"metrics": metrics, "attempted": attempted, "failures": failures,
            "samples": samples, "notes": notes}


def count_overhead(workloads, setup) -> float:
    """Tracing overhead on count_points: each of the first OVERHEAD_CURVES
    curves is counted traced and untraced back to back, alternating which
    goes first, so that changes in machine speed cancel within a pair."""
    traced, plain = [], []
    for i in range(OVERHEAD_CURVES):
        for with_trace in (i % 2 == 0, i % 2 == 1):
            if with_trace:
                saved = spans.install(spans.Tracer())
                try:
                    t0, t1, _ = workloads.count_one(setup, i)
                    traced.append(t1 - t0)
                finally:
                    spans.restore(saved)
            else:
                t0, t1, _ = workloads.count_one(setup, i)
                plain.append(t1 - t0)
    return summary.paired_overhead(traced, plain)


def unit_of(metric: str) -> str:
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s"), ("_frac", "fraction")):
        if metric.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hassecount" / "__init__.py").is_file():
        print(f"perfbench: library source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    OUT.mkdir(exist_ok=True)

    result = (traced_run if args.trace else plain_run)(args, workloads)
    prov = provenance(args, result["samples"])
    failures = result["failures"]
    for why in failures[:20]:
        print(f"FAILED {why}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value!r} {unit}")
    for name, value in result["notes"].items():
        print(f"# {name} {json.dumps(value)}")
    print(f"# provenance {json.dumps(prov)}")
    final = {
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in result["metrics"].items()},
    }
    (OUT / f"result_{args.workload}_trace{args.trace}.json").write_text(
        json.dumps({**final, "provenance": prov, "notes": result["notes"], "failures": failures},
                   indent=1) + "\n"
    )
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
