"""Work that run.py runs in a fresh interpreter.

    python3 perfbench/fresh.py setup <workload> <seed>      # library set-up
    python3 perfbench/fresh.py numpy                        # `import numpy` alone: the
                                                            # reference start-up for setup_s
    python3 perfbench/fresh.py pass <seed> [<spans.tsv.gz>] # one certification pass

Each prints one JSON line and exits.  `setup` and `numpy` print it as soon as
the work is ready, and the parent times the process from spawn to that line.
`pass` runs one certification pass with every field, table and cache cold; it
is traced, and its spans written, if a spans file is named.
"""

import json
import resource
import sys
from dataclasses import asdict
from pathlib import Path
from time import perf_counter


def setup(workload: str, seed: int) -> dict:
    t0 = perf_counter()
    import hassecount.cli  # noqa: F401

    import_s = perf_counter() - t0
    import workloads

    prep = workloads.prepare(workload, seed)
    return {
        "import_s": import_s,
        "prime_check_s": prep.prime_check_s,
        "field_s": prep.field_s,
        "panel_s": prep.panel_s,
    }


def certify_pass(seed: int, spans_path: str | None) -> dict:
    import spans
    import summary
    import workloads

    plan = workloads.certify_plan(seed)
    layer = {}
    if spans_path is None:
        done = workloads.certify_pass(plan)
    else:
        tracer = spans.Tracer()
        saved = spans.install(tracer)
        try:
            done = workloads.certify_pass(plan, tracer)
        finally:
            spans.restore(saved)
        layer = {**summary.count_layer_metrics(tracer), **summary.certify_layer_metrics(tracer, done)}
        tracer.dump(spans_path)
    return {
        "pass": asdict(done),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # KiB on Linux
        "layer": layer,
    }


def main() -> None:
    mode, *rest = sys.argv[1:]
    if mode == "numpy":
        t0 = perf_counter()
        import numpy  # noqa: F401

        out = {"numpy_import_s": perf_counter() - t0}
    else:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
        if mode == "setup":
            out = setup(rest[0], int(rest[1]))
        else:
            out = certify_pass(int(rest[0]), rest[1] if len(rest) > 1 else None)
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
