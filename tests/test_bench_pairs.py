"""The summary arithmetic of tools/bench_pairs.py on fixed synthetic runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "curve_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "curves_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def run(ms, rate):
    return {"metrics": {"curve_ms_p50": {"value": ms, "unit": "ms"},
                        "curves_per_s": {"value": rate, "unit": "1/s"}}}


def test_summarise_medians_quartiles_and_wins():
    parent = [(10, 100), (12, 110), (11, 105), (13, 100), (9, 90)]
    change = [(9, 120), (12, 100), (10, 105), (14, 101), (8, 95)]
    pairs = [{"parent": run(*p), "change": run(*c)} for p, c in zip(parent, change)]
    s = bench_pairs.summarise(pairs, METRICS)
    ms = s["curve_ms_p50"]
    # sorted parent 9 10 11 12 13: exclusive quartiles at positions 1.5 and 4.5 of 5
    assert ms["parent_median"] == 11 and ms["parent_quartiles"] == [9.5, 12.5]
    assert ms["change_median"] == 10 and ms["change_quartiles"] == [8.5, 13.0]
    assert ms["change_over_parent"] == pytest.approx(10 / 11)
    assert ms["change_wins"] == 3  # 9 < 10, 10 < 11, 8 < 9; 12 = 12 is a tie
    assert ms["pairs"] == 5 and ms["unit"] == "ms"
    rate = s["curves_per_s"]
    assert rate["parent_median"] == 100 and rate["change_median"] == 101
    assert rate["parent_quartiles"] == [95.0, 107.5]
    assert rate["change_wins"] == 3  # 120 > 100, 101 > 100, 95 > 90; 105 = 105 is a tie


def test_summarise_compares_median_shift_with_parent_spread():
    # parent 10 11 12 13 14: median 12, exclusive quartiles 10.5 and 13.5
    parent = [10, 11, 12, 13, 14]
    for change, exceeds in ((8.9, True), (9, False), (15, False), (15.5, True)):
        pairs = [{"parent": run(p, p), "change": run(change, change)} for p in parent]
        s = bench_pairs.summarise(pairs, METRICS)
        for name in ("curve_ms_p50", "curves_per_s"):
            assert s[name]["parent_quartile_spread"] == 3.0
            assert s[name]["median_shift_exceeds_spread"] is exceeds


def test_parse_run_reads_notes_and_final_line():
    final = {"correct": True, "attempted": 3, "failed": 0, "metrics": {}}
    stdout = "\n".join([
        "curve_ms_p50 1.5 ms",
        "# curves 3",
        f"# provenance {json.dumps({'seed': 7, 'numpy': None})}",
        json.dumps(final),
        "",
    ])
    assert bench_pairs.parse_run(stdout) == {
        **final, "notes": {"curves": 3, "provenance": {"seed": 7, "numpy": None}}}


def test_parse_seeds():
    assert bench_pairs.parse_seeds("901-903") == [901, 902, 903]
    assert bench_pairs.parse_seeds("5,3") == [5, 3]


@pytest.mark.parametrize("seeds", ["25001", "5,5", "5,6,5", "25010-25001"])
def test_too_few_distinct_seeds_exit_2_before_any_export(seeds, monkeypatch):
    monkeypatch.setattr(bench_pairs, "export", lambda *a: pytest.fail("exported"))
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: pytest.fail("ran"))
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "HEAD", "--change", "HEAD", "--pr", "0",
                          "--seeds", seeds, "--what", "x"])
    assert exc.value.code == 2
