import dataclasses
import json

import pytest

from hassecount import cli
from hassecount.errors import IterationCapExceeded
from hassecount.selftest import CheckResult


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_table1_row(capsys):
    code, out, _ = run(capsys, "count", "--q", "7", "--curve", "0,0,0,0,6")
    assert code == 0
    rec = json.loads(out)
    assert rec["count"] == 4 and rec["trace"] == 4 and rec["method"] == "exhaustive"


def test_count_point_order_matches_exhaustive(capsys):
    code, out1, _ = run(capsys, "count", "--q", "1013", "--curve", "0,0,0,1,1", "--method", "point_order", "--seed", "1")
    assert code == 0
    code, out2, _ = run(capsys, "count", "--q", "1013", "--curve", "0,0,0,1,1", "--method", "exhaustive")
    assert code == 0
    assert json.loads(out1)["count"] == json.loads(out2)["count"]


def test_count_auto_reports_exhaustive_on_excluded(capsys):
    code, out, _ = run(capsys, "count", "--q", "49", "--curve", "0,0,0,31,0")
    assert code == 0
    assert json.loads(out)["method"] == "exhaustive"


def test_seeded_runs_byte_identical(capsys):
    args = ("count", "--q", "1013", "--curve", "0,0,0,1,1", "--method", "point_order", "--seed", "7")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_json_round_trip(capsys):
    for args in [
        ("count", "--q", "7", "--curve", "0,0,0,0,6"),
        ("order", "--q", "5", "--curve", "0,0,0,1,0", "--point", "0,0"),
        ("twist", "--q", "5", "--curve", "0,0,0,1,0"),
        ("group", "--q", "4", "--curve", "0,0,1,0,0"),
    ]:
        _, out, _ = run(capsys, *args)
        rec = json.loads(out)
        assert json.loads(json.dumps(rec, sort_keys=True)) == rec


def test_order_command(capsys):
    code, out, _ = run(capsys, "order", "--q", "5", "--curve", "0,0,0,1,0", "--point", "0,0")
    assert code == 0
    assert json.loads(out)["order"] == 2


def test_order_point_at_infinity(capsys):
    code, out, _ = run(capsys, "order", "--q", "5", "--curve", "0,0,0,1,0", "--point", "inf")
    assert code == 0
    assert json.loads(out)["order"] == 1


def test_twist_counts_sum(capsys):
    code, out, _ = run(capsys, "twist", "--q", "5", "--curve", "0,0,0,1,0")
    rec = json.loads(out)
    assert code == 0
    assert rec["count"] + rec["twist_count"] == 12
    assert rec["count"] == 4 and rec["twist_count"] == 8


def test_group_supersingular_twist(capsys):
    code, out, _ = run(capsys, "group", "--q", "4", "--curve", "0,0,1,0,0")
    rec = json.loads(out)
    assert code == 0 and (rec["n1"], rec["n2"]) == (3, 3)


def test_exceptions_tsv_summary(capsys):
    code, out, _ = run(capsys, "exceptions", "--qmax", "1024")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q\tM\tN\tt\tt'"
    assert lines[-1] == "# exceptional q: 3 4 5 7 9 11 16 17 23 25 29 49"


def test_exceptions_corollary_summary(capsys):
    code, out, _ = run(capsys, "exceptions", "--qmax", "1024", "--corollary")
    assert code == 0
    assert out.strip().splitlines()[-1] == "# exceptional q: 5 7 9 11 17 23 29"


def test_exceptions_empty(capsys):
    code, out, _ = run(capsys, "exceptions", "--qmax", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["q\tM\tN\tt\tt'", "# exceptional q:"]


def test_exceptions_json(capsys):
    code, out, _ = run(capsys, "exceptions", "--qmax", "50", "--format", "json")
    rec = json.loads(out)
    assert code == 0
    assert rec["exceptional_q"] == [3, 4, 5, 7, 9, 11, 16, 17, 23, 25, 29, 49]
    assert [49, 6, 8, 14, -10] in rec["records"]


def test_table1_pass(capsys):
    code, out, _ = run(capsys, "table1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 14
    assert all(line.endswith("PASS") for line in lines)


def test_table1_json(capsys):
    code, out, _ = run(capsys, "table1", "--format", "json")
    rows = json.loads(out)
    assert code == 0 and len(rows) == 14 and all(r["pass"] for r in rows)


def test_tsv_format_scalar(capsys):
    code, out, _ = run(capsys, "count", "--q", "7", "--curve", "0,0,0,0,6", "--format", "tsv")
    assert code == 0
    header, values = out.strip().splitlines()
    rec = dict(zip(header.split("\t"), values.split("\t")))
    assert rec["count"] == "4" and rec["curve"] == "0,0,0,0,6"


# --- exit codes ---------------------------------------------------------------------

def test_exit_usage_non_prime_power(capsys):
    code, _, err = run(capsys, "count", "--q", "12", "--curve", "0,0,0,1,1")
    assert code == 2 and "prime power" in err


def test_exit_usage_bad_curve(capsys):
    code, _, err = run(capsys, "count", "--q", "7", "--curve", "1,2,3")
    assert code == 2 and "coefficient" in err


def test_poly_selects_alternative_field_model(capsys):
    # x^2 + 2 over F_7 encodes as 2 + 0*7 + 1*49 = 51; a curve with prime-subfield
    # coefficients must count the same under any model of F_49
    code, out_default, _ = run(capsys, "count", "--q", "49", "--curve", "0,0,0,1,0")
    code2, out_poly, _ = run(capsys, "count", "--q", "49", "--poly", "51", "--curve", "0,0,0,1,0")
    assert code == 0 and code2 == 0
    assert json.loads(out_default)["count"] == json.loads(out_poly)["count"] == 64


def test_exit_usage_bad_poly(capsys):
    code, _, err = run(capsys, "count", "--q", "49", "--poly", "49", "--curve", "0,0,0,1,1")
    assert code == 2


def test_exit_usage_reducible_poly(capsys):
    # x^2 + 2x + 1 = (x+1)^2 over F_7 has encoding 1 + 2*7 + 49 = 64
    code, _, err = run(capsys, "count", "--q", "49", "--poly", "64", "--curve", "0,0,0,1,1")
    assert code == 2 and "reducible" in err.lower()


def test_exit_domain_excluded(capsys):
    code, _, err = run(capsys, "count", "--q", "49", "--curve", "0,0,0,31,0", "--method", "point_order")
    assert code == 3 and "ExcludedField" in err


def test_exit_domain_singular(capsys):
    code, _, err = run(capsys, "count", "--q", "5", "--curve", "0,0,0,0,0")
    assert code == 3 and "SingularCurve" in err


def test_exit_domain_singular_message_is_pinned(capsys):
    """F_9 builds its curves from the field's tables; the error line is the
    one the constructor has always printed."""
    code, out, err = run(capsys, "count", "--q", "9", "--curve", "0,0,0,0,0")
    assert (code, out) == (3, "")
    assert err == "error: SingularCurve: discriminant vanishes for (0, 0, 0, 0, 0) over F_9\n"


def test_exit_domain_point_not_on_curve(capsys):
    code, _, err = run(capsys, "order", "--q", "5", "--curve", "0,0,0,1,0", "--point", "1,1")
    assert code == 3 and "PointNotOnCurve" in err


def test_exit_internal_error(capsys, monkeypatch):
    def boom(*a, **k):
        raise IterationCapExceeded("synthetic")

    monkeypatch.setattr(cli, "count_points", boom)
    code, _, err = run(capsys, "count", "--q", "53", "--curve", "0,0,0,1,1")
    assert code == 4 and "IterationCapExceeded" in err


def test_exit_internal_error_unexpected_exception(capsys, monkeypatch):
    def boom(*a, **k):
        raise TypeError("synthetic")

    monkeypatch.setattr(cli, "count_points", boom)
    code, out, err = run(capsys, "count", "--q", "53", "--curve", "0,0,0,1,1")
    assert code == 4 and out == ""
    assert err.splitlines() == ["internal error: TypeError: synthetic"]


def test_exit_usage_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--q", "7"])  # missing --curve
    assert exc.value.code == 2


def test_jobs_validation(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["exceptions", "--qmax", "10", "--jobs", "0"])
    assert exc.value.code == 2


def test_jobs_env_default(capsys, monkeypatch):
    monkeypatch.setenv("HASSECOUNT_JOBS", "2")
    code, out, _ = run(capsys, "exceptions", "--qmax", "10")
    assert code == 0 and out.strip().splitlines()[-1].startswith("# exceptional q:")


def test_malformed_jobs_env_ignored_by_count(capsys, monkeypatch):
    monkeypatch.setenv("HASSECOUNT_JOBS", "abc")
    code, out, _ = run(capsys, "count", "--q", "7", "--curve", "0,0,0,1,1")
    assert code == 0 and json.loads(out)["count"] > 0


@pytest.mark.parametrize("argv", [["exceptions", "--qmax", "10"], ["selftest", "--fast"]])
def test_malformed_jobs_env_is_usage_error(capsys, monkeypatch, argv):
    monkeypatch.setenv("HASSECOUNT_JOBS", "abc")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2 and capsys.readouterr().out == ""


def test_failing_table1_row_exits_4(capsys, monkeypatch):
    reports = cli.verify_table1()
    reports[3] = dataclasses.replace(reports[3], curve_ok=False)
    monkeypatch.setattr(cli, "verify_table1", lambda: reports)
    code, out, err = run(capsys, "table1")
    assert code == 4 and out.splitlines()[3].endswith("FAIL")
    want = f"internal error: InternalInvariantError: table1 rows failed for q in [{reports[3].q}]"
    assert err.splitlines() == [want]


def test_failing_selftest_check_exits_4(capsys, monkeypatch):
    results = [CheckResult("a", True, "fine"), CheckResult("b", False, "broken")]
    monkeypatch.setattr(cli, "run_selftest", lambda fast: results)
    code, out, err = run(capsys, "selftest", "--fast")
    assert code == 4 and out.splitlines() == ["a: PASS (fine)", "b: FAIL (broken)"]
    assert err.splitlines() == ["internal error: InternalInvariantError: selftest checks failed: b"]


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "hassecount" in out and "MT19937" in out


def test_selftest_fast(capsys):
    code, out, _ = run(capsys, "selftest", "--fast")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(": PASS" in line for line in lines)
    assert any(line.startswith("trace-ambiguity-set") for line in lines)
