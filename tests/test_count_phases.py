"""tools/count_phases.py on three curves at 10^6+3: every phase shows up,
the twist with no calls, y_solutions takes one exponentiation per drawn x,
the BSGS line gives a positive mean of logical group operations, the
samples line the shares of samples per count, and the wrappers are removed
afterwards, also when a count raises; and its digests on four pinned panels."""

import importlib.util
from pathlib import Path

import pytest

from hassecount import counting, curve, finite_field, order

_PATH = Path(__file__).resolve().parent.parent / "tools" / "count_phases.py"
_SPEC = importlib.util.spec_from_file_location("count_phases", _PATH)
count_phases = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(count_phases)


def wrapped_attributes():
    """Every attribute the tool wraps, with its value now."""
    pairs = [(owner, attr) for _, owner, attr in count_phases.PHASES]
    return [(owner, attr, getattr(owner, attr))
            for owner, attr in pairs + [(curve.Curve, "mul"), (finite_field, "_poly_powmod")]]


def assert_restored(before):
    for owner, attr, value in before:
        assert getattr(owner, attr) is value
    assert "pow" not in vars(finite_field)


def test_count_phases_smoke(capsys):
    before = wrapped_attributes()
    assert count_phases.main(["--q", "1000003", "--seed", "1", "--curves", "3"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("q = 1000003, seed 1, 3 curves:")
    labels = [line.split()[0] for line in lines[2:]
              if not line.startswith(("bsgs:", "y_solutions:", "samples per count:", "digest"))]
    for name in ("count_points", "twist", "priors", "random_point", "y_solutions", "bsgs", "exact_order",
                 "factorize", "final"):
        assert name in labels, out
    rows = {line[:22].strip(): line[22:].split() for line in lines[2:]}
    assert float(rows["exact_order"][3]) > 0  # Curve.mul bits per count
    assert float(rows["twist"][0]) == 0  # each count settles on its first sample, on E
    assert "y_solutions: 1.000 exponentiations per drawn x" in out
    (ops_line,) = [line for line in lines if line.startswith("bsgs: ")]
    assert float(ops_line.split()[1]) > 0 and ops_line.endswith(" calls)"), ops_line
    assert lines[-2] == "samples per count: 1 100.0%, 2 0.0%, 3 0.0%, >=4 0.0%; settled on E 100.0%"
    assert lines[-1].startswith("digest of results and exact orders: ")
    assert_restored(before)
    assert counting.exact_order is order.exact_order


def test_count_phases_restores_when_a_count_raises(monkeypatch):
    """A count that raises in its final check, with phases open, leaves every
    wrapped attribute as it was and the builtin pow unshadowed."""

    def broken_check(*args, **kwargs):
        raise RuntimeError("final check failed")

    monkeypatch.setattr(counting, "_verify_count", broken_check)
    before = wrapped_attributes()
    with pytest.raises(RuntimeError, match="final check failed"):
        count_phases.measure(1000003, 1, 2)
    assert_restored(before)
    assert counting._verify_count is broken_check


@pytest.mark.parametrize("args,digest", [
    pytest.param(["--q", "2187", "--seed", "27001"], "dd1fc5a9501bae80", id="3^7"),
    pytest.param(["--q", "1000000000039", "--seed", "27001", "--curves", "16"], "0a6e5df649046054",
                 id="10^12+39"),
    pytest.param(["--q", "113", "--seed", "27001", "--curves", "200"], "009776faa8855c21", id="113"),
    pytest.param(["--q", "241", "--seed", "27001", "--curves", "200"], "dc89eb44260aa419", id="241"),
])
def test_count_phases_digests_are_pinned(capsys, args, digest):
    """The digest of every CountResult and exact order on count_ext's field
    (240 curves), on a small panel of count_prime's, and on two primes
    1 (mod 16) among certify's random checks: a change to the counting path
    that moves a count, a sample or an order moves it."""
    assert count_phases.main(args) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == f"digest of results and exact orders: {digest}"
