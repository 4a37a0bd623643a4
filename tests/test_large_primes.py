"""Prime fields up to the supported limit q <= 2^62.

count_points is checked against exact oracles that need no enumeration: the
supersingular families y^2 = x^3 + x (p = 3 mod 4) and y^2 = x^3 + 1
(p = 2 mod 3), which have p + 1 points, and the CM trace sets at j = 1728 and
j = 0 from Cornacchia's algorithm.  Above 2^62 every entry point refuses the
field with FieldTooLarge (CLI exit 3) before any primality work.
"""

import json
import random
import time

import pytest

from hassecount import cli
from hassecount.counting import count_points
from hassecount.curve import Curve, count_exhaustive, random_point
from hassecount.errors import FieldTooLarge
from hassecount.finite_field import make_spec, spec_for_q
from hassecount.integers import is_prime
from hassecount.order import hasse_interval
from hassecount import selftest
from hassecount.selftest import cm_oracle_check, cm_panel, cm_trace_candidates, cornacchia

M61 = 2**61 - 1
P_ABOVE_LIMIT = 2**62 + 135  # the least prime above 2^62


def test_cornacchia():
    assert cornacchia(1, 13) == (3, 2)
    assert cornacchia(3, 7) == (2, 1)
    x, y = cornacchia(1, 2**61 + 21)  # a prime = 1 mod 4
    assert x * x + y * y == 2**61 + 21


def test_cm_trace_candidates_are_every_attained_trace():
    """At each prime 5 <= p < 200 the candidate set is exactly the set of
    traces of y^2 = x^3 + a x (j = 1728) and y^2 = x^3 + b (j = 0), a, b != 0."""
    for p in filter(is_prime, range(5, 200)):
        spec = make_spec(p)
        t1728 = {p + 1 - count_exhaustive(Curve(spec, 0, 0, 0, a, 0)) for a in range(1, p)}
        t0 = {p + 1 - count_exhaustive(Curve(spec, 0, 0, 0, 0, b)) for b in range(1, p)}
        assert t1728 == cm_trace_candidates(p, 1728), p
        assert t0 == cm_trace_candidates(p, 0), p


@pytest.mark.parametrize(
    "bits,residue",
    [(24, r) for r in (1, 5, 7, 11)] + [(40, r) for r in (1, 5, 7, 11)] + [(61, 1)],
)
def test_count_points_matches_cm_traces(bits, residue):
    rng = random.Random(bits * 12 + residue)
    for e, traces in cm_panel(bits, residue, rng):
        p = e.spec.q
        assert p.bit_length() == bits and p % 12 == residue
        res = count_points(e, "point_order", random.Random(p))
        assert res.trace in traces
        if traces == {0}:
            assert res.count == p + 1


def test_cm_oracle_check(monkeypatch):
    ok, detail = cm_oracle_check((20, 24), 5)
    assert ok and detail == "16 curves over primes of [20, 24] bits match their CM traces"
    monkeypatch.setattr(selftest, "cm_trace_candidates", lambda p, j: frozenset({p}))
    ok, detail = cm_oracle_check((20,), 5)
    assert not ok and detail.startswith("trace ")


def test_count_points_at_mersenne_61():
    t0 = time.perf_counter()
    spec = spec_for_q(M61)
    assert time.perf_counter() - t0 < 0.01
    rng = random.Random(61)
    e = Curve(spec, *(rng.randrange(M61) for _ in range(5)))
    n = count_points(e, "point_order", random.Random(1)).count
    assert n in hasse_interval(M61)
    for _ in range(3):
        assert e.scalar_mul(n, random_point(e, rng)).is_infinity


def test_cli_count_mersenne_61_supersingular(capsys):
    assert cli.main(["count", "--q", str(M61), "--curve", "0,0,0,1,0"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["count"] == M61 + 1 and rec["trace"] == 0


def test_field_size_limit():
    assert is_prime(P_ABOVE_LIMIT) and not any(map(is_prime, range(2**62 + 1, P_ABOVE_LIMIT)))
    for args in [(P_ABOVE_LIMIT,), (2, 63), (3, 40), (2**62 + 1, 1)]:
        with pytest.raises(FieldTooLarge):
            make_spec(*args)
    for q in [2**62 + 1, P_ABOVE_LIMIT, 2**63, 10**30, 3317044064679887385961981]:
        with pytest.raises(FieldTooLarge):
            spec_for_q(q)
    assert spec_for_q(2**62).k == 62


@pytest.mark.parametrize("q", [P_ABOVE_LIMIT, 2**64, 10**30])
def test_cli_exit_3_above_limit(capsys, q):
    t0 = time.perf_counter()
    assert cli.main(["count", "--q", str(q), "--curve", "0,0,0,1,0"]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert "FieldTooLarge" in capsys.readouterr().err
