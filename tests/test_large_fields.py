"""Large extension fields: past the sweep kernels' 1200-element q^2 tables,
up to the 2^20 limit of the log/Zech field model, and a few past it, where
the field runs on polynomial arithmetic.

These tests check the counting paths there against independent oracles
(exhaustive counts, Lagrange, the twist sum #E + #E' = 2(q+1) and the Weil
recurrence for curves defined over F_p), inv_enc against Fermat's a^(q-2), the
quadratic-character table, and the char-2 trace mask and Artin-root solver
against their definitions.  In characteristic 2 the Koblitz curves
y^2 + xy = x^3 + a2 x^2 + 1 and the supersingular y^2 + y = x^3 + a4 x + a6 are
counted past 2^16 against the Weil recurrence.
"""

import functools
import json
import random
import time

import pytest

from hassecount import cli
from hassecount import curve as cv
from hassecount.counting import count_points, group_structure
from hassecount.curve import (
    Curve,
    count_exhaustive,
    quadratic_twist,
    random_point,
    smallest_trace_one,
)
from hassecount.finite_field import make_spec, spec_for_q
from hassecount.integers import prime_powers
from hassecount.order import hasse_interval
from hassecount.selftest import weil_count
from hassecount.sweep import sample_random_curve

COEFFS = (2, 3, 5, 7, 11)  # nonsingular and ordinary over each field below


def _curve(q):
    return Curve(spec_for_q(q), *COEFFS)


@functools.cache
def _exhaustive(q):
    return count_exhaustive(_curve(q))


@pytest.mark.parametrize("q", [2048, 2187, 4096])
def test_point_order_matches_exhaustive(q):
    res = count_points(_curve(q), "point_order", random.Random(q))
    assert res.count == _exhaustive(q)


@pytest.mark.parametrize("q", [5**6, 7**5, 11**4, 3**7, 3**9])
def test_log_model_counts_match_exhaustive(q, monkeypatch):
    """count_points on 4 seeded random curves against count_exhaustive in
    the log model, where 3 != 0 gives the tangent its 3x^2 term and in
    characteristic 3, where it vanishes; no count builds completed_law."""
    spec = spec_for_q(q)
    monkeypatch.setattr(cv, "completed_law", lambda *a: pytest.fail("completed_law in a table field"))
    rng = random.Random(q)
    for _ in range(4):
        e = sample_random_curve(spec, rng)
        assert count_points(e, "point_order", rng).count == count_exhaustive(e)


@pytest.mark.parametrize("q", [2187, 4096])
def test_twist_counts_sum(q):
    assert _exhaustive(q) + count_exhaustive(quadratic_twist(_curve(q))) == 2 * (q + 1)


def test_group_structure_f2187():
    st = group_structure(_curve(2187))
    assert st.n1 * st.n2 == _exhaustive(2187)


@pytest.mark.parametrize("q,curve", [(3**9, "2,3,5,7,11"), (2**16, "1,0,0,0,1")])
def test_cli_count_past_table_limit(capsys, q, curve):
    assert cli.main(["count", "--q", str(q), "--curve", curve]) == 0
    n = json.loads(capsys.readouterr().out)["count"]
    assert n in hasse_interval(q)
    e = Curve(spec_for_q(q), *map(int, curve.split(",")))
    for seed in range(3):
        assert e.scalar_mul(n, random_point(e, random.Random(seed))).is_infinity


@pytest.mark.parametrize("q", [q for q in prime_powers(1024) if q % 2] + [2187, 65521])
def test_chi_table_is_euler_criterion(q):
    spec = spec_for_q(q)
    chi = spec.chi_table()
    minus_one = spec.neg_enc(1)
    assert chi[0] == 0
    for a in range(1, q):
        euler = spec.pow_enc(a, (q - 1) // 2)
        assert chi[a] == (1 if euler == 1 else -1) and euler in (1, minus_one)


@pytest.mark.parametrize("q", [2048, 2187, 4096])
def test_inv_table_is_fermat_inverse(q):
    spec = spec_for_q(q)
    for a in range(1, q):
        assert spec.inv_enc(a) == spec.pow_enc(a, q - 2)


def _frobenius_trace(spec, a):
    """Tr(a) = a + a^2 + ... + a^(2^(k-1)), by k-1 squarings."""
    s, frob = a, a
    for _ in range(spec.k - 1):
        frob = spec.mul_enc(frob, frob)
        s ^= frob
    return s


@pytest.mark.parametrize("q", [2**k for k in range(1, 12)])
def test_trace_mask_and_artin_match_definitions(q):
    spec = spec_for_q(q)
    smallest_root = {}
    for z in range(q):
        smallest_root.setdefault(spec.mul_enc(z, z) ^ z, z)
        assert spec.trace_enc(z) == _frobenius_trace(spec, z)
    for e in range(q):
        assert spec.artin_enc(e) == smallest_root.get(e)
    if q > 2:
        assert smallest_trace_one(spec) == min(z for z in range(q) if spec.trace_enc(z))


@pytest.mark.parametrize("k", [17, 24])
def test_trace_mask_and_artin_sampled(k):
    # the roots z and z + 1 differ in bit 0, so the even root is the smaller
    spec = make_spec(2, k)
    assert spec.trace_mask < 1 << k and len(spec._artin_rows) == k - 1
    rng = random.Random(k)
    for _ in range(2000):
        e = rng.randrange(spec.q)
        tr = _frobenius_trace(spec, e)
        assert spec.trace_enc(e) == tr
        z = spec.artin_enc(e)
        assert (z is None) == (tr == 1)
        if z is not None:
            assert z % 2 == 0 and spec.mul_enc(z, z) ^ z == e


def test_supersingular_char2_twist_f4096(capsys):
    q = 4096
    assert cli.main(["twist", "--q", str(q), "--curve", "0,0,1,0,0"]) == 0
    out = json.loads(capsys.readouterr().out)
    twist = Curve(spec_for_q(q), *out["twist_curve"])
    assert twist.a1 == twist.a2 == 0
    assert count_exhaustive(Curve(spec_for_q(q), 0, 0, 1, 0, 0)) + count_exhaustive(twist) == 2 * (q + 1)


def _twist_by_search(curve):
    """The supersingular char-2 twist by search: shift a6 by the first delta,
    in encoding order, that is not s^2 + a3 s for any s in F_q, so that
    y -> y + s cannot map E onto the shifted curve over F_q."""
    spec = curve.spec
    a3 = curve.a3
    artin_image = {spec.mul_enc(s, s) ^ spec.mul_enc(a3, s) for s in range(spec.q)}
    delta = next(d for d in range(spec.q) if d not in artin_image)
    return Curve(spec, 0, curve.a2, a3, curve.a4, curve.a6 ^ delta)


@pytest.mark.parametrize("q", [8, 16, 32, 64])
def test_supersingular_char2_twist_is_first_in_search_order(q):
    spec = spec_for_q(q)
    rng = random.Random(q)
    for _ in range(5):
        e = Curve(spec, 0, 0, rng.randrange(1, q), rng.randrange(q), rng.randrange(q))
        t = quadratic_twist(e)
        assert t.coefficients() == _twist_by_search(e).coefficients()
        assert count_exhaustive(e) + count_exhaustive(t) == 2 * (q + 1)


def test_supersingular_char2_twist_f65536(capsys):
    q = 2**16
    t0 = time.perf_counter()
    assert cli.main(["twist", "--q", str(q), "--curve", "0,0,1,0,0"]) == 0
    assert time.perf_counter() - t0 < 2.0
    out = json.loads(capsys.readouterr().out)
    twist = Curve(spec_for_q(q), *out["twist_curve"])
    assert twist.a1 == twist.a2 == 0
    assert out["count"] + count_exhaustive(twist) == 2 * (q + 1)


@pytest.mark.parametrize(
    "p,k,coeffs,count",
    [
        (3, 12, (1, 0, 0, 2, 1), 532800),
        (5, 8, (0, 0, 0, 1, 2), 391680),
        (7, 7, (0, 0, 0, 3, 1), 824052),
        (2, 16, (1, 0, 0, 0, 1), 65088),
        (3, 13, (1, 0, 0, 2, 1), 1595883),  # polynomial arithmetic past 2^20
        (3, 20, (1, 0, 0, 2, 1), 3486676875),
    ],
)
def test_point_order_matches_weil_recurrence(p, k, coeffs, count):
    assert weil_count(p, k, coeffs) == count
    e = Curve(spec_for_q(p**k), *coeffs)
    assert count_points(e, "point_order", random.Random(k)).count == count


def test_exhaustive_matches_weil_recurrence_f6561():
    coeffs = (1, 0, 0, 2, 1)
    assert count_exhaustive(Curve(spec_for_q(3**8), *coeffs)) == weil_count(3, 8, coeffs)


@pytest.mark.parametrize("k", [17, 20, 21, 24, 40])
@pytest.mark.parametrize("a2", [0, 1])
def test_koblitz_count_past_2_16(k, a2):
    coeffs = (1, a2, 0, 0, 1)
    e = Curve(spec_for_q(2**k), *coeffs)
    assert count_points(e, "point_order", random.Random(k)).count == weil_count(2, k, coeffs)


SUPERSINGULAR_F2 = ((0, 0, 1, 0, 0), (0, 0, 1, 1, 0), (0, 0, 1, 1, 1))  # y^2 + y = x^3, x^3 + x, x^3 + x + 1


@pytest.mark.parametrize("k", [17, 20, 21, 40])
@pytest.mark.parametrize("coeffs", SUPERSINGULAR_F2, ids=["x3", "x3+x", "x3+x+1"])
def test_supersingular_count_past_2_16(k, coeffs):
    e = Curve(spec_for_q(2**k), *coeffs)
    assert count_points(e, "point_order", random.Random(k)).count == weil_count(2, k, coeffs)


@pytest.mark.parametrize("k", [20, 40])
def test_supersingular_square_field_pair(k):
    # y^2 + y = x^3 over F_{r^2}, r = 2^(k/2): (r - 1)^2 points, twist (r + 1)^2
    r = 2 ** (k // 2)
    res = count_points(Curve(spec_for_q(2**k), 0, 0, 1, 0, 0), "point_order", random.Random(k))
    assert (res.count, res.twist_count) == ((r - 1) ** 2, (r + 1) ** 2)


def test_cli_supersingular_past_2_16(capsys):
    args = ["--q", str(2**17), "--curve", "0,0,1,0,0"]
    assert cli.main(["count", *args]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 2**17 + 1
    assert cli.main(["twist", *args]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["twist_curve"] == [0, 0, 1, 0, 1] and "count" not in out and "twist_count" not in out


def test_cli_count_koblitz_2_20(capsys):
    assert cli.main(["count", "--q", str(2**20), "--curve", "1,0,0,0,1"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 1047376


def test_char2_ordinary_twist_past_2_20(capsys):
    q = 2**24
    assert cli.main(["twist", "--q", str(q), "--curve", "1,0,0,0,1"]) == 0
    out = json.loads(capsys.readouterr().out)
    a1, a2, a3, a4, a6 = out["twist_curve"]
    spec = spec_for_q(q)
    assert spec._log is None and "count" not in out
    assert (a1, a3, a4, a6) == (1, 0, 0, 1) and spec.trace_enc(a2) == 1
