"""Extension fields past the 1200-element q^2 table limit.

Above the limit every multiplication is polynomial arithmetic and the
quadratic-character, trace and Artin-root tables must still be built; these
tests check the counting paths there against independent oracles, and the
tables themselves against their definitions.
"""

import functools
import json
import random

import pytest

from hassecount import cli
from hassecount.counting import count_points, group_structure
from hassecount.curve import Curve, count_exhaustive, quadratic_twist, random_point
from hassecount.finite_field import spec_for_q
from hassecount.integers import prime_powers
from hassecount.order import hasse_interval

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


@pytest.mark.parametrize("q", [q for q in prime_powers(1024) if q % 2] + [2187])
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
    inv = spec.inv_table()
    assert inv[0] == 0
    for a in range(1, q):
        assert inv[a] == spec.pow_enc(a, q - 2)


@pytest.mark.parametrize("q", [2**k for k in range(1, 12)])
def test_trace_artin_tables_match_definitions(q):
    spec = spec_for_q(q)
    tr, artin = spec.trace_artin_tables()
    smallest_root = {}
    for z in range(q):
        smallest_root.setdefault(spec.mul_enc(z, z) ^ z, z)
        s, frob = z, z
        for _ in range(spec.k - 1):
            frob = spec.mul_enc(frob, frob)
            s ^= frob
        assert tr[z] == s
    for e in range(q):
        assert artin[e] == smallest_root.get(e, -1)
        assert (artin[e] >= 0) == (tr[e] == 0)
