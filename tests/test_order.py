import random
from math import isqrt

import pytest

from hassecount import curve as cv
from hassecount import finite_field as ff
from hassecount import order as od
from hassecount.errors import IncompatibleCongruence, SingularCurve
from hassecount.integers import divisors, factorize, lcm, prime_powers


def random_curve(spec, rng):
    while True:
        try:
            return cv.make_curve(spec, *(rng.randrange(spec.q) for _ in range(5)))
        except SingularCurve:
            continue


# --- Hasse interval ---------------------------------------------------------------

def test_hasse_interval_frozen():
    h49 = od.hasse_interval(49)
    assert (h49.lo, h49.hi, h49.trace_bound) == (36, 64, 14)
    h2 = od.hasse_interval(2)
    assert (h2.lo, h2.hi) == (1, 5)
    # isqrt(4*229) = isqrt(916) = 30 since 30^2 = 900 <= 916 < 961
    h229 = od.hasse_interval(229)
    assert (h229.lo, h229.hi) == (200, 260)


def test_hasse_invariants_all_q():
    for q in prime_powers(1024):
        h = od.hasse_interval(q)
        assert h.lo + h.hi == 2 * (q + 1)
        assert h.hi - h.lo == 2 * h.trace_bound
        tb = h.trace_bound
        assert tb * tb <= 4 * q < (tb + 1) * (tb + 1)


def test_multiples_in_interval():
    h49 = od.hasse_interval(49)
    assert od.multiples_in_interval(6, h49) == [36, 42, 48, 54, 60]
    assert od.multiples_in_interval(8, h49) == [40, 48, 56, 64]
    h4 = od.hasse_interval(4)
    assert od.multiples_in_interval(1, h4) == list(range(1, 10))


# --- BSGS -------------------------------------------------------------------------

def test_bsgs_infinity_returns_lo():
    spec = ff.make_spec(5)
    e = cv.make_curve(spec, 0, 0, 0, 1, 0)
    assert od.bsgs_annihilator(e, e.infinity()) == od.hasse_interval(5).lo


def test_bsgs_two_torsion_point():
    spec = ff.make_spec(5)
    e = cv.make_curve(spec, 0, 0, 0, 1, 0)
    p = e.point(0, 0)
    m = od.bsgs_annihilator(e, p)
    assert m in od.hasse_interval(5) and m % 2 == 0
    assert od.exact_order(e, p, m) == 2


def test_bsgs_self_check_f1009():
    spec = ff.make_spec(1009)
    e = cv.make_curve(spec, 0, 0, 0, spec.neg_enc(1), 0)  # y^2 = x^3 - x
    rng = random.Random(3)
    for _ in range(20):
        p = cv.random_point(e, rng)
        m = od.bsgs_annihilator(e, p)
        assert m in od.hasse_interval(1009)
        assert e.scalar_mul(m, p).is_infinity


@pytest.mark.parametrize("p", [65537, 1000003])
def test_bsgs_operation_scaling(p):
    spec = ff.make_spec(p)
    rng = random.Random(11)
    total = 0
    rounds = 10
    for _ in range(rounds):
        e = random_curve(spec, rng)
        pt = cv.random_point(e, rng)
        ops = od.OpCounter()
        m = od.bsgs_annihilator(e, pt, ops)
        assert e.scalar_mul(m, pt).is_infinity
        total += ops.adds
    assert total / rounds <= 8 * p**0.25


# --- exact order ------------------------------------------------------------------

def test_exact_order_examples():
    spec = ff.make_spec(5)
    e = cv.make_curve(spec, 0, 0, 0, 1, 0)
    assert od.exact_order(e, e.infinity(), 7) == 1
    assert od.exact_order(e, e.point(0, 0), 8) == 2
    with pytest.raises(ValueError):
        od.exact_order(e, e.point(0, 0), 3)  # 3 does not kill a 2-torsion point


def test_exact_order_table1_q3():
    spec = ff.make_spec(3)
    e = cv.make_curve(spec, 0, 0, 0, 2, 0)
    orders = set()
    lam = 1
    for p in cv.enumerate_points(e):
        o = od.exact_order(e, p, 4)
        orders.add(o)
        lam = lcm(lam, o)
    assert orders == {1, 2} and lam == 2


@pytest.mark.parametrize("q", [5, 7, 9, 11, 16, 23, 25, 27, 32, 49])
def test_exact_order_vs_brute_force(q):
    spec = ff.spec_for_q(q)
    rng = random.Random(q)
    for _ in range(3):
        e = random_curve(spec, rng)
        pts = cv.enumerate_points(e)
        n = len(pts)
        for p in pts:
            fast = od.exact_order(e, p, n)
            acc = e.infinity()
            brute = None
            for i in range(1, n + 1):
                acc = e.add_points(acc, p)
                if acc.is_infinity:
                    brute = i
                    break
            assert fast == brute
            # minimality certificate
            assert e.scalar_mul(fast, p).is_infinity
            for ell in set(factorize(fast)):
                assert not e.scalar_mul(fast // ell, p).is_infinity


# --- congruences ------------------------------------------------------------------

def test_crt_examples():
    assert od.crt_merge(od.Congruence(0, 1), od.Congruence(5, 7)) == od.Congruence(5, 7)
    assert od.crt_merge(od.Congruence(1, 2), od.Congruence(2, 3)) == od.Congruence(5, 6)
    merged = od.crt_merge(od.Congruence(2, 6), od.Congruence(6, 8))
    assert merged == od.Congruence(14, 24)
    # brute-scan oracle over a full period
    sols = [x for x in range(24) if x % 6 == 2 and x % 8 == 6]
    assert sols == [14]


def test_crt_incompatible():
    with pytest.raises(IncompatibleCongruence):
        od.crt_merge(od.Congruence(0, 4), od.Congruence(1, 2))


def test_crt_random_property():
    rng = random.Random(17)
    for _ in range(500):
        m1, m2 = rng.randrange(1, 60), rng.randrange(1, 60)
        x = rng.randrange(5000)
        out = od.crt_merge(od.Congruence(x % m1, m1), od.Congruence(x % m2, m2))
        assert out.m == lcm(m1, m2)
        assert out.a % m1 == x % m1 and out.a % m2 == x % m2


def test_congruence_validation():
    with pytest.raises(ValueError):
        od.Congruence(3, 2)
    with pytest.raises(ValueError):
        od.Congruence(0, 0)


# --- trace candidates -------------------------------------------------------------

def test_unique_trace_q49_ambiguity():
    c = od.Congruence(14, 24)
    assert od.trace_candidates(c, 49) == [-10, 14]
    assert od.unique_trace_candidate(c, 49) is None


def test_unique_trace_wide_modulus():
    assert od.unique_trace_candidate(od.Congruence(5, 1000), 229) == 5


def test_unique_trace_q3():
    c = od.Congruence(0, 2)
    assert od.trace_candidates(c, 3) == [-2, 0, 2]
    assert od.unique_trace_candidate(c, 3) is None


def test_trace_candidates_random_oracle():
    rng = random.Random(23)
    for _ in range(10_000):
        q = rng.choice([2, 3, 4, 5, 7, 9, 16, 49, 229, 1009])
        m = rng.randrange(1, 200)
        a = rng.randrange(m)
        tb = isqrt(4 * q)
        brute = [x for x in range(-tb, tb + 1) if x % m == a % m]
        assert od.trace_candidates(od.Congruence(a, m), q) == brute
        expected = brute[0] if len(brute) == 1 else None
        assert od.unique_trace_candidate(od.Congruence(a, m), q) == expected


# --- integer utilities ------------------------------------------------------------

def test_integer_utilities():
    assert factorize(24) == [2, 2, 2, 3]
    assert factorize(1) == []
    assert isqrt(4 * 49) == 14
    assert lcm(6, 8) == 24
    with pytest.raises(ValueError):
        factorize(1 << 63)
    assert divisors(24) == [1, 2, 3, 4, 6, 8, 12, 24]
