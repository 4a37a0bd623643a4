import random
from math import isqrt, lcm

import pytest

from hassecount import exceptions as ex
from hassecount import finite_field as ff
from hassecount import sweep
from hassecount.counting import EXCLUDED_Q, GroupStructure, group_structure
from hassecount.curve import Curve, count_exhaustive, quadratic_twist
from hassecount.errors import NotPrimePower
from hassecount.integers import divisors, prime_powers
from hassecount.order import Congruence, hasse_interval, multiples_in_interval, trace_candidates

TRACE_AMBIGUOUS_Q = {3, 4, 5, 7, 9, 11, 16, 17, 23, 25, 29, 49}
COROLLARY_SET = {5, 7, 9, 11, 17, 23, 29}


def quads(records):
    return {(r.M, r.N, r.t, r.t_prime) for r in records}


def oracle_records(q, t_lo=0):
    """Literal wide-range triple loop applying conditions (i)-(iii) verbatim."""
    tb = isqrt(4 * q)
    wide = q + 1 + tb
    out = set()
    for M in range(1, wide + 1):
        for t in range(t_lo, tb + 1):
            if (q + 1 - t) % M:
                continue
            m = (q + 1 - t) // M
            if M % m or (q - 1) % m:
                continue
            for N in range(1, wide + 1):
                if (q + 1 + t) % N:
                    continue
                n = (q + 1 + t) // N
                if N % n or (q - 1) % n:
                    continue
                for tp in range(-tb, tb + 1):
                    if tp != t and (q + 1 - tp) % M == 0 and (q + 1 + tp) % N == 0:
                        out.add((M, N, t, tp))
    return out


def tscan_records(q, corollary=False, reading=ex.DEFAULT_COROLLARY_READING):
    """Reference census by a scan over t: for every 0 <= t <= 2 sqrt(q), the
    divisors M of q+1-t and N of q+1+t inside mn_bounds that pass (ii), then
    every t' the pair admits, sorted by (M, N, t, t')."""
    tb = isqrt(4 * q)
    lo, hi = ex.mn_bounds(q)
    qp1, qm1 = q + 1, q - 1
    keep = {
        "qm1": lambda mp, np_, M, N: qm1 % mp == 0 and qm1 % np_ == 0,
        "mn": lambda mp, np_, M, N: M % mp == 0 and N % np_ == 0,
        "mn_qm1": lambda mp, np_, M, N: M % mp == 0 and N % np_ == 0 and qm1 % mp == 0 and qm1 % np_ == 0,
    }[reading]
    records = []
    for t in range(tb + 1):
        ms = [
            M
            for M in divisors(qp1 - t)
            if lo <= M <= hi and M % ((qp1 - t) // M) == 0 and qm1 % ((qp1 - t) // M) == 0
        ]
        ns = [
            N
            for N in divisors(qp1 + t)
            if lo <= N <= hi and N % ((qp1 + t) // N) == 0 and qm1 % ((qp1 + t) // N) == 0
        ]
        for M in ms:
            for N in ns:
                for tp in trace_candidates(Congruence(t % lcm(M, N), lcm(M, N)), q):
                    if tp == t or (corollary and not keep((qp1 - tp) // M, (qp1 + tp) // N, M, N)):
                        continue
                    records.append(ex.ExceptionRecord(q, M, N, t, tp, (qp1 - t) // M, (qp1 + t) // N))
    records.sort(key=lambda r: (r.M, r.N, r.t, r.t_prime))
    return records


# --- enumerator --------------------------------------------------------------------

def test_enumerate_examples():
    assert quads(ex.enumerate_exceptions(3)) == {(2, 2, 0, -2), (2, 2, 0, 2)}
    assert quads(ex.enumerate_exceptions(4)) == {(1, 3, 4, -2), (1, 3, 4, 1)}
    assert ex.enumerate_exceptions(229) == []
    assert ex.enumerate_exceptions(2) == []
    assert (6, 8, 14, -10) in quads(ex.enumerate_exceptions(49))


def test_enumerate_not_prime_power():
    with pytest.raises(NotPrimePower):
        ex.enumerate_exceptions(12)


def test_records_sorted_and_cofactors():
    for q in sorted(TRACE_AMBIGUOUS_Q):
        records = ex.enumerate_exceptions(q)
        keys = [(r.M, r.N, r.t, r.t_prime) for r in records]
        assert keys == sorted(keys)
        for r in records:
            assert r.m == (q + 1 - r.t) // r.M
            assert r.n == (q + 1 + r.t) // r.N


def test_records_reverify_conditions_independently():
    tb_of = lambda q: isqrt(4 * q)
    for q in sorted(TRACE_AMBIGUOUS_Q):
        for r in ex.enumerate_exceptions(q):
            tb = tb_of(q)
            assert 0 <= r.t <= tb and -tb <= r.t_prime <= tb and r.t_prime != r.t
            assert (q + 1 - r.t) % r.M == 0 and (q + 1 + r.t) % r.N == 0
            m, n = (q + 1 - r.t) // r.M, (q + 1 + r.t) // r.N
            assert r.M % m == 0 and (q - 1) % m == 0
            assert r.N % n == 0 and (q - 1) % n == 0
            assert (q + 1 - r.t_prime) % r.M == 0 and (q + 1 + r.t_prime) % r.N == 0


@pytest.mark.parametrize("q", prime_powers(121))
def test_oracle_equivalence(q):
    got = quads(ex.enumerate_exceptions(q))
    want = oracle_records(q)
    # the wide scan never escapes the stated (M, N) window: conditions force it
    lo, hi = ex.mn_bounds(q)
    assert all(lo <= M <= hi and lo <= N <= hi for (M, N, _, _) in want)
    assert got == want


@pytest.mark.parametrize("q", [3, 4, 5, 7, 9, 16, 25, 49, 53, 64, 229])
def test_symmetry_negative_t(q):
    # records with t <= 0 from a sign-flipped loop are exactly the swapped records
    tb = isqrt(4 * q)
    neg = set()
    for M, N, t, tp in oracle_records(q, t_lo=-tb):
        if t <= 0:
            neg.add((M, N, t, tp))
    swapped = {(N, M, -t, -tp) for (M, N, t, tp) in neg}
    pos = {(M, N, t, tp) for (M, N, t, tp) in oracle_records(q) if t >= 0}
    assert swapped == pos


@pytest.mark.parametrize(
    "corollary,reading", [(False, "qm1")] + [(True, reading) for reading in ex.COROLLARY_READINGS]
)
def test_records_equal_tscan_reference(corollary, reading):
    # same records, in the same order, as the t scan, for every q <= 4096
    for q in prime_powers(4096):
        assert ex.enumerate_exceptions(q, corollary, reading) == tscan_records(q, corollary, reading), q


def test_exceptional_q_sets():
    assert ex.exceptional_q_set(1024) == TRACE_AMBIGUOUS_Q
    assert ex.exceptional_q_set(50) == TRACE_AMBIGUOUS_Q
    assert ex.exceptional_q_set(2) == set()
    assert ex.exceptional_q_set(1 << 16) == EXCLUDED_Q == TRACE_AMBIGUOUS_Q


# 1019^2 is a square field r^2 with r > 7, the paper's supersingular case
@pytest.mark.parametrize("q", [10**12 + 39, 2**61 - 1, 3**39, 2**62, 1019**2])
def test_no_exceptions_at_large_q(q):
    assert ex.enumerate_exceptions(q) == []


# --- corollary variant --------------------------------------------------------------

def test_corollary_subset_and_sets():
    for q in prime_powers(256):
        base = quads(ex.enumerate_exceptions(q))
        for reading in ex.COROLLARY_READINGS:
            assert quads(ex.enumerate_exceptions(q, corollary=True, reading=reading)) <= base
    assert ex.exceptional_q_set(1024, corollary=True) == COROLLARY_SET
    assert ex.exceptional_q_set(1 << 16, corollary=True) == COROLLARY_SET
    assert ex.exceptional_q_set(1024, corollary=True, reading="mn") == COROLLARY_SET - {7}
    assert ex.exceptional_q_set(1024, corollary=True, reading="mn_qm1") == COROLLARY_SET - {7}


def test_corollary_examples():
    assert ex.enumerate_exceptions(49, corollary=True) == []
    assert ex.enumerate_exceptions(5, corollary=True) != []
    assert ex.enumerate_exceptions(229, corollary=True) == []


def test_corollary_bad_reading():
    # rejected on entry, also where no record would reach the filter (q = 2, 229)
    for q in (2, 5, 229):
        with pytest.raises(ValueError):
            ex.enumerate_exceptions(q, corollary=True, reading="nope")
        with pytest.raises(ValueError):
            ex.exceptional_q_set(q, corollary=True, reading="nope")


# --- parity filter ------------------------------------------------------------------

def test_parity_filter_examples():
    r3 = [r for r in ex.enumerate_exceptions(3) if r.t_prime == 2]
    assert ex.parity_filter(r3) == r3  # (4-2)/2=1 and (4+2)/2=3 share parity
    r49 = [r for r in ex.enumerate_exceptions(49) if (r.M, r.N) == (6, 8)]
    assert ex.parity_filter(r49) == []  # 60/6=10 vs 40/8=5 differ


def test_parity_filter_survivor_report():
    survivors = []
    for q in sorted(TRACE_AMBIGUOUS_Q):
        survivors.extend(ex.parity_filter(ex.enumerate_exceptions(q)))
    # reported, not asserted to be a single case; it must at least be a strict sublist
    total = sum(len(ex.enumerate_exceptions(q)) for q in TRACE_AMBIGUOUS_Q)
    assert 0 < len(survivors) < total
    assert any(r.q == 3 for r in survivors)


# --- realizability ------------------------------------------------------------------

@pytest.mark.parametrize("q", sorted(TRACE_AMBIGUOUS_Q))
def test_exception_traces_realized_by_curves(q):
    realized = {q + 1 - c for c in sweep.all_class_counts(ff.spec_for_q(q)).tolist()}
    for r in ex.enumerate_exceptions(q):
        assert r.t in realized


# --- Theorem 1 on real curves --------------------------------------------------------
# For prime q > 229, lambda(E) or lambda(E') has a single multiple in H_q, so
# point orders on E and E' fix #E; this fails at q = 229 and at every square q
# (squares: test_acceptance.py, criterion 6).

def exponent_multiples(e):
    """The multiples in H_q of lambda(E) and of lambda(E'), E' the quadratic twist."""
    h = hasse_interval(e.spec.q)
    return tuple(multiples_in_interval(group_structure(c).n2, h) for c in (e, quadratic_twist(e)))


def test_theorem1_fails_at_229():
    e = Curve(ff.spec_for_q(229), 0, 0, 0, 0, 2)  # y^2 = x^3 + 2
    assert group_structure(e) == GroupStructure(4, 52)
    assert group_structure(quadratic_twist(e)) == GroupStructure(6, 42)
    # H_229 = [200, 260]: neither exponent alone fixes #E ...
    assert exponent_multiples(e) == ([208, 260], [210, 252])
    # ... but the pair does: t = 22 is the one admissible trace with 52 | q+1-t and 42 | q+1+t
    tb = hasse_interval(229).trace_bound
    assert [t for t in range(-tb, tb + 1) if (230 - t) % 52 == 0 and (230 + t) % 42 == 0] == [22]
    assert count_exhaustive(e) == 208
    assert ex.enumerate_exceptions(229) == []


@pytest.mark.parametrize("q", [233, 241, 1009])
def test_theorem1_holds_above_229(q):
    spec, rng = ff.spec_for_q(q), random.Random(q)
    for _ in range(20):
        e = sweep.sample_random_curve(spec, rng)
        assert 1 in [len(m) for m in exponent_multiples(e)], e


# --- Table 1 ------------------------------------------------------------------------

def test_verify_table1_all_rows():
    reports = ex.verify_table1()
    assert len(reports) == 14
    assert all(r.quadruples_ok for r in reports)
    assert all(r.curve_ok for r in reports)
    by_q = {}
    for r in reports:
        by_q.setdefault(r.q, []).append(r)
    assert sorted(by_q) == sorted(TRACE_AMBIGUOUS_Q)
    # only the q=25 row needs a non-canonical primitive element
    fallback = [r.q for r in reports if r.alpha_fallback]
    assert fallback == [25]
    assert all(not r.symmetric for r in reports)


def test_table1_row_values_frozen():
    reports = {(r.q, r.M): r for r in ex.verify_table1()}
    assert reports[(11, 4)].count == 8 and reports[(11, 4)].lam == 4 and reports[(11, 4)].twist_lam == 8
    assert reports[(16, 3)].count == 9
    assert reports[(25, 4)].count == 16
    assert reports[(25, 4)].alpha_enc == 13 and reports[(25, 4)].alpha_fallback
    assert reports[(49, 6)].count == 36


def test_mn_bounds_match_real_endpoints():
    for q in prime_powers(256):
        lo, hi = ex.mn_bounds(q)
        # lo is the smallest integer >= sqrt(q) - 1 (conservative widening keeps it >= 1)
        assert lo >= 1
        assert lo - 1 < q**0.5 - 1 + 1e-9
        assert hi <= 4 * q**0.5 + 1e-9 < hi + 1
