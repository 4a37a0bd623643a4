"""Acceptance suite: one test per certification criterion, each printing a
PASS line with the measured values (run with -s or read captured output)."""

import random

import pytest

from hassecount import counting as ct
from hassecount import curve as cv
from hassecount import exceptions as ex
from hassecount import finite_field as ff
from hassecount import sweep
from hassecount.errors import SingularCurve
from hassecount.integers import prime_powers
from hassecount.order import (
    Congruence,
    Stats,
    bsgs_annihilator,
    exact_order,
    factorize,
    hasse_interval,
    multiples_in_interval,
    trace_candidates,
    unique_trace_candidate,
)

TRACE_AMBIGUOUS_Q = {3, 4, 5, 7, 9, 11, 16, 17, 23, 25, 29, 49}
COROLLARY_SET = {5, 7, 9, 11, 17, 23, 29}


def test_criterion_1_trace_ambiguity_certification():
    got = ex.exceptional_q_set(1024)
    assert got == TRACE_AMBIGUOUS_Q
    print(f"\nACCEPTANCE 1 trace-ambiguity-certification: PASS (exceptional q = {sorted(got)})")


def test_criterion_2_corollary_certification():
    got = ex.exceptional_q_set(1024, corollary=True)  # default reading: qm1
    others = {
        reading: sorted(ex.exceptional_q_set(1024, corollary=True, reading=reading))
        for reading in ("mn", "mn_qm1")
    }
    assert got == COROLLARY_SET
    print(
        f"\nACCEPTANCE 2 corollary-certification: PASS (reading qm1 -> {sorted(got)}; "
        f"other readings {others})"
    )


def test_criterion_3_table1_reproduction():
    reports = ex.verify_table1()
    assert len(reports) == 14
    failing = [r for r in reports if not r.ok]
    assert not failing, failing
    fallback = [r.q for r in reports if r.alpha_fallback]
    print(f"\nACCEPTANCE 3 table1-reproduction: PASS (14/14 rows; alpha fallback used for q={fallback})")


def test_criterion_4_q49_ambiguity():
    c = Congruence(14, 24)
    cands = trace_candidates(c, 49)
    assert cands == [-10, 14]
    assert unique_trace_candidate(c, 49) is None
    # the two candidate counts pair up to 2(q+1) = 100 = 36+64 = 60+40
    pairs = {(49 + 1 - t, 49 + 1 + t) for t in cands}
    assert pairs == {(60, 40), (36, 64)}
    print(f"\nACCEPTANCE 4 q49-ambiguity: PASS (candidates {cands}, count pairs {sorted(pairs)})")


def test_criterion_5_counting_oracle_equivalence():
    verified = 0
    api = 0
    for q in prime_powers(27):
        rep = sweep.full_sweep_verify(ff.spec_for_q(q), api_samples=500)
        verified += rep.curves
        api += rep.api_checked
    sampled = 0
    for q in prime_powers(256):
        if q <= 27:
            continue
        sampled += sweep.random_curve_counting_check(ff.spec_for_q(q), 200, seed=q)
    print(
        f"\nACCEPTANCE 5 counting-oracle: PASS ({verified} curves in the q<=27 full sweeps, "
        f"{api} through count_points(auto) directly; {sampled} random curves for 27<q<=256)"
    )


def test_criterion_6_supersingular_structure():
    # Table 1 curve over F_4: trivial group, twist (Z/3)^2
    e4 = cv.Curve(ff.make_spec(2, 2), 0, 0, 1, 0, 3)
    assert ct.group_structure(e4) == ct.GroupStructure(1, 1)
    assert ct.group_structure(cv.quadratic_twist(e4)) == ct.GroupStructure(3, 3)

    pair_counts = {}
    for r in (3, 5, 7, 11, 13):
        q = r * r
        spec_r = ff.make_spec(r)
        base = None
        for a4 in range(r):
            for a6 in range(r):
                try:
                    cand = cv.Curve(spec_r, 0, 0, 0, a4, a6)
                except SingularCurve:
                    continue
                if cv.count_exhaustive(cand) == r + 1:  # trace 0: supersingular
                    base = (a4, a6)
                    break
            if base:
                break
        assert base is not None
        spec_q = ff.make_spec(r, 2)
        lifted = cv.Curve(spec_q, 0, 0, 0, base[0], base[1])
        assert cv.count_exhaustive(lifted) == (r + 1) ** 2
        assert ct.group_structure(lifted) == ct.GroupStructure(r + 1, r + 1)
        tw = cv.quadratic_twist(lifted)
        assert cv.count_exhaustive(tw) == (r - 1) ** 2
        assert ct.group_structure(tw) == ct.GroupStructure(r - 1, r - 1)
        # at least 5 multiples of r-1 and at least 3 of r+1 in H_q
        h = hasse_interval(q)
        assert len(multiples_in_interval(r - 1, h)) >= 5 and len(multiples_in_interval(r + 1, h)) >= 3
        # pair-sum disambiguation: multiples of r-1 and r+1 in H_q summing to 2(q+1)
        pairs = [
            (u, 2 * (q + 1) - u)
            for u in multiples_in_interval(r - 1, h)
            if (2 * (q + 1) - u) % (r + 1) == 0 and 2 * (q + 1) - u in h
        ]
        pair_counts[r] = pairs
        if r > 7:
            assert pairs == [((r - 1) ** 2, (r + 1) ** 2)]
        if r == 7:
            assert len(pairs) == 2 and (36, 64) in pairs and (60, 40) in pairs

    # characteristic 2: y^2 + y = x^3 over F_{r^2}; each exponent has 4 or 5 multiples in H_q
    for r, n in ((8, 9), (16, 15), (32, 33)):
        e = cv.Curve(ff.spec_for_q(r * r), 0, 0, 1, 0, 0)
        assert ct.group_structure(e) == ct.GroupStructure(n, n)
        assert ct.group_structure(cv.quadratic_twist(e)) == ct.GroupStructure(2 * r - n, 2 * r - n)
        h = hasse_interval(r * r)
        assert len(multiples_in_interval(r - 1, h)) >= 5 and len(multiples_in_interval(r + 1, h)) >= 3
        assert all(len(multiples_in_interval(m, h)) in (4, 5) for m in (n, 2 * r - n))
    print(
        "\nACCEPTANCE 6 supersingular-structure: PASS "
        f"(pair counts per r: { {r: len(v) for r, v in pair_counts.items()} }; "
        "unique pair for r in {11, 13}, ambiguous at r=7; char-2 squares 64, 256, 1024)"
    )


def test_criterion_7_hasse_multiples():
    h49 = hasse_interval(49)
    m6 = multiples_in_interval(6, h49)
    m8 = multiples_in_interval(8, h49)
    # at least 5 multiples of r-1 and 3 of r+1; the exact counts are 5 and 4
    assert len(m6) >= 5 and len(m8) >= 3
    assert len(m6) == 5 and len(m8) == 4
    print(f"\nACCEPTANCE 7 hasse-multiples: PASS (multiples of 6: {m6}; of 8: {m8})")


def test_criterion_8_property_suites():
    rng = random.Random(2024)
    # group-law axioms across characteristics
    for q in (8, 27, 49, 121):
        e = sweep.sample_random_curve(ff.spec_for_q(q), rng)
        pts = cv.enumerate_points(e)
        for _ in range(500):
            p, s, t = (pts[rng.randrange(len(pts))] for _ in range(3))
            assert e.add_points(e.add_points(p, s), t) == e.add_points(p, e.add_points(s, t))
            assert e.add_points(p, s) == e.add_points(s, p)
            assert e.add_points(p, e.negate(p)).is_infinity

    # #E in the Hasse interval for every isomorphism class, q <= 121
    for q in prime_powers(121):
        counts = sweep.all_class_counts(ff.spec_for_q(q))
        h = hasse_interval(q)
        assert int(counts.min()) >= h.lo and int(counts.max()) <= h.hi

    # twist identity #E + #E' = 2(q+1) on random curves for every q <= 1024
    for q in prime_powers(1024):
        spec = ff.spec_for_q(q)
        for _ in range(2):
            e = sweep.sample_random_curve(spec, rng)
            assert cv.count_exhaustive(e) + cv.count_exhaustive(cv.quadratic_twist(e)) == 2 * (q + 1)

    # n1 | n2 and n1 | q-1: every isomorphism class for q <= 13, the char-2
    # normal families for q <= 8, and random curves over every prime power <= 121
    def check_structure(e):
        st = ct.group_structure(e)
        q = e.spec.q
        assert st.n2 % st.n1 == 0 and (q - 1) % st.n1 == 0
        assert st.n1 * st.n2 == cv.count_exhaustive(e)

    for q in (3, 5, 7, 9, 11, 13):
        spec = ff.spec_for_q(q)
        for c2 in range(q):
            for c4 in range(q):
                for c6 in range(q):
                    try:
                        check_structure(cv.Curve(spec, 0, c2, 0, c4, c6))
                    except SingularCurve:
                        continue
    for q in (2, 4, 8):
        spec = ff.spec_for_q(q)
        for a2 in range(q):
            for a6 in range(1, q):
                check_structure(cv.Curve(spec, 1, a2, 0, 0, a6))
        for a3 in range(1, q):
            for a4 in range(q):
                for a6 in range(q):
                    check_structure(cv.Curve(spec, 0, 0, a3, a4, a6))
    for q in prime_powers(121):
        if q <= 13:
            continue
        spec = ff.spec_for_q(q)
        for _ in range(60):
            check_structure(sweep.sample_random_curve(spec, rng))

    # exact_order vs brute-force order
    for q in (7, 16, 29):
        e = sweep.sample_random_curve(ff.spec_for_q(q), rng)
        pts = cv.enumerate_points(e)
        n = len(pts)
        for p in pts:
            o = exact_order(e, p, n)
            acc, brute = e.infinity(), None
            for i in range(1, n + 1):
                acc = e.add_points(acc, p)
                if acc.is_infinity:
                    brute = i
                    break
            assert o == brute

    # the external two-point success-probability claim is reported, not asserted
    spec = ff.make_spec(1009)
    hits = 0
    rounds = 150
    for i in range(rounds):
        e = sweep.sample_random_curve(spec, rng)
        res = ct.count_points(e, "point_order", random.Random(i))
        hits += res.samples_used <= 2
    rate = hits / rounds
    print(
        "\nACCEPTANCE 8 property-suites: PASS "
        f"(two-sample success rate over F_1009: {rate:.2f}, reported only; 6/pi^2 = 0.608)"
    )


def test_criterion_9_bsgs_scaling():
    p = 1000003
    spec = ff.make_spec(p)
    rng = random.Random(77)
    rounds = 20
    total = 0
    for _ in range(rounds):
        e = sweep.sample_random_curve(spec, rng)
        pt = cv.random_point(e, rng)
        ops = Stats()
        m = bsgs_annihilator(e, pt, ops)
        total += ops.adds
        assert e.scalar_mul(m, pt).is_infinity
        assert exact_order(e, pt, m) >= 1
    mean = total / rounds
    budget = 8 * p**0.25
    assert mean <= budget
    print(f"\nACCEPTANCE 9 bsgs-scaling: PASS (mean {mean:.1f} group ops vs budget {budget:.1f} at q={p})")
