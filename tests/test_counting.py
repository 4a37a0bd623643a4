import dataclasses
import random

import pytest

from hassecount import counting as ct
from hassecount import curve as cv
from hassecount import exceptions as ex
from hassecount import finite_field as ff
from hassecount import order as od
from hassecount.errors import ExcludedField, FieldTooLarge, InternalInvariantError, SingularCurve
from hassecount.integers import is_prime, prime_powers
from hassecount.order import Congruence, hasse_interval
from hassecount.selftest import cm_panel
from hassecount.sweep import sample_random_curve


# --- excluded set ------------------------------------------------------------------

def test_excluded_set_constant():
    assert ct.EXCLUDED_Q == frozenset({3, 4, 5, 7, 9, 11, 16, 17, 23, 25, 29, 49})


def test_excluded_set_matches_enumerator():
    assert set(ct.EXCLUDED_Q) == ex.exceptional_q_set(1024)


def test_auto_enumerates_every_excluded_q():
    # count_points(auto) sends q <= _SMALL_Q to enumeration, never point orders
    assert max(ct.EXCLUDED_Q) <= ct._SMALL_Q


# --- count_points ------------------------------------------------------------------

def test_count_examples():
    e7 = cv.Curve(ff.make_spec(7), 0, 0, 0, 0, 6)
    res = ct.count_points(e7, "exhaustive")
    assert (res.count, res.trace, res.method) == (4, 4, "exhaustive")
    e49 = cv.Curve(ff.make_spec(7, 2), 0, 0, 0, 31, 0)
    res = ct.count_points(e49, "exhaustive")
    assert (res.count, res.trace) == (36, 14)


def test_count_result_is_a_frozen_slotted_dataclass():
    """The exhaustive path's CountResult, which count_points may hand to
    every curve of a completed-square class, is the same value as the
    keyword build, frozen, hashable, and dataclasses.replace works on it."""
    res = ct.count_points(cv.Curve(ff.make_spec(7), 0, 0, 0, 0, 6))
    assert res == ct.CountResult(count=4, trace=4, method="exhaustive", samples_used=0, twist_count=12)
    assert not hasattr(res, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.count = 5
    assert dataclasses.replace(res, count=5) == ct.CountResult(5, 4, "exhaustive", 0, 12)
    assert hash(res) == hash(dataclasses.replace(res))
    assert repr(res) == ("CountResult(count=4, trace=4, method='exhaustive', samples_used=0, "
                         "twist_count=12)")


def _counted_exhaustive(monkeypatch):
    """Record every count_exhaustive call that count_points makes."""
    calls = []
    real = ct.count_exhaustive
    monkeypatch.setattr(ct, "count_exhaustive", lambda e: calls.append(e.coefficients()) or real(e))
    return calls


def _same_square(spec, c2, c4, c6, rng):
    """A coefficient vector with the completed square (c2, c4, c6), from a
    random (h1, h3): a1 = 2 h1, a3 = 2 h3, a2 = c2 - h1^2, a4 = c4 - h1 a3 and
    a6 = c6 - h3^2."""
    add, sub, mul = spec.add_enc, spec.sub_enc, spec.mul_enc
    h1, h3 = rng.randrange(spec.q), rng.randrange(spec.q)
    a3 = add(h3, h3)
    return add(h1, h1), sub(c2, mul(h1, h1)), a3, sub(c4, mul(h1, a3)), sub(c6, mul(h3, h3))


@pytest.mark.parametrize("p,k,modulus", [
    (3, 2, None), (5, 2, None), (3, 3, None), (7, 2, None), (3, 2, (2, 1, 1)), (5, 2, (2, 1, 1)),
])
def test_count_memo_per_completed_square(monkeypatch, p, k, modulus):
    """Vectors that share a completed square share one count_exhaustive call
    in count_points, and each gets the count a direct count_exhaustive
    gives, under the default modulus and under another.  The classes are
    every c6 beside two random (c2, c4), so a key without c6 shows."""
    spec = ff.make_spec(p, k, modulus)
    q = spec.q
    monkeypatch.setattr(spec, "_count_memo", None)
    calls = _counted_exhaustive(monkeypatch)
    rng = random.Random(p * 100 + k)
    classes = 0
    for c24 in rng.sample(range(q * q), 2):
        c2, c4 = divmod(c24, q)
        for c6 in range(q):
            try:
                cv.Curve(spec, 0, c2, 0, c4, c6)
            except SingularCurve:
                continue
            classes += 1
            for _ in range(3):
                e = cv.Curve(spec, *_same_square(spec, c2, c4, c6, rng))
                assert e.completed_model()[:3] == (c2, c4, c6)
                res = ct.count_points(e)
                assert res.count == cv.count_exhaustive(e)
                assert res == ct.CountResult(res.count, q + 1 - res.count, "exhaustive", 0,
                                             2 * (q + 1) - res.count)
    assert len(calls) == classes == len(spec._count_memo)


@pytest.mark.parametrize("first", [0, 1])
def test_count_memo_is_per_field(monkeypatch, first):
    """One coefficient vector counts 16 points under F_9's default modulus
    x^2 + 1 and 7 under x^2 + x + 2; counted under both, in either order,
    it keeps its own count in each field."""
    specs = ff.make_spec(3, 2), ff.make_spec(3, 2, (2, 1, 1))
    for spec in specs:
        monkeypatch.setattr(spec, "_count_memo", None)
    calls = _counted_exhaustive(monkeypatch)
    want = {specs[0]: 16, specs[1]: 7}
    order = specs if first == 0 else specs[::-1]
    for _ in range(2):
        for spec in order:
            assert ct.count_points(cv.Curve(spec, 0, 0, 0, 2, 3)).count == want[spec]
    assert len(calls) == 2


@pytest.mark.parametrize("q", [53, 32])
def test_count_memo_stays_off_above_49_and_in_char_2(monkeypatch, q):
    """method="exhaustive" above 49 and in characteristic 2 counts every call
    and creates no memo, also for two vectors with one completed square."""
    spec = ff.spec_for_q(q)
    monkeypatch.setattr(spec, "_count_memo", None)
    calls = _counted_exhaustive(monkeypatch)
    if spec.char2:
        e = same = cv.Curve(spec, 0, 0, 1, 1, 1)
    else:
        e, same = cv.Curve(spec, 0, 0, 0, 1, 1), cv.Curve(spec, 2, q - 1, 0, 1, 1)
        assert same.completed_model()[:3] == e.completed_model()[:3]
    counts = [ct.count_points(c, "exhaustive").count for c in (e, e, same)]
    assert counts == [cv.count_exhaustive(e)] * 3
    assert len(calls) == 3
    assert spec._count_memo is None


def test_count_point_order_matches_exhaustive_f1013():
    spec = ff.make_spec(1013)
    rng = random.Random(8)
    for _ in range(5):
        e = sample_random_curve(spec, rng)
        res = ct.count_points(e, "point_order", random.Random(0))
        assert res.method == "point_order"
        assert res.count == cv.count_exhaustive(e)
        assert res.count + res.twist_count == 2 * 1014
        assert res.count in hasse_interval(1013)


def test_count_excluded_field_error_and_fallback():
    e = cv.Curve(ff.make_spec(7, 2), 0, 0, 0, 31, 0)
    with pytest.raises(ExcludedField):
        ct.count_points(e, "point_order")
    res = ct.count_points(e, "auto")
    assert res.method == "exhaustive" and res.count == 36


def test_count_auto_uses_point_order_above_49():
    e = sample_random_curve(ff.make_spec(53), random.Random(1))
    res = ct.count_points(e, "auto", random.Random(0))
    assert res.method == "point_order"
    assert res.count == cv.count_exhaustive(e)


@pytest.mark.parametrize("off,msg", [(2, "Lagrange verification failed"), (10**6, "outside the Hasse interval")])
def test_count_final_check_fires(monkeypatch, off, msg):
    """A trace that the congruence does not give, off by 2 or by 10^6, is
    caught by count_points' final check: the count fails Lagrange on a
    fresh point, or lies outside the Hasse interval."""
    real = ct.unique_trace_candidate

    def wrong_trace(c, q):
        t = real(c, q)
        return None if t is None else t + off

    monkeypatch.setattr(ct, "unique_trace_candidate", wrong_trace)
    e = cv.Curve(ff.make_spec(1009), 0, 0, 0, 1, 7)
    with pytest.raises(InternalInvariantError, match=msg):
        ct.count_points(e, "auto", random.Random(1))


def test_count_bad_method():
    e = cv.Curve(ff.make_spec(5), 0, 0, 0, 1, 0)
    with pytest.raises(ValueError):
        ct.count_points(e, "magic")


def test_prime_field_count_builds_no_completed_law(monkeypatch):
    """Over F_p, p > 3, mul runs its Jacobian chain and the BSGS its residue
    blocks, so a count never builds the affine model's add, completed_law.
    Over F_3, where mul steps that add, and over F_{3^13} (polynomial
    model, above 2^20), where the BSGS steps it too, it is built on first
    use and the count is right."""
    rng = random.Random(26)
    spec = ff.make_spec(10**12 + 39)
    with monkeypatch.context() as mp:
        mp.setattr(cv, "completed_law", lambda *a: pytest.fail("completed_law in a prime-field count"))
        for _ in range(3):
            e = sample_random_curve(spec, rng)
            n = ct.count_points(e, "point_order", rng).count
            assert e.scalar_mul(n, cv.random_point(e, rng)).is_infinity
    built = []
    law = cv.completed_law
    monkeypatch.setattr(cv, "completed_law", lambda s, c2, c4: built.append(s.q) or law(s, c2, c4))
    e = cv.Curve(ff.make_spec(3), 0, 0, 0, 2, 0)  # y^2 = x^3 - x: #E = 4
    assert all(e.scalar_mul(4, pt).is_infinity for pt in cv.enumerate_points(e))
    e = sample_random_curve(ff.spec_for_q(3**13), rng)
    n = ct.count_points(e, "point_order", rng).count
    assert n in hasse_interval(3**13) and e.scalar_mul(n, cv.random_point(e, rng)).is_infinity
    assert set(built) == {3, 3**13}


def test_count_determinism_transcript():
    spec = ff.make_spec(1009)
    e = cv.Curve(spec, 0, 0, 0, 1, 1)
    s1, s2, s3 = od.Stats(), od.Stats(), od.Stats()
    r1 = ct.count_points(e, "point_order", random.Random(42), s1)
    r2 = ct.count_points(e, "point_order", random.Random(42), s2)
    assert r1 == r2 and s1 == s2 and len(s1.samples) == r1.samples_used
    r3 = ct.count_points(e, "point_order", random.Random(43), s3)
    assert s3.samples != s1.samples and r3.count == r1.count


def test_count_alternation_starts_on_curve():
    spec = ff.make_spec(211)
    e = sample_random_curve(spec, random.Random(2))
    stats = od.Stats()
    ct.count_points(e, "point_order", random.Random(0), stats)
    sides = [s for s, _, _ in stats.samples]
    assert sides == ["E", "E'"] * (len(sides) // 2) + (["E"] if len(sides) % 2 else [])


@pytest.mark.parametrize("q", [233, 3**7, 2**10])
def test_twist_built_only_when_sampled(q, monkeypatch):
    """A count settled by its first sample, on E, builds no twist; a count
    that needs a second sample builds exactly one, for that sample on E'."""
    built = []
    real = ct.quadratic_twist

    def spy(curve):
        built.append(curve)
        return real(curve)

    monkeypatch.setattr(ct, "quadratic_twist", spy)
    rng = random.Random(q)
    seen = set()
    for i in range(40):
        e = sample_random_curve(ff.spec_for_q(q), rng)
        built.clear()
        res = ct.count_points(e, "point_order", random.Random(i))
        assert built == ([] if res.samples_used == 1 else [e]), res
        seen.add(min(res.samples_used, 2))
    assert seen == {1, 2}


def test_hasse_invariant_congruence_past_1024():
    """t = N(A) (mod p) for y^2 = f(x) over F_q, q = p^k, with A the
    coefficient of x^(p-1) in f^((p-1)/2) and N(A) = A^((q-1)/(p-1)) its
    norm to F_p (Silverman, AEC V.4.1): for f = x^3 + c2 x^2 + c4 x + c6,
    the completed square, A = c2 at p = 3, c2^2 + 2 c4 at p = 5 and c2^3 +
    6 c2 c4 + 3 c6 at p = 7.  An oracle for count_points past q = 1024 on
    the field kernels alone: seeded random curves over F_{3^13}, F_{5^9}
    and F_{7^7}."""
    for p, k, n in ((3, 13, 6), (5, 9, 4), (7, 7, 20)):
        q = p**k
        spec = ff.spec_for_q(q)
        add, mul = spec.add_enc, spec.mul_enc
        rng = random.Random(q)
        for i in range(n):
            e = sample_random_curve(spec, rng)
            c2, c4, c6 = e.completed_model()[:3]
            if p == 3:
                a = c2
            elif p == 5:
                a = add(mul(c2, c2), mul(2, c4))
            else:
                a = add(add(mul(mul(c2, c2), c2), mul(6, mul(c2, c4))), mul(3, c6))
            norm = spec.pow_enc(a, (q - 1) // (p - 1))
            assert norm < p  # in the prime field
            res = ct.count_points(e, "point_order", random.Random(i))
            assert res.trace % p == norm, (q, e, res)


@pytest.mark.parametrize("q,n", [(10**12 + 39, 4), (3**7, 12), (2**10, 4), (3**13, 2)])
def test_stats_record_what_the_count_did(q, n, monkeypatch):
    """On a prime field with the priors, a Zech field, characteristic 2 and a
    polynomial field above 2^20 (3^7 and 2^10 each have a count of two
    samples): a Stats changes neither the count nor the rng's draws, holds
    one sample per sample used, on E, E', E, ..., each order dividing its
    side's count, and the logical adds of the count's BSGS calls, measured
    here call by call."""
    panel_rng = random.Random(q)
    curves = [sample_random_curve(ff.spec_for_q(q), panel_rng) for _ in range(n)]
    records = []
    for i, e in enumerate(curves):
        rng, plain_rng, stats = random.Random(i), random.Random(i), od.Stats()
        res = ct.count_points(e, "point_order", rng, stats)
        assert res == ct.count_points(e, "point_order", plain_rng)
        assert rng.getstate() == plain_rng.getstate()
        k = res.samples_used
        assert [side for side, _, _ in stats.samples] == ["E", "E'"] * (k // 2) + ["E"] * (k % 2)
        for side, _, order in stats.samples:
            assert (res.count if side == "E" else res.twist_count) % order == 0
        records.append((res, stats.adds))
    if q in (3**7, 2**10):
        assert max(res.samples_used for res, _ in records) == 2
    search, per_call = od.bsgs_annihilator, []

    def measured(e, pt, stats=None, trace=Congruence(0, 1)):
        own = od.Stats()
        m = search(e, pt, own, trace)
        per_call.append(own.adds)
        return m

    monkeypatch.setattr(ct, "bsgs_annihilator", measured)
    for i, (e, (res, adds)) in enumerate(zip(curves, records)):
        per_call.clear()
        assert ct.count_points(e, "point_order", random.Random(i)) == res
        assert len(per_call) == res.samples_used and sum(per_call) == adds > 0


def test_count_trivial_group_q2():
    # #E = 1 over F_2: the E-side samples are all infinity, the twist resolves t
    spec = ff.make_spec(2)
    e = cv.Curve(spec, 0, 0, 1, 1, 1)
    res = ct.count_points(e, "point_order", random.Random(0))
    assert res.count == 1 and res.trace == 2


# --- lambda and structure -----------------------------------------------------------

def test_lambda_exponent_table1():
    assert ct.lambda_exponent(cv.Curve(ff.make_spec(3), 0, 0, 0, 2, 0)) == 2
    assert ct.lambda_exponent(cv.Curve(ff.make_spec(2, 2), 0, 0, 1, 0, 3)) == 1
    e49 = cv.Curve(ff.make_spec(7, 2), 0, 0, 0, 31, 0)
    assert ct.lambda_exponent(e49) == 6
    assert ct.lambda_exponent(cv.quadratic_twist(e49)) == 8


def test_group_structure_examples():
    e4 = cv.Curve(ff.make_spec(2, 2), 0, 0, 1, 0, 3)
    assert ct.group_structure(e4) == ct.GroupStructure(1, 1)
    t4 = cv.quadratic_twist(e4)
    assert ct.group_structure(t4) == ct.GroupStructure(3, 3)
    e3 = cv.Curve(ff.make_spec(3), 0, 0, 0, 2, 0)
    assert ct.group_structure(e3) == ct.GroupStructure(2, 2)


def test_group_structure_cyclic_instance():
    # found by sweep: y^2 = x^3 + 2 over F_5 has 6 points and a point of order 6
    e = cv.Curve(ff.make_spec(5), 0, 0, 0, 0, 2)
    st = ct.group_structure(e)
    assert st.n1 == 1 and st.n2 == cv.count_exhaustive(e)


def test_structure_guard():
    spec = ff.make_spec(65537)
    e = cv.Curve(spec, 0, 0, 0, 1, 1)
    with pytest.raises(FieldTooLarge):
        ct.lambda_exponent(e)
    with pytest.raises(FieldTooLarge):
        ct.group_structure(e)


@pytest.mark.parametrize("q", [4, 5, 7, 9, 11, 16, 25, 27, 49, 81, 121])
def test_structure_invariants_random(q):
    spec = ff.spec_for_q(q)
    rng = random.Random(q * 13)
    for _ in range(8):
        e = sample_random_curve(spec, rng)
        st = ct.group_structure(e)
        n = cv.count_exhaustive(e)
        assert st.n1 * st.n2 == n
        assert st.n2 % st.n1 == 0
        assert (q - 1) % st.n1 == 0
        assert st.n2 == ct.lambda_exponent(e)


def test_twist_trace_negation():
    rng = random.Random(31)
    for q in [5, 9, 27, 64, 101]:
        spec = ff.spec_for_q(q)
        for _ in range(3):
            e = sample_random_curve(spec, rng)
            t = cv.quadratic_twist(e)
            assert (q + 1 - cv.count_exhaustive(t)) == -(q + 1 - cv.count_exhaustive(e))


def test_point_order_small_nonexcluded_fields():
    # the smallest fields outside the excluded set still terminate
    for q in [2, 8, 13, 19, 27, 31, 32, 37, 41, 43, 47]:
        spec = ff.spec_for_q(q)
        rng = random.Random(q)
        for _ in range(4):
            e = sample_random_curve(spec, rng)
            res = ct.count_points(e, "point_order", random.Random(q))
            assert res.count == cv.count_exhaustive(e)
            assert res.samples_used <= 64


# --- the 2-torsion prior and the restricted search -----------------------------------

@pytest.mark.parametrize("p", [53, 1009, 10**12 + 39])
def test_x_power_mod_matches_generic_powmod(p):
    """x^n modulo x^4 + e2 x^2 + e1 x + e0, the routine both torsion priors
    run, against the generic digit-list square-and-multiply, on random
    depressed quartics (e0 = 0 on every other one, the 2-torsion prior's x*f)
    and n from 1 to p."""
    rng = random.Random(p)
    for i in range(12):
        e0, e1, e2 = (0 if i % 2 else rng.randrange(p)), rng.randrange(p), rng.randrange(p)
        for n in (1, 2, 3, 4, 5, p - 1, p, rng.randrange(1, p + 1)):
            want = ff._poly_powmod([0, 1], n, [e0, e1, e2, 0, 1], p)
            assert ct._x_power_mod(n, e0, e1, e2, p) == tuple(want + [0] * (4 - len(want))), (e0, e1, e2, n)


def expected_prior(e):
    """The trace congruence read off the points P with 2P = O."""
    q = e.spec.q
    n2 = sum(pt == e.negate(pt) for pt in cv.enumerate_points(e))
    return {1: Congruence(q % 2, 2), 2: Congruence((q + 1) % 2, 2), 4: Congruence((q + 1) % 4, 4)}[n2]


@pytest.mark.parametrize("p", [53, 101])
def test_two_torsion_prior_every_short_curve(p):
    """On y^2 = x^3 + a4 x + a6 the points with 2P = O are infinity and the
    (x, 0) with x a root; the roots are counted by trying every x, and
    checked against enumerate_points on every tenth curve."""
    spec = ff.make_spec(p)
    for a4 in range(p):
        for a6 in range(p):
            try:
                e = cv.Curve(spec, 0, 0, 0, a4, a6)
            except SingularCurve:
                continue
            n2 = 1 + sum((x * x * x + a4 * x + a6) % p == 0 for x in range(p))
            expected = {1: Congruence(1, 2), 2: Congruence(0, 2), 4: Congruence((p + 1) % 4, 4)}[n2]
            if (a4 * p + a6) % 10 == 0:
                assert expected == expected_prior(e)
            assert ct._two_torsion_prior(e, descent=False) == expected, (a4, a6)


@pytest.mark.parametrize("p", [53, 101, 1009])
def test_two_torsion_prior_long_form(p):
    """Long-form curves, where c2 of the completed square is not 0: the prior
    against the 2-torsion points, and with descent against t from
    count_exhaustive, which is t mod 4 wherever the cubic has one root."""
    spec = ff.make_spec(p)
    rng = random.Random(p)
    seen, one_root = set(), set()
    for _ in range(200):
        e = sample_random_curve(spec, rng)
        prior = ct._two_torsion_prior(e, descent=False)
        assert prior == expected_prior(e)
        seen.add(prior.m)
        with_descent = ct._two_torsion_prior(e, descent=True)
        n = cv.count_exhaustive(e)
        assert (p + 1 - n) % with_descent.m == with_descent.a
        if not spec.is_square_enc(e.discriminant):
            assert with_descent.m == 4
            one_root.add(n % 4)
    assert seen == {2, 4}
    assert one_root == {0, 2}


@pytest.mark.parametrize("p", [53, 101, 103])
def test_two_torsion_descent_every_short_curve(p):
    """With descent, every short curve against t from count_exhaustive: where
    the cubic has one root the prior is t mod 4, and both 4 | #E and #E = 2
    (mod 4) occur; elsewhere it is the prior without descent."""
    spec = ff.make_spec(p)
    one_root = set()
    for a4 in range(p):
        for a6 in range(p):
            try:
                e = cv.Curve(spec, 0, 0, 0, a4, a6)
            except SingularCurve:
                continue
            prior = ct._two_torsion_prior(e, descent=True)
            n = cv.count_exhaustive(e)
            assert (p + 1 - n) % prior.m == prior.a, (a4, a6)
            if spec.is_square_enc(e.discriminant):
                assert prior == ct._two_torsion_prior(e, descent=False), (a4, a6)
            else:
                assert prior.m == 4, (a4, a6)
                one_root.add(n % 4)
    assert one_root == {0, 2}


def next_supersingular_prime(p):
    """The least prime >= p that is 11 (mod 12)."""
    while not (p % 12 == 11 and is_prime(p)):
        p += 1
    return p


@pytest.mark.parametrize("p", [10**12 + 39, 2**61 - 1])
def test_two_torsion_prior_supersingular_families(p):
    """y^2 = x^3 + a x (p = 3 mod 4) and y^2 = x^3 + b (p = 2 mod 3) have p + 1
    points, so the prior must admit t = 0: three 2-torsion roots exactly when
    -a is a square (a a non-square), and always one root x = -b^(1/3).  Neither
    prime is 2 mod 3, so y^2 = x^3 + b is checked at the nearest such prime.
    With descent the one-root members give t = 0 (mod 4): f'(0) = a is a
    square, and f'(x0) = 3 x0^2 is one at p = 11 (mod 12), where 3 is."""
    spec = ff.make_spec(p)
    assert p % 4 == 3
    for a in range(1, 40):
        e = cv.Curve(spec, 0, 0, 0, a, 0)
        prior = ct._two_torsion_prior(e, descent=False)
        assert prior == (Congruence(0, 2) if spec.is_square_enc(a) else Congruence(0, 4))
        assert ct._two_torsion_prior(e, descent=True) == Congruence(0, 4)
    p3 = next_supersingular_prime(p)
    spec3 = ff.make_spec(p3)
    assert spec3.is_square_enc(3)
    for b in range(1, 40):
        e = cv.Curve(spec3, 0, 0, 0, 0, b)
        assert ct._two_torsion_prior(e, descent=False) == Congruence(0, 2)
        assert ct._two_torsion_prior(e, descent=True) == Congruence(0, 4)
    e = cv.Curve(spec3, 0, 0, 0, 0, 1)
    assert ct.count_points(e, "point_order", random.Random(1)).count == p3 + 1


# --- the 3-torsion prior --------------------------------------------------------------

def psi3_roots(p, a4, a6):
    """The x in F_p with psi_3(x) = 3x^4 + 6 a4 x^2 + 12 a6 x - a4^2 = 0, by trial."""
    return sum((3 * x**4 + 6 * a4 * x * x + 12 * a6 * x - a4 * a4) % p == 0 for x in range(p))


@pytest.mark.parametrize("p,degrees", [(61, {0, 1, 4}), (67, {0, 1, 4}), (59, {0, 2})])
def test_three_torsion_prior_every_short_curve(p, degrees):
    """Every short curve against t from count_exhaustive.  The roots of psi_3
    in F_p, counted by trial, give deg gcd(x^p - x, psi_3); every degree the
    residue class of p allows is reached (four roots both with a4 = 0, where
    x = 0 is one, and without), and only p = 2 (mod 3) without a root leaves
    t mod 3 open.  3 is a square mod 61 and not mod 67."""
    spec = ff.make_spec(p)
    seen, four_roots = set(), set()
    for a4 in range(p):
        for a6 in range(p):
            try:
                e = cv.Curve(spec, 0, 0, 0, a4, a6)
            except SingularCurve:
                continue
            prior = ct._three_torsion_prior(e)
            t = p + 1 - cv.count_exhaustive(e)
            deg = psi3_roots(p, a4, a6)
            seen.add(deg)
            if deg == 4:
                four_roots.add(a4 == 0)
            assert prior.m == (1 if p % 3 == 2 and deg == 0 else 3), (a4, a6)
            assert t % prior.m == prior.a, (a4, a6)
    assert seen == degrees
    assert four_roots == ({True, False} if 4 in degrees else set())


def test_three_torsion_prior_full_three_torsion():
    """At p = 61, y^2 = x^3 + 5 and y^2 = x^3 + 2 have all of E[3] rational on
    E or on E' (four roots of psi_3, t = 2 resp. 1 mod 3 as Frobenius is +1 resp.
    -1 on E[3])."""
    spec = ff.make_spec(61)
    for b, a in ((5, 2), (2, 1)):
        e = cv.Curve(spec, 0, 0, 0, 0, b)
        assert psi3_roots(61, 0, b) == 4
        assert ct._three_torsion_prior(e) == Congruence(a, 3)
        assert (62 - cv.count_exhaustive(e)) % 3 == a


@pytest.mark.parametrize("p", [1009, 1013])
def test_three_torsion_prior_long_form(p):
    spec = ff.make_spec(p)
    rng = random.Random(p)
    seen = set()
    for _ in range(200):
        e = sample_random_curve(spec, rng)
        prior = ct._three_torsion_prior(e)
        assert (p + 1 - cv.count_exhaustive(e)) % prior.m == prior.a
        seen.add(prior)
    if p % 3 == 1:
        assert seen == {Congruence(a, 3) for a in range(3)}
    else:
        assert seen == {Congruence(0, 1), Congruence(0, 3)}


@pytest.mark.parametrize("p", [10**12 + 39, 2**61 - 1])
def test_three_torsion_prior_supersingular_families(p):
    """t = 0 on y^2 = x^3 + a x (p = 3 mod 4): with p = 1 (mod 3) Frobenius
    fixes no line of E[3].  At the next p = 11 (mod 12) y^2 = x^3 + b has t = 0
    too, and with p = 2 (mod 3) only the two eigenlines give t = 0 (mod 3)."""
    spec = ff.make_spec(p)
    assert p % 12 == 7
    for a in range(1, 20):
        assert ct._three_torsion_prior(cv.Curve(spec, 0, 0, 0, a, 0)) == Congruence(0, 3)
    spec11 = ff.make_spec(next_supersingular_prime(p))
    for b in range(1, 20):
        assert ct._three_torsion_prior(cv.Curve(spec11, 0, 0, 0, 0, b)) == Congruence(0, 3)


@pytest.mark.parametrize("bits,residue", [(40, r) for r in (1, 5, 7, 11)] + [(61, 1), (61, 11)])
def test_three_torsion_prior_on_cm_panel(bits, residue):
    """The 3-torsion prior and the 2-torsion prior with descent, which count_points
    runs at these sizes, both admit the trace found."""
    for e, traces in cm_panel(bits, residue, random.Random(bits * 12 + residue + 3)):
        res = ct.count_points(e, "point_order", random.Random(bits))
        assert res.trace in traces
        for prior in (ct._three_torsion_prior(e), ct._two_torsion_prior(e, descent=True)):
            assert res.trace % prior.m == prior.a


def search_every_trace(monkeypatch):
    """Drop the congruence from counting's BSGS calls, so that each searches
    every trace; the count's Stats still gets their adds."""
    search = od.bsgs_annihilator
    monkeypatch.setattr(ct, "bsgs_annihilator", lambda e, pt, stats=None, trace=None: search(e, pt, stats))


def count_panel(curves):
    """Count curve i with Random(i), every count recording in one Stats: the
    CountResults and the mean logical adds per BSGS search."""
    stats = od.Stats()
    results = [ct.count_points(e, "point_order", random.Random(i), stats) for i, e in enumerate(curves)]
    assert stats.adds > 0
    return results, stats.adds / len(stats.samples)


@pytest.mark.parametrize(
    "q,n", [(1009, 20), (65537, 12), (10**6 + 3, 12), (10**12 + 39, 20), (3**7, 20), (2**10, 20)])
def test_restricted_search_keeps_every_count(q, n, monkeypatch):
    spec = ff.spec_for_q(q)
    rng = random.Random(q + 9)
    curves = [sample_random_curve(spec, rng) for _ in range(n)]
    restricted = [ct.count_points(e, "point_order", random.Random(i)) for i, e in enumerate(curves)]
    search_every_trace(monkeypatch)
    plain = [ct.count_points(e, "point_order", random.Random(i)) for i, e in enumerate(curves)]
    assert restricted == plain


def test_two_torsion_prior_cuts_bsgs_work(monkeypatch):
    """Deterministic budget at 10^12+39: the prior (about one sample per curve,
    so the loop's own congruence is mostly trivial) cuts the mean logical BSGS
    adds per call by at least a quarter."""
    spec = ff.make_spec(10**12 + 39)
    rng = random.Random(12)
    curves = [sample_random_curve(spec, rng) for _ in range(20)]
    _, with_prior = count_panel(curves)
    search_every_trace(monkeypatch)
    _, without = count_panel(curves)
    assert with_prior <= 0.75 * without


def test_three_torsion_prior_cuts_bsgs_work(monkeypatch):
    """Deterministic budget at 10^12+39 (p = 1 mod 3, so t mod 3 is always
    known): both priors cut the mean logical BSGS adds per call to at most
    0.7 of the search under the 2-torsion prior alone (sqrt(1/3) = 0.58).
    Both sides run the 2-torsion prior with its descent; the 3-torsion prior
    is replaced by the trivial congruence on the second."""
    spec = ff.make_spec(10**12 + 39)
    rng = random.Random(12)
    curves = [sample_random_curve(spec, rng) for _ in range(20)]
    _, both = count_panel(curves)
    monkeypatch.setattr(ct, "_three_torsion_prior", lambda e: Congruence(0, 1))
    _, two_only = count_panel(curves)
    assert both <= 0.7 * two_only


def test_two_descent_cuts_bsgs_work(monkeypatch):
    """Deterministic budget at 10^12+39: t mod 4 on the one-root half of the
    curves (a factor sqrt(2) there, 0.85 predicted) cuts the mean logical BSGS
    adds per call to at most 0.9 of the search with t mod 2 there, with the
    same results."""
    spec = ff.make_spec(10**12 + 39)
    rng = random.Random(12)
    curves = [sample_random_curve(spec, rng) for _ in range(20)]
    prior = ct._two_torsion_prior
    results, with_step = count_panel(curves)
    monkeypatch.setattr(ct, "_two_torsion_prior", lambda e, descent: prior(e, False))
    plain, without = count_panel(curves)
    assert results == plain
    assert with_step <= 0.9 * without



def test_centre_out_bsgs_cuts_work():
    """Deterministic budget at 10^12+39: the giant walk from the centre of the
    interval outward, with the smaller baby table, cuts the mean logical BSGS
    adds per count_points call to at most 0.92 of those of the walk from one
    end on the same panel: 15450 adds over the same 20 calls (772.5 each).
    The traces of random curves cluster near 0, where the walk starts."""
    spec = ff.make_spec(10**12 + 39)
    rng = random.Random(12)
    curves = [sample_random_curve(spec, rng) for _ in range(20)]
    results, adds = count_panel(curves)
    assert sum(r.samples_used for r in results) == 20
    assert adds <= 0.92 * 15450 / 20
