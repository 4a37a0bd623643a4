import collections
import itertools
import random

import numpy as np
import pytest

from hassecount import curve as cv
from hassecount import finite_field as ff
from hassecount.counting import count_points
from hassecount.errors import FieldTooLarge, PointNotOnCurve, SingularCurve, SpecMismatch
from hassecount.integers import is_prime, prime_powers
from hassecount.order import hasse_interval
from hassecount.sweep import sample_random_curve


def table1_curve(q):
    """The worked examples used across this file, in this package's field model."""
    spec = ff.spec_for_q(q)
    coeffs = {
        3: (0, 0, 0, 2, 0),  # y^2 = x^3 - x
        4: (0, 0, 1, 0, 3),  # y^2 + y = x^3 + alpha^2
        5: (0, 0, 0, 1, 0),  # y^2 = x^3 + x
        7: (0, 0, 0, 0, 6),  # y^2 = x^3 - 1
        16: (0, 0, 1, 0, 0),  # y^2 + y = x^3
        49: (0, 0, 0, 31, 0),  # y^2 = x^3 + alpha^2 x
    }[q]
    return cv.Curve(spec, *coeffs)


# --- construction -----------------------------------------------------------------

def test_curve_examples():
    assert table1_curve(3).discriminant != 0
    assert table1_curve(4).discriminant != 0
    with pytest.raises(SingularCurve):
        cv.Curve(ff.make_spec(5), 0, 0, 0, 0, 0)


def test_curve_coefficient_inputs():
    spec = ff.spec_for_q(9)
    e = cv.Curve(spec, 0, 1, 0, 1, 2)
    assert cv.Curve(spec, np.int64(0), True, 0, spec.element(1), [2]) == e
    alpha = spec.element((0, 1))
    assert cv.Curve(spec, 0, 0, 0, alpha, [1, 1]).coefficients() == (0, 0, 0, 3, 4)
    for bad in (9, -1, [0, 3], [1, 1, 1]):
        with pytest.raises(ValueError):
            cv.Curve(spec, 0, 0, 0, bad, 1)
    with pytest.raises(SpecMismatch):
        cv.Curve(spec, 0, 0, 0, ff.spec_for_q(3).element(1), 0)


def b_formula_discriminant(spec, a1, a2, a3, a4, a6):
    """The long form's discriminant from b2, b4, b6 and b8 on the field
    kernels, as the constructor took it before it used the completed square."""
    add, sub, mul, p = spec.add_enc, spec.sub_enc, spec.mul_enc, spec.p
    b2 = add(mul(a1, a1), mul(4 % p, a2))
    b4 = add(mul(2 % p, a4), mul(a1, a3))
    b6 = add(mul(a3, a3), mul(4 % p, a6))
    b8 = sub(add(mul(b2, a6), mul(a2, mul(a3, a3))), mul(a4, add(mul(a1, a3), a4)))
    disc = sub(mul(b6, sub(mul(9 % p, mul(b2, b4)), mul(27 % p, b6))), mul(mul(b2, b2), b8))
    return sub(disc, mul(8 % p, mul(b4, mul(b4, b4))))


def kernel_completed_model(spec, a1, a2, a3, a4, a6):
    """(c2, c4, c6, h1, h3) of the completed square on the field kernels."""
    add, mul = spec.add_enc, spec.mul_enc
    h1, h3 = (mul(a, (spec.p + 1) // 2) for a in (a1, a3))
    return add(a2, mul(h1, h1)), add(a4, mul(h1, a3)), add(a6, mul(h3, h3)), h1, h3


def singular_long_form(spec, rng, a1=None, a3=None):
    """A random long form whose completed square is (x - r)^2 (x - s), with
    the given a1 and a3 or random ones."""
    q, add, sub, mul, neg = spec.q, spec.add_enc, spec.sub_enc, spec.mul_enc, spec.neg_enc
    r, s = rng.randrange(q), rng.randrange(q)
    c2 = neg(add(add(r, r), s))
    c4 = add(mul(r, r), mul(add(r, r), s))
    c6 = neg(mul(mul(r, r), s))
    if a1 is None:
        a1, a3 = rng.randrange(q), rng.randrange(q)
    h1, h3 = (mul(a, (spec.p + 1) // 2) for a in (a1, a3))
    return a1, sub(c2, mul(h1, h1)), a3, sub(c4, mul(h1, a3)), sub(c6, mul(h3, h3))


def zech_patterns(spec):
    """Every vector over {0, 1, -1, alpha} in all five coefficients: zero and
    nonzero in each position, and -1, whose log is (q-1)/2."""
    vals = (0, 1, spec.neg_enc(1), spec._generator())
    return list(itertools.product(vals, repeat=5))


@pytest.mark.parametrize(
    "q", [3, 5, 7, 1009, 10**12 + 39, 2**61 - 1, 2**62 - 57, 9, 25, 27, 49, 81, 121, 125, 243, 3**7,
          5**4, 7**3, 3**12, 3**13, 2, 4, 256, 2**21]
)
def test_discriminant_matches_b_formula(q):
    """Random vectors on every field model (prime, over the integers up to
    the largest prime below 2^62; odd log tables, from per-field tables up
    to 49 and on the kernels above it; polynomial at 3^13; characteristic 2
    on log tables and, at 2^21, on bit vectors), and long
    forms of singular completed squares in odd characteristic.  In odd
    characteristic the completed square matches the field kernels'.  The
    odd log-table fields also take every {0, 1, -1, alpha} pattern
    (zech_patterns)."""
    spec = ff.spec_for_q(q)
    rng = random.Random(q)
    vectors = [tuple(rng.randrange(q) for _ in range(5)) for _ in range(150)]
    if not spec.char2:
        vectors += [singular_long_form(spec, rng) for _ in range(10)]
    if spec._zech is not None:
        vectors += zech_patterns(spec)
    singular = 0
    for co in vectors:
        ref = b_formula_discriminant(spec, *co)
        if ref == 0:
            singular += 1
            with pytest.raises(SingularCurve):
                cv.Curve(spec, *co)
        else:
            e = cv.Curve(spec, *co)
            assert e.discriminant == ref, co
            if not spec.char2:
                assert e.completed_model() == kernel_completed_model(spec, *co), co
    assert singular >= (0 if spec.char2 else 10)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 2, 4])
def test_singular_exactly_on_b_formula_zeros(q):
    """All q^5 coefficient vectors."""
    spec = ff.spec_for_q(q)
    for i in range(q**5):
        co = tuple(i // q**j % q for j in range(5))
        ref = b_formula_discriminant(spec, *co)
        try:
            disc = cv.Curve(spec, *co).discriminant
        except SingularCurve:
            assert ref == 0, co
        else:
            assert disc == ref != 0, co


@pytest.mark.parametrize("spec", [
    ff.make_spec(3, 2), ff.make_spec(5, 2), ff.make_spec(3, 3),
    ff.make_spec(3, 2, (2, 1, 1)), ff.make_spec(5, 2, (2, 1, 1)),
], ids=["9", "25", "27", "9-x2+x+2", "25-x2+x+2"])
def test_table_fields_every_completed_square(spec):
    """The odd extension fields up to 49 build curves from the field's
    tables (_curve_tables), also under a modulus that is not the default:
    on every completed square y^2 = x^3 + c2 x^2 + c4 x + c6 the
    discriminant is the b-formula's, and SingularCurve is raised exactly on
    its zeros."""
    q = spec.q
    singular = 0
    for c2, c4, c6 in itertools.product(range(q), repeat=3):
        ref = b_formula_discriminant(spec, 0, c2, 0, c4, c6)
        try:
            e = cv.Curve(spec, 0, c2, 0, c4, c6)
        except SingularCurve:
            assert ref == 0, (c2, c4, c6)
            singular += 1
        else:
            assert e.discriminant == ref != 0, (c2, c4, c6)
            assert e.completed_model() == (c2, c4, c6, 0, 0)
    assert singular == q * q  # the singular monic cubics: (x - r)^2 (x - s)


def test_table_field_49_every_a1_a3():
    """F_49 on every (a1, a3) pair, with seeded (a2, a4, a6): the completed
    square is the kernels' and the discriminant the b-formula's."""
    spec = ff.make_spec(7, 2)
    rng = random.Random(49)
    singular = 0
    for a1, a3 in itertools.product(range(49), repeat=2):
        if a1 == a3:  # a singular long form on each diagonal pair
            co = singular_long_form(spec, rng, a1, a3)
        else:
            co = (a1, rng.randrange(49), a3, rng.randrange(49), rng.randrange(49))
        ref = b_formula_discriminant(spec, *co)
        try:
            e = cv.Curve(spec, *co)
        except SingularCurve:
            assert ref == 0, co
            singular += 1
        else:
            assert e.discriminant == ref != 0, co
            assert e.completed_model() == kernel_completed_model(spec, *co), co
    assert singular >= 49


def test_curve_tables_built_once_on_first_curve(monkeypatch):
    """A table field builds its tables on its first curve, once; a prime
    field and the odd extension fields above 49 build none."""
    builds = []
    real = cv._curve_tables
    monkeypatch.setattr(cv, "_curve_tables", lambda spec: builds.append(spec.q) or real(spec))
    spec = ff.FieldSpec(5, 2, ff.make_spec(5, 2).modulus)  # a fresh spec, not the cached one
    assert spec._curve_tables is None
    cv.Curve(spec, 0, 0, 0, 1, 0)
    tables = spec._curve_tables
    assert builds == [25] and tables is not None
    for co in ((1, 2, 3, 4, 5), (0, 0, 0, 0, 0)):
        try:
            cv.Curve(spec, *co)
        except SingularCurve:
            pass
    assert builds == [25] and spec._curve_tables is tables
    for q in (7, 1009, 81, 121, 3**7, 4):
        other = ff.spec_for_q(q)
        cv.Curve(other, *sample_random_curve(other, random.Random(q)).coefficients())
        assert other._curve_tables is None
    assert builds == [25]


@pytest.mark.parametrize("q,co", [
    (7, None), (9, (0, 0, 0, 0, 0)), (81, None), (121, None), (4, (0, 1, 0, 1, 1)),
])
def test_singular_message_on_every_branch(q, co):
    """SingularCurve keeps the coefficient encodings and q and formats the
    message that the CLI prints from them, on each branch of the
    constructor: prime fields, the tables up to 49, the kernels above it
    (81 and 121), characteristic 2."""
    spec = ff.spec_for_q(q)
    if co is None:
        co = singular_long_form(spec, random.Random(q))
    assert b_formula_discriminant(spec, *co) == 0
    with pytest.raises(SingularCurve) as info:
        cv.Curve(spec, *(spec.element(c) for c in co))
    assert info.value.coefficients == co and info.value.q == q
    assert str(info.value) == f"discriminant vanishes for {co} over F_{q}"


@pytest.mark.parametrize("q", [7, 9, 4])
def test_coefficients_validated_in_every_position(q):
    """A FieldElement, a bool, a numpy integer or a coefficient list in any
    one position is converted by the field; an out-of-range or negative
    encoding, or an element of another field, is refused."""
    spec = ff.spec_for_q(q)
    base = [1, 1, 0, 1, 1] if q % 2 else [1, 0, 0, 0, 1]  # both nonsingular
    e = cv.Curve(spec, *base)
    for pos in range(5):
        def at(v):
            co = list(base)
            co[pos] = v
            return co
        value = base[pos]
        for same in (spec.element(value), bool(value), np.int64(value), list(spec.decode(value))):
            assert cv.Curve(spec, *at(same)) == e
        for bad in (q, -1, q + value):
            with pytest.raises(ValueError):
                cv.Curve(spec, *at(bad))
        with pytest.raises(SpecMismatch):
            cv.Curve(spec, *at(ff.spec_for_q(5 if q != 5 else 3).element(value)))


@pytest.mark.parametrize("q", [5, 1009, 10**12 + 39, 2**61 - 1])
def test_short_model_maps_the_completed_square(q):
    """Curve.short_model's (s, a, b): x' = x + s takes each point (x, y') of
    the completed square to y'^2 = x'^3 + a x' + b; the triple is computed
    once and kept.  Fields without one (F_3, extension fields,
    characteristic 2) raise ValueError."""
    spec = ff.make_spec(q)
    rng = random.Random(q)
    for _ in range(5):
        e = sample_random_curve(spec, rng)
        s, a, b = short = e.short_model()
        assert e.short_model() is short
        for _ in range(3):
            x, y = e.to_completed(cv.random_point(e, rng))
            assert (y * y - ((x + s) ** 3 + a * (x + s) + b)) % q == 0
    for other in (3, 9, 2**7):
        e = sample_random_curve(ff.spec_for_q(other), rng)
        with pytest.raises(ValueError):
            e.short_model()


def test_is_on_curve_examples():
    e = table1_curve(3)
    assert e.is_on_curve(e.point(0, 0))
    with pytest.raises(PointNotOnCurve):
        e.point(1, 1)
    assert e.is_on_curve(e.infinity())


# --- group law --------------------------------------------------------------------

def test_add_points_examples():
    e5 = table1_curve(5)
    p = e5.point(0, 0)
    assert e5.add_points(p, p).is_infinity
    assert e5.scalar_mul(0, p).is_infinity
    e3 = table1_curve(3)
    for p in cv.enumerate_points(e3):
        assert e3.scalar_mul(4, p).is_infinity


def test_scalar_mul_negative():
    e = table1_curve(7)
    pts = [p for p in cv.enumerate_points(e) if not p.is_infinity]
    p = pts[0]
    assert e.scalar_mul(-1, p) == e.negate(p)
    assert e.scalar_mul(-3, p) == e.negate(e.scalar_mul(3, p))


@pytest.mark.parametrize("q", [4, 8, 27, 9, 5, 49, 121, 16])
def test_group_law_axioms(q):
    spec = ff.spec_for_q(q)
    rng = random.Random(q * 7 + 1)
    e = sample_random_curve(spec, rng)
    pts = cv.enumerate_points(e)
    n = len(pts)
    for _ in range(500):
        p, s, r = (pts[rng.randrange(n)] for _ in range(3))
        left = e.add_points(e.add_points(p, s), r)
        right = e.add_points(p, e.add_points(s, r))
        assert left == right
        assert e.add_points(p, s) == e.add_points(s, p)
        assert e.add_points(p, e.negate(p)).is_infinity
        assert e.add_points(p, e.infinity()) == p
        assert e.is_on_curve(e.add_points(p, s))


def reference_add(e, p, s):
    """The chord-tangent law in textbook form on FieldElement operators, as a
    reference for Curve.add_points, which evaluates it rearranged on
    encodings.  Returns the (x, y) encodings of p + s, or None for infinity."""
    if p.is_infinity or s.is_infinity:
        r = s if p.is_infinity else p
        return None if r.is_infinity else (r.x, r.y)
    a1, a2, a3, a4, _ = (e.spec.element(c) for c in e.coefficients())
    x1, y1, x2, y2 = (e.spec.element(c) for c in (p.x, p.y, s.x, s.y))
    if x1 == x2:
        if y2 == -y1 - a1 * x1 - a3:
            return None
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / (2 * y1 + a1 * x1 + a3)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam * (x3 - x1) + y1) - a1 * x3 - a3
    return (x3.enc, y3.enc)


@pytest.mark.parametrize("q", [1013, 10**12 + 39, 243, 128, 2187])
def test_add_points_matches_reference(q):
    spec = ff.spec_for_q(q)
    rng = random.Random(q + 3)
    for _ in range(4):
        e = sample_random_curve(spec, rng)
        pts = [cv.random_point(e, rng) for _ in range(10)]
        for p, s in zip(pts, pts[1:]):
            for a, b in ((p, s), (p, p), (p, e.negate(p)), (p, e.infinity())):
                r = e.add_points(a, b)
                assert (None if r.is_infinity else (r.x, r.y)) == reference_add(e, a, b)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 4, 8, 16])
def test_add_points_small_primes_every_pair(q):
    """add_points (long_add on the FieldSpec kernels) against the reference
    on every pair of points over F_2, F_3, F_5 and F_7, and over F_4, F_8
    and F_16, where the list gives supersingular (a1 = 0) and ordinary
    curves: doubling, P + (-P) and 2-torsion included."""
    spec = ff.spec_for_q(q)
    for coeffs in [(1, 0, 1, 0, 1), (0, 0, 1, 1, 0), (1, 1, 0, 0, 1), (0, 1, 0, 1, 1), (0, 0, 0, 1, 1)]:
        try:
            e = cv.Curve(spec, *coeffs)
        except SingularCurve:
            continue
        pts = cv.enumerate_points(e)
        for a in pts:
            for b in pts:
                r = e.add_points(a, b)
                assert (None if r.is_infinity else (r.x, r.y)) == reference_add(e, a, b)


def scalar_mul_panel(q):
    """Curves over F_q with a1, a3 != 0: one with a point of order 2 and, in
    odd characteristic, one without; in odd characteristic also
    y^2 = x^3 - x, whose 2-torsion is all rational."""
    spec = ff.spec_for_q(q)
    rng = random.Random(q)
    curves = {}
    for _ in range(200):
        e = sample_random_curve(spec, rng)
        if e.a1 and e.a3:
            two_torsion = any(p == e.negate(p) for p in cv.enumerate_points(e)[1:])
            curves.setdefault(two_torsion, e)
    if not spec.char2:
        curves["x^3 - x"] = cv.Curve(spec, 0, 0, 0, spec.neg_enc(1), 0)
    return list(curves.values())


@pytest.mark.parametrize("q", [3, 5, 9, 25, 27, 49, 81, 121, 125, 243, 343])
def test_completed_add_matches_add_points(q):
    """completed_law's add, mapped through the completed square
    (to_completed, from_completed), and the add of the curve's affine model
    (log coordinates where the field has Zech tables; F_5's model has no
    add), mapped through its own to and back, against add_points on every
    pair of points (above 125 every point against a sample holding the
    points with a zero coordinate), with doubling, P + (-P), doubling a
    2-torsion point, infinity operands and a zero coordinate on the
    completed square, the log model's sentinel, all among them.  The panel
    holds a curve with c2 = 0."""
    seen = set()
    panel = scalar_mul_panel(q)
    assert any(0 in e.completed_model()[:2] for e in panel)
    for e in panel:
        to, add, _, back = e.affine_model()
        laws = [(e.to_completed, cv.completed_law(e.spec, *e.completed_model()[:2]), e.from_completed)]
        if add is not None:
            laws.append((lambda pt: to(e, pt), add, lambda x, y: back(e, x, y)))
        assert (add is None) == (q == 5)
        pts = cv.enumerate_points(e)
        others = pts
        if q > 125:
            zero = [pt for pt in pts[1:] if 0 in e.to_completed(pt)]
            others = [pts[0], *zero, *random.Random(q).sample(pts[1:], 24)]
        for a in pts:
            for b in others:
                r = e.add_points(a, b)
                for to_law, add_law, back_law in laws:
                    assert back_law(*add_law(*to_law(a), *to_law(b))) == r, (e, a, b)
                if a.is_infinity or b.is_infinity:
                    seen.add("infinity")
                elif a == b:
                    seen.add("2-torsion" if a == e.negate(a) else "doubling")
                elif a == e.negate(b):
                    seen.add("P + (-P)")
                if any(0 in e.to_completed(pt) for pt in (a, b, r)):
                    seen.add("zero")
    assert seen == {"infinity", "doubling", "2-torsion", "P + (-P)", "zero"}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 11, 13, 25, 27, 49, 101])
def test_scalar_mul_matches_repeated_adds(q, monkeypatch):
    """n*P for every point and every n in [-2N-1, 2N+1], N = #E, equals n
    repeated adds of P (or of -P): the Jacobian chain in F_p, p > 3, and
    the affine chain on the curve's model everywhere else (the completed
    square in F_3, log coordinates in the odd extension fields, the long
    form through long_add in characteristic 2).  Neither chain calls
    add_points."""
    curves = scalar_mul_panel(q)
    spec = ff.spec_for_q(q)
    if spec.k != 1 or q == 3 or q == 2:
        monkeypatch.setattr(cv, "_jacobian_mul", lambda *a: pytest.fail("Jacobian chain used"))
    assert q % 2 == 0 or len(curves) == 3  # ordinary char-2 curves all have 2-torsion
    for e in curves:
        pts = cv.enumerate_points(e)
        bound = 2 * len(pts) + 1
        expected = []  # (P, sign, [0*step, 1*step, ..., bound*step]), step = sign*P
        for p in pts:
            for sign, step in ((1, p), (-1, e.negate(p))):
                acc, row = e.infinity(), []
                for _ in range(bound + 1):
                    row.append(acc)
                    acc = e.add_points(acc, step)
                expected.append((p, sign, row))
        with monkeypatch.context() as m:
            m.setattr(cv.Curve, "add_points", lambda *a: pytest.fail("add_points in scalar_mul"))
            for p, sign, row in expected:
                for n, r in enumerate(row):
                    assert e.scalar_mul(sign * n, p) == r, (e, p, sign * n)


def affine_mul(e, n, p):
    """n*P (n >= 0) by right-to-left double-and-add on add_points."""
    acc = e.infinity()
    while n:
        if n & 1:
            acc = e.add_points(acc, p)
        p = e.add_points(p, p)
        n >>= 1
    return acc


@pytest.mark.parametrize("q", [10**12 + 39, 2**61 - 1])
def test_scalar_mul_large_primes(q):
    """Both primes are 3 mod 4, so y^2 = x^3 + x and every long-form model of
    it (x -> x + r, y -> y + s x + t) has q + 1 points."""
    spec = ff.spec_for_q(q)
    assert q % 4 == 3
    rng = random.Random(q)
    for _ in range(4):
        r, s, t = (rng.randrange(q) for _ in range(3))
        # Silverman, Table 3.1, with u = 1
        e = cv.Curve(spec, 2 * s % q, (3 * r - s * s) % q, 2 * t % q,
                          (1 + 3 * r * r - 2 * s * t) % q, (r + r**3 - t * t) % q)
        for _ in range(3):
            p = cv.random_point(e, rng)
            assert e.scalar_mul(q + 1, p).is_infinity
            assert e.scalar_mul(q, p) == e.negate(p)
            n = rng.randrange(1, q)
            assert e.scalar_mul(n, p) == affine_mul(e, n, p)
            assert e.scalar_mul(-n, p) == e.negate(affine_mul(e, n, p))


@pytest.mark.parametrize("q", [3**7, 3**13])
def test_scalar_mul_odd_extension_samples(q):
    """Sampled n*P and -n*P against affine_mul in the log model (3^7) and
    the polynomial model (3^13)."""
    spec = ff.spec_for_q(q)
    rng = random.Random(q)
    for _ in range(2):
        e = sample_random_curve(spec, rng)
        p = cv.random_point(e, rng)
        for _ in range(2):
            n = rng.randrange(1, 4 * q)
            assert e.scalar_mul(n, p) == affine_mul(e, n, p)
            assert e.scalar_mul(-n, p) == e.negate(affine_mul(e, n, p))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 32, 49, 81, 113, 121])
def test_lagrange_all_points(q):
    spec = ff.spec_for_q(q)
    rng = random.Random(q)
    for _ in range(2):
        e = sample_random_curve(spec, rng)
        n = cv.count_exhaustive(e)
        for p in cv.enumerate_points(e):
            assert e.scalar_mul(n, p).is_infinity


# --- counting ---------------------------------------------------------------------

def test_count_exhaustive_table1_values():
    assert cv.count_exhaustive(table1_curve(3)) == 4
    assert cv.count_exhaustive(table1_curve(7)) == 4
    assert cv.count_exhaustive(table1_curve(4)) == 1
    assert cv.count_exhaustive(table1_curve(16)) == 9
    assert cv.count_exhaustive(table1_curve(49)) == 36


def test_enumerate_matches_count():
    for q in [3, 4, 7, 9, 16, 25]:
        spec = ff.spec_for_q(q)
        rng = random.Random(q + 1)
        e = sample_random_curve(spec, rng)
        pts = cv.enumerate_points(e)
        assert len(pts) == cv.count_exhaustive(e)
        assert len(set(pts)) == len(pts)
        for p in pts:
            assert e.is_on_curve(p)


@pytest.mark.parametrize("q", [3, 4, 5, 8, 9, 16, 25, 27, 49])
def test_pair_scan_oracle(q):
    spec = ff.spec_for_q(q)
    rng = random.Random(q * 3)
    for _ in range(5):
        e = sample_random_curve(spec, rng)
        assert cv.count_exhaustive(e) == cv.count_pair_scan(e)


def test_count_in_hasse_interval_random():
    rng = random.Random(5)
    for q in prime_powers(121):
        spec = ff.spec_for_q(q)
        for _ in range(3):
            e = sample_random_curve(spec, rng)
            assert cv.count_exhaustive(e) in hasse_interval(q)


def kernel_count_exhaustive(e):
    """count_exhaustive's odd-extension loop before it walked the log tables:
    chi(f(x)) on the completed square, x in encoding order, f(x) by the
    field kernels."""
    spec = e.spec
    chi = spec.chi_table()
    c2, c4, c6 = e.completed_model()[:3]
    mul, add = spec.mul_enc, spec.add_enc
    total = 1
    for x in range(spec.q):
        w = add(mul(add(mul(add(x, c2), x), c4), x), c6)
        total += 1 + chi[w]
    return total


def cubic_roots(spec, c2, c4, c6):
    """The number of x in F_q with x^3 + c2 x^2 + c4 x + c6 = 0."""
    mul, add = spec.mul_enc, spec.add_enc
    return sum(add(mul(add(mul(add(x, c2), x), c4), x), c6) == 0 for x in range(spec.q))


def test_log_walk_reads_only_zech_table_fields():
    """count_exhaustive's odd-extension branch assumes Zech tables, which
    every odd extension field below the enumeration guard has."""
    assert cv._ENUMERATE_LIMIT <= ff._LOG_LIMIT
    assert ff.spec_for_q(3**12)._zech is not None


@pytest.mark.parametrize("q", [9, 25, 27])
def test_count_exhaustive_log_walk_every_class(q):
    """Every nonsingular completed-square class y^2 = x^3 + c2 x^2 + c4 x + c6,
    against the kernel loop; this meets c2, c4 or c6 = 0, cubics with 0, 1
    and 3 roots and, at 9 and 27, characteristic 3."""
    spec = ff.spec_for_q(q)
    seen_roots = set()
    for c2 in range(q):
        for c4 in range(q):
            for c6 in range(q):
                try:
                    e = cv.Curve(spec, 0, c2, 0, c4, c6)
                except SingularCurve:
                    continue
                assert cv.count_exhaustive(e) == kernel_count_exhaustive(e), (c2, c4, c6)
                if q == 9:
                    seen_roots.add(cubic_roots(spec, c2, c4, c6))
    if q == 9:
        assert seen_roots == {0, 1, 3}


def sample_classes(spec, rng, n):
    """n random classes (c2, c4, c6), every zero pattern of the three
    coefficients, and cubics built with 3 and with 1 root."""
    q, add, sub, mul, neg = spec.q, spec.add_enc, spec.sub_enc, spec.mul_enc, spec.neg_enc
    out = [tuple(rng.randrange(q) for _ in range(3)) for _ in range(n)]
    for mask in range(7):
        c = [rng.randrange(1, q) for _ in range(3)]
        out.append(tuple(c[j] if mask >> j & 1 else 0 for j in range(3)))
    for _ in range(4):
        r, s, t = rng.sample(range(q), 3)  # (x - r)(x - s)(x - t)
        out.append((neg(add(add(r, s), t)), add(add(mul(r, s), mul(r, t)), mul(s, t)), neg(mul(mul(r, s), t))))
        r, d = rng.randrange(q), spec.smallest_nonsquare()  # (x - r)(x^2 - d)
        out.append((neg(r), neg(d), mul(r, d)))
    return out


@pytest.mark.parametrize("q,n", [(81, 60), (243, 40), (3**7, 6), (5**4, 15), (7**3, 20)])
def test_count_exhaustive_log_walk_random_classes(q, n):
    spec = ff.spec_for_q(q)
    rng = random.Random(q)
    seen_roots, checked = set(), 0
    for c2, c4, c6 in sample_classes(spec, rng, n):
        try:
            e = cv.Curve(spec, 0, c2, 0, c4, c6)
        except SingularCurve:
            continue
        assert cv.count_exhaustive(e) == kernel_count_exhaustive(e), (c2, c4, c6)
        seen_roots.add(cubic_roots(spec, c2, c4, c6))
        checked += 1
    assert checked >= n and seen_roots == {0, 1, 3}


@pytest.mark.parametrize("q", [9, 25, 27, 81])
def test_count_exhaustive_log_walk_against_pair_scan(q):
    """Long-form curves, so the completed square's map is on the path too."""
    spec = ff.spec_for_q(q)
    rng = random.Random(q + 7)
    for c2, c4, c6 in sample_classes(spec, rng, 2)[:6]:
        a1, a3 = rng.randrange(q), rng.randrange(q)
        # the long form whose completed square is (c2, c4, c6)
        h1, h3 = (spec.mul_enc(a, (spec.p + 1) // 2) for a in (a1, a3))
        a2 = spec.sub_enc(c2, spec.mul_enc(h1, h1))
        a4 = spec.sub_enc(c4, spec.mul_enc(h1, a3))
        a6 = spec.sub_enc(c6, spec.mul_enc(h3, h3))
        try:
            e = cv.Curve(spec, a1, a2, a3, a4, a6)
        except SingularCurve:
            continue
        assert e.completed_model()[:3] == (c2, c4, c6)
        assert cv.count_exhaustive(e) == cv.count_pair_scan(e)


def test_enumerate_guard():
    p = next(x for x in range(1 << 20, (1 << 20) + 200) if is_prime(x))
    spec = ff.make_spec(p)
    e = cv.Curve(spec, 0, 0, 0, 1, 1)
    with pytest.raises(FieldTooLarge):
        cv.count_exhaustive(e)
    with pytest.raises(FieldTooLarge):
        cv.enumerate_points(e)


# --- twists ------------------------------------------------------------------------

def test_twist_count_identity_examples():
    e5 = table1_curve(5)
    t5 = cv.quadratic_twist(e5)
    assert cv.count_exhaustive(e5) == 4 and cv.count_exhaustive(t5) == 8
    e4 = table1_curve(4)
    t4 = cv.quadratic_twist(e4)
    assert cv.count_exhaustive(t4) == 9


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 128, 243, 1024])
def test_twist_identity_random(q):
    spec = ff.spec_for_q(q)
    rng = random.Random(q + 55)
    for _ in range(3):
        e = sample_random_curve(spec, rng)
        t = cv.quadratic_twist(e)
        assert cv.count_exhaustive(e) + cv.count_exhaustive(t) == 2 * (q + 1)


@pytest.mark.parametrize("q", [5, 9, 16, 27, 49, 64])
def test_twist_twice_preserves_trace(q):
    spec = ff.spec_for_q(q)
    rng = random.Random(q + 21)
    for _ in range(3):
        e = sample_random_curve(spec, rng)
        tt = cv.quadratic_twist(cv.quadratic_twist(e))
        assert cv.count_exhaustive(tt) == cv.count_exhaustive(e)


@pytest.mark.parametrize("spec", [
    pytest.param(ff.spec_for_q(q), id=str(q))
    for q in (3, 5, 7, 1009, 10**12 + 39, 2**61 - 1, 9, 25, 27, 49, 81, 121, 243, 3**7, 5**4, 7**3, 3**12,
              3**13)
] + [pytest.param(ff.make_spec(3, 2, (2, 1, 1)), id="9-x2+x+2")])
def test_odd_twist_matches_the_constructor(spec):
    """quadratic_twist sets the twist's completed square and discriminant
    from E's (Curve._completed_square) on every odd field model: the curve
    it gives is the one Curve(...) builds from its coefficients, in ==, hash,
    the discriminant, completed_model, short_model (prime fields above 3) and
    _completed_logs (Zech fields).  Twisting twice keeps the trace."""
    rng = random.Random(spec.q + 39)
    for i in range(20):
        e = sample_random_curve(spec, rng)
        t = cv.quadratic_twist(e)
        ref = cv.Curve(spec, *t.coefficients())
        assert t == ref and hash(t) == hash(ref)
        assert t.discriminant == ref.discriminant != 0
        assert t.completed_model() == ref.completed_model() == (t.a2, t.a4, t.a6, 0, 0)
        if spec.k == 1 and spec.p > 3:
            assert t.short_model() == ref.short_model()
        if spec._zech is not None:
            assert t._completed_logs() == ref._completed_logs()
        if i < 2:
            tt = cv.quadratic_twist(t)
            assert (count_points(tt, "auto", random.Random(i)).trace
                    == count_points(e, "auto", random.Random(i)).trace)


@pytest.mark.parametrize("q", [3**7, 81, 10**12 + 39])
def test_point_order_count_builds_no_curve(q, monkeypatch):
    """A point-order count builds its twist without Curve.__init__."""
    spec = ff.spec_for_q(q)
    e = sample_random_curve(spec, random.Random(q))
    calls = []
    init = cv.Curve.__init__
    monkeypatch.setattr(cv.Curve, "__init__", lambda self, *args: calls.append(args) or init(self, *args))
    count_points(e, "point_order", random.Random(1))
    assert calls == []


@pytest.mark.parametrize("q", [8, 64, 256])
def test_twist_supersingular_char2_larger_fields(q):
    spec = ff.spec_for_q(q)
    rng = random.Random(q)
    for _ in range(2):
        while True:
            co = (0, 0, rng.randrange(1, q), rng.randrange(q), rng.randrange(q))
            try:
                e = cv.Curve(spec, *co)
                break
            except SingularCurve:
                continue
        t = cv.quadratic_twist(e)
        assert t.a1 == 0  # the closed-form twist stays inside the j = 0 family
        assert cv.count_exhaustive(e) + cv.count_exhaustive(t) == 2 * (q + 1)


@pytest.mark.parametrize("q", [2, 4, 8])
def test_twist_supersingular_char2_closed_form(q):
    """Every nonsingular a1 = 0 curve: only a6 moves, the counts sum to
    2(q+1), and twisting twice gives back E."""
    spec = ff.spec_for_q(q)
    for a2, a3, a4, a6 in itertools.product(range(q), range(1, q), range(q), range(q)):
        e = cv.Curve(spec, 0, a2, a3, a4, a6)
        t = cv.quadratic_twist(e)
        assert t.coefficients()[:4] == (0, a2, a3, a4)
        assert cv.count_exhaustive(e) + cv.count_exhaustive(t) == 2 * (q + 1)
        assert cv.quadratic_twist(t) == e


def test_smallest_trace_one():
    f4 = ff.make_spec(2, 2)
    gamma = cv.smallest_trace_one(f4)
    assert ff.absolute_trace(f4.element(gamma)) == 1
    assert all(ff.absolute_trace(f4.element(a)) == 0 for a in range(gamma))


# --- point sampling ----------------------------------------------------------------

@pytest.mark.parametrize("q", [5, 9, 16, 49, 1009])
def test_random_point_on_curve(q):
    spec = ff.spec_for_q(q)
    rng = random.Random(q)
    e = sample_random_curve(spec, rng)
    for _ in range(25):
        p = cv.random_point(e, rng)
        assert e.is_on_curve(p) and not p.is_infinity


def test_random_point_no_affine_points():
    # y^2 + y = x^3 + x + 1 over F_2 has only the point at infinity
    spec = ff.make_spec(2)
    e = cv.Curve(spec, 0, 0, 1, 1, 1)
    assert cv.count_exhaustive(e) == 1
    assert cv.random_point(e, random.Random(0)).is_infinity


class _MissingDraws:
    """An rng whose every x draw lands where the curve has no point."""

    def __init__(self, x):
        self.x = x

    def randrange(self, n):
        return self.x


def test_random_point_scan_fallback_above_2_16():
    e = cv.Curve(ff.make_spec(65537), 0, 0, 0, 1, 1)
    x0 = next(x for x in range(65537) if not e.y_solutions(x))
    x1 = next(x for x in range(65537) if e.y_solutions(x))
    assert cv.random_point(e, _MissingDraws(x0)) == cv.Point(e, x1, e.y_solutions(x1)[0])


# --- y_solutions: one exponentiation per x ----------------------------------------

def brute_y_solutions(e, x):
    """Every y with y (y + a1 x + a3) = x^3 + a2 x^2 + a4 x + a6."""
    s = e.spec
    rhs, c = e._rhs_enc(x), s.add_enc(s.mul_enc(e.a1, x), e.a3)
    return [y for y in range(s.q) if s.mul_enc(y, s.add_enc(y, c)) == rhs]


@pytest.mark.parametrize("q", [3, 5, 1019, 1013, 243, 125])
def test_y_solutions_brute_force_every_x(q):
    """Over F_p for p = 3 and 1 (mod 4), F_3 and F_5 among them, and over
    log-table fields, every x of long-form curves (a1, a3 != 0: the
    completed square is shifted)."""
    spec = ff.spec_for_q(q)
    rng = random.Random(q)
    for _ in range(2):
        e = cv.Curve(spec, *(rng.randrange(1, q) for _ in range(2)), rng.randrange(1, q),
                     *(rng.randrange(q) for _ in range(2)))
        for x in range(q):
            assert e.y_solutions(x) == brute_y_solutions(e, x), (e, x)


def old_y_solutions(e, x):
    """y_solutions by Euler's criterion, then the root: two exponentiations
    for a square, the route root_enc replaced."""
    s = e.spec
    c2, c4, c6, h1, h3 = e.completed_model()
    t = s.add_enc(s.mul_enc(h1, x), h3)
    w = s.add_enc(s.mul_enc(s.add_enc(s.mul_enc(s.add_enc(x, c2), x), c4), x), c6)
    if w == 0:
        return [s.neg_enc(t)]
    if not s.is_square_enc(w):
        return []
    r = s.sqrt_enc(w)
    return sorted((s.sub_enc(r, t), s.sub_enc(s.neg_enc(r), t)))


@pytest.mark.parametrize("q", [3**13, 5**9])
def test_y_solutions_odd_polynomial_model_matches_old_route(q):
    spec = ff.spec_for_q(q)
    assert spec._log is None and not spec.char2
    rng = random.Random(q)
    e = sample_random_curve(spec, rng)
    found = 0
    for _ in range(500):
        x = rng.randrange(q)
        ys = e.y_solutions(x)
        assert ys == old_y_solutions(e, x)
        found += bool(ys)
    assert 150 < found < 350


@pytest.mark.parametrize("p", [10**12 + 39, 10**9 + 9, 1013, 1019])
def test_y_solutions_one_exponentiation_per_x(monkeypatch, p):
    """Counted by shadowing pow in finite_field, where the prime kernels
    call it: one exponentiation per x with x^3 + ... != 0, for p = 3 and 1
    (mod 4), on fields above the root table's bound.  For p = 1 (mod 4) the
    first root that needs the non-square's power, which the kernel keeps, is
    taken before counting."""
    assert p > ff._ROOT_TABLE_MAX_P
    spec = ff.make_spec(p)
    rng = random.Random(p)
    e = sample_random_curve(spec, rng)
    c2, c4, c6 = e.completed_model()[:3]
    xs = [x for x in (rng.randrange(p) for _ in range(300))
          if (((x + c2) * x + c4) * x + c6) % p]
    z = spec.smallest_nonsquare()
    spec.root_enc(z * z % p)  # for p = 1 (mod 4), (z^2)^m != 1: Tonelli-Shanks takes z^m
    calls = []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(ff, "pow", counting_pow, raising=False)
    roots = 0
    for x in xs:
        calls.clear()
        roots += bool(e.y_solutions(x))
        assert len(calls) == 1, (x, calls)
    assert 0 < roots < len(xs)


@pytest.mark.parametrize("p", [53, 113, 241, 251, 769])
def test_y_solutions_no_exponentiation_on_root_table_fields(monkeypatch, p):
    """Up to the root table's bound y_solutions reads its root from the
    table: no pow call per x, the first, which builds the table, included;
    p = 1 (mod 16) (113, 241, 769), 5 (mod 16) and 3 (mod 4)."""
    assert p <= ff._ROOT_TABLE_MAX_P
    spec = ff.FieldSpec(p, 1, (0, 1))
    e = sample_random_curve(spec, random.Random(p))
    calls = []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(ff, "pow", counting_pow, raising=False)
    found = sum(bool(e.y_solutions(x)) for x in range(p))
    assert calls == []
    assert 0 < found < p


# --- log arithmetic on the odd Zech-table fields -----------------------------------

def kernel_to_logs(e, pt):
    """to_logs by to_completed on the field kernels, then the log table."""
    x, y = e.to_completed(pt)
    if x is None:
        return None, None
    log = e.spec._log
    return log[x] if x else -1, log[y] if y else -1


def curve_through(spec, rng):
    """(curve, x0, x1): a random long form, a1 != 0, whose completed square
    has t = h1 x + h3 = 0 and f(x) a nonzero square at x0, and f(x1) = 0."""
    add, sub, mul, neg = spec.add_enc, spec.sub_enc, spec.mul_enc, spec.neg_enc
    q, two = spec.q, 2 % spec.p
    while True:
        x0, x1 = rng.randrange(q), rng.randrange(q)
        h1, c2, c4 = rng.randrange(1, q), rng.randrange(q), rng.randrange(q)
        h3 = neg(mul(h1, x0))
        c6 = neg(mul(add(mul(add(x1, c2), x1), c4), x1))
        f0 = add(mul(add(mul(add(x0, c2), x0), c4), x0), c6)
        a1, a3 = mul(two, h1), mul(two, h3)
        co = a1, sub(c2, mul(h1, h1)), a3, sub(c4, mul(h1, a3)), sub(c6, mul(h3, h3))
        if f0 and spec.is_square_enc(f0) and b_formula_discriminant(spec, *co):
            return cv.Curve(spec, *co), x0, x1


def check_y_solutions(e, xs, seen):
    """y_solutions and to_logs/from_logs against the kernel routes on every
    x of xs; `seen` counts x = 0, f(x) = 0 and t = 0 with two roots."""
    s = e.spec
    h1, h3 = e.completed_model()[3:]
    for x in xs:
        ys = e.y_solutions(x)
        assert ys == old_y_solutions(e, x), (e, x)
        t = s.add_enc(s.mul_enc(h1, x), h3)
        seen["x = 0"] += x == 0
        seen["f(x) = 0"] += len(ys) == 1
        seen["t = 0, two roots"] += t == 0 and len(ys) == 2
        for y in ys:
            pt = cv.Point(e, x, y)
            logs = e.to_logs(pt)
            assert logs == kernel_to_logs(e, pt), (e, pt)
            assert e.from_logs(*logs) == pt
    inf = e.infinity()
    assert e.to_logs(inf) == (None, None) and e.from_logs(None, None) == inf


@pytest.mark.parametrize("q", [9, 25, 27, 49, 81, 3**7, 5**4, 3**12])
def test_zech_y_solutions_and_logs_match_kernels(q):
    """y_solutions and to_logs work in logs over odd fields with Zech tables;
    both match the kernel routes, and from_logs inverts to_logs.  Every x at
    q <= 81, sampled x above with x = 0, a root of f and a zero of t, over
    random curves, curves through a root of f and a zero of t, and some
    {0, 1, -1, alpha} patterns."""
    spec = ff.spec_for_q(q)
    rng = random.Random(q)
    seen = collections.Counter()
    plans = [(sample_random_curve(spec, rng), ()) for _ in range(4)]
    for _ in range(4):
        e, x0, x1 = curve_through(spec, rng)
        plans.append((e, (x0, x1)))
    for co in zech_patterns(spec)[::7 if q <= 81 else 61]:
        if b_formula_discriminant(spec, *co):
            plans.append((cv.Curve(spec, *co), ()))
    for e, chosen in plans:
        if q <= 81:
            xs = range(q)
        else:
            xs = [0, 1, spec.neg_enc(1), *chosen] + [rng.randrange(q) for _ in range(60)]
        check_y_solutions(e, xs, seen)
    assert all(seen[k] >= 4 for k in ("x = 0", "f(x) = 0", "t = 0, two roots")), seen
