import random

import pytest

from hassecount import finite_field as ff
from hassecount.errors import (
    FieldTooLarge, NotASquare, NotPrime, NotPrimePower, ReduciblePolynomial, SpecMismatch,
)
from hassecount.integers import prime_powers, split_prime_power
from hassecount.sweep import _VecField


def poly_has_root(coeffs, p):
    return any(sum(c * x**i for i, c in enumerate(coeffs)) % p == 0 for x in range(p))


def brute_order(spec, enc):
    n = 1
    acc = enc
    while acc != 1:
        acc = spec.mul_enc(acc, enc)
        n += 1
    return n


# --- spec construction -----------------------------------------------------------

def test_default_modulus_f4():
    # oracle: a quadratic over F_2 is irreducible iff it has no root;
    # x^2, x^2+1, x^2+x all have roots, so x^2+x+1 is the only candidate
    assert ff.make_spec(2, 2).modulus == (1, 1, 1)
    for cand in [(0, 0, 1), (1, 0, 1), (0, 1, 1)]:
        assert poly_has_root(cand, 2)
    assert not poly_has_root((1, 1, 1), 2)


def test_default_modulus_f49_smallest_encoding():
    spec = ff.make_spec(7, 2)
    assert spec.modulus == (1, 0, 1)  # x^2 + 1
    # oracle: scan in encoding order; x^2 has a root, x^2+1 does not
    assert poly_has_root((0, 0, 1), 7)
    assert not poly_has_root((1, 0, 1), 7)


@pytest.mark.parametrize(
    "p,k,modulus",
    [
        (2, 1, (0, 1)),
        (3, 2, (1, 0, 1)),
        (5, 2, (2, 0, 1)),
        (2, 3, (1, 1, 0, 1)),
        (3, 3, (1, 2, 0, 1)),
        (2, 4, (1, 1, 0, 0, 1)),
        (11, 2, (1, 0, 1)),
    ],
)
def test_default_moduli_frozen(p, k, modulus):
    spec = ff.make_spec(p, k)
    assert spec.modulus == modulus
    assert spec.q == p**k
    if 2 <= k <= 3:
        # root-freeness is a complete irreducibility oracle in degrees 2 and 3
        assert not poly_has_root(modulus, p)


def test_make_spec_cached_without_search(monkeypatch):
    first = ff.spec_for_q(3**5)
    monkeypatch.setattr(ff, "_default_modulus", lambda p, k: pytest.fail("modulus searched again"))
    assert ff.spec_for_q(3**5) is first
    assert ff.make_spec(3, 5) is first
    assert ff.make_spec(3, 5, first.modulus) is first  # the same spec under its explicit modulus


def test_spec_for_q_cached_before_split(monkeypatch):
    """A repeated spec_for_q(q) with the default modulus is a cache lookup:
    q is not split into p^k again.  The size check still comes first, and a
    q that is no prime power is refused on every call, as is a split that
    names no prime."""
    first = ff.spec_for_q(1024)
    monkeypatch.setattr(ff, "split_prime_power", lambda q: pytest.fail(f"{q} split again"))
    assert ff.spec_for_q(1024) is first is ff.make_spec(2, 10)
    with pytest.raises(FieldTooLarge):
        ff.spec_for_q(2**64)  # a prime power, refused before any split or lookup
    with pytest.raises(FieldTooLarge):
        ff.spec_for_q(ff.MAX_Q + 1)
    monkeypatch.undo()
    for q in (12, 1, 0, -9, 3 * 2**60):
        for _ in range(2):
            with pytest.raises(NotPrimePower):
                ff.spec_for_q(q)
    assert ff.spec_for_q(1024, first.modulus) is first  # an explicit modulus still splits q


def test_make_spec_errors():
    with pytest.raises(NotPrime):
        ff.make_spec(6)
    with pytest.raises(ReduciblePolynomial):
        ff.make_spec(2, 2, (1, 0, 1))  # x^2+1 = (x+1)^2 over F_2
    with pytest.raises(ReduciblePolynomial):
        ff.make_spec(2, 2, (1, 1, 2))  # not reduced/monic over F_2


def test_supplied_modulus_roundtrip():
    spec = ff.make_spec(5, 2, (3, 0, 1))  # x^2+3, irreducible since -3=2 is a non-square
    a = spec.element([0, 1])
    assert (a * a).enc == spec.neg_enc(3)


# --- arithmetic ------------------------------------------------------------------

def test_add_examples():
    f5 = ff.make_spec(5)
    assert (f5.element(3) + f5.element(4)).enc == 2
    f4 = ff.make_spec(2, 2)
    assert (f4.element(2) + f4.element(3)).enc == 1
    a = f4.element(2)
    assert (a + f4.zero()) == a


def test_mul_inv_pow_examples():
    f7 = ff.make_spec(7)
    assert f7.element(3).inverse().enc == 5
    f4 = ff.make_spec(2, 2)
    assert (f4.element(2) * f4.element(2)).enc == 3
    for spec in (f7, f4):
        for enc in range(1, spec.q):
            assert spec.pow_enc(enc, spec.q - 1) == 1
    assert f7.pow_enc(0, 0) == 1


def test_division_by_zero():
    f7 = ff.make_spec(7)
    with pytest.raises(ZeroDivisionError):
        f7.element(1) / f7.element(0)


def test_spec_mismatch():
    with pytest.raises(SpecMismatch):
        ff.make_spec(5).element(1) + ff.make_spec(7).element(1)


@pytest.mark.parametrize("q", [7, 8, 9, 3**13])
def test_facade_operators(q):
    """Every FieldElement operator against the encoded kernels; an int c
    stands for c mod p in the prime subfield."""
    spec = ff.spec_for_q(q)
    rng = random.Random(q)
    for _ in range(30):
        x, y = spec.element(rng.randrange(1, q)), spec.element(rng.randrange(q))
        c = rng.randrange(-3 * spec.p, 3 * spec.p)
        cf = spec.element(c % spec.p)
        assert x + c == c + x == x + cf and (x + y).enc == spec.add_enc(x.enc, y.enc)
        assert x - c == x - cf and c - x == cf - x and (y - x).enc == spec.sub_enc(y.enc, x.enc)
        assert x * c == c * x == x * cf and (x * y).enc == spec.mul_enc(x.enc, y.enc)
        assert 1 / x == x.inverse() and c / x == cf * x.inverse() and y / x * x == y
        assert x ** 0 == 1 and x ** 3 == x * x * x and (x ** 5).enc == spec.pow_enc(x.enc, 5)
        assert (x == c) == (x.enc == c % spec.p) and cf == c and x != x + 1
        assert hash(x) == hash(spec.element(x.enc)) and len({x, spec.element(x.enc)}) == 1
        assert x and bool(y) == (y.enc != 0)
    assert not spec.zero() and repr(spec.element(q - 1)) == f"F{q}({q - 1})"
    x = spec.one()
    for op in (lambda: x + 1.5, lambda: 1.5 - x, lambda: x * "a", lambda: x / 1.5, lambda: 1.5 / x):
        with pytest.raises(TypeError):
            op()
    assert x != 1.5


# --- squares ---------------------------------------------------------------------

def test_is_square_examples():
    f7 = ff.make_spec(7)
    squares = {x * x % 7 for x in range(7)}
    assert squares == {0, 1, 2, 4}
    assert not ff.is_square(f7.element(3))
    assert ff.is_square(f7.element(0))
    f16 = ff.make_spec(2, 4)
    assert all(ff.is_square(f16.element(a)) for a in range(16))


def test_sqrt_examples():
    f7 = ff.make_spec(7)
    roots = sorted(s for s in range(7) if s * s % 7 == 2)
    assert roots == [3, 4]
    assert ff.sqrt(f7.element(2)).enc == 3  # smaller encoding wins
    assert ff.sqrt(f7.element(0)).enc == 0
    f4 = ff.make_spec(2, 2)
    assert ff.sqrt(f4.element(2)).enc == 3
    with pytest.raises(NotASquare):
        ff.sqrt(f7.element(3))


@pytest.mark.parametrize("q", [3, 5, 7, 9, 13, 25, 27, 49, 81, 121, 2, 4, 8, 16, 64])
def test_sqrt_squares_count(q):
    spec = ff.spec_for_q(q)
    n_squares = 0
    for a in range(q):
        if spec.is_square_enc(a):
            s = spec.sqrt_enc(a)
            assert spec.mul_enc(s, s) == a
            if a:
                n_squares += 1
    assert n_squares == (q - 1 if spec.char2 else (q - 1) // 2)


def test_smallest_nonsquare():
    assert ff.make_spec(5).smallest_nonsquare() == 2
    assert ff.make_spec(7).smallest_nonsquare() == 3
    f9 = ff.make_spec(3, 2)
    d = f9.smallest_nonsquare()
    assert not f9.is_square_enc(d) and all(f9.is_square_enc(a) for a in range(2, d))


def test_tonelli_shanks_q_1_mod_4():
    # 13 = 1 mod 4 exercises the full Tonelli-Shanks loop
    f13 = ff.make_spec(13)
    for a in range(13):
        if f13.is_square_enc(a):
            s = f13.sqrt_enc(a)
            assert s * s % 13 == a
            assert s == min(s, (13 - s) % 13)


@pytest.mark.parametrize("p,k", [(10**12 + 39, 1), (2**61 - 1, 1), (3, 13)])
def test_sqrt_q_3_mod_4_checks_its_root(p, k):
    """q = 3 (mod 4) takes a^((q+1)/4) and checks its square, with no
    separate Euler test: every non-square raises NotASquare, and every
    square gets the smaller of its two roots (prime fields and the odd
    polynomial model above 2^20)."""
    spec = ff.make_spec(p, k)
    q = spec.q
    assert q % 4 == 3
    rng = random.Random(q)
    kinds = set()
    for _ in range(60):
        a = rng.randrange(1, q)
        sq = spec.mul_enc(a, a)
        r = spec.sqrt_enc(sq)
        assert spec.mul_enc(r, r) == sq and r == min(r, spec.neg_enc(r))
        b = rng.randrange(1, q)
        if spec.is_square_enc(b):
            kinds.add("square")
            r = spec.sqrt_enc(b)
            assert spec.mul_enc(r, r) == b
        else:
            kinds.add("non-square")
            with pytest.raises(NotASquare):
                spec.sqrt_enc(b)
    with pytest.raises(NotASquare):
        spec.sqrt_enc(spec.smallest_nonsquare())
    assert kinds == {"square", "non-square"}


# --- primitive elements / trace / randomness --------------------------------------

def test_primitive_element_frozen():
    assert ff.primitive_element(ff.make_spec(5)).enc == 2
    assert ff.primitive_element(ff.make_spec(7)).enc == 3
    assert ff.primitive_element(ff.make_spec(2, 2)).enc == 2


@pytest.mark.parametrize("q", [4, 5, 7, 9, 25, 27, 49, 8, 16])
def test_primitive_element_order_oracle(q):
    spec = ff.spec_for_q(q)
    g = ff.primitive_element(spec).enc
    assert brute_order(spec, g) == q - 1
    for smaller in range(2, g):
        assert brute_order(spec, smaller) < q - 1


def test_absolute_trace():
    f4 = ff.make_spec(2, 2)
    assert ff.absolute_trace(f4.element(0)) == 0
    assert ff.absolute_trace(f4.element(2)) == 1  # alpha + alpha^2 = 1
    f7 = ff.make_spec(7)
    for a in range(7):
        assert ff.absolute_trace(f7.element(a)) == a
    f8 = ff.make_spec(2, 3)
    for a in range(8):
        coeffs_sum = ff.absolute_trace(f8.element(a))
        brute = a
        acc = a
        for _ in range(2):
            acc = f8.pow_enc(acc, 2)
            brute = f8.add_enc(brute, acc)
        # recompute directly: a + a^2 + a^4
        direct = f8.add_enc(f8.add_enc(a, f8.pow_enc(a, 2)), f8.pow_enc(a, 4))
        assert coeffs_sum == direct < 2


@pytest.mark.parametrize("q", [9, 3**7, 3**13])
def test_absolute_trace_odd_extensions(q):
    """The Frobenius-sum trace: the sum of the k conjugates, F_p-linear, and
    Tr(1) = k mod p."""
    spec = ff.spec_for_q(q)
    p, k = spec.p, spec.k
    ref = PolyRef(spec)
    rng = random.Random(q)
    assert ff.absolute_trace(spec.one()) == k % p and ff.absolute_trace(spec.zero()) == 0
    for _ in range(40):
        a, b, c = rng.randrange(q), rng.randrange(q), rng.randrange(p)
        conj, acc = a, a
        for _ in range(k - 1):
            conj = ref.pow(conj, p)
            acc = ref.add(acc, conj)
        ta = ff.absolute_trace(spec.element(a))
        assert ta == acc < p
        combo = spec.element(a) + c * spec.element(b)
        assert ff.absolute_trace(combo) == (ta + c * spec.trace_enc(b)) % p


def test_random_element_range_and_determinism():
    spec = ff.make_spec(3, 3)
    rng1, rng2 = random.Random(9), random.Random(9)
    r1 = [ff.random_element(spec, rng1).enc for _ in range(50)]
    r2 = [ff.random_element(spec, rng2).enc for _ in range(50)]
    assert r1 == r2
    assert all(0 <= e < 27 for e in r1)
    assert len(set(r1)) > 10


# --- field axioms and encodings ---------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 25, 27, 49, 121, 128, 1009])
def test_field_axioms_random_triples(q):
    spec = ff.spec_for_q(q)
    rng = random.Random(q)
    for _ in range(1000):
        x, y, z = (ff.random_element(spec, rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x and x * y == y * x
        assert (x - x).enc == 0 and (x + (-x)).enc == 0


def test_inverse_exhaustive_all_prime_powers():
    from hassecount.integers import prime_powers

    for q in prime_powers(1024):
        spec = ff.spec_for_q(q)
        for a in range(1, q):
            assert spec.mul_enc(a, spec.inv_enc(a)) == 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121])
def test_frobenius_fixes_field_exhaustive(q):
    spec = ff.spec_for_q(q)
    for a in range(q):
        assert spec.pow_enc(a, q) == a


def test_frobenius_sampled_large():
    for q in [1009, 2048, 6561]:
        spec = ff.spec_for_q(q)
        rng = random.Random(q)
        for _ in range(100):
            a = ff.random_element(spec, rng).enc
            assert spec.pow_enc(a, q) == a


@pytest.mark.parametrize("q", [4, 9, 27, 49, 1024])
def test_encoding_bijection(q):
    spec = ff.spec_for_q(q)
    for enc in range(q):
        assert spec.encode(spec.decode(enc)) == enc
    coeffs = spec.decode(q - 1)
    assert len(coeffs) == spec.k and all(c == spec.p - 1 for c in coeffs)


# --- log/Zech kernels against a polynomial reference ---------------------------

def _extension_qs(qmax):
    return [q for q in prime_powers(qmax) if split_prime_power(q)[1] > 1]


class PolyRef:
    """Test-only reference model: schoolbook polynomial products mod the
    spec's modulus and digit-wise sums, on the spec's encodings."""

    def __init__(self, spec):
        self.spec = spec
        self.mod = list(spec.modulus)

    def mul(self, a, b):
        s = self.spec
        return s.encode(ff._poly_mulmod(list(s.decode(a)), list(s.decode(b)), self.mod, s.p))

    def add(self, a, b):
        s = self.spec
        return s.encode((x + y) % s.p for x, y in zip(s.decode(a), s.decode(b)))

    def neg(self, a):
        s = self.spec
        return s.encode((-x) % s.p for x in s.decode(a))

    def pow(self, a, e):
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r


@pytest.mark.parametrize("q", _extension_qs(128))
def test_kernels_every_pair(q):
    spec = ff.spec_for_q(q)
    ref = PolyRef(spec)
    for a in range(q):
        for b in range(q):
            assert spec.mul_enc(a, b) == ref.mul(a, b)
            assert spec.add_enc(a, b) == ref.add(a, b)
            assert spec.sub_enc(a, b) == ref.add(a, ref.neg(b))


@pytest.mark.parametrize("q", _extension_qs(4096))
def test_kernels_every_element(q):
    spec = ff.spec_for_q(q)
    ref = PolyRef(spec)
    squares = {ref.mul(a, a) for a in range(q)}
    assert spec.pow_enc(0, 0) == 1 and spec.pow_enc(0, 5) == 0
    for a in range(q):
        assert spec.neg_enc(a) == ref.neg(a)
        assert spec.is_square_enc(a) == (a in squares)
        for e in (0, 1, 2, 7):
            assert spec.pow_enc(a, e) == ref.pow(a, e)
        if a:
            assert ref.mul(a, spec.inv_enc(a)) == 1
            assert spec.pow_enc(a, q + 6) == spec.pow_enc(a, 7)
        if a in squares:
            s = spec.sqrt_enc(a)
            assert ref.mul(s, s) == a and s <= ref.neg(s)
        else:
            with pytest.raises(NotASquare):
                spec.sqrt_enc(a)


@pytest.mark.parametrize(
    "q", [10007, 10**12 + 39, 2187, 3**8, 5**5, 2**16, 3**12, 5**8, 7**7, 2**20, 2**21, 2**24, 2**40, 2**61]
)
def test_kernels_random_pairs(q):
    spec = ff.spec_for_q(q)
    ref = PolyRef(spec)
    rng = random.Random(q)
    for _ in range(3000):
        a, b = rng.randrange(q), rng.randrange(q)
        assert spec.mul_enc(a, b) == ref.mul(a, b)
        assert spec.add_enc(a, b) == ref.add(a, b)
        assert spec.sub_enc(a, b) == ref.add(a, ref.neg(b))
        assert spec.neg_enc(a) == ref.neg(a)
        if a:
            assert ref.mul(a, spec.inv_enc(a)) == 1


@pytest.mark.parametrize("q", [9, 25, 27, 49, 243, 2187, 3**8, 5**5, 3**12, 5**8, 7**7])
def test_zech_edge_cases(q):
    spec = ff.spec_for_q(q)
    ref = PolyRef(spec)
    minus_one = spec.neg_enc(1)
    assert spec.add_enc(1, minus_one) == 0 and spec.sub_enc(1, 1) == 0
    for a in random.Random(q).sample(range(1, q), min(q - 1, 200)) + [1, minus_one]:
        assert spec.add_enc(a, spec.neg_enc(a)) == 0
        assert spec.sub_enc(a, a) == 0
        assert spec.add_enc(a, 0) == spec.add_enc(0, a) == spec.sub_enc(a, 0) == a
        assert spec.sub_enc(0, a) == ref.neg(a)
        assert spec.add_enc(a, a) == ref.add(a, a)


@pytest.mark.parametrize("q", _extension_qs(256))
def test_mul_add_tables_match_reference(q):
    # the sweep kernels' q^2 tables, characteristic 2 (the XOR table) included
    spec = ff.spec_for_q(q)
    ref = PolyRef(spec)
    F = _VecField(spec)
    assert F.MUL.shape == F.ADD.shape == (q * q,)
    for a in range(q):
        for b in range(q):
            assert F.MUL[a * q + b] == ref.mul(a, b)
            assert F.ADD[a * q + b] == ref.add(a, b)


def test_log_tables_at_2_20_are_compact():
    spec = ff.spec_for_q(2**20)
    model = [spec._exp, spec._log]
    assert spec._zech is None  # characteristic 2 adds by XOR
    assert sum(t.itemsize * len(t) for t in model) <= 16 * 2**20
    for t in model:
        assert len(t) >= spec.q and t.itemsize <= 4
    # the trace and Artin roots are k-bit linear maps: using them builds no
    # q-sized table
    assert all((spec.artin_enc(e) is None) == spec.trace_enc(e) for e in range(256))
    sized = {name for name, v in vars(spec).items() if hasattr(v, "__len__") and len(v) >= spec.q}
    assert sized == {"_exp", "_log"}


@pytest.mark.parametrize("q", [3**13, 5**9])  # q = 3 and 1 mod 4
def test_no_log_tables_above_2_20(q):
    spec = ff.spec_for_q(q)
    assert spec._log is None
    ref = PolyRef(spec)
    rng = random.Random(q)
    minus_one = ref.neg(1)
    for _ in range(200):
        a, b = rng.randrange(1, q), rng.randrange(q)
        assert spec.mul_enc(a, b) == ref.mul(a, b)
        assert spec.add_enc(a, b) == ref.add(a, b)
        assert spec.sub_enc(a, b) == ref.add(a, ref.neg(b))
        assert spec.neg_enc(a) == ref.neg(a)
        assert ref.mul(a, spec.inv_enc(a)) == 1
        square = ref.pow(a, (q - 1) // 2) == 1  # Euler's criterion
        assert square or ref.pow(a, (q - 1) // 2) == minus_one
        assert spec.is_square_enc(a) == square
        if square:
            s = spec.sqrt_enc(a)
            assert ref.mul(s, s) == a and s <= ref.neg(s)
        else:
            with pytest.raises(NotASquare):
                spec.sqrt_enc(a)
        s = spec.sqrt_enc(ref.mul(a, a))
        assert s == min(a, ref.neg(a))


@pytest.mark.parametrize("k", [21, 24, 40, 61])
def test_char2_sqrt_polynomial_model(k):
    spec = ff.make_spec(2, k)
    assert spec._log is None
    ref = PolyRef(spec)
    rng = random.Random(k)
    for _ in range(20):
        a = rng.randrange(spec.q)
        s = spec.sqrt_enc(a)
        assert ref.mul(s, s) == a
        assert spec.sqrt_enc(ref.mul(a, a)) == a  # squaring is a bijection


@pytest.mark.parametrize("p,k", [(3, 13), (3, 20), (5, 26), (3, 39)])
def test_polynomial_inverse_by_euclid(p, k):
    spec = ff.make_spec(p, k)
    assert spec._log is None
    ref = PolyRef(spec)
    rng = random.Random(p**k)
    samples = [1, p - 1, p, spec.q - 1] + [rng.randrange(1, spec.q) for _ in range(40)]
    for i, a in enumerate(samples):
        inv = spec.inv_enc(a)
        assert ref.mul(a, inv) == 1
        if i < 6:
            assert inv == ref.pow(a, spec.q - 2)  # Fermat
    with pytest.raises(ZeroDivisionError):
        spec.inv_enc(0)


@pytest.mark.parametrize("p,k", [(1019, 1), (1013, 1), (10**12 + 39, 1), (2**61 - 1, 1), (2, 1),
                                 (3, 5), (5, 4), (3, 13), (5, 9), (2, 10), (2, 24)])
def test_root_enc_is_sqrt_or_none(p, k):
    """root_enc gives sqrt_enc's root on squares and None elsewhere, in every
    field model, for q = 1 and 3 (mod 4): its Euler's criterion, read off
    the one exponentiation, agrees with is_square_enc's."""
    spec = ff.make_spec(p, k)
    rng = random.Random(p * k)
    kinds = set()
    for a in [0, 1, *(rng.randrange(spec.q) for _ in range(150))]:
        r = spec.root_enc(a)
        if spec.is_square_enc(a):
            kinds.add("square")
            assert r == spec.sqrt_enc(a) and spec.mul_enc(r, r) == a and r == min(r, spec.neg_enc(r))
        else:
            kinds.add("non-square")
            assert r is None
            with pytest.raises(NotASquare):
                spec.sqrt_enc(a)
    assert kinds == ({"square"} if spec.char2 else {"square", "non-square"})


# One (p, k) per field model: prime, odd log/Zech, char-2 log, odd and char-2
# polynomial.
MODEL_FIELDS = [(10007, 1), (2, 1), (3, 7), (2, 10), (3, 13), (2, 24)]
KERNELS = ("add_enc", "sub_enc", "neg_enc", "mul_enc", "inv_enc", "pow_enc", "is_square_enc", "root_enc",
           "sqrt_enc")


def test_generic_methods_stay_on_the_class():
    # the traced benchmark counts calls through these two class attributes
    assert "mul_enc" in vars(ff.FieldSpec) and "inv_enc" in vars(ff.FieldSpec)
    # every model binds the same kernel names in the same order
    orders = {tuple(n for n in vars(ff.make_spec(p, k)) if n.endswith("_enc")) for p, k in MODEL_FIELDS}
    assert orders == {KERNELS}


@pytest.mark.parametrize("p,k", MODEL_FIELDS)
def test_cached_and_fresh_specs_agree(p, k):
    cached = ff.make_spec(p, k)
    fresh = ff.FieldSpec(p, k, cached.modulus)
    assert fresh is not cached and list(vars(fresh)) == list(vars(cached))
    rng = random.Random(p + k)
    for _ in range(200):
        a, b = rng.randrange(1, cached.q) if cached.q > 2 else 1, rng.randrange(cached.q)
        for name in ("add_enc", "sub_enc", "mul_enc"):
            assert getattr(fresh, name)(a, b) == getattr(cached, name)(a, b)
        assert fresh.pow_enc(a, b) == cached.pow_enc(a, b)
        for name in ("neg_enc", "inv_enc", "is_square_enc"):
            assert getattr(fresh, name)(a) == getattr(cached, name)(a)
        square = cached.mul_enc(a, a)
        assert fresh.sqrt_enc(square) == cached.sqrt_enc(square)
        # the generic digit-list methods agree with every model's kernels
        assert ff.FieldSpec.mul_enc(cached, a, b) == cached.mul_enc(a, b)
        assert ff.FieldSpec.inv_enc(cached, a) == cached.inv_enc(a)
        assert ff.FieldSpec.pow_enc(cached, a, 5) == cached.pow_enc(a, 5)
