"""Exact arithmetic in F_q = F_{p^k} for any prime power, any characteristic.

Elements live in a polynomial basis over F_p with a deterministic canonical
integer encoding enc(a) = sum(coeffs[i] * p^i), which gives a total order used
for tie-breaking (square roots, primitive elements) and for the CLI wire
format.  The default modulus for an extension field is the monic irreducible
polynomial of degree k with the smallest canonical encoding, so every field
model is reproducible from (p, k) alone.

There are four field models, and FieldSpec picks one when it is built and
binds that model's kernel set (add_enc, sub_enc, neg_enc, mul_enc, inv_enc,
pow_enc, is_square_enc, root_enc, and sqrt_enc on root_enc) as closures
over its modulus or tables, so no kernel tests which model it is in:

  * prime fields (k = 1) compute directly mod p; up to p = _ROOT_TABLE_MAX_P
    root_enc reads a table of the smaller square root of every element,
    built on the field's first root, and above it takes one exponentiation
    (_sqrt_by_powers, Tonelli-Shanks where p = 1 mod 4);
  * extension fields up to 2^20 elements build, with the spec, an antilog
    table exp[i] = alpha^i and its inverse log for the smallest generator
    alpha, and in odd characteristic a Zech table Z(n) = log(1 + alpha^n)
    (Huber, IEEE Trans. Inf. Theory 36(4), 1990).  Every kernel is then a few
    lookups: a * b = exp[log a + log b], a + b = exp[log a + Z(log b - log a)],
    and in characteristic 2 addition stays XOR.  The build is plain Python:
    a walk over the powers of alpha, each step a lookup in a table for each
    half of the digits.  The tables are 4-byte arrays, exp and Zech of
    2(q-1) entries so that sums of logs need no reduction: 12 MB at 2^20,
    and about 20q bytes in odd characteristic;
  * larger extension fields of characteristic 2 compute on the encoding as
    a bit vector: XOR, carry-less shift-and-XOR products folded back by the
    modulus, and inverses by the binary extended Euclidean algorithm
    (Hankerson, Menezes and Vanstone, Guide to Elliptic Curve Cryptography,
    section 2.3);
  * larger extension fields of odd characteristic use polynomial arithmetic
    on digit lists per operation, with inverses by the extended Euclidean
    algorithm (von zur Gathen and Gerhard, Modern Computer Algebra, ch. 3).

Field sizes are supported up to MAX_Q = 2^62; make_spec and spec_for_q raise
FieldTooLarge above it.

The quadratic character is an O(q) table built on first use at any size; the
char-2 trace and Artin roots are F_2-linear maps built with the spec.

No field model uses numpy: this module never imports it.

Inside the library every field element is its encoding, a plain int, and the
arithmetic is the FieldSpec kernels (add_enc, mul_enc, inv_enc, ...).
FieldElement is the public facade: an encoding with operator overloading, for
callers outside the library and for the public functions of this module.
"""

from __future__ import annotations

import operator
import random
from array import array
from functools import partial
from itertools import chain

from .errors import FieldTooLarge, NotASquare, NotPrime, ReduciblePolynomial, SpecMismatch
from .integers import factorize, is_prime, split_prime_power

# The largest supported field size: every annihilator q + 1 + 2 sqrt(q) stays
# below factorize's 2^63 guard, and is_prime is exact far beyond it.
MAX_Q = 1 << 62

# Extension fields up to this size get exp/log (and Zech) tables, whose build
# with the spec takes time and memory linear in q; above it every operation
# is polynomial arithmetic.
_LOG_LIMIT = 1 << 20

# Prime fields up to this p answer root_enc from a table of the smaller square
# root of each element (_root_by_table), built on the field's first root.  It
# is the largest prime at which the build costs no more than the roots of one
# point-order count, 8.6 root_enc calls: 21 against 24 us at 769 = 3*2^8 + 1,
# whose Tonelli-Shanks takes eight squarings.  Every prime from 101 to 2099
# was timed (2-vCPU VM, Python 3.11.7; best of 5 builds, and of 3 passes over
# 200 random elements): none above 769 qualified, and of the primes 3 (mod 4),
# one exponentiation per root, none above 179.
_ROOT_TABLE_MAX_P = 769

# The Zech table is read from log in chunks of this many indexes.
_ZECH_CHUNK = 1 << 12

_SPEC_CACHE: dict[tuple[int, int, tuple[int, ...] | None], "FieldSpec"] = {}

# spec_for_q's default-modulus specs by q, so a repeated call skips the split
# of q into p^k (Miller-Rabin and integer roots): 8 us per call at q = 1024.
_Q_CACHE: dict[int, "FieldSpec"] = {}


# ---------------------------------------------------------------------------
# polynomial arithmetic over F_p (coefficient tuples, lowest degree first)
# ---------------------------------------------------------------------------

def digits(n: int, p: int, k: int) -> list[int]:
    """The k lowest base-p digits of n, least significant first."""
    out = []
    for _ in range(k):
        n, d = divmod(n, p)
        out.append(d)
    return out


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_rem(prod, mod, p)


def _poly_rem(a: list[int], mod: list[int], p: int) -> list[int]:
    a = list(a)
    k = len(mod) - 1
    for i in range(len(a) - 1, k - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(k):
                a[i - k + j] = (a[i - k + j] - c * mod[j]) % p
    return _poly_trim(a[:k] if len(a) > k else a)


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        inv_lead = pow(b[-1], -1, p)
        monic = [(c * inv_lead) % p for c in b]
        a, b = b, _poly_rem(a, monic, p)
    return a


def _is_irreducible(mod: list[int], p: int) -> bool:
    """Rabin-style test: gcd(x^{p^i} - x, mod) must be constant for i <= k/2.

    A reducible monic polynomial of degree k has an irreducible factor of some
    degree d <= k/2, and that factor divides x^{p^d} - x, so the gcd catches it.
    """
    k = len(mod) - 1
    if mod[0] == 0:
        return False  # x divides it
    xp = _poly_rem([0, 1], mod, p)
    for _ in range(k // 2):
        xp = _poly_powmod(xp, p, mod, p)  # one Frobenius step
        diff = list(xp) + [0] * max(0, 2 - len(xp))
        diff = [(c - (1 if i == 1 else 0)) % p for i, c in enumerate(diff)]
        g = _poly_gcd(mod, diff, p)
        if len(g) > 1:
            return False
    return True


def _poly_powmod(a: list[int], e: int, mod: list[int], p: int) -> list[int]:
    """a^e mod the modulus, by square-and-multiply."""
    result = [1]
    base = list(a)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _encode(coeffs: list[int], p: int) -> int:
    enc = 0
    for c in reversed(coeffs):
        enc = enc * p + c
    return enc


# ---------------------------------------------------------------------------
# kernel sets, one per field model
# ---------------------------------------------------------------------------
# Each builder returns (add, sub, neg, mul, inv, pow, is_square, root) on
# encodings, as closures over the model's modulus or tables, where root is
# the smaller square root or None for a non-square; FieldSpec binds them
# once, so no kernel tests which model it is in.

def _poly_mul(p: int, k: int, mod, a: int, b: int) -> int:
    return _encode(_poly_mulmod(digits(a, p, k), digits(b, p, k), mod, p), p)


def _poly_pow(p: int, k: int, mod, a: int, e: int) -> int:
    if e < 0:
        raise ValueError("negative exponent")
    return _encode(_poly_powmod(digits(a, p, k), e, mod, p), p)


def _poly_inv(p: int, k: int, mod, a: int) -> int:
    """a^(-1) by the extended Euclidean algorithm on digit lists.  Each
    remainder r_i is s_i a modulo the modulus (r_0 = modulus, s_0 = 0; r_1 =
    a, s_1 = 1); the modulus is irreducible, so the last nonzero remainder
    is a constant c and a^(-1) = s / c."""
    if a == 0:
        raise ZeroDivisionError("inverse of zero")
    r0, r1 = list(mod), _poly_trim(digits(a, p, k))
    s0, s1 = [], [1]
    while len(r1) > 1:
        lead_inv = pow(r1[-1], -1, p)
        n1 = len(r1) - 1
        while len(r0) > n1:  # r0 -= c x^shift r1, s0 -= c x^shift s1
            c = r0.pop() * lead_inv % p
            shift = len(r0) - n1
            for j in range(n1):
                r0[shift + j] = (r0[shift + j] - c * r1[j]) % p
            _poly_trim(r0)
            if len(s0) < shift + len(s1):
                s0 += [0] * (shift + len(s1) - len(s0))
            for j, v in enumerate(s1):
                s0[shift + j] = (s0[shift + j] - c * v) % p
        r0, r1, s0, s1 = r1, r0, _poly_trim(s1), _poly_trim(s0)
    c = pow(r1[0], -1, p)
    return _encode([x * c % p for x in s1], p)


def _sqrt_by_powers(q: int, mul, pow_, neg, nonsquare):
    """root_enc on a model's kernels, for odd q and q = 2: the smaller of the
    two square roots of a, or None when a is not a square, from one
    exponentiation.  When q = 3 (mod 4) it is s = a^((q+1)/4), and a is a
    square exactly when s^2 = a.  Otherwise write q - 1 = 2^e m with m odd:
    c = a^((m-1)/2) gives b = c^2 a = a^m, a is a square exactly when b
    squared e - 1 times is 1 (Euler's criterion), and Tonelli-Shanks goes on
    from s = c a = a^((m+1)/2) and b.  Its g = z^m, for the smallest
    non-square z (nonsquare()), is computed on the first root that needs it,
    the first with b != 1, and kept; over F_2 (e = 0) no root does."""
    m, e = q - 1, 0
    while not m & 1:
        m >>= 1
        e += 1
    g0 = None  # z^m

    def root(a: int) -> int | None:
        nonlocal g0
        if a == 0:
            return 0
        if e == 1:
            s = pow_(a, (q + 1) // 4)
            if mul(s, s) != a:
                return None
            return min(s, neg(s))
        c = pow_(a, (m - 1) // 2)
        s = mul(c, a)
        b = mul(c, s)
        t = b
        for _ in range(e - 1):
            t = mul(t, t)
        if t != 1:
            return None
        g, r = g0, e  # Tonelli-Shanks
        while b != 1:
            if g is None:
                g = g0 = pow_(nonsquare(), m)
            t, m2 = b, 0
            while t != 1:
                t = mul(t, t)
                m2 += 1
            w = g
            for _ in range(r - m2 - 1):
                w = mul(w, w)
            g = mul(w, w)
            s = mul(s, w)
            b = mul(b, g)
            r = m2
        return min(s, neg(s))

    return root


def _sqrt_or_raise(root, q: int, a: int) -> int:
    """sqrt_enc: root_enc(a), raising NotASquare where it is None."""
    s = root(a)
    if s is None:
        raise NotASquare(f"encoding {a} is not a square in F_{q}")
    return s


def _prime_kernels(p: int, nonsquare):
    """F_p: every kernel one or two operations mod p."""

    def add(a, b):
        return (a + b) % p

    def sub(a, b):
        return (a - b) % p

    def neg(a):
        return -a % p

    def mul(a, b):
        return a * b % p

    def inv(a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, p)

    def pow_(a, e):
        if e < 0:
            raise ValueError("negative exponent")
        return pow(a, e, p)

    half = (p - 1) // 2

    def is_square(a):  # Euler's criterion; every element of F_2
        return a == 0 or pow(a, half, p) == 1

    root = _root_by_table(p) if p <= _ROOT_TABLE_MAX_P else _sqrt_by_powers(p, mul, pow_, neg, nonsquare)
    return add, sub, neg, mul, inv, pow_, is_square, root


def _root_by_table(p: int):
    """root_enc for F_p, p <= _ROOT_TABLE_MAX_P: a read of roots[a], the
    smaller square root of a or None for a non-square, the same answer as
    _sqrt_by_powers.  The first root builds the table from the squares of s
    = 0, ..., p // 2, each the smaller root of its square (s <= p - s), with
    no exponentiation: p list slots, 4 us at p = 193.  The table is
    published only when full, so a root taken while another task builds it
    builds its own."""
    roots = None

    def root(a: int) -> int | None:
        nonlocal roots
        if roots is None:
            table = [None] * p
            for s in range(p // 2 + 1):
                table[s * s % p] = s
            roots = table
        return roots[a]

    return root


def _log_kernels(exp, log, zech, q: int):
    """Log model: a * b = exp[log a + log b], and a + b = a XOR b in
    characteristic 2 (zech None), else exp[log a + Z(log b - log a)].  exp
    and zech have 2(q-1) entries, so sums of two logs need no reduction, and
    a negative index into zech wraps, as it has period q-1."""
    n = q - 1
    half = n // 2  # log(-1) in odd characteristic

    def mul(a, b):
        return exp[log[a] + log[b]] if a and b else 0

    def inv(a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return exp[n - log[a]]

    def pow_(a, e):
        if e < 0:
            raise ValueError("negative exponent")
        if not a:
            return 0 if e else 1
        return exp[log[a] * e % n]

    if zech is None:
        def sqrt(a):  # q-1 is odd: halve log a or log a + q-1
            if a == 0:
                return 0
            la = log[a]
            return exp[(la + (la & 1) * n) >> 1]

        return operator.xor, operator.xor, _identity, mul, inv, pow_, _all_squares, sqrt

    def add(a, b):
        if a and b:
            la = log[a]
            z = zech[log[b] - la]  # a + b = alpha^la (1 + alpha^(lb - la))
            return exp[la + z] if z >= 0 else 0
        return a or b

    def sub(a, b):
        if not b:
            return a
        lb = log[b] + half  # log(-b)
        if not a:
            return exp[lb]
        la = log[a]
        z = zech[lb - la]
        return exp[la + z] if z >= 0 else 0

    def neg(a):
        return exp[log[a] + half] if a else 0

    def is_square(a):  # log[0] = 0: zero counts as a square
        return not log[a] & 1

    def root(a):
        if a == 0:
            return 0
        la = log[a]
        if la & 1:
            return None
        return min(exp[la >> 1], exp[(la >> 1) + half])

    return add, sub, neg, mul, inv, pow_, is_square, root


def _poly_kernels(p: int, k: int, mod: tuple[int, ...], nonsquare):
    """Odd characteristic above the table limit: digit-list polynomial
    arithmetic per operation, inversion by extended Euclid."""

    def add(a, b):
        return _encode([(x + y) % p for x, y in zip(digits(a, p, k), digits(b, p, k))], p)

    def neg(a):
        return _encode([-x % p for x in digits(a, p, k)], p)

    def sub(a, b):
        return add(a, neg(b))

    mul = partial(_poly_mul, p, k, mod)
    pow_ = partial(_poly_pow, p, k, mod)
    half = (p**k - 1) // 2

    def is_square(a):  # Euler's criterion
        return a == 0 or pow_(a, half) == 1

    return (add, sub, neg, mul, partial(_poly_inv, p, k, mod), pow_, is_square,
            _sqrt_by_powers(p**k, mul, pow_, neg, nonsquare))


def _char2_poly_kernels(mod: tuple[int, ...]):
    """Characteristic 2 above the table limit: an encoding is the bit vector
    of its polynomial, so addition is XOR, multiplication is carry-less
    shift-and-XOR and inversion is the binary extended Euclidean algorithm
    (Hankerson, Menezes and Vanstone, Guide to ECC, alg. 2.48)."""
    k = len(mod) - 1
    f = _encode(list(mod), 2)
    low = (1 << k) - 1
    tail = [j for j in range(k) if mod[j]]  # x^k = sum of x^j over the tail

    def mul(a, b):
        # t[w] = w * b for each 4-bit window w; a is read 4 bits at a time
        b2, b4, b8 = b << 1, b << 2, b << 3
        t = (0, b, b2, b2 ^ b, b4, b4 ^ b, b4 ^ b2, b4 ^ b2 ^ b)
        t += tuple(w ^ b8 for w in t)
        r = s = 0
        while a:
            r ^= t[a & 15] << s
            a >>= 4
            s += 4
        while r >> k:  # fold the bits from x^k up back by the tail
            high = r >> k
            r &= low
            for j in tail:
                r ^= high << j
        return r

    def inv(a):  # a g1 = u and a g2 = v modulo f throughout
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        u, v, g1, g2 = a, f, 1, 0
        while u != 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v, g1, g2 = v, u, g2, g1
                j = -j
            u ^= v << j
            g1 ^= g2 << j
        return g1

    def pow_(a, e):
        if e < 0:
            raise ValueError("negative exponent")
        r = 1
        while e:
            if e & 1:
                r = mul(r, a)
            a = mul(a, a)
            e >>= 1
        return r

    def sqrt(a):  # Frobenius is bijective: the unique root is a^(2^(k-1))
        for _ in range(k - 1):
            a = mul(a, a)
        return a

    return operator.xor, operator.xor, _identity, mul, inv, pow_, _all_squares, sqrt


def _identity(a: int) -> int:  # negation in characteristic 2
    return a


def _all_squares(a: int) -> bool:  # is_square in characteristic 2
    return True


def _span(vectors: list[int], p: int, add) -> list[int]:
    """t[x] = x_0 vectors[0] + x_1 vectors[1] + ..., summed by add, for each
    x < p^len(vectors) with base-p digits x_j."""
    t = [0]
    for v in vectors:
        parts = [t]
        for _ in range(p - 1):
            parts.append([add(x, v) for x in parts[-1]])
        t = list(chain.from_iterable(parts))
    return t


def _spread(t, p: int, w: int, r: int) -> list:
    """t, indexed by r base-p digits, re-indexed by r slots of w bits, a slot
    holding d read as the digit d mod p."""
    if r == 0:
        return list(t)
    size = len(t) // p
    parts = [_spread(t[d * size:(d + 1) * size], p, w, r - 1) for d in range(p)]
    return list(chain.from_iterable(parts[d % p] for d in range(1 << w)))


def _char2_maps(modulus: tuple[int, ...]) -> tuple[int, dict[int, tuple[int, int]]]:
    """Char 2: the mask T with Tr(a) = parity of popcount(a & T), and the
    echelon rows {leading bit: (image, root)} of z -> z^2 + z.

    Bit i of T is Tr(x^i), the power sum s_i of the roots of the modulus
    x^k + c_1 x^(k-1) + ... + c_k: by Newton's identities mod 2, s_0 = k and
    s_i = c_1 s_(i-1) + ... + c_(i-1) s_1 + i c_i.  z -> z^2 + z has kernel
    {0, 1}, so it maps the even encodings, spanned by x, ..., x^(k-1), one to
    one onto the trace-0 hyperplane.
    """
    k = len(modulus) - 1
    c = modulus[::-1]  # c[j] is the coefficient of x^(k-j)
    f = sum(bit << j for j, bit in enumerate(modulus))
    s = [k & 1]
    rows: dict[int, tuple[int, int]] = {}
    square = 1  # x^(2i) mod the modulus
    for i in range(1, k):
        s.append((sum(c[j] & s[i - j] for j in range(1, i)) + i * c[i]) & 1)
        for _ in range(2):
            square = square << 1 ^ (f if square >> (k - 1) else 0)
        image, root = _reduce(rows, square ^ (1 << i))
        rows[image.bit_length() - 1] = (image, root ^ (1 << i))  # image != 0
    return sum(bit << i for i, bit in enumerate(s)), rows


def _reduce(rows: dict[int, tuple[int, int]], e: int) -> tuple[int, int]:
    """(e reduced by the rows while its leading bit has one, their roots' XOR)."""
    z = 0
    while e and (row := rows.get(e.bit_length() - 1)):
        e ^= row[0]
        z ^= row[1]
    return e, z


def _default_modulus(p: int, k: int) -> tuple[int, ...]:
    """Monic irreducible of degree k over F_p with smallest canonical encoding."""
    if k == 1:
        return (0, 1)
    for c in range(p**k):
        mod = digits(c, p, k) + [1]
        if _is_irreducible(mod, p):
            return tuple(mod)
    raise ReduciblePolynomial(f"no irreducible polynomial found for p={p}, k={k}")  # pragma: no cover


# ---------------------------------------------------------------------------
# field spec
# ---------------------------------------------------------------------------

class FieldSpec:
    """An explicit model of F_{p^k}: characteristic, degree, modulus, tables.

    Immutable after construction; lazily built lookup tables are filled once
    and only read afterwards, so instances are safe to share between tasks.
    They are _primitive, _chi (the quadratic character), _nonsquare and
    _curve_tables, Curve.__init__'s q^2-entry tables over the odd extension
    fields up to q = 49, built on the field's first curve by
    curve._curve_tables; and, held by the root_enc kernel itself, the prime
    fields' table of square roots up to p = _ROOT_TABLE_MAX_P, built on the
    first root (_root_by_table).
    The one growing cache is _count_memo, count_points' exhaustive results
    by completed square (odd q <= 49): entries are added as classes are met,
    and each value depends only on its key and the field, so two tasks that
    fill one entry at once store equal results.
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        self.char2 = p == 2
        self._primitive = None  # encoding of the smallest generator of F_q*
        # log model (1 < k, q <= 2^20), all array('i'): exp[i] = alpha^i and,
        # in odd characteristic, zech[i] = log(1 + alpha^i) (-1 where
        # 1 + alpha^i = 0) for i < 2(q-1), so sums of two logs index them
        # unreduced; log[a] for a != 0
        self._exp = None
        self._log = None
        self._zech = None
        # char 2: read by trace_enc and artin_enc
        self.trace_mask, self._artin_rows = _char2_maps(modulus) if self.char2 else (None, None)
        # lazy caches
        self._chi = None  # quadratic character by encoding: -1/0/1 (odd q)
        self._nonsquare = None  # smallest non-square encoding (odd q)
        self._count_memo = None  # CountResult by (c2, c4, c6), filled by counting.count_points
        self._curve_tables = None  # Curve.__init__'s tables (odd, 1 < k, q <= 49), by curve._curve_tables
        if 1 < k and self.q <= _LOG_LIMIT:
            self._build_log_tables()
        self._bind_kernels()

    # -- construction of elements ------------------------------------------------

    def element(self, value) -> "FieldElement":
        """Build an element from an encoding (int) or coefficient sequence."""
        if isinstance(value, FieldElement):
            if value.spec is not self:
                raise SpecMismatch("element belongs to a different field")
            return value
        try:
            value = operator.index(value)
        except TypeError:
            coeffs = list(value)
        else:
            if not 0 <= value < self.q:
                raise ValueError(f"encoding {value} outside [0, {self.q})")
            return FieldElement(self, value)
        if len(coeffs) > self.k or any(not 0 <= c < self.p for c in coeffs):
            raise ValueError("bad coefficient vector")
        return FieldElement(self, self.encode(coeffs))

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1 % self.q)

    def encode(self, coeffs) -> int:
        return _encode(list(coeffs), self.p)

    def decode(self, enc: int) -> tuple[int, ...]:
        return tuple(digits(enc, self.p, self.k))

    # -- encoded arithmetic kernels ----------------------------------------------
    # __init__ binds the kernels of the spec's field model on the instance:
    # add_enc, sub_enc, neg_enc, mul_enc, inv_enc, pow_enc, is_square_enc,
    # root_enc (the smaller square root, or None for a non-square) and
    # sqrt_enc (root_enc raising NotASquare), all on encodings.  The methods
    # below are the generic digit-list polynomial model, correct in every
    # field; the bound kernels shadow them, and _generator runs on them
    # before the log tables exist.

    def mul_enc(self, a: int, b: int) -> int:
        return _poly_mul(self.p, self.k, self.modulus, a, b)

    def pow_enc(self, a: int, e: int) -> int:
        return _poly_pow(self.p, self.k, self.modulus, a, e)

    def inv_enc(self, a: int) -> int:
        return _poly_inv(self.p, self.k, self.modulus, a)

    def _bind_kernels(self):
        """Choose the field model once and bind its kernel set, the same
        names in the same order for every model."""
        if self.k == 1:
            kernels = _prime_kernels(self.p, self.smallest_nonsquare)
        elif self._log is not None:
            kernels = _log_kernels(self._exp, self._log, self._zech, self.q)
        elif self.char2:
            kernels = _char2_poly_kernels(self.modulus)
        else:
            kernels = _poly_kernels(self.p, self.k, self.modulus, self.smallest_nonsquare)
        (self.add_enc, self.sub_enc, self.neg_enc, self.mul_enc, self.inv_enc,
         self.pow_enc, self.is_square_enc, self.root_enc) = kernels
        self.sqrt_enc = partial(_sqrt_or_raise, self.root_enc, self.q)

    def smallest_nonsquare(self) -> int:
        """Encoding of the non-square of smallest encoding (odd q)."""
        if self._nonsquare is None:
            a = 2
            while self.is_square_enc(a):
                a += 1
            self._nonsquare = a
        return self._nonsquare

    def trace_enc(self, a: int) -> int:
        """Absolute trace a + a^p + ... + a^(p^(k-1)), returned as an int in [0, p)."""
        if self.char2:
            return (a & self.trace_mask).bit_count() & 1
        if self.k == 1:
            return a
        acc = a
        frob = a
        for _ in range(self.k - 1):
            frob = self.pow_enc(frob, self.p)
            acc = self.add_enc(acc, frob)
        if acc >= self.p:
            raise AssertionError("absolute trace left the prime field")
        return acc

    def artin_enc(self, e: int) -> int | None:
        """Char 2: the smaller root of z^2 + z = e, which is the even one, or
        None when there is none (Tr(e) = 1); at most k - 1 XORs."""
        rest, z = _reduce(self._artin_rows, e)
        return None if rest else z

    # -- tables -------------------------------------------------------------------
    # The log model is built with the spec; every other table has one builder,
    # called on first use and cached on the spec.

    def _generator(self) -> int:
        """Encoding of the smallest generator of F_q* (q >= 3).  The log model
        calls this before its tables exist and its kernels are bound, so there
        it runs on the generic digit-list methods."""
        if self._primitive is None:
            n = self.q - 1
            cofactors = [n // ell for ell in sorted(set(factorize(n)))]
            # below p the encodings are F_p itself, whose order divides p-1
            a = 2 if self.k == 1 else self.p
            while any(self.pow_enc(a, c) == 1 for c in cofactors):
                a += 1
            self._primitive = a
        return self._primitive

    def _build_log_tables(self):
        """exp, log and (odd characteristic) Zech tables from the smallest
        generator alpha.

        exp walks alpha^i -> alpha^(i+1).  Multiplication by alpha is an
        F_p-linear map of digit vectors, so a step is a lookup for each half
        of the digits and the sum of the two images.  In characteristic 2 the
        encoding is the bit vector and the sum an XOR.  In odd characteristic
        the walk runs on the digits packed in slots of w bits, wide enough
        for the slotwise sum of two reduced vectors; the tables read a slot d
        as the digit d mod p, so no step reduces, and two more lookups give
        the encoding.  log is filled in the same walk.  1 + alpha^i raises
        the lowest digit of exp[i] by one, mod p, so the Zech table is log
        read at shifted encodings.
        """
        p, k, n = self.p, self.k, self.q - 1
        mod = list(self.modulus)
        images = []  # digits of alpha * x^j
        image = digits(self._generator(), p, k)
        for _ in range(k):
            images.append(image)
            image = _poly_mulmod(image, [0, 1], mod, p)
        half = k // 2
        exp, log = array("i", bytes(4 * n)), array("i", bytes(4 * self.q))
        # a memoryview stores an int faster than the array does
        with memoryview(exp) as exp_at, memoryview(log) as log_at:
            if self.char2:
                vectors = [_encode(image, 2) for image in images]
                low, high = _span(vectors[:half], 2, operator.xor), _span(vectors[half:], 2, operator.xor)
                mask = (1 << half) - 1
                e = 1
                for i in range(n):
                    exp_at[i] = e
                    log_at[e] = i
                    e = low[e & mask] ^ high[e >> half]
            else:
                w = (2 * p - 2).bit_length()
                # a slot d in [p, 2p-2] has d + 2^(w-1) - p in [2^(w-1), 2^w)
                bias = sum(((1 << (w - 1)) - p) << (w * j) for j in range(k))
                tops = sum(1 << (w * j + w - 1) for j in range(k))

                def add(x, v):  # slotwise (x + v) mod p
                    y = x + v
                    return y - (((y + bias) & tops) >> (w - 1)) * p

                vectors = [sum(c << (w * j) for j, c in enumerate(image)) for image in images]
                map_lo = _spread(_span(vectors[:half], p, add), p, w, half)
                map_hi = _spread(_span(vectors[half:], p, add), p, w, k - half)
                enc_lo = _spread(range(p**half), p, w, half)
                enc_hi = _spread(range(0, self.q, p**half), p, w, k - half)
                shift = w * half
                mask = (1 << shift) - 1
                s = 1
                for i in range(n):
                    lo, hi = s & mask, s >> shift
                    e = enc_lo[lo] + enc_hi[hi]
                    exp_at[i] = e
                    log_at[e] = i
                    s = map_lo[lo] + map_hi[hi]
        zech = None
        if not self.char2:
            # plus_one[e] = log of e with its lowest digit raised by one mod p
            plus_one = log[1:]
            plus_one.append(0)
            plus_one[p - 1::p] = log[::p]
            # gathered by itemgetter a chunk at a time: n is even, so every
            # chunk has at least two indexes and the getter returns a tuple
            zech = array("i")
            for i in range(0, n, _ZECH_CHUNK):
                zech.extend(operator.itemgetter(*exp[i:i + _ZECH_CHUNK])(plus_one))
            zech[n // 2] = -1  # 1 + alpha^i = 0 exactly at alpha^i = -1
            zech *= 2
        exp *= 2
        self._exp, self._log, self._zech = exp, log, zech

    def chi_table(self):
        """Quadratic character by encoding, an array('b'): 0 at 0, +1 on
        squares, -1 elsewhere."""
        if self._chi is None:
            if self._log is not None and not self.char2:
                table = array("b", (1 - 2 * (i & 1) for i in self._log))  # even logs
            else:
                table = array("b", [-1]) * self.q
                mul = self.mul_enc
                for a in range(1, self.q):
                    table[mul(a, a)] = 1
            table[0] = 0
            self._chi = table
        return self._chi

    # -- misc ----------------------------------------------------------------------

    def __repr__(self):
        if self.k == 1:
            return f"FieldSpec(F_{self.p})"
        return f"FieldSpec(F_{self.p}^{self.k}, modulus={list(self.modulus)})"

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))


def _operator(kernel, reflected: bool = False):
    """A FieldElement operator: coerce the other operand, apply
    kernel(spec, a, b) with a = self (b = self when reflected), wrap.  The
    lambdas below look the spec's kernels up on each call."""

    def op(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        a = self.enc
        if reflected:
            a, b = b, a
        return FieldElement(self.spec, kernel(self.spec, a, b))

    return op


def _div(spec: FieldSpec, a: int, b: int) -> int:
    return spec.mul_enc(a, spec.inv_enc(b))


class FieldElement:
    """Immutable element of a FieldSpec, stored by canonical encoding."""

    __slots__ = ("spec", "enc")

    def __init__(self, spec: FieldSpec, enc: int):
        self.spec = spec
        self.enc = enc

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.spec.decode(self.enc)

    def _coerce(self, other) -> int:
        """The encoding of other: a FieldElement of this field, or an int,
        which stands for its residue mod p in the prime subfield."""
        if isinstance(other, FieldElement):
            if other.spec is not self.spec and other.spec != self.spec:
                raise SpecMismatch("elements from different fields")
            return other.enc
        if isinstance(other, int):
            return other % self.spec.p
        return NotImplemented

    __add__ = __radd__ = _operator(lambda spec, a, b: spec.add_enc(a, b))
    __sub__ = _operator(lambda spec, a, b: spec.sub_enc(a, b))
    __rsub__ = _operator(lambda spec, a, b: spec.sub_enc(a, b), reflected=True)
    __mul__ = __rmul__ = _operator(lambda spec, a, b: spec.mul_enc(a, b))
    __truediv__ = _operator(_div)
    __rtruediv__ = _operator(_div, reflected=True)

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg_enc(self.enc))

    def __pow__(self, e: int):
        return FieldElement(self.spec, self.spec.pow_enc(self.enc, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.inv_enc(self.enc))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.spec == other.spec and self.enc == other.enc
        if isinstance(other, int):
            return self == FieldElement(self.spec, self._coerce(other))
        return NotImplemented

    def __hash__(self):
        return hash((self.enc, self.spec.q))

    def __bool__(self):
        return self.enc != 0

    def __repr__(self):
        return f"F{self.spec.q}({self.enc})"


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def make_spec(p: int, k: int = 1, modulus=None) -> FieldSpec:
    """Create (or fetch the cached) model of F_{p^k}.

    If no modulus is given the default (smallest-encoding monic irreducible)
    is selected; a supplied modulus must be monic of degree k with reduced
    coefficients and is verified irreducible.  Fields above MAX_Q = 2^62 raise
    FieldTooLarge.
    """
    if modulus is None:
        # a spec with the default modulus is also cached under (p, k, None),
        # so a repeated call skips the validation and the modulus search
        spec = _SPEC_CACHE.get((p, k, None))
        if spec is not None:
            return spec
    if p > 1 and k > 0 and (k > 62 or p**k > MAX_Q):
        raise FieldTooLarge(f"q = {p}^{k}: field sizes above 2^62 are not supported")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    if modulus is None:
        mod = _default_modulus(p, k)
    else:
        mod = tuple(int(c) for c in modulus)
        if len(mod) != k + 1 or mod[-1] != 1 or any(not 0 <= c < p for c in mod):
            raise ReduciblePolynomial(f"modulus must be monic of degree {k} with coefficients in [0,{p})")
        if k > 1 and not _is_irreducible(list(mod), p):
            raise ReduciblePolynomial(f"modulus {list(mod)} is reducible over F_{p}")
    key = (p, k, mod)
    spec = _SPEC_CACHE.get(key)
    if spec is None:
        spec = FieldSpec(p, k, mod)
        _SPEC_CACHE[key] = spec
    if modulus is None:
        _SPEC_CACHE[(p, k, None)] = spec
    return spec


def check_field_size(q: int) -> None:
    """Raise FieldTooLarge for q above MAX_Q = 2^62."""
    if q > MAX_Q:
        raise FieldTooLarge(f"q = {q}: field sizes above 2^62 are not supported")


def spec_for_q(q: int, modulus=None) -> FieldSpec:
    """Model of F_q given the prime power q itself (q <= 2^62).  With the
    default modulus a plain int q is looked up in _Q_CACHE before it is split
    into p^k; only specs that were built are cached, so a q that is no prime
    power is split, and refused, on every call."""
    check_field_size(q)
    if modulus is None and type(q) is int:
        spec = _Q_CACHE.get(q)
        if spec is None:
            spec = _Q_CACHE[q] = make_spec(*split_prime_power(q))
        return spec
    p, k = split_prime_power(q)
    return make_spec(p, k, modulus)


def is_square(a: FieldElement) -> bool:
    """True iff a is a square; in characteristic 2 every element is."""
    return a.spec.is_square_enc(a.enc)


def sqrt(a: FieldElement) -> FieldElement:
    """A square root of a; of the two roots the one with smaller encoding."""
    return FieldElement(a.spec, a.spec.sqrt_enc(a.enc))


def primitive_element(spec: FieldSpec) -> FieldElement:
    """Generator of F_q* with the smallest canonical encoding (q >= 3)."""
    if spec.q < 3:
        raise ValueError("F_2 has no generator of order >= 2")
    return FieldElement(spec, spec._generator())


def random_element(spec: FieldSpec, rng: random.Random) -> FieldElement:
    """Uniform element via one radix digit per basis coordinate."""
    return FieldElement(spec, spec.encode([rng.randrange(spec.p) for _ in range(spec.k)]))


def absolute_trace(a: FieldElement) -> int:
    """Trace down to the prime field, as an integer in [0, p)."""
    return a.spec.trace_enc(a.enc)
