"""Exact arithmetic in F_q = F_{p^k} for any prime power, any characteristic.

Elements live in a polynomial basis over F_p with a deterministic canonical
integer encoding enc(a) = sum(coeffs[i] * p^i), which gives a total order used
for tie-breaking (square roots, primitive elements) and for the CLI wire
format.  The default modulus for an extension field is the monic irreducible
polynomial of degree k with the smallest canonical encoding, so every field
model is reproducible from (p, k) alone.

Prime fields compute directly mod p.  Extension fields of moderate size build
flat multiplication/addition tables (vectorized with numpy) so that the hot
counting loops run on plain integer lookups; larger extensions fall back to
polynomial arithmetic per operation.  The O(q) tables (inverses, quadratic
character, char-2 trace and Artin roots) are built on first use at any size.

Inside the library every field element is its encoding, a plain int, and the
arithmetic is the FieldSpec kernels (add_enc, mul_enc, inv_enc, ...).
FieldElement is the public facade: an encoding with operator overloading, for
callers outside the library and for the public functions of this module.
"""

from __future__ import annotations

import random

import numpy as np

from .errors import NotASquare, NotPrime, ReduciblePolynomial, SpecMismatch
from .integers import factorize, is_prime

# Extension fields up to this size get q^2 mul/add tables and an inverse
# table; all certification work lives at q <= 1024.
_TABLE_LIMIT = 1200

_SPEC_CACHE: dict[tuple[int, int, tuple[int, ...]], "FieldSpec"] = {}


# ---------------------------------------------------------------------------
# polynomial arithmetic over F_p (coefficient tuples, lowest degree first)
# ---------------------------------------------------------------------------

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
        inv_lead = pow(b[-1], p - 2, p)
        monic = [(c * inv_lead) % p for c in b]
        a, b = b, _poly_rem(a, monic, p)
    return a


def _is_irreducible(mod: list[int], p: int) -> bool:
    """Rabin-style test: gcd(x^{p^i} - x, mod) must be constant for i <= k/2.

    A reducible monic polynomial of degree k has an irreducible factor of some
    degree d <= k/2, and that factor divides x^{p^d} - x, so the gcd catches it.
    """
    k = len(mod) - 1
    if k == 1:
        return True
    if mod[0] == 0:
        return False  # x divides it
    xp = _poly_rem([0, 1], mod, p)
    for _ in range(k // 2):
        xp = _poly_pow_step(xp, p, mod)
        diff = list(xp) + [0] * max(0, 2 - len(xp))
        diff = [(c - (1 if i == 1 else 0)) % p for i, c in enumerate(diff)]
        g = _poly_gcd(mod, diff, p)
        if len(g) > 1:
            return False
    return True


def _poly_pow_step(a: list[int], p: int, mod: list[int]) -> list[int]:
    """a^p mod the modulus (one Frobenius step)."""
    result = [1]
    base = list(a)
    e = p
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _default_modulus(p: int, k: int) -> tuple[int, ...]:
    """Monic irreducible of degree k over F_p with smallest canonical encoding."""
    if k == 1:
        return (0, 1)
    for c in range(p**k):
        digits = []
        n = c
        for _ in range(k):
            n, d = divmod(n, p)
            digits.append(d)
        mod = digits + [1]
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
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        self.char2 = p == 2
        # lazy caches
        self._mul = None  # flat numpy int32 table, index a*q+b
        self._add = None
        self._inv = None
        self._chi = None  # quadratic character by encoding: -1/0/1 (odd q)
        self._trace = None  # absolute trace by encoding (char 2)
        self._artin = None  # char 2: smallest z with z^2+z=e, -1 when there is none
        self._primitive = None
        self._sqrt_nonres = None

    # -- construction of elements ------------------------------------------------

    def element(self, value) -> "FieldElement":
        """Build an element from an encoding (int) or coefficient sequence."""
        if isinstance(value, FieldElement):
            if value.spec is not self:
                raise SpecMismatch("element belongs to a different field")
            return value
        if isinstance(value, (int, np.integer)):
            value = int(value)
            if not 0 <= value < self.q:
                raise ValueError(f"encoding {value} outside [0, {self.q})")
            return FieldElement(self, value)
        coeffs = list(value)
        if len(coeffs) > self.k or any(not 0 <= c < self.p for c in coeffs):
            raise ValueError("bad coefficient vector")
        return FieldElement(self, self.encode(coeffs))

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1 % self.q)

    def encode(self, coeffs) -> int:
        enc = 0
        for c in reversed(list(coeffs)):
            enc = enc * self.p + c
        return enc

    def decode(self, enc: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.k):
            enc, d = divmod(enc, self.p)
            out.append(d)
        return tuple(out)

    # -- encoded arithmetic kernels ----------------------------------------------

    def add_enc(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if self.char2:
            return a ^ b
        if self._add is not None:
            return int(self._add[a * self.q + b])
        return self.encode((x + y) % self.p for x, y in zip(self.decode(a), self.decode(b)))

    def sub_enc(self, a: int, b: int) -> int:
        return self.add_enc(a, self.neg_enc(b))

    def neg_enc(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        if self.char2:
            return a
        return self.encode((-x) % self.p for x in self.decode(a))

    def mul_enc(self, a: int, b: int) -> int:
        if self.k == 1:
            return a * b % self.p
        t = self._mul
        if t is None:
            t = self.mul_add_tables()[0]
        if t is not None:
            return int(t[a * self.q + b])
        prod = _poly_mulmod(list(self.decode(a)), list(self.decode(b)), list(self.modulus), self.p)
        return self.encode(prod + [0] * (self.k - len(prod)))

    def pow_enc(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError("negative exponent")
        if self.k == 1:
            return pow(a, e, self.p)
        result = 1
        base = a
        mul = self.mul_enc
        while e:
            if e & 1:
                result = mul(result, base)
            base = mul(base, base)
            e >>= 1
        return result

    def inv_enc(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.k == 1:
            return pow(a, -1, self.p)
        if self.q <= _TABLE_LIMIT:
            return int(self.inv_table()[a])
        return self.pow_enc(a, self.q - 2)

    def is_square_enc(self, a: int) -> bool:
        if a == 0 or self.char2:
            return True
        if self._chi is not None or self.q <= _TABLE_LIMIT:
            return self.chi_table()[a] >= 0
        return self.pow_enc(a, (self.q - 1) // 2) == 1

    def sqrt_enc(self, a: int) -> int:
        q = self.q
        if a == 0:
            return 0
        if self.char2:
            # Frobenius is bijective: the unique root is a^(2^(k-1)).
            s = a
            for _ in range(self.k - 1):
                s = self.mul_enc(s, s)
            return s
        if not self.is_square_enc(a):
            raise NotASquare(f"encoding {a} is not a square in F_{q}")
        if q % 4 == 3:
            s = self.pow_enc(a, (q + 1) // 4)
        else:
            s = self._tonelli_shanks(a)
        return min(s, self.neg_enc(s))

    def _tonelli_shanks(self, a: int) -> int:
        q = self.q
        m = q - 1
        e = 0
        while m % 2 == 0:
            m //= 2
            e += 1
        if self._sqrt_nonres is None:
            z = 2
            while self.is_square_enc(z):
                z += 1
            self._sqrt_nonres = z
        g = self.pow_enc(self._sqrt_nonres, m)
        x = self.pow_enc(a, (m + 1) // 2)
        b = self.pow_enc(a, m)
        r = e
        while b != 1:
            t = b
            m2 = 0
            while t != 1:
                t = self.mul_enc(t, t)
                m2 += 1
            w = g
            for _ in range(r - m2 - 1):
                w = self.mul_enc(w, w)
            g = self.mul_enc(w, w)
            x = self.mul_enc(x, w)
            b = self.mul_enc(b, g)
            r = m2
        return x

    def trace_enc(self, a: int) -> int:
        """Absolute trace a + a^p + ... + a^(p^(k-1)), returned as an int in [0, p)."""
        if self.k == 1:
            return a
        if self.char2 and self._trace is not None:
            return int(self._trace[a])
        acc = a
        frob = a
        for _ in range(self.k - 1):
            frob = self.pow_enc(frob, self.p)
            acc = self.add_enc(acc, frob)
        if acc >= self.p:
            raise AssertionError("absolute trace left the prime field")
        return acc

    # -- lazy tables ----------------------------------------------------------------
    # Each table has one builder, called on first use and cached on the spec.

    def mul_add_tables(self):
        """Flat q^2 (mul, add) tables, index a*q+b, for extension fields up to
        the table limit; add is None in characteristic 2 (XOR).  (None, None)
        for prime fields and beyond the limit."""
        if self.k == 1 or self.q > _TABLE_LIMIT:
            return None, None
        if self._mul is None:
            q, p, k = self.q, self.p, self.k
            digits = np.zeros((q, k), dtype=np.int64)
            n = np.arange(q, dtype=np.int64)
            for i in range(k):
                digits[:, i] = n % p
                n //= p
            pw = np.array([p**i for i in range(k)], dtype=np.int64)
            # red[t] = digit vector of alpha^t reduced mod the modulus
            red = []
            cur = [1]
            for _ in range(2 * k - 1):
                red.append(np.array(cur + [0] * (k - len(cur)), dtype=np.int64))
                cur = _poly_mulmod(cur, [0, 1], list(self.modulus), p)
            mul = np.zeros((q, q), dtype=np.int64)
            for a in range(q):
                ad = digits[a]
                accum = np.zeros((q, k), dtype=np.int64)
                # product coefficients w_t = sum_{i+j=t} a_i b_j, reduced via alpha^t
                for i in range(k):
                    if ad[i] == 0:
                        continue
                    for j in range(k):
                        accum += (ad[i] * digits[:, j])[:, None] * red[i + j][None, :]
                mul[a] = (accum % p) @ pw
            self._mul = mul.astype(np.int32).ravel()
            if not self.char2:
                s = (digits[:, None, :] + digits[None, :, :]) % p
                self._add = (s @ pw).astype(np.int32).ravel()
        return self._mul, self._add

    def inv_table(self):
        """Inverse by encoding (0 at 0), at any q, by batch inversion: prefix
        products of 1..q-1, one exponentiation, then back-substitution."""
        if self._inv is None:
            q, mul = self.q, self.mul_enc
            prefix = [1] * q  # prefix[a] = 1 * 2 * ... * a
            for a in range(2, q):
                prefix[a] = mul(prefix[a - 1], a)
            inv = np.zeros(q, dtype=np.int32)
            acc = self.pow_enc(prefix[q - 1], q - 2)  # (1 * ... * a)^-1, from a = q-1 down
            for a in range(q - 1, 0, -1):
                inv[a] = mul(acc, prefix[a - 1])
                acc = mul(acc, a)
            self._inv = inv
        return self._inv

    def chi_table(self):
        """Quadratic character by encoding: 0 at 0, +1 on squares, -1 elsewhere."""
        if self._chi is None:
            chi = np.full(self.q, -1, dtype=np.int8)
            chi[0] = 0
            mul = self.mul_enc
            for a in range(1, self.q):
                chi[mul(a, a)] = 1
            self._chi = chi
        return self._chi

    def trace_artin_tables(self):
        """Char 2: (trace, artin) by encoding, where artin[e] is the smallest
        root of z^2 + z = e, or -1 when there is none (trace of e is 1).

        Both z -> Tr(z) and z -> z^2 + z are F_2-linear, so the tables are
        spanned from the basis values at 1, 2, 4, ...: doubling the table over
        each basis element costs one vectorized XOR.  The kernel of z^2 + z is
        {0, 1}, so the even encodings hit every root class once and hold the
        smaller root of each pair.
        """
        if self._trace is None:
            tr = np.zeros(1, dtype=np.int8)
            img = np.zeros(1, dtype=np.int64)  # img[z] = z^2 + z
            for i in range(self.k):
                b = 1 << i
                tr = np.concatenate((tr, tr ^ self.trace_enc(b)))
                img = np.concatenate((img, img ^ (self.mul_enc(b, b) ^ b)))
            artin = np.full(self.q, -1, dtype=np.int64)
            artin[img[0::2]] = np.arange(0, self.q, 2)
            self._trace = tr
            self._artin = artin
        return self._trace, self._artin

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
        if isinstance(other, FieldElement):
            if other.spec is not self.spec and other.spec != self.spec:
                raise SpecMismatch("elements from different fields")
            return other.enc
        if isinstance(other, int):
            return other % self.spec.p if self.spec.k == 1 else self.spec.encode(
                [other % self.spec.p] + [0] * (self.spec.k - 1)
            )
        return NotImplemented

    def __add__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.add_enc(self.enc, b))

    __radd__ = __add__

    def __sub__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.sub_enc(self.enc, b))

    def __rsub__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.sub_enc(b, self.enc))

    def __mul__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.mul_enc(self.enc, b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.mul_enc(self.enc, self.spec.inv_enc(b)))

    def __rtruediv__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.mul_enc(b, self.spec.inv_enc(self.enc)))

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
    coefficients and is verified irreducible.
    """
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
    return spec


def spec_for_q(q: int, modulus=None) -> FieldSpec:
    """Model of F_q given the prime power q itself."""
    from .integers import split_prime_power

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
    if spec._primitive is None:
        n = spec.q - 1
        prime_divs = sorted(set(factorize(n)))
        a = 2
        while True:
            if all(spec.pow_enc(a, n // ell) != 1 for ell in prime_divs):
                spec._primitive = a
                break
            a += 1
    return FieldElement(spec, spec._primitive)


def random_element(spec: FieldSpec, rng: random.Random) -> FieldElement:
    """Uniform element via one radix digit per basis coordinate."""
    enc = 0
    for i in range(spec.k):
        enc += rng.randrange(spec.p) * spec.p**i
    return FieldElement(spec, enc)


def absolute_trace(a: FieldElement) -> int:
    """Trace down to the prime field, as an integer in [0, p)."""
    return a.spec.trace_enc(a.enc)
