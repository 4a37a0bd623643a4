"""Exact integer helpers: primality, sieving, factoring, prime powers.

`is_prime` is deterministic Miller-Rabin with the first k of the 13 primes
2..41 as bases, the least k that is exact below n: k bases are exact below
the least strong pseudoprime to all of them (OEIS A014233; Jaeschke, Math.
Comp. 61, 1993; Sorenson and Webster, Math. Comp. 2017), all 13 below
3317044064679887385961981, and larger n are refused.  `factorize`
divides n by the primes below 1000 that one gcd with their product
shows to divide it, and splits a larger composite cofactor by Brent's
variant of Pollard rho (Brent, BIT 20, 1980).  Field sizes stop at 2^62,
so every annihilator q + 1 + 2 sqrt(q) stays below `factorize`'s 2^63
guard.
"""

from itertools import count
from math import gcd, isqrt, prod

from .errors import NotPrimePower

_FACTOR_LIMIT = 1 << 63
_MR_LIMIT = 3317044064679887385961981  # least strong pseudoprime to all 13 bases
# the bases 2..41, each with the least strong pseudoprime to it and every base
# before it (OEIS A014233): those bases are exact below that bound
_MR_BASES = ((2, 2047), (3, 1373653), (5, 25326001), (7, 3215031751), (11, 2152302898747),
             (13, 3474749660383), (17, 341550071728321), (19, 341550071728321),
             (23, 3825123056546413051), (29, 3825123056546413051), (31, 3825123056546413051),
             (37, 318665857834031151167461), (41, _MR_LIMIT))
_RHO_BATCH = 128  # rho steps per gcd


def is_prime(n: int) -> bool:
    """Deterministic primality: a screen by 2..41, then Miller-Rabin to the
    first k of those bases, the least k exact below n.

    Raises ValueError for n >= 3317044064679887385961981, where the bases no
    longer give an exact answer.
    """
    if n >= _MR_LIMIT:
        raise ValueError(f"is_prime is exact only below {_MR_LIMIT}, got {n}")
    if n < 2:
        return False
    for p, _ in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    k = next(k for k, (_, bound) in enumerate(_MR_BASES, 1) if n < bound)
    for a, _ in _MR_BASES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit, by Eratosthenes."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i in range(limit + 1) if flags[i]]


_TRIAL_PRIMES = tuple(sieve_primes(1000))  # factorize's trial divisors
_TRIAL_PRODUCT = prod(_TRIAL_PRIMES)
_TRIAL_SQUARE = 1009 * 1009  # the least composite with no prime factor below 1000


def prime_powers(limit: int) -> list[int]:
    """All prime powers p^k <= limit (k >= 1), ascending."""
    out = []
    for p in sieve_primes(limit):
        q = p
        while q <= limit:
            out.append(q)
            q *= p
    out.sort()
    return out


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by integer Newton from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def split_prime_power(q: int) -> tuple[int, int]:
    """Write q = p^k; raise NotPrimePower otherwise."""
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
    if is_prime(q):
        return q, 1
    for k in range(2, q.bit_length() + 1):
        r = _iroot(q, k)
        if r**k == q and is_prime(r):
            return r, k
    raise NotPrimePower(f"{q} is not a prime power")


def _rho_divisor(n: int) -> int:
    """A proper divisor of the odd composite n, by Brent's rho.

    Iterates y -> y^2 + c from y = 2 and takes the gcd of a product of
    _RHO_BATCH differences at once; if a batch overshoots to n it is replayed
    one step at a time, and a cycle without a split moves on to the next c.
    """
    for c in count(1):
        y, r, prod, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    prod = prod * (x - y) % n
                g = gcd(prod, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _large_prime_factors(n: int) -> list[int]:
    """Prime factors of n > 1 with multiplicity, unsorted."""
    if is_prime(n):
        return [n]
    d = _rho_divisor(n)
    return _large_prime_factors(d) + _large_prime_factors(n // d)


def factorize(n: int) -> list[int]:
    """Prime factors of n with multiplicity, ascending.

    One gcd with the product of the primes below 1000 picks the trial
    primes that divide n; only those divide it, and the screen stops once
    the gcd is used up.  The cofactor then has no prime factor below 1000,
    so below 1009^2 it is 1 or prime; above, it is Miller-Rabin prime or
    split by rho.  Guarded to n < 2^63.
    """
    if not 1 <= n < _FACTOR_LIMIT:
        raise ValueError(f"factorize requires 1 <= n < 2^63, got {n}")
    out = []
    g = gcd(n, _TRIAL_PRODUCT)
    for p in _TRIAL_PRIMES:
        if g == 1:
            break
        if g % p == 0:
            g //= p
            while n % p == 0:
                n //= p
                out.append(p)
    if n >= _TRIAL_SQUARE:
        return out + sorted(_large_prime_factors(n))
    if n > 1:
        out.append(n)
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    counts: dict[int, int] = {}
    for p in factorize(n):
        counts[p] = counts.get(p, 0) + 1
    out = [1]
    for p, e in counts.items():
        powers = [p**i for i in range(e + 1)]
        out = [d * w for d in out for w in powers]
    out.sort()
    return out
