"""integers.py: Miller-Rabin primality, rho factoring and prime-power splitting
against sieve and trial-division references."""

import math
import random
import time

import numpy as np
import pytest

from hassecount.errors import NotPrimePower
from hassecount.integers import factorize, is_prime, sieve_primes, split_prime_power

M31 = 2**31 - 1
REF_LIMIT = 3_200_000  # above sqrt(10^13)
REF_PRIMES = np.array(sieve_primes(REF_LIMIT), dtype=np.int64)


def trial_division(n):
    """Prime factors of n < 10^13 with multiplicity, by trial division over a sieve."""
    out = []
    for p in REF_PRIMES[n % REF_PRIMES == 0].tolist():
        while n % p == 0:
            out.append(p)
            n //= p
    if n > 1:
        out.append(n)  # no prime factor up to REF_LIMIT, so n is prime
    return out


def test_is_prime_matches_sieve():
    limit = 200_000
    primes = set(sieve_primes(limit))
    assert [n for n in range(-5, limit) if is_prime(n)] == sorted(primes)


@pytest.mark.parametrize(
    "n",
    [
        561,  # Carmichael
        # the least strong pseudoprimes to the first k primes (OEIS A014233),
        # where is_prime takes one base more than below them
        2047,  # base 2
        1373653,  # bases 2, 3
        25326001,  # bases 2, 3, 5
        3215031751,  # bases 2..7
        2152302898747,  # bases 2..11
        3474749660383,  # bases 2..13
        341550071728321,  # bases 2..17 and 2..19
        3825123056546413051,  # bases 2..23, 2..29 and 2..31
        318665857834031151167461,  # bases 2..37: base 41 decides
    ],
)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def miller_rabin_13(n):
    """Miller-Rabin to all 13 bases 2..41, exact below 3317044064679887385961981."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    if n in bases:
        return True
    if any(n % a == 0 for a in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_is_prime_with_fewer_bases_matches_all_13():
    """The bases the size of n needs give the 13-base answer: on every n
    below 2*10^5, on seeded random n below 2^62 of every bit length, and
    on products of two random primes below 2^33, the shape of most strong
    pseudoprimes."""
    assert all(is_prime(n) == miller_rabin_13(n) for n in range(200_000))
    rng = random.Random(62)
    primes = 0
    for _ in range(20_000):
        n = rng.randrange(2, 1 << rng.randrange(2, 63))
        assert is_prime(n) == miller_rabin_13(n), n
        primes += miller_rabin_13(n)
    for _ in range(2_000):
        bits = rng.randrange(2, 32)
        a, b = (next(m for m in range(rng.randrange(1 << bits) | 1, 1 << 33, 2) if miller_rabin_13(m))
                for _ in range(2))
        assert not is_prime(a * b) and not miller_rabin_13(a * b)
    assert primes > 500


def test_is_prime_known_primes():
    assert is_prime(M31) and is_prime(2**61 - 1) and is_prime(10**12 + 39)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287


def test_is_prime_refuses_beyond_exact_range():
    with pytest.raises(ValueError):
        is_prime(3317044064679887385961981)
    with pytest.raises(ValueError):
        is_prime(1 << 100)


def test_factorize_matches_trial_division():
    rng = random.Random(2024)
    for _ in range(2000):
        n = rng.randrange(1, 10**13)
        assert factorize(n) == trial_division(n), n


def test_factorize_primes_near_the_screen():
    """Against trial division, on n < 10^13 built only from primes near 1000,
    on both sides of the gcd screen's limit, and on n with no prime factor
    below 1000: one prime, or two or three of them, up to 3.2 * 10^6."""
    rng = random.Random(1000)
    near = [p for p in sieve_primes(1100) if p > 900]
    above = REF_PRIMES[REF_PRIMES > 1000].tolist()
    for _ in range(300):
        n = rng.choice(near)
        while n * 1100 < 10**13:
            n *= rng.choice(near)
        assert factorize(n) == trial_division(n), n
        n = rng.choice(above)
        for _ in range(rng.randrange(3)):
            if n * 3_200_000 < 10**13:
                n *= rng.choice(above)
        assert factorize(n) == trial_division(n), n


def test_factorize_powers_of_2_and_3_times_a_large_prime():
    big = next(n for n in range(2**32 + 1, 2**33, 2) if is_prime(n))
    for a in range(0, 31, 3):
        for b in range(0, 20, 2):
            n = 2**a * 3**b * big
            if n < 2**63:
                assert factorize(n) == [2] * a + [3] * b + [big], (a, b)
    assert factorize(2**30 * big) == [2] * 30 + [big]
    assert factorize(3**18 * big) == [3] * 18 + [big]


def naive_factors(n):
    """Prime factors of n with multiplicity, by trial division by every d >= 2."""
    out, d = [], 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def test_factorize_matches_naive_below_2e5():
    for n in range(1, 200_000):
        assert factorize(n) == naive_factors(n), n


@pytest.mark.parametrize(
    "n,expected",
    [
        (M31 * M31, [M31, M31]),
        (M31 * (2**31 - 19), [2**31 - 19, M31]),
        (2**62, [2] * 62),
        (1, []),
        (999 * 997, [3, 3, 3, 37, 997]),
        (997**2, [997, 997]),  # the largest trial prime, squared
        (997 * 1009, [997, 1009]),  # one factor on each side of the trial limit
        (1009**2, [1009, 1009]),  # no trial divisor: split by rho
        (1000003 * 1000033, [1000003, 1000033]),
        (2**61 - 1, [2**61 - 1]),
        (3**39, [3] * 39),
        (2**63 - 1, [7, 7, 73, 127, 337, 92737, 649657]),  # the largest n the guard admits
    ],
)
def test_factorize_known(n, expected):
    assert factorize(n) == expected


def test_factorize_near_guard():
    rng = random.Random(62)
    for _ in range(20):
        n = rng.randrange(2**62, 2**63)
        f = factorize(n)
        assert f == sorted(f) and math.prod(f) == n and all(map(is_prime, f))
    with pytest.raises(ValueError):
        factorize(1 << 63)
    with pytest.raises(ValueError):
        factorize(0)


@pytest.mark.parametrize(
    "q,expected",
    [
        (M31 * M31, (M31, 2)),
        (3**39, (3, 39)),
        (2**61, (2, 61)),
        (2**61 - 1, (2**61 - 1, 1)),
        (2**62, (2, 62)),
        (7**2 * 7, (7, 3)),
        (2, (2, 1)),
    ],
)
def test_split_prime_power(q, expected):
    t0 = time.perf_counter()
    assert split_prime_power(q) == expected
    assert time.perf_counter() - t0 < 0.01


@pytest.mark.parametrize("q", [6, M31 * (2**13 - 1), 1, 0, 2**10 * 3**5, (M31 * 3) ** 2])
def test_split_prime_power_rejects(q):
    t0 = time.perf_counter()
    with pytest.raises(NotPrimePower):
        split_prime_power(q)
    assert time.perf_counter() - t0 < 0.01
