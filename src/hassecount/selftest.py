"""Invariant suite behind the `selftest` CLI command.

Each check returns (name, ok, detail).  The full run certifies the headline
results (the exceptional sets over q <= 2^20, Table 1, the q=49 ambiguity)
and then stress-tests counting against the exhaustive oracle across prime
powers up to 1024, and against the supersingular and CM trace sets over
primes up to 2^62 and the Weil recurrence over large extension fields;
--fast stops the exceptional sets at 2^16, trims the field ranges to desk
scale and skips the large fields.
"""

from __future__ import annotations

import random
from math import isqrt
from typing import NamedTuple

from . import sweep
from .counting import EXCLUDED_Q, count_points
from .curve import Curve, count_exhaustive, quadratic_twist, random_point
from .errors import HasseCountError
from .exceptions import exceptional_q_set, verify_table1
from .finite_field import make_spec, random_element, spec_for_q
from .integers import is_prime, prime_powers
from .order import Congruence, Stats, bsgs_annihilator, hasse_interval, multiples_in_interval, trace_candidates
from .order import unique_trace_candidate


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


COROLLARY_SET = frozenset({5, 7, 9, 11, 17, 23, 29})


def cornacchia(d: int, p: int) -> tuple[int, int]:
    """(x, y) with x^2 + d y^2 = p, for an odd prime p where it has a solution
    (Cornacchia's algorithm)."""
    a, b = p, make_spec(p).sqrt_enc(-d % p)  # the root below p/2
    while b * b > p:
        a, b = b, a % b
    y2, rem = divmod(p - b * b, d)
    y = isqrt(y2)
    if rem or y * y != y2:
        raise ValueError(f"{p} is not of the form x^2 + {d} y^2")
    return b, y


def cm_trace_candidates(p: int, j: int) -> frozenset[int]:
    """Every trace t = p + 1 - #E of a curve over the prime field F_p with
    j-invariant 1728 (y^2 = x^3 + a x) or 0 (y^2 = x^3 + b), p > 3.

    Supersingular (p = 3 mod 4 at j = 1728, p = 2 mod 3 at j = 0): t = 0.
    Otherwise p = a^2 + b^2 gives t in {+-2a, +-2b}, and 4p = A^2 + 3B^2 gives
    t in {+-A, +-(A + 3B)/2, +-(A - 3B)/2} (Ireland and Rosen, ch. 18); here
    A = 2x and B = 2y for p = x^2 + 3y^2.
    """
    if j == 1728:
        if p % 4 == 3:
            return frozenset({0})
        a, b = cornacchia(1, p)
        base = (2 * a, 2 * b)
    else:
        if p % 3 == 2:
            return frozenset({0})
        x, y = cornacchia(3, p)
        base = (2 * x, x + 3 * y, x - 3 * y)
    return frozenset(s * t for t in base for s in (1, -1))


def cm_panel(bits: int, residue: int, rng: random.Random) -> list[tuple[Curve, frozenset[int]]]:
    """Two curves over F_p for a random prime p = residue (mod 12) of the given
    bit length, with their possible traces: y^2 = x^3 + a x and y^2 = x^3 + b,
    where a = 1 resp. b = 1 on the supersingular family and random otherwise."""
    while True:
        p = 12 * rng.randrange((1 << (bits - 1)) // 12 + 1, (1 << bits) // 12) + residue
        if is_prime(p):
            break
    spec = make_spec(p)
    a = 1 if p % 4 == 3 else rng.randrange(1, p)
    b = 1 if p % 3 == 2 else rng.randrange(1, p)
    return [
        (Curve(spec, 0, 0, 0, a, 0), cm_trace_candidates(p, 1728)),
        (Curve(spec, 0, 0, 0, 0, b), cm_trace_candidates(p, 0)),
    ]


def cm_oracle_check(bit_sizes, seed: int) -> tuple[bool, str]:
    """count_points by point orders against the CM and supersingular traces,
    on one cm_panel per bit size and residue class 1, 5, 7, 11 mod 12."""
    rng = random.Random(seed)
    n = 0
    for bits in bit_sizes:
        for residue in (1, 5, 7, 11):
            for e, traces in cm_panel(bits, residue, rng):
                res = count_points(e, "point_order", random.Random(seed + n))
                if res.trace not in traces:
                    return False, f"trace {res.trace} of {e!r} not in {sorted(traces)}"
                n += 1
    return True, f"{n} curves over primes of {list(bit_sizes)} bits match their CM traces"


def weil_count(p: int, k: int, coeffs) -> int:
    """#E(F_{p^k}) for a curve with F_p coefficients: t_1 from an exhaustive
    count over F_p, then t_j = t_1 t_{j-1} - p t_{j-2} with t_0 = 2."""
    t1 = p + 1 - count_exhaustive(Curve(make_spec(p), *coeffs))
    t = [2, t1]
    for _ in range(k - 1):
        t.append(t1 * t[-1] - p * t[-2])
    return p**k + 1 - t[k]


def _check(name: str, fn) -> CheckResult:
    try:
        ok, detail = fn()
    except HasseCountError as exc:
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")
    return CheckResult(name, ok, detail)


def run_selftest(fast: bool = False) -> list[CheckResult]:
    results = []
    census_bits = 16 if fast else 20

    def trace_ambiguity():
        got = exceptional_q_set(1 << census_bits)
        return got == EXCLUDED_Q, f"exceptional q <= 2^{census_bits}: {sorted(got)}"

    results.append(_check("trace-ambiguity-set", trace_ambiguity))

    def corollary():
        got = exceptional_q_set(1 << census_bits, corollary=True)
        return got == COROLLARY_SET, f"corollary q <= 2^{census_bits} (reading qm1): {sorted(got)}"

    results.append(_check("corollary-exceptional-set", corollary))

    def table1():
        reports = verify_table1()
        bad = [r.q for r in reports if not r.ok]
        return not bad, f"{sum(r.ok for r in reports)}/14 rows pass" + (
            f", failing q={bad}" if bad else ""
        )

    results.append(_check("table1-reproduction", table1))

    def ambiguity49():
        cands = trace_candidates(Congruence(14, 24), 49)
        ok = cands == [-10, 14] and unique_trace_candidate(Congruence(14, 24), 49) is None
        return ok, f"trace candidates mod 24 over F_49: {cands}"

    results.append(_check("q49-ambiguity", ambiguity49))

    def hasse_mult():
        h49 = hasse_interval(49)
        six = multiples_in_interval(6, h49)
        eight = multiples_in_interval(8, h49)
        ok = len(six) == 5 and len(eight) == 4
        return ok, f"multiples of 6: {six}, of 8: {eight}"

    results.append(_check("hasse-multiples-q49", hasse_mult))

    sweep_qs = [2, 3, 4, 5, 7, 8, 9] if fast else [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
    api_all = 70_000 if fast else 400_000

    def full_sweeps():
        total = 0
        for q in sweep_qs:
            rep = sweep.full_sweep_verify(spec_for_q(q), api_samples=200, api_all_limit=api_all)
            total += rep.curves
        return True, f"{total} curves verified over q in {sweep_qs}"

    results.append(_check("full-coefficient-sweeps", full_sweeps))

    def counting_oracle():
        hi = 128 if fast else 256
        per = 30 if fast else 100
        checked = 0
        for q in prime_powers(hi):
            if q in EXCLUDED_Q or q <= 16:
                continue
            checked += sweep.random_curve_counting_check(spec_for_q(q), per, seed=q)
        if not fast:
            for q in prime_powers(1024):
                if q <= 256:
                    continue
                checked += sweep.random_curve_counting_check(spec_for_q(q), 50, seed=q)
        return True, f"{checked} random curves: count_points(auto) == exhaustive"

    results.append(_check("counting-vs-exhaustive", counting_oracle))

    def twist_identity():
        hi = 256 if fast else 1024
        rng = random.Random(99)
        n = 0
        for q in prime_powers(hi):
            spec = spec_for_q(q)
            for _ in range(2):
                e = sweep.sample_random_curve(spec, rng)
                t = quadratic_twist(e)
                if count_exhaustive(e) + count_exhaustive(t) != 2 * (q + 1):
                    return False, f"twist identity fails over F_{q} for {e!r}"
                n += 1
        return True, f"{n} curves satisfy #E + #E' = 2(q+1)"

    results.append(_check("twist-identity", twist_identity))

    def field_axioms():
        panel = [2, 3, 4, 8, 9, 25, 27, 49, 121, 1009] if fast else [2, 3, 4, 8, 9, 25, 27, 49, 121, 243, 1009, 65537]
        rng = random.Random(7)
        for q in panel:
            spec = spec_for_q(q)
            for _ in range(200):
                x, y, z = (random_element(spec, rng) for _ in range(3))
                if (x + y) * z != x * z + y * z or x * y != y * x:
                    return False, f"axiom failure over F_{q}"
                if x.enc and (x * x.inverse()).enc != 1:
                    return False, f"inverse failure over F_{q}"
        return True, f"axioms hold on {len(panel)} fields"

    results.append(_check("field-axioms", field_axioms))

    if not fast:

        def bsgs_scaling():
            spec = make_spec(1000003)
            rng = random.Random(5)
            stats = Stats()
            rounds = 16
            for _ in range(rounds):
                e = sweep.sample_random_curve(spec, rng)
                bsgs_annihilator(e, random_point(e, rng), stats)
            mean = stats.adds / rounds
            bound = 8 * 1000003 ** 0.25
            return mean <= bound, f"mean ops {mean:.1f} vs budget {bound:.1f} at q=1000003"

        results.append(_check("bsgs-scaling", bsgs_scaling))
        results.append(_check("cm-traces-large-primes", lambda: cm_oracle_check((20, 32, 48, 61, 62), 61)))

        def weil_large_extensions():
            # far past the log-table limit, on the polynomial models: a
            # Koblitz curve near the top of the range, a supersingular
            # binary curve and an odd field
            panel = ((2, 61, (1, 0, 0, 0, 1)), (2, 40, (0, 0, 1, 0, 0)), (5, 26, (0, 0, 0, 1, 2)))
            for p, k, coeffs in panel:
                got = count_points(Curve(make_spec(p, k), *coeffs), "point_order", random.Random(1)).count
                if got != weil_count(p, k, coeffs):
                    return False, f"{coeffs} over F_{p}^{k}: {got} points, Weil recurrence disagrees"
            return True, "point-order counts match the Weil recurrence over F_2^61, F_2^40, F_5^26"

        results.append(_check("weil-large-extensions", weil_large_extensions))

    return results
