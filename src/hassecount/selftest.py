"""Invariant suite behind the `selftest` CLI command.

Each check returns (name, ok, detail).  The full run certifies the headline
results (exceptional sets, Table 1, the q=49 ambiguity) and then stress-tests
counting against the exhaustive oracle across prime powers up to 1024; --fast
trims the field ranges to desk scale.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from . import sweep
from .counting import EXCLUDED_Q, count_points
from .curve import count_exhaustive, quadratic_twist
from .errors import HasseCountError
from .exceptions import exceptional_q_set, verify_table1
from .finite_field import make_spec, random_element, spec_for_q
from .integers import prime_powers
from .order import Congruence, OpCounter, bsgs_annihilator, hasse_interval, multiples_in_interval, trace_candidates
from .order import unique_trace_candidate


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


COROLLARY_SET = frozenset({5, 7, 9, 11, 17, 23, 29})


def _check(name: str, fn) -> CheckResult:
    try:
        ok, detail = fn()
    except HasseCountError as exc:
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")
    return CheckResult(name, ok, detail)


def run_selftest(fast: bool = False, jobs: int = 1) -> list[CheckResult]:
    del jobs  # sequential execution keeps output order fixed
    results = []

    def trace_ambiguity():
        got = exceptional_q_set(1024)
        return got == set(EXCLUDED_Q), f"exceptional q: {sorted(got)}"

    results.append(_check("trace-ambiguity-set", trace_ambiguity))

    def corollary():
        got = exceptional_q_set(1024, corollary=True)
        return got == set(COROLLARY_SET), f"corollary q (reading qm1): {sorted(got)}"

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
            total = 0
            rounds = 16
            for _ in range(rounds):
                e = sweep.sample_random_curve(spec, rng)
                from .curve import random_point

                ops = OpCounter()
                bsgs_annihilator(e, random_point(e, rng), ops)
                total += ops.adds
            mean = total / rounds
            bound = 8 * 1000003 ** 0.25
            return mean <= bound, f"mean ops {mean:.1f} vs budget {bound:.1f} at q=1000003"

        results.append(_check("bsgs-scaling", bsgs_scaling))

    return results
