"""Enumeration of trace-ambiguity exceptions and the Table 1 reproduction.

For a prime power q, an exception is a quadruple (M, N, t, t') with
0 <= t <= 2*sqrt(q), t' != t, |t'| <= 2*sqrt(q), such that

  (i)   M | q+1-t and N | q+1+t;
  (ii)  m = (q+1-t)/M divides M and q-1, and n = (q+1+t)/N divides N and q-1;
  (iii) M | q+1-t' and N | q+1+t'.

These are exactly the (lambda(E), lambda(E')) shapes that can leave the trace
ambiguous.  By (ii), m divides q-1 and m^2 divides q+1-t, so the census runs
over the divisors m of q-1 alone: each fixes t = q+1 (mod m^2) and M = (q+1-t)/m,
and likewise n fixes t = -(q+1) (mod n^2) and N.  One factorisation of q-1 per q
replaces the divisors of q+1-t and q+1+t for every t; the literal wide-range
loop lives in the test suite as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, lcm

from . import counting as _counting
from . import curve as _curve
from . import finite_field as _ff
from .integers import divisors, prime_powers, split_prime_power
from .order import Congruence, trace_candidates


@dataclass(frozen=True, order=True)
class ExceptionRecord:
    q: int
    M: int
    N: int
    t: int
    t_prime: int
    m: int  # (q+1-t)/M
    n: int  # (q+1+t)/N


def mn_bounds(q: int) -> tuple[int, int]:
    """Integer realization of sqrt(q)-1 <= M,N <= 4*sqrt(q) (lower end widened)."""
    r = isqrt(q)
    ceil_sqrt = r if r * r == q else r + 1
    return max(1, ceil_sqrt - 1), isqrt(16 * q)


# How the corollary's modified enumerator constrains the t'-side cofactors
# m' = (q+1-t')/M and n' = (q+1+t')/N.  "qm1" (divide q-1) is the reading whose
# q <= 1024 sweep reproduces the published excluded set {5,7,9,11,17,23,29};
# "mn" is the prose-literal reading (divide M and N) and "mn_qm1" both, and
# each of those misses q=7.
COROLLARY_READINGS = ("qm1", "mn", "mn_qm1")
DEFAULT_COROLLARY_READING = "qm1"


def _corollary_keep(reading: str, mp: int, np_: int, M: int, N: int, qm1: int) -> bool:
    if reading == "qm1":
        return qm1 % mp == 0 and qm1 % np_ == 0
    if reading == "mn":
        return M % mp == 0 and N % np_ == 0
    return M % mp == 0 and N % np_ == 0 and qm1 % mp == 0 and qm1 % np_ == 0  # "mn_qm1"


def enumerate_exceptions(
    q: int, corollary: bool = False, reading: str = DEFAULT_COROLLARY_READING
) -> list[ExceptionRecord]:
    """All exception quadruples for F_q, sorted by (M, N, t, t').

    With corollary=True the t'-side cofactors must additionally satisfy the
    chosen reading's divisibility filters (see COROLLARY_READINGS); any other
    reading raises ValueError, whatever q and corollary are.
    """
    _check_reading(reading)
    split_prime_power(q)  # raises NotPrimePower for bad q
    return _enumerate(q, corollary, reading)


def _check_reading(reading: str) -> None:
    if reading not in COROLLARY_READINGS:
        raise ValueError(f"unknown corollary reading {reading!r}")


def _enumerate(q: int, corollary: bool, reading: str) -> list[ExceptionRecord]:
    """enumerate_exceptions for a prime power q and a known reading."""
    tb = isqrt(4 * q)
    lo, hi = mn_bounds(q)
    qp1 = q + 1
    qm1 = q - 1
    # a cofactor c with c * hi < q+1-tb leaves every (q+1-t)/c above hi
    cofactors = [c for c in divisors(qm1) if c * hi >= qp1 - tb]
    sides = []  # t -> its M = (q+1-t)/m (sign 1), then t -> its N = (q+1+t)/n (sign -1)
    for sign in (1, -1):
        side = {}
        for c in cofactors:
            for t in range(sign * qp1 % (c * c), tb + 1, c * c):  # c^2 | q+1-sign*t
                if lo <= (lam := (qp1 - sign * t) // c) <= hi:
                    side.setdefault(t, []).append(lam)
        sides.append(side)
    records = []
    for t in sides[0].keys() & sides[1].keys():
        for M in sides[0][t]:
            for N in sides[1][t]:
                period = lcm(M, N)
                for tp in trace_candidates(Congruence(t % period, period), q):
                    if tp == t:
                        continue
                    if corollary and not _corollary_keep(
                        reading, (qp1 - tp) // M, (qp1 + tp) // N, M, N, qm1
                    ):
                        continue
                    records.append(
                        ExceptionRecord(
                            q=q, M=M, N=N, t=t, t_prime=tp, m=(qp1 - t) // M, n=(qp1 + t) // N
                        )
                    )
    records.sort(key=lambda r: (r.M, r.N, r.t, r.t_prime))
    return records


def exceptional_q_set(
    q_max: int, corollary: bool = False, reading: str = DEFAULT_COROLLARY_READING
) -> set[int]:
    """Prime powers q <= q_max with at least one exception quadruple."""
    if q_max < 2:
        raise ValueError("q_max must be >= 2")
    _check_reading(reading)
    return {q for q in prime_powers(q_max) if _enumerate(q, corollary, reading)}


def parity_filter(records: list[ExceptionRecord]) -> list[ExceptionRecord]:
    """Records whose t'-side cofactors share parity, i.e. the exceptions the
    parity test (q+1-t')/M = (q+1+t')/N (mod 2) does NOT eliminate."""
    kept = []
    for r in records:
        mp = (r.q + 1 - r.t_prime) // r.M
        np_ = (r.q + 1 + r.t_prime) // r.N
        if mp % 2 == np_ % 2:
            kept.append(r)
    return kept


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------

# One row per listed exceptional case with t >= 0: (q, M, N, t, curve template,
# listed t' values).  Coefficient templates are integers (prime subfield
# values) or ("alpha", e) meaning alpha^e for a primitive element alpha.
TABLE1_ROWS: list[dict] = [
    {"q": 3, "M": 2, "N": 2, "t": 0, "coeffs": (0, 0, 0, -1, 0), "t_primes": (-2, 2)},
    {"q": 4, "M": 1, "N": 3, "t": 4, "coeffs": (0, 0, 1, 0, ("alpha", 2)), "t_primes": (-2, 1)},
    {"q": 5, "M": 2, "N": 4, "t": 2, "coeffs": (0, 0, 0, 1, 0), "t_primes": (-2,)},
    {"q": 7, "M": 2, "N": 6, "t": 4, "coeffs": (0, 0, 0, 0, -1), "t_primes": (-2,)},
    {"q": 7, "M": 4, "N": 4, "t": 0, "coeffs": (0, 0, 0, 3, 0), "t_primes": (-4, 4)},
    {"q": 9, "M": 2, "N": 4, "t": 6, "coeffs": (0, 0, 0, ("alpha", 2), 0), "t_primes": (-6, -2, 2)},
    {"q": 11, "M": 4, "N": 8, "t": 4, "coeffs": (0, 0, 0, 1, 9), "t_primes": (-4,)},
    {"q": 11, "M": 6, "N": 6, "t": 0, "coeffs": (0, 0, 0, 2, 0), "t_primes": (-6, 6)},
    {"q": 16, "M": 3, "N": 5, "t": 8, "coeffs": (0, 0, 1, 0, 0), "t_primes": (-7,)},
    {"q": 17, "M": 6, "N": 12, "t": 6, "coeffs": (0, 0, 0, 1, 7), "t_primes": (-6,)},
    {"q": 23, "M": 8, "N": 16, "t": 8, "coeffs": (0, 0, 0, 5, 15), "t_primes": (-8,)},
    {"q": 25, "M": 4, "N": 6, "t": 10, "coeffs": (0, 0, 1, 0, ("alpha", 7)), "t_primes": (-2,)},
    {"q": 29, "M": 10, "N": 20, "t": 10, "coeffs": (0, 0, 0, 1, 0), "t_primes": (-10,)},
    {"q": 49, "M": 6, "N": 8, "t": 14, "coeffs": (0, 0, 0, ("alpha", 2), 0), "t_primes": (-10,)},
]


@dataclass(frozen=True)
class Table1RowReport:
    q: int
    M: int
    N: int
    t: int
    quadruples_ok: bool
    curve_ok: bool
    count: int
    lam: int
    twist_lam: int
    symmetric: bool  # matched as (q+1+t, N, M) instead of (q+1-t, M, N)
    alpha_enc: int | None  # primitive element used for alpha-dependent rows
    alpha_fallback: bool  # True when the canonical primitive element did not work

    @property
    def ok(self) -> bool:
        return self.quadruples_ok and self.curve_ok


def _row_uses_alpha(row: dict) -> bool:
    return any(isinstance(c, tuple) for c in row["coeffs"])


def _build_row_curve(spec, row: dict, alpha_enc: int) -> _curve.Curve:
    coeffs = []
    for c in row["coeffs"]:
        if isinstance(c, tuple):
            coeffs.append(spec.pow_enc(alpha_enc, c[1]))
        else:
            coeffs.append(c % spec.p)
    return _curve.Curve(spec, *coeffs)


def _curve_matches(row: dict, curve) -> tuple[bool, int, int, int, bool]:
    """Check (#E, lambda, twist-lambda) against (q+1-t, M, N), allowing the
    documented t -> -t / M <-> N swap.  Returns (ok, count, lam, twist_lam, symmetric)."""
    q, M, N, t = row["q"], row["M"], row["N"], row["t"]
    st = _counting.group_structure(curve)
    count, lam = st.n1 * st.n2, st.n2
    twist_lam = _counting.group_structure(_curve.quadratic_twist(curve)).n2
    if (count, lam, twist_lam) == (q + 1 - t, M, N):
        return True, count, lam, twist_lam, False
    if (count, lam, twist_lam) == (q + 1 + t, N, M):
        return True, count, lam, twist_lam, True
    return False, count, lam, twist_lam, False


def verify_table1() -> list[Table1RowReport]:
    """Re-derive every published exceptional-case row: quadruples from the
    enumerator, curve data from group_structure of the curve and its twist.

    The rows quote curves in terms of an unspecified primitive element alpha,
    so alpha-dependent rows are first tried with this package's canonical
    primitive element and then, if needed, with every primitive element; a row
    passes if some choice realizes the stated (count, lambda, twist-lambda) up
    to the t <-> -t / M <-> N symmetry.
    """
    reports = []
    for row in TABLE1_ROWS:
        q = row["q"]
        records = enumerate_exceptions(q)
        keys = {(r.M, r.N, r.t, r.t_prime) for r in records}
        quadruples_ok = all(
            (row["M"], row["N"], row["t"], tp) in keys for tp in row["t_primes"]
        )
        spec = _ff.spec_for_q(q)
        canonical = _ff.primitive_element(spec).enc
        candidates = [canonical]
        if _row_uses_alpha(row):
            # the primitive elements alpha^j, ascending, so the smallest, canonical, first
            candidates = sorted(spec.pow_enc(canonical, j) for j in range(1, q) if gcd(j, q - 1) == 1)
        for alpha in candidates:
            result = _curve_matches(row, _build_row_curve(spec, row, alpha))
            if result[0]:
                break
        curve_ok = result[0]
        chosen = alpha if curve_ok or len(candidates) == 1 else None
        reports.append(
            Table1RowReport(
                q=q,
                M=row["M"],
                N=row["N"],
                t=row["t"],
                quadruples_ok=quadruples_ok,
                curve_ok=curve_ok,
                count=result[1],
                lam=result[2],
                twist_lam=result[3],
                symmetric=result[4],
                alpha_enc=chosen,
                alpha_fallback=curve_ok and chosen != canonical,
            )
        )
    return reports
