"""Vectorized full-coefficient-sweep kernels.

Certifying statements like "for every nonsingular curve over F_q ..." means
touching q^5 coefficient vectors (14.3M already at q=27), which is far beyond
per-curve Python calls.  The kernels here verify every curve by combining
three routes:

  * odd characteristic: every (a1,..,a6) is mapped to its completed-square
    class (an isomorphism, so count and singularity are preserved); the q^3
    class counts are computed both through the real per-curve library path
    (count_exhaustive) and through an independent numpy character-sum, and
    the two must agree class by class;
  * characteristic 2: counts for all q^5 curves are computed by the
    trace-criterion route and, for q <= 16, re-derived by a raw O(q^2)
    pair-scan of the curve equation;
  * on top of that, a deterministic sample of raw curves goes through
    count_points(auto) itself (and a pair-scan for small q).

Discriminants are evaluated vectorized for the whole grid, so singularity
classification is also cross-checked against the library's SingularCurve.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .counting import count_points
from .curve import Curve, count_exhaustive, count_pair_scan
from .errors import InternalInvariantError, SingularCurve
from .finite_field import FieldSpec
from .order import hasse_interval

_CHUNK = 1 << 21


class _VecField:
    """Vectorized encoded field arithmetic: mod-p for prime fields, table
    gathers for extensions (tables come from the FieldSpec)."""

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.q = spec.q
        self.prime = spec.k == 1
        if not self.prime:
            mul, add = spec.mul_add_tables()
            if mul is None:
                raise InternalInvariantError("sweep kernels need table-backed fields")
            self.MUL = mul
            self.ADD = add  # None in characteristic 2 (XOR)
            self.NEG = np.array([spec.neg_enc(a) for a in range(spec.q)], dtype=np.int32)

    def add(self, a, b):
        if self.prime:
            return (a + b) % self.q
        if self.spec.char2:
            return a ^ b
        return self.ADD[a * self.q + b]

    def mul(self, a, b):
        if self.prime:
            return a * b % self.q
        return self.MUL[a * self.q + b]

    def smul(self, c: int, a):
        """Multiply by the integer constant c embedded in the prime subfield."""
        return self.cmul(c % self.spec.p, a)

    def cmul(self, enc_c: int, a):
        """Multiply by a fixed element given by its encoding."""
        if self.prime:
            return enc_c * a % self.q
        return self.MUL[enc_c * self.q + a]

    def neg(self, a):
        if self.prime:
            return (self.q - a) % self.q
        if self.spec.char2:
            return a
        return self.NEG[a]


def _discriminant_vec(F: _VecField, a1, a2, a3, a4, a6):
    b2 = F.add(F.mul(a1, a1), F.smul(4, a2))
    b4 = F.add(F.smul(2, a4), F.mul(a1, a3))
    b6 = F.add(F.mul(a3, a3), F.smul(4, a6))
    b8 = F.add(
        F.add(F.mul(F.mul(a1, a1), a6), F.smul(4, F.mul(a2, a6))),
        F.add(
            F.neg(F.mul(F.mul(a1, a3), a4)),
            F.add(F.mul(a2, F.mul(a3, a3)), F.neg(F.mul(a4, a4))),
        ),
    )
    d1 = F.mul(F.mul(b2, b2), b8)
    d2 = F.smul(8, F.mul(b4, F.mul(b4, b4)))
    d3 = F.smul(27, F.mul(b6, b6))
    d4 = F.smul(9, F.mul(b2, F.mul(b4, b6)))
    return F.add(F.add(F.neg(d1), F.neg(d2)), F.add(F.neg(d3), d4))


def _digit_arrays(q: int, start: int, stop: int) -> list[np.ndarray]:
    """The 5 coefficient digits of indices [start, stop) in base q (a6 fastest)."""
    idx = np.arange(start, stop, dtype=np.int64)
    out = []
    for _ in range(5):
        out.append((idx % q).astype(np.int32))
        idx //= q
    return out[::-1]  # a1, a2, a3, a4, a6


def class_counts_odd(spec: FieldSpec) -> np.ndarray:
    """Counts of all completed-square classes y^2 = x^3 + c2 x^2 + c4 x + c6,
    computed through the per-curve library path; -1 marks singular classes."""
    q = spec.q
    out = np.full(q * q * q, -1, dtype=np.int32)
    i = 0
    for c2 in range(q):
        for c4 in range(q):
            for c6 in range(q):
                try:
                    out[i] = count_exhaustive(Curve(spec, 0, c2, 0, c4, c6))
                except SingularCurve:
                    pass
                i += 1
    return out


def _class_counts_charsum(spec: FieldSpec) -> np.ndarray:
    """Independent numpy route: q+1 + sum_x chi(x^3 + c2 x^2 + c4 x + c6)."""
    q = spec.q
    F = _VecField(spec)
    chi = np.asarray(spec.chi_table(), dtype=np.int64)
    grid = np.arange(q * q * q, dtype=np.int64)
    c6 = (grid % q).astype(np.int32)
    c4 = (grid // q % q).astype(np.int32)
    c2 = (grid // (q * q) % q).astype(np.int32)
    total = np.full(q * q * q, q + 1, dtype=np.int64)
    for x in range(q):
        w = F.add(F.mul(F.add(F.mul(F.add(c2, x), x), c4), x), c6)
        total += chi[w]
    return total.astype(np.int32)


def _reduce_classes_vec(F: _VecField, a1, a2, a3, a4, a6) -> np.ndarray:
    """Completed-square class index (c2*q + c4)*q + c6 for raw coefficients
    (odd characteristic only)."""
    inv2 = F.spec.inv_enc(2 % F.spec.p)
    h1 = F.cmul(inv2, a1)
    h3 = F.cmul(inv2, a3)
    c2 = F.add(a2, F.mul(h1, h1))
    c4 = F.add(a4, F.cmul(inv2, F.mul(a1, a3)))
    c6 = F.add(a6, F.mul(h3, h3))
    return (c2.astype(np.int64) * F.q + c4) * F.q + c6


def _char2_counts_trace(spec: FieldSpec, a1, a2, a3, a4, a6) -> np.ndarray:
    """Counts via the solvability criterion of y^2 + cy = d (characteristic 2)."""
    q = spec.q
    F = _VecField(spec)
    tr, _ = spec.trace_artin_tables()
    tr = np.asarray(tr, dtype=np.int64)
    inv = np.asarray(spec.inv_table())
    total = np.full(a1.shape, 1, dtype=np.int64)
    for x in range(q):
        c = F.mul(a1, np.int32(x)) ^ a3
        d = F.add(F.mul(F.add(F.mul(F.add(a2, x), x), a4), x), a6)
        csq = F.mul(c, c)
        safe = np.where(c == 0, np.int32(1), csq)
        e = F.mul(d, inv[safe])
        total += np.where(c == 0, 1, 2 * (1 - tr[e]))
    return total.astype(np.int32)


def _char2_counts_pairscan(spec: FieldSpec, a1, a2, a3, a4, a6) -> np.ndarray:
    """Raw O(q^2) route: count solutions of the untransformed curve equation."""
    q = spec.q
    F = _VecField(spec)
    total = np.full(a1.shape, 1, dtype=np.int64)
    for x in range(q):
        c = F.mul(a1, np.int32(x)) ^ a3
        rhs = F.add(F.mul(F.add(F.mul(F.add(a2, x), x), a4), x), a6)
        for y in range(q):
            yy = spec.mul_enc(y, y)
            lhs = F.mul(c, np.int32(y)) ^ yy
            total += lhs == rhs
    return total.astype(np.int32)


@dataclass
class SweepReport:
    q: int
    curves: int
    singular: int
    api_checked: int
    trace_values: tuple[int, ...]


def full_sweep_verify(
    spec: FieldSpec,
    api_samples: int = 500,
    api_all_limit: int = 400_000,
    seed: int = 0,
) -> SweepReport:
    """Verify every curve of the full q^5 coefficient sweep.

    Raises InternalInvariantError on the first inconsistency between routes;
    returns summary statistics otherwise.  Curves sampled for the API route
    run count_points(auto) literally (all of them when q^5 <= api_all_limit).
    """
    q = spec.q
    total = q**5
    interval = hasse_interval(q)
    F = _VecField(spec)
    if spec.char2:
        class_counts = None
    else:
        class_counts = class_counts_odd(spec)
        charsum = _class_counts_charsum(spec)
        ok = (class_counts == charsum) | (class_counts < 0)
        if not bool(ok.all()):
            raise InternalInvariantError(f"class count mismatch over F_{q}")
        # vectorized discriminants of the class curves themselves
        grid = np.arange(q * q * q, dtype=np.int64)
        cc6 = (grid % q).astype(np.int32)
        cc4 = (grid // q % q).astype(np.int32)
        cc2 = (grid // (q * q) % q).astype(np.int32)
        z = np.zeros_like(cc2)
        cls_delta = _discriminant_vec(F, z, cc2, z, cc4, cc6)
        if not bool(((cls_delta == 0) == (class_counts < 0)).all()):
            raise InternalInvariantError(f"class singularity mismatch over F_{q}")
        lo_ok = class_counts[class_counts >= 0]
        if lo_ok.size and (int(lo_ok.min()) < interval.lo or int(lo_ok.max()) > interval.hi):
            raise InternalInvariantError(f"class count outside Hasse interval over F_{q}")

    curves = 0
    singular = 0
    traces: set[int] = set()
    rng = random.Random(seed)
    if total <= api_all_limit:
        api_indices = set(range(total))
    else:
        api_indices = set(rng.sample(range(total), api_samples))
    api_checked = 0

    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        a1, a2, a3, a4, a6 = _digit_arrays(q, start, stop)
        delta = _discriminant_vec(F, a1, a2, a3, a4, a6)
        nonsing = np.asarray(delta) != 0
        n_ns = int(nonsing.sum())
        curves += n_ns
        singular += (stop - start) - n_ns
        if spec.char2:
            counts = _char2_counts_trace(spec, a1, a2, a3, a4, a6)
            if q <= 16:
                other = _char2_counts_pairscan(spec, a1, a2, a3, a4, a6)
                if not bool((counts[nonsing] == other[nonsing]).all()):
                    raise InternalInvariantError(f"char-2 route mismatch over F_{q}")
        else:
            cls_idx = _reduce_classes_vec(F, a1, a2, a3, a4, a6)
            counts = class_counts[cls_idx]
            if not bool(((counts >= 0) == nonsing).all()):
                raise InternalInvariantError(f"reduction singularity mismatch over F_{q}")
        live = counts[nonsing]
        if live.size:
            if int(live.min()) < interval.lo or int(live.max()) > interval.hi:
                raise InternalInvariantError(f"count outside Hasse interval over F_{q}")
            traces.update((q + 1 - np.unique(live)).tolist())
        # per-curve API route on the sampled (or complete) index set
        if len(api_indices) == total:
            selected = range(start, stop)
        else:
            selected = sorted(i for i in api_indices if start <= i < stop)
        for i in selected:
            j = i - start
            co = (int(a1[j]), int(a2[j]), int(a3[j]), int(a4[j]), int(a6[j]))
            if not nonsing[j]:
                try:
                    Curve(spec, *co)
                except SingularCurve:
                    api_checked += 1
                    continue
                raise InternalInvariantError(f"library accepts singular {co} over F_{q}")
            res = count_points(Curve(spec, *co), "auto", random.Random(0))
            if res.count != int(counts[j]):
                raise InternalInvariantError(f"count_points(auto) mismatch at {co} over F_{q}")
            api_checked += 1

    return SweepReport(
        q=q,
        curves=curves,
        singular=singular,
        api_checked=api_checked,
        trace_values=tuple(sorted(traces)),
    )


def all_class_counts(spec: FieldSpec) -> np.ndarray:
    """Counts over a family meeting every isomorphism class of curves.

    Odd characteristic: the completed squares y^2 = x^3 + c2 x^2 + c4 x + c6
    (q^3 classes, numpy character sums).  Characteristic 2: the ordinary
    normal forms y^2 + xy = x^3 + a2 x^2 + a6 (a6 != 0) plus the j=0 family
    y^2 + a3 y = x^3 + a4 x + a6 (a3 != 0).  Singular members are dropped.
    """
    q = spec.q
    if not spec.char2:
        counts = _class_counts_charsum(spec)
        F = _VecField(spec)
        grid = np.arange(q * q * q, dtype=np.int64)
        c6 = (grid % q).astype(np.int32)
        c4 = (grid // q % q).astype(np.int32)
        c2 = (grid // (q * q) % q).astype(np.int32)
        z = np.zeros_like(c2)
        delta = _discriminant_vec(F, z, c2, z, c4, c6)
        return counts[np.asarray(delta) != 0]
    # ordinary family: a1=1, a6 != 0 (discriminant is a6)
    grid = np.arange(q * q, dtype=np.int64)
    a6o = (grid % q).astype(np.int32)
    a2o = (grid // q).astype(np.int32)
    ones = np.ones_like(a2o)
    z = np.zeros_like(a2o)
    ord_counts = _char2_counts_trace(spec, ones, a2o, z, z, a6o)[a6o != 0]
    # supersingular family: a1=a2=0, a3 != 0 (discriminant is a3^4)
    grid = np.arange(q * q * q, dtype=np.int64)
    a6s = (grid % q).astype(np.int32)
    a4s = (grid // q % q).astype(np.int32)
    a3s = (grid // (q * q)).astype(np.int32)
    z3 = np.zeros_like(a3s)
    ss_counts = _char2_counts_trace(spec, z3, z3, a3s, a4s, a6s)[a3s != 0]
    return np.concatenate([ord_counts, ss_counts])


def realized_trace_set(spec: FieldSpec) -> set[int]:
    """Traces realized by at least one nonsingular curve over F_q."""
    counts = all_class_counts(spec)
    return {spec.q + 1 - int(c) for c in np.unique(counts)}


def sample_random_curve(spec: FieldSpec, rng: random.Random) -> Curve:
    """A uniformly random nonsingular curve (rejection on singular vectors)."""
    while True:
        try:
            return Curve(spec, *(rng.randrange(spec.q) for _ in range(5)))
        except SingularCurve:
            continue


def random_curve_counting_check(spec: FieldSpec, n_curves: int, seed: int = 0) -> int:
    """count_points(auto) vs count_exhaustive on seeded random curves; returns
    the number checked, raising on any mismatch."""
    rng = random.Random(seed)
    for i in range(n_curves):
        e = sample_random_curve(spec, rng)
        res = count_points(e, "auto", random.Random(seed + i))
        exh = count_exhaustive(e)
        if res.count != exh:
            raise InternalInvariantError(
                f"count_points(auto)={res.count} but exhaustive={exh} for {e!r}"
            )
        if spec.q <= 49 and i < 25 and count_pair_scan(e) != exh:
            raise InternalInvariantError(f"pair-scan oracle mismatch for {e!r}")
    return n_curves
