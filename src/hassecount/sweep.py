"""Vectorized full-coefficient-sweep kernels.

Certifying statements like "for every nonsingular curve over F_q ..." means
touching q^5 coefficient vectors (14.3M already at q=27), which is far beyond
per-curve Python calls.  The kernels here verify every curve by combining
three routes:

  * odd characteristic: every (a1,..,a6) is mapped to its completed-square
    class y^2 = x^3 + c2 x^2 + c4 x + c6 (an isomorphism, so count and
    singularity are preserved); the q^3 class counts are computed both
    through the real per-curve library path (count_exhaustive) and through
    an independent character sum, and the two must agree class by class.
    The character sum is one product: with the histogram
    H[(c2, c4), v] = #{x : x^3 + c2 x^2 + c4 x = v} and S[v, c6] = chi(v + c6),
    the counts are q+1 + H @ S;
  * characteristic 2: counts for all q^5 curves are computed by the
    trace-criterion route and, for q <= 16, re-derived by a raw O(q^2)
    pair-scan of the curve equation;
  * on top of that, a deterministic sample of raw curves, or every raw
    curve when q^5 is small, goes through Curve and count_points(auto)
    itself (and a pair-scan for small q).

Discriminants are evaluated vectorized for the whole grid, so singularity
classification is also cross-checked against the library's SingularCurve.

The vectorized field is _VecField, on int32 arrays of encodings.  In prime
fields it evaluates the formulas over the integers and reduces mod p only
where a value is compared or used as an index: the discriminant's b2, b4,
b6, b8 and its final sum, each class coordinate, and the character sum's
x^3 + c2 x^2 + c4 x.  In extension fields up to 1200 elements it gathers
through q^2 tables of the FieldSpec's own mul_enc and add_enc, so every
value is reduced.  Each public call builds one _VecField and, in odd
characteristic, one class grid.

full_sweep_verify walks the q^5 grid in mixed-radix boxes of at most
_CHUNK = 2^15 vectors (_boxes): a box fixes the leading digits of the index,
takes a range of the next digit and the whole axis of every digit after it,
so its indices are one contiguous range and its vectors the product of five
ranges.  F_2 to F_8 are one box, F_9 three ranges of a1, F_17 boxes of (a1,
6 values of a2) and F_27 boxes of (a1, a2).  Each b-invariant and class
coordinate is computed once per field on the axes of the coefficients it
depends on, b2 and c2 on (a1, a2), b4 and c4 on (a1, a3, a4), b6 and c6 on
(a3, a6), and a box cuts its part; numpy broadcasts them, so only b8, the
discriminant, the class index and the checks on them have the size of a
box, and no digit of a box's indices is divided out.  The API route takes
the coefficient tuples of every vector from the box's axes in index order,
or divides out the digits of its sampled indices only.

numpy is imported inside the kernels that use it, so importing this module,
as the CLI and selftest do, does not load it.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING

from .counting import count_points
from .curve import Curve, count_exhaustive, count_pair_scan
from .errors import InternalInvariantError, SingularCurve
from .finite_field import FieldSpec
from .order import hasse_interval

if TYPE_CHECKING:
    import numpy as np

# The q^5 grid is swept in boxes of at most _CHUNK vectors, so that each
# box-sized int32 temporary of a kernel (128 KiB) stays resident in a core's
# L2 cache and is reused from numpy's allocator, not faulted in afresh.  On a
# 2-vCPU Xeon VM with 2 MiB of L2 per core, flat blocks of 2^15 indices beat
# 2^16 and 2^17 (F_17 48, 51 and 55 ms; every q <= 27 6.8, 6.9 and 7.0 s) and
# 2^21 (85 ms and 8.5 s, peak RSS 202 against 33 MB).  The fields up to 2^15
# vectors are one box: a box per value of a1 made F_7 2% slower (35.3 against
# 34.5 ms, median of 15 alternated runs in process).
_CHUNK = 1 << 15
# Extension fields get q^2 mul/add tables up to this size; all certification
# work lives at q <= 1024.
_TABLE_LIMIT = 1200
# Prime fields evaluate the kernels over the integers in int32.  With every
# input and every reduced b-invariant in [0, q), the largest intermediate is a
# partial sum of the discriminant, below |b2^2 b8| + 8|b4^3| + 9|b2 b4 b6| +
# 27 b6^2 < 18 q^3 + 27 q^2; this is the largest q with 18 q^3 + 27 q^2 < 2^31.
# (The raw b8, the class coordinates and the character sum's v stay below
# 3 q^3 + 5 q^2.)  Callers stay far below it, the largest prime any passes
# being 113; a q^3 class grid at a few hundred would not fit in memory.
_INT32_PRIME_LIMIT = 491


class _VecField:
    """Vectorized encoded field arithmetic on int32 arrays of encodings.

    Prime fields work over the integers: add, mul, smul and neg do not
    reduce, and reduce takes the residue mod p in [0, p), which a kernel
    applies where a value is compared or used as an index.  Exact for p <= _INT32_PRIME_LIMIT, which
    the constructor enforces.  Extension fields gather through q^2 tables of
    the spec's own mul_enc and add_enc (the XOR table in characteristic 2),
    index a*q+b, so every value is reduced and reduce is the identity."""

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.q = q = spec.q
        self.prime = spec.k == 1
        if self.prime:
            if q > _INT32_PRIME_LIMIT:
                raise InternalInvariantError(
                    f"int32 sweep kernels are exact up to p = {_INT32_PRIME_LIMIT}, p = {q}"
                )
        else:
            import numpy as np

            if q > _TABLE_LIMIT:
                raise InternalInvariantError(f"sweep tables stop at {_TABLE_LIMIT} elements, q = {q}")
            pairs = [(a, b) for a in range(q) for b in range(q)]
            self.MUL = np.array([spec.mul_enc(a, b) for a, b in pairs], dtype=np.int32)
            self.ADD = np.array([spec.add_enc(a, b) for a, b in pairs], dtype=np.int32)

    def reduce(self, a):
        if self.prime:
            return _divmod(a, self.q)[1]
        return a

    def add(self, a, b):
        if self.prime:
            return a + b
        return self.ADD[a * self.q + b]

    def mul(self, a, b):
        if self.prime:
            return a * b
        return self.MUL[a * self.q + b]

    def smul(self, c: int, a):
        """Multiply by the integer constant c embedded in the prime subfield."""
        if self.prime:
            return c * a
        return self.MUL[c % self.spec.p * self.q + a]

    def neg(self, a):
        if self.prime:
            return -a
        return self.smul(-1, a)


def _divmod(a, q: int):
    """(a // q, a % q) for an integer array a and q > 0, from one division:
    numpy divides by a scalar on a fast path that np.divmod and % miss (over
    17^5 int32 encodings, // takes 0.3 ms, and % or np.divmod 2.2 ms)."""
    import numpy as np

    quot = a // q
    rem = quot * q
    return quot, np.subtract(a, rem, out=rem)


def _boxes(q: int):
    """The q^5 grid as boxes in index order, each (start, stop, box): the
    indices [start, stop) and a tuple of five slices of the coefficient axes
    a1, a2, a3, a4, a6 whose product they are.  A box fixes the digits before
    a lead digit, takes a range of it and the whole axis of every digit after
    it, with at most _CHUNK vectors: the whole grid up to q = 8, ranges of a1
    over F_9, (a1, ranges of a2) over F_17 and (a1, a2) over F_27."""
    lead, inner = 0, q**4
    while lead < 4 and inner > _CHUNK:
        lead, inner = lead + 1, inner // q
    width = max(1, min(q, _CHUNK // inner))
    for prefix in product(range(q), repeat=lead):
        base = 0
        for digit in prefix:
            base = base * q + digit
        for lo in range(0, q, width):
            hi = min(lo + width, q)
            box = (*(slice(d, d + 1) for d in prefix), slice(lo, hi), *(slice(0, q),) * (4 - lead))
            yield (base * q + lo) * inner, (base * q + hi) * inner, box


def _cut(a, box):
    """The part of a per-field array in a box: a has length q on the axes it
    depends on and 1 on the others, which every box takes whole."""
    return a[tuple(s if n > 1 else slice(None) for s, n in zip(box, a.shape))]


def _digits(q: int, n: int, i: int) -> tuple[int, ...]:
    """The n base-q digits of the index i, most significant first."""
    out = []
    for _ in range(n):
        i, digit = divmod(i, q)
        out.append(digit)
    return tuple(out[::-1])


def _b_invariants(F: _VecField, a1, a2, a3, a4, a6):
    """b2 = a1^2 + 4 a2, b4 = 2 a4 + a1 a3 and b6 = a3^2 + 4 a6, each reduced
    and on the axes of the coefficients it depends on."""
    red = F.reduce
    b2 = red(F.add(F.mul(a1, a1), F.smul(4, a2)))
    b4 = red(F.add(F.smul(2, a4), F.mul(a1, a3)))
    b6 = red(F.add(F.mul(a3, a3), F.smul(4, a6)))
    return b2, b4, b6


def _discriminant_vec(F: _VecField, a1, a2, a3, a4, a6, b2, b4, b6):
    """The discriminant, reduced, of the vectors the coefficient arrays
    broadcast to, from their reduced b2, b4 and b6 (_b_invariants).  Only
    b8 = b2 a6 + a2 a3^2 - a4 (a1 a3 + a4), reduced, and the products and
    sums that meet it have the size of the broadcast; every intermediate
    stays below 18 q^3 + 27 q^2."""
    red = F.reduce
    b8 = red(F.add(
        F.add(F.mul(b2, a6), F.mul(a2, F.mul(a3, a3))),
        F.neg(F.mul(a4, F.add(F.mul(a1, a3), a4))),
    ))
    d1 = F.mul(F.neg(F.mul(b2, b2)), b8)
    d4 = F.mul(F.smul(9, F.mul(b2, b4)), b6)
    d23 = F.add(F.smul(-8, F.mul(b4, F.mul(b4, b4))), F.smul(-27, F.mul(b6, b6)))
    return red(F.add(F.add(d1, d4), d23))


def _class_coordinates(F: _VecField, b2, b4, b6):
    """The completed-square coordinates c2 = a2 + a1^2/4 = b2/4, c4 = a4 +
    a1 a3/2 = b4/2 and c6 = a6 + a3^2/4 = b6/4 (odd characteristic), each
    reduced once, on the axes of its b."""
    p = F.spec.p
    half = (p + 1) // 2  # 1/2 in F_p
    quarter = half * half % p
    return F.reduce(F.smul(quarter, b2)), F.reduce(F.smul(half, b4)), F.reduce(F.smul(quarter, b6))


def _reduce_classes_vec(F: _VecField, c2, c4, c6):
    """The completed-square class index (c2*q + c4)*q + c6 of the vectors
    the coordinates broadcast to."""
    return (c2 * F.q + c4) * F.q + c6


def _class_grid(F: _VecField):
    """The completed-square classes y^2 = x^3 + c2 x^2 + c4 x + c6 (odd
    characteristic) as the axes c2, c4, c6 of a q^3 grid in class-index order
    (c2*q + c4)*q + c6, and the flat mask of the nonsingular ones."""
    import numpy as np

    c2, c4, c6 = np.indices((F.q,) * 3, dtype=np.int32, sparse=True)
    disc = _discriminant_vec(F, 0, c2, 0, c4, c6, *_b_invariants(F, 0, c2, 0, c4, c6))
    return c2, c4, c6, disc.ravel() != 0


def class_counts_odd(spec: FieldSpec) -> np.ndarray:
    """Counts of all completed-square classes y^2 = x^3 + c2 x^2 + c4 x + c6,
    computed through the per-curve library path; -1 marks singular classes."""
    import numpy as np

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


def _cubic_part_vec(F: _VecField, c2, c4, x):
    """x^3 + c2 x^2 + c4 x, reduced: the character sum's v."""
    return F.reduce(F.mul(F.add(F.mul(F.add(c2, x), x), c4), x))


def _class_counts_charsum(F: _VecField, c2, c4, c6) -> np.ndarray:
    """Independent numpy route over the class grid: every class count
    q+1 + sum_x chi(x^3 + c2 x^2 + c4 x + c6) at once.

    The grid's last digit also runs over x, so one histogram gives
    H[(c2, c4), v] = #{x : x^3 + c2 x^2 + c4 x = v}; with S[v, c6] = chi(v + c6)
    the counts are q+1 + H @ S, in class-index order."""
    import numpy as np

    q = F.q
    v = _cubic_part_vec(F, c2, c4, c6)
    hist = np.bincount(((c2 * q + c4) * q + v).ravel(), minlength=q**3).reshape(q * q, q)
    vs, c6s = np.indices((q, q), dtype=np.int32)
    S = np.asarray(F.spec.chi_table(), dtype=np.int64)[F.reduce(F.add(vs, c6s))]
    return (q + 1 + hist @ S).astype(np.int32).ravel()


def _char2_counts_trace(F: _VecField, a1, a2, a3, a4, a6) -> np.ndarray:
    """Counts via the solvability criterion of y^2 + cy = d (characteristic 2,
    so here and in the pair-scan addition is XOR of encodings, and the
    unreduced products of F_2 are products of 0s and 1s, hence reduced)."""
    import numpy as np

    spec = F.spec
    tr = np.array([spec.trace_enc(a) for a in range(F.q)], dtype=np.int64)
    inv = np.array([0] + [spec.inv_enc(a) for a in range(1, F.q)], dtype=np.int32)
    total = np.ones(np.broadcast_shapes(*map(np.shape, (a1, a2, a3, a4, a6))), dtype=np.int64)
    for x in range(F.q):
        c = F.mul(a1, x) ^ a3
        d = F.mul(F.mul(a2 ^ x, x) ^ a4, x) ^ a6
        e = F.mul(d, inv[F.mul(c, c)])
        total += np.where(c == 0, 1, 2 * (1 - tr[e]))
    return total.astype(np.int32)


def _char2_counts_pairscan(F: _VecField, a1, a2, a3, a4, a6) -> np.ndarray:
    """Raw O(q^2) route: count solutions of the untransformed curve equation."""
    import numpy as np

    total = np.ones(np.broadcast_shapes(*map(np.shape, (a1, a2, a3, a4, a6))), dtype=np.int64)
    for x in range(F.q):
        c = F.mul(a1, x) ^ a3
        rhs = F.mul(F.mul(a2 ^ x, x) ^ a4, x) ^ a6
        for y in range(F.q):
            total += F.mul(c, y) ^ F.mul(y, y) == rhs
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
    run count_points(auto) literally (all of them when q^5 <= api_all_limit
    or q^5 <= api_samples): a singular vector must raise SingularCurve, a
    nonsingular one must give the count of the vectorized routes.  The API
    route takes every vector of a box from the box's axes in index order
    (itertools.product of its ranges), or finds the sampled indices in a box
    by bisection and divides out their digits alone.
    Every selected vector is still built by Curve(...) and counted by
    count_points, which checks its reduction, its singularity and the count
    the API returns; up to q = 49 in odd characteristic count_points runs
    count_exhaustive once per completed-square class and answers the other
    vectors of the class from the field's memo (648 calls for the 52,488
    nonsingular vectors of F_9).
    """
    import numpy as np

    q = spec.q
    total = q**5
    interval = hasse_interval(q)
    F = _VecField(spec)
    if spec.char2:
        class_counts = None
    else:
        c2, c4, c6, cls_nonsing = _class_grid(F)
        class_counts = class_counts_odd(spec)
        charsum = _class_counts_charsum(F, c2, c4, c6)
        if not bool(((class_counts == charsum) | (class_counts < 0)).all()):
            raise InternalInvariantError(f"class count mismatch over F_{q}")
        if not bool((cls_nonsing == (class_counts >= 0)).all()):
            raise InternalInvariantError(f"class singularity mismatch over F_{q}")
        lo_ok = class_counts[cls_nonsing]
        if lo_ok.size and (int(lo_ok.min()) < interval.lo or int(lo_ok.max()) > interval.hi):
            raise InternalInvariantError(f"class count outside Hasse interval over F_{q}")

    curves = 0
    singular = 0
    traces: set[int] = set()
    rng = random.Random(seed)
    # the sampled indices, ascending; None sends every curve through the API,
    # also when the sample would take them all
    api_indices = (None if total <= max(api_all_limit, api_samples)
                   else sorted(rng.sample(range(total), api_samples)))
    api_checked = 0

    # per field: the coefficient axes, b2, b4, b6 and (odd characteristic)
    # c2, c4, c6, each on the axes it depends on; a box cuts its part of each
    axes = np.indices((q,) * 5, dtype=np.int32, sparse=True)
    b = _b_invariants(F, *axes)
    c = None if spec.char2 else _class_coordinates(F, *b)
    for start, stop, box in _boxes(q):
        a = [_cut(x, box) for x in axes]
        nonsing = (_discriminant_vec(F, *a, *(_cut(x, box) for x in b)) != 0).ravel()
        n_ns = int(nonsing.sum())
        curves += n_ns
        singular += (stop - start) - n_ns
        if spec.char2:
            counts = _char2_counts_trace(F, *a).ravel()
            if q <= 16:
                other = _char2_counts_pairscan(F, *a).ravel()
                if not bool((counts[nonsing] == other[nonsing]).all()):
                    raise InternalInvariantError(f"char-2 route mismatch over F_{q}")
        else:
            cls_idx = _reduce_classes_vec(F, *(_cut(x, box) for x in c))
            counts = class_counts[cls_idx.ravel()]
            if not bool(((counts >= 0) == nonsing).all()):
                raise InternalInvariantError(f"reduction singularity mismatch over F_{q}")
        live = counts[nonsing]
        if live.size:
            if int(live.min()) < interval.lo or int(live.max()) > interval.hi:
                raise InternalInvariantError(f"count outside Hasse interval over F_{q}")
            traces.update((q + 1 - np.flatnonzero(np.bincount(live))).tolist())
        # per-curve API route on every vector of the box, from its axes, or
        # on the sampled indices in it, from their digits
        if api_indices is None:
            rows = slice(None)
            vectors = product(*(range(s.start, s.stop) for s in box))
        else:
            sample = api_indices[bisect_left(api_indices, start):bisect_left(api_indices, stop)]
            rows = [i - start for i in sample]
            vectors = (_digits(q, 5, i) for i in sample)
        for co, ok, n in zip(vectors, nonsing[rows].tolist(), counts[rows].tolist()):
            if not ok:
                try:
                    Curve(spec, *co)
                except SingularCurve:
                    api_checked += 1
                    continue
                raise InternalInvariantError(f"library accepts singular {co} over F_{q}")
            if count_points(Curve(spec, *co)).count != n:
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
    import numpy as np

    q = spec.q
    F = _VecField(spec)
    if not spec.char2:
        c2, c4, c6, nonsing = _class_grid(F)
        return _class_counts_charsum(F, c2, c4, c6)[nonsing]
    # ordinary family: a1=1, a6 != 0 (discriminant is a6)
    a2, a6 = np.indices((q, q), dtype=np.int32, sparse=True)
    ord_counts = _char2_counts_trace(F, 1, a2, 0, 0, a6)[:, 1:].ravel()
    # supersingular family: a1=a2=0, a3 != 0 (discriminant is a3^4)
    a3, a4, a6 = np.indices((q, q, q), dtype=np.int32, sparse=True)
    ss_counts = _char2_counts_trace(F, 0, 0, a3, a4, a6)[1:].ravel()
    return np.concatenate([ord_counts, ss_counts])


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
