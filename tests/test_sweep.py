"""The vectorized sweep kernels against the scalar field kernels and the
per-curve library path, at field sizes the full q^5 sweeps do not reach."""

import dataclasses
import random
import re
from itertools import product

import numpy as np
import pytest

from hassecount import counting as ct
from hassecount import sweep
from hassecount.curve import Curve, count_exhaustive
from hassecount.errors import InternalInvariantError, SingularCurve
from hassecount.finite_field import spec_for_q
from hassecount.integers import prime_powers
from hassecount.sweep import (
    _b_invariants,
    _boxes,
    _class_coordinates,
    _class_counts_charsum,
    _class_grid,
    _cubic_part_vec,
    _cut,
    _digits,
    _discriminant_vec,
    _reduce_classes_vec,
    _VecField,
    full_sweep_verify,
)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 17, 25, 27])
def test_vecfield_matches_scalar_kernels(q):
    """Prime fields compute over the integers and reduce on request; the
    tables of extension fields are reduced already."""
    spec = spec_for_q(q)
    F = _VecField(spec)
    red = F.reduce
    a, b = (g.ravel() for g in np.indices((q, q), dtype=np.int32))
    pairs = list(zip(a.tolist(), b.tolist()))
    assert red(F.add(a, b)).tolist() == [spec.add_enc(x, y) for x, y in pairs]
    assert red(F.mul(a, b)).tolist() == [spec.mul_enc(x, y) for x, y in pairs]
    elems = np.arange(q, dtype=np.int32)
    assert red(F.neg(elems)).tolist() == [spec.neg_enc(x) for x in range(q)]
    for c in (-27, -8, -1, 0, 1, 2, 4, 9, 27, (spec.p + 1) // 2):
        assert red(F.smul(c, elems)).tolist() == [spec.mul_enc(c % spec.p, x) for x in range(q)]
    if not F.prime:
        assert red(elems) is elems


# --- exactness of the int32 prime-field kernels ---------------------------------------

P_MAX = 491  # the largest prime the int32 guard admits
P_OVER = 499  # the next prime, which it refuses


def test_int32_guard_sits_at_the_exactness_bound():
    limit = sweep._INT32_PRIME_LIMIT
    assert 18 * limit**3 + 27 * limit**2 < 2**31 <= 18 * (limit + 1) ** 3 + 27 * (limit + 1) ** 2
    assert limit == P_MAX and [q for q in prime_powers(P_OVER) if q >= P_MAX] == [P_MAX, P_OVER]
    assert _VecField(spec_for_q(P_MAX)).prime
    with pytest.raises(InternalInvariantError, match=re.escape(f"exact up to p = {P_MAX}, p = {P_OVER}")):
        _VecField(spec_for_q(P_OVER))


def scalar_discriminant(spec, a1, a2, a3, a4, a6):
    """The long form's b-formula on the scalar field kernels, with b8 grouped
    as b2 a6 + a2 a3^2 - a4 (a1 a3 + a4)."""
    add, sub, mul, p = spec.add_enc, spec.sub_enc, spec.mul_enc, spec.p
    b2 = add(mul(a1, a1), mul(4 % p, a2))
    b4 = add(mul(2 % p, a4), mul(a1, a3))
    b6 = add(mul(a3, a3), mul(4 % p, a6))
    b8 = sub(add(mul(b2, a6), mul(a2, mul(a3, a3))), mul(a4, add(mul(a1, a3), a4)))
    disc = sub(mul(b6, sub(mul(9 % p, mul(b2, b4)), mul(27 % p, b6))), mul(mul(b2, b2), b8))
    return sub(disc, mul(8 % p, mul(b4, mul(b4, b4))))


def scalar_class(spec, a1, a2, a3, a4, a6):
    """The completed-square class index on the scalar field kernels."""
    add, mul, q = spec.add_enc, spec.mul_enc, spec.q
    h1, h3 = (mul((spec.p + 1) // 2, a) for a in (a1, a3))
    return (add(a2, mul(h1, h1)) * q + add(a4, mul(h1, a3))) * q + add(a6, mul(h3, h3))


def exactness_vectors(q, n_random=3000):
    """Five int32 columns: every vector over the extreme encodings
    {0, 1, q//2, (q+1)//2, q-2, q-1}, where the unreduced intermediates
    peak, then n_random seeded random vectors."""
    corner = sorted({e for e in (0, 1, q // 2, (q + 1) // 2, q - 2, q - 1) if 0 <= e < q})
    rows = [tuple(corner[i // len(corner) ** j % len(corner)] for j in range(5))
            for i in range(len(corner) ** 5)]
    rng = random.Random(q)
    rows += [tuple(rng.randrange(q) for _ in range(5)) for _ in range(n_random)]
    return [np.array(col, dtype=np.int32) for col in zip(*rows)], rows


def discriminant(F, co):
    """The discriminant kernel on coefficient arrays, from their b2, b4, b6."""
    return _discriminant_vec(F, *co, *_b_invariants(F, *co))


def class_index(F, co):
    """The class index kernel on coefficient arrays, through b2, b4, b6 and
    the class coordinates."""
    return _reduce_classes_vec(F, *_class_coordinates(F, *_b_invariants(F, *co)))


@pytest.mark.parametrize("q", [2, 3, 17, P_MAX])
def test_discriminant_vec_exact_on_prime_fields(q):
    spec = spec_for_q(q)
    cols, rows = exactness_vectors(q)
    got = discriminant(_VecField(spec), cols)
    assert got.dtype == np.int32
    assert got.tolist() == [scalar_discriminant(spec, *co) for co in rows]


@pytest.mark.parametrize("q", [3, 17, P_MAX])
def test_reduce_classes_vec_exact_on_prime_fields(q):
    spec = spec_for_q(q)
    cols, rows = exactness_vectors(q)
    assert class_index(_VecField(spec), cols).tolist() == [scalar_class(spec, *co) for co in rows]


def box_vectors(box):
    return list(product(*(range(s.start, s.stop) for s in box)))


@pytest.mark.parametrize("q", [3, 17, P_MAX])
def test_box_kernels_exact_on_prime_fields(q):
    """The discriminant and the class index on a box's axes, each invariant
    broadcast from its own, match the scalar kernels on every vector of the
    box: boxes that fix a1, a2 and a3 at extreme encodings and take the
    first or the last two values of a4."""
    spec = spec_for_q(q)
    F = _VecField(spec)
    axes = np.indices((q,) * 5, dtype=np.int32, sparse=True)
    corner = sorted({0, 1, q // 2, q - 1})
    for prefix in product(corner, repeat=3):
        for a4 in (slice(0, 2), slice(q - 2, q)):
            box = (*(slice(d, d + 1) for d in prefix), a4, slice(0, q))
            co = [_cut(a, box) for a in axes]
            rows = box_vectors(box)
            assert discriminant(F, co).ravel().tolist() == [scalar_discriminant(spec, *v) for v in rows]
            assert class_index(F, co).ravel().tolist() == [scalar_class(spec, *v) for v in rows]


@pytest.mark.parametrize("q", [3, 17, P_MAX])
def test_charsum_cubic_exact_on_prime_fields(q):
    """The character sum's v = x^3 + c2 x^2 + c4 x, on the class grid's
    digits (c2, c4, x)."""
    spec = spec_for_q(q)
    add, mul = spec.add_enc, spec.mul_enc
    cols, rows = exactness_vectors(q)
    got = _cubic_part_vec(_VecField(spec), cols[0], cols[1], cols[2])
    want = [add(mul(add(mul(x, x), mul(c2, x)), x), mul(c4, x)) for c2, c4, x, _, _ in rows]
    assert got.tolist() == want


def python_digits(q, n, start, stop):
    """The n base-q digits of each index, most significant first, by powers."""
    return [tuple(i // q**j % q for j in range(n - 1, -1, -1)) for i in range(start, stop)]


@pytest.mark.parametrize(
    "q,n,start,stop",
    [
        (2, 32, 2**31 - 100, 2**31),  # 32 binary digits, up to the last index they hold
        (2, 32, 2**31 - 100, 2**31 + 100),  # past it, into a 33rd digit dropped
        (100, 5, 2**31 - 100, 2**31 + 100),
        (17, 5, 17**5 - 100, 17**5),  # the last indices of the q = 17 sweep
    ],
)
def test_digits_match_divmod(q, n, start, stop):
    """The sampled API route's digits of one index; an index of q^n or more
    keeps its n lowest digits."""
    assert [_digits(q, n, i) for i in range(start, stop)] == python_digits(q, n, start, stop)


def test_digits_across_a_chunk_boundary():
    """The q = 19 sweep splits its indices into boxes of (a1, 4 values of a2),
    19^3 vectors each: every vector of two adjacent boxes, in the order of
    their axes, has the digits of its index, across the boundary between
    them."""
    q = 19
    (s0, t0, box0), (s1, t1, box1) = list(_boxes(q))[4:6]
    assert t0 == s1 and (box0[:2], box1[:2]) == ((slice(0, 1), slice(16, 19)), (slice(1, 2), slice(0, 4)))
    assert box_vectors(box0) + box_vectors(box1) == python_digits(q, 5, s0, t1)


# (boxes, the shape of the first box) of every full sweep up to q = 27
BOX_SHAPES = {
    **{q: (1, (q,) * 5) for q in (2, 3, 4, 5, 7, 8)},
    9: (3, (4, 9, 9, 9, 9)),
    11: (6, (2, 11, 11, 11, 11)),
    13: (13, (1, 13, 13, 13, 13)),
    16: (16 * 2, (1, 8, 16, 16, 16)),
    17: (17 * 3, (1, 6, 17, 17, 17)),
    19: (19 * 5, (1, 4, 19, 19, 19)),
    23: (23 * 12, (1, 2, 23, 23, 23)),
    25: (25 * 13, (1, 2, 25, 25, 25)),
    27: (27 * 27, (1, 1, 27, 27, 27)),
}


@pytest.mark.parametrize("q", sorted(BOX_SHAPES))
def test_boxes_tile_the_grid(q):
    """The boxes cover [0, q^5) in index order, each its product of ranges
    and at most _CHUNK vectors; F_9 takes ranges of a1 of 4, 4 and 1 values."""
    boxes = list(_boxes(q))
    n, shape = BOX_SHAPES[q]
    sizes = [[s.stop - s.start for s in box] for _, _, box in boxes]
    assert len(boxes) == n and tuple(sizes[0]) == shape
    assert [start for start, _, _ in boxes] == [0] + [stop for _, stop, _ in boxes[:-1]]
    assert boxes[-1][1] == q**5
    for (start, stop, box), size in zip(boxes, sizes):
        assert stop - start == np.prod(size) <= sweep._CHUNK
        assert start == sum(s.start * q**(4 - k) for k, s in enumerate(box))
    if q == 9:
        assert [size[0] for size in sizes] == [4, 4, 1]


@pytest.mark.parametrize("q", [49, 81, 121, 125])
def test_charsum_matches_count_exhaustive(q):
    spec = spec_for_q(q)
    F = _VecField(spec)
    counts = _class_counts_charsum(F, *_class_grid(F)[:3])
    rng = random.Random(q)
    checked = 0
    while checked < 300:
        i = rng.randrange(q**3)
        c2, rest = divmod(i, q * q)
        c4, c6 = divmod(rest, q)
        try:
            e = Curve(spec, 0, c2, 0, c4, c6)
        except SingularCurve:
            continue
        assert counts[i] == count_exhaustive(e)
        checked += 1


def test_class_grid_mask_marks_the_cubics_with_a_repeated_root():
    """The singular classes are exactly the cubics (x - r)^2 (x - s) with r, s
    in F_q (F_q is perfect, so a repeated root is rational), at every odd
    q <= 121."""
    for q in prime_powers(121):
        if q % 2 == 0:
            continue
        spec = spec_for_q(q)
        add, mul, neg = spec.add_enc, spec.mul_enc, spec.neg_enc
        singular = set()
        for r in range(q):
            rr = mul(r, r)
            for s in range(q):
                c2, c4, c6 = neg(add(add(r, r), s)), add(rr, mul(add(r, r), s)), neg(mul(rr, s))
                singular.add((c2 * q + c4) * q + c6)
        nonsing = _class_grid(_VecField(spec))[3]
        assert set(np.flatnonzero(~nonsing).tolist()) == singular, q


# (curves, singular, api_checked, largest |trace|) of full_sweep_verify with
# its defaults, as the API route gave them when it read each row's five
# coefficients as numpy scalars; every trace from -m to m occurs.  The last
# entry is the number of count_exhaustive calls that count_points makes from
# an empty memo: one per nonsingular completed-square class the API route
# meets in odd characteristic (all q^3 less the singular ones over F_3 to F_9,
# 438 classes among F_17's 500 sampled vectors), one per nonsingular vector
# in characteristic 2
SWEEP_REPORTS = {
    2: (16, 16, 32, 2, 16),
    3: (162, 81, 243, 3, 18),
    4: (768, 256, 1024, 4, 768),
    5: (2500, 625, 3125, 4, 100),
    7: (14406, 2401, 16807, 5, 294),
    9: (52488, 6561, 59049, 6, 648),
    17: (1336336, 83521, 500, 8, 438),
}


@pytest.mark.parametrize("q", sorted(SWEEP_REPORTS))
def test_full_sweep_reports(monkeypatch, q):
    spec = spec_for_q(q)
    monkeypatch.setattr(spec, "_count_memo", None)
    calls = []
    real = ct.count_exhaustive
    monkeypatch.setattr(ct, "count_exhaustive", lambda e: calls.append(e) or real(e))
    rep = full_sweep_verify(spec)
    curves, singular, api_checked, m, exhaustive = SWEEP_REPORTS[q]
    assert (rep.q, rep.curves, rep.singular, rep.api_checked) == (q, curves, singular, api_checked)
    assert rep.trace_values == tuple(range(-m, m + 1))
    assert len(calls) == exhaustive


@pytest.mark.parametrize("q,samples,chunk", [
    pytest.param(7, None, 1000, id="7-None"),
    pytest.param(5, 120, 1000, id="5-120"),
    pytest.param(5, 3000, 1000, id="5-3000"),
    pytest.param(17, 500, sweep._CHUNK, id="17-500"),
    pytest.param(7, None, 10, id="7-None-10"),
    pytest.param(5, 3000, 30, id="5-3000-30"),
])
def test_full_sweep_reports_across_chunks(monkeypatch, q, samples, chunk):
    """The API route reads each box's vectors: boxes of at most the given
    size give the report of a single box of q^5, on the full route and on
    the sampled one (7 * 4 boxes of (a1, 2 values of a2) over F_7 and 5
    boxes of one a1 over F_5 at 1000; F_17 at the module's own size, 51
    boxes; boxes of one a4 over F_7 at 10 and of one a3 over F_5 at 30; 3000
    of the 3125 vectors over F_5 sample the rows on either side of each
    boundary)."""
    kw = {} if samples is None else {"api_samples": samples, "api_all_limit": 0, "seed": 3}
    monkeypatch.setattr(sweep, "_CHUNK", q**5)
    whole = full_sweep_verify(spec_for_q(q), **kw)
    monkeypatch.setattr(sweep, "_CHUNK", chunk)
    assert full_sweep_verify(spec_for_q(q), **kw) == whole
    assert whole.api_checked == (samples or q**5)
    assert q**5 > chunk


def test_full_sweep_sample_of_the_whole_grid_runs_every_curve():
    """api_samples >= q^5 sends every curve through the API route, as
    api_all_limit >= q^5 does, where random.sample would refuse a sample
    larger than the 32 curves over F_2."""
    spec = spec_for_q(2)
    everything = full_sweep_verify(spec)
    for samples in (32, 50):
        rep = full_sweep_verify(spec, api_samples=samples, api_all_limit=0)
        assert rep == everything
        assert rep.api_checked == 32


def api_vectors(q):
    """The coefficient vectors full_sweep_verify sends through the API route
    with its defaults, in its order (seed 0, 500 samples above q^5 = 400000)."""
    total = q**5
    idx = range(total) if total <= 400_000 else sorted(random.Random(0).sample(range(total), 500))
    return [tuple(i // q**j % q for j in range(4, -1, -1)) for i in idx]


def is_singular(spec, co):
    try:
        Curve(spec, *co)
    except SingularCurve:
        return True
    return False


@pytest.mark.parametrize("q", [7, 17])
def test_full_sweep_catches_one_wrong_count(monkeypatch, q):
    """count_points off by one on a single curve, late in the API route's
    order, full (q = 7) or sampled (q = 17)."""
    spec = spec_for_q(q)
    target = [co for co in api_vectors(q) if not is_singular(spec, co)][-3]
    real = sweep.count_points

    def count_points(curve, *args, **kwargs):
        res = real(curve, *args, **kwargs)
        if curve.coefficients() == target:
            return dataclasses.replace(res, count=res.count + 1)
        return res

    monkeypatch.setattr(sweep, "count_points", count_points)
    msg = f"count_points(auto) mismatch at {target} over F_{q}"
    with pytest.raises(InternalInvariantError, match=re.escape(msg)):
        full_sweep_verify(spec)


@pytest.mark.parametrize("q", [7, 17])
def test_full_sweep_catches_an_accepted_singular_curve(monkeypatch, q):
    """A constructor that accepts one singular vector of the API route."""
    spec = spec_for_q(q)
    target = [co for co in api_vectors(q) if is_singular(spec, co)][-3]

    def lenient(spec, *co):
        return object() if co == target else Curve(spec, *co)

    monkeypatch.setattr(sweep, "Curve", lenient)
    msg = f"library accepts singular {target} over F_{q}"
    with pytest.raises(InternalInvariantError, match=re.escape(msg)):
        full_sweep_verify(spec)


def _first_nonsingular(F, co):
    return np.flatnonzero(discriminant(F, co) != 0)[0]


def _one_class_count_off(real):
    return lambda curve: real(curve) + (curve.coefficients() == (0, 0, 0, 1, 1))


def _one_class_unmarked(real):
    def grid(F):
        c2, c4, c6, mask = real(F)
        mask = mask.copy()
        mask[np.flatnonzero(mask)[0]] = False
        return c2, c4, c6, mask
    return grid


def _one_vector_to_class_0(real):
    def reduce(F, c2, c4, c6):
        idx = real(F, c2, c4, c6)
        idx.flat[_first_nonsingular(F, (0, c2, 0, c4, c6))] = 0  # y^2 = x^3, singular
        return idx
    return reduce


def _one_pairscan_count_off(real):
    def pairscan(F, *co):
        counts = real(F, *co)
        counts.flat[_first_nonsingular(F, co)] += 1
        return counts
    return pairscan


@pytest.mark.parametrize("q,name,fault,check", [
    pytest.param(7, "count_exhaustive", _one_class_count_off, "class count mismatch", id="class-count"),
    pytest.param(7, "_class_grid", _one_class_unmarked, "class singularity mismatch", id="class-singularity"),
    pytest.param(7, "_reduce_classes_vec", _one_vector_to_class_0, "reduction singularity mismatch",
                 id="reduction-singularity"),
    pytest.param(4, "_char2_counts_pairscan", _one_pairscan_count_off, "char-2 route mismatch", id="char-2-route"),
])
def test_full_sweep_cross_checks_fire(monkeypatch, q, name, fault, check):
    """One fault in one route of the sweep, each caught by its own
    cross-check: the library's count of the class of y^2 = x^3 + x + 1 off
    by one against the character sum, one nonsingular class unmarked in the
    vectorized mask against the library's SingularCurve, one nonsingular
    vector of a block reduced to the singular class 0 against its own
    discriminant, and one nonsingular pair-scan count off by one against
    the trace route over F_4."""
    monkeypatch.setattr(sweep, name, fault(getattr(sweep, name)))
    with pytest.raises(InternalInvariantError, match=f"^{re.escape(check)} over F_{q}$"):
        full_sweep_verify(spec_for_q(q))
