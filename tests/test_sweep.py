"""The vectorized sweep kernels against the scalar field kernels and the
per-curve library path, at field sizes the full q^5 sweeps do not reach."""

import dataclasses
import random
import re

import numpy as np
import pytest

from hassecount import sweep
from hassecount.curve import Curve, count_exhaustive
from hassecount.errors import InternalInvariantError, SingularCurve
from hassecount.finite_field import spec_for_q
from hassecount.integers import prime_powers
from hassecount.sweep import _class_counts_charsum, _class_grid, _VecField, full_sweep_verify


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 17, 25, 27])
def test_vecfield_matches_scalar_kernels(q):
    spec = spec_for_q(q)
    F = _VecField(spec)
    a, b = (g.ravel() for g in np.indices((q, q), dtype=np.int32))
    pairs = list(zip(a.tolist(), b.tolist()))
    assert F.add(a, b).tolist() == [spec.add_enc(x, y) for x, y in pairs]
    assert F.mul(a, b).tolist() == [spec.mul_enc(x, y) for x, y in pairs]
    elems = np.arange(q, dtype=np.int32)
    assert F.neg(elems).tolist() == [spec.neg_enc(x) for x in range(q)]
    for c in (-27, -8, -1, 0, 1, 2, 4, 9, 27, (spec.p + 1) // 2):
        assert F.smul(c, elems).tolist() == [spec.mul_enc(c % spec.p, x) for x in range(q)]


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
# coefficients as numpy scalars; every trace from -m to m occurs
SWEEP_REPORTS = {
    2: (16, 16, 32, 2),
    3: (162, 81, 243, 3),
    4: (768, 256, 1024, 4),
    5: (2500, 625, 3125, 4),
    7: (14406, 2401, 16807, 5),
    9: (52488, 6561, 59049, 6),
    17: (1336336, 83521, 500, 8),
}


@pytest.mark.parametrize("q", sorted(SWEEP_REPORTS))
def test_full_sweep_reports(q):
    rep = full_sweep_verify(spec_for_q(q))
    curves, singular, api_checked, m = SWEEP_REPORTS[q]
    assert (rep.q, rep.curves, rep.singular, rep.api_checked) == (q, curves, singular, api_checked)
    assert rep.trace_values == tuple(range(-m, m + 1))


@pytest.mark.parametrize("q,samples", [(7, None), (5, 120)])
def test_full_sweep_reports_across_chunks(monkeypatch, q, samples):
    """The API route reads each chunk's rows: small chunks give the same
    report, on the full route and on the sampled one."""
    kw = {} if samples is None else {"api_samples": samples, "api_all_limit": 0, "seed": 3}
    whole = full_sweep_verify(spec_for_q(q), **kw)
    monkeypatch.setattr(sweep, "_CHUNK", 1000)
    assert full_sweep_verify(spec_for_q(q), **kw) == whole
    assert whole.api_checked == (samples or q**5)


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
