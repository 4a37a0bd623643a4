"""The vectorized sweep kernels against the scalar field kernels and the
per-curve library path, at field sizes the full q^5 sweeps do not reach."""

import random

import numpy as np
import pytest

from hassecount.curve import Curve, count_exhaustive
from hassecount.errors import SingularCurve
from hassecount.finite_field import spec_for_q
from hassecount.integers import prime_powers
from hassecount.sweep import _class_counts_charsum, _class_grid, _VecField


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
