"""General Weierstrass curves over F_q, the group law, counting, and twists.

Everything is written for the long form y^2 + a1*x*y + a3*y = x^3 + a2*x^2 +
a4*x + a6 so a single code path covers characteristics 2 and 3 alongside the
generic case; only quadratic_twist and the per-x solution counting branch on
the characteristic.
"""

from __future__ import annotations

import random

from .errors import FieldTooLarge, InternalInvariantError, PointNotOnCurve, SingularCurve
from .finite_field import FieldElement, FieldSpec

_ENUMERATE_LIMIT = 1 << 20
_CHAR2_SOLVE_LIMIT = 1 << 16


class Point:
    """A rational point: affine (x, y) or the point at infinity."""

    __slots__ = ("curve", "x", "y")

    def __init__(self, curve: "Curve", x: FieldElement | None, y: FieldElement | None):
        self.curve = curve
        self.x = x
        self.y = y

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        if self.is_infinity or other.is_infinity:
            return self.is_infinity and other.is_infinity
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        if self.is_infinity:
            return hash(("inf", self.curve.spec.q))
        return hash((self.x.enc, self.y.enc))

    def __neg__(self):
        return self.curve.negate(self)

    def __add__(self, other):
        return self.curve.add_points(self, other)

    def __sub__(self, other):
        return self.curve.add_points(self, self.curve.negate(other))

    def __rmul__(self, n: int):
        return self.curve.scalar_mul(n, self)

    def __repr__(self):
        if self.is_infinity:
            return "Point(inf)"
        return f"Point({self.x.enc}, {self.y.enc})"


class Curve:
    """y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6 over a FieldSpec, nonsingular."""

    __slots__ = ("spec", "a1", "a2", "a3", "a4", "a6", "discriminant", "b2", "b4", "b6", "b8")

    def __init__(self, spec: FieldSpec, a1, a2, a3, a4, a6):
        self.spec = spec
        self.a1, self.a2, self.a3, self.a4, self.a6 = (
            spec.element(a1),
            spec.element(a2),
            spec.element(a3),
            spec.element(a4),
            spec.element(a6),
        )
        a1e, a2e, a3e, a4e, a6e = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = a1e * a1e + 4 * a2e
        b4 = 2 * a4e + a1e * a3e
        b6 = a3e * a3e + 4 * a6e
        b8 = a1e * a1e * a6e + 4 * a2e * a6e - a1e * a3e * a4e + a2e * a3e * a3e - a4e * a4e
        disc = -(b2 * b2) * b8 - 8 * (b4 * b4 * b4) - 27 * (b6 * b6) + 9 * b2 * b4 * b6
        if disc.enc == 0:
            raise SingularCurve(f"discriminant vanishes for {self.coefficients()} over F_{spec.q}")
        self.b2, self.b4, self.b6, self.b8 = b2, b4, b6, b8
        self.discriminant = disc

    # -- basic structure -----------------------------------------------------------

    def coefficients(self) -> tuple[int, int, int, int, int]:
        return (self.a1.enc, self.a2.enc, self.a3.enc, self.a4.enc, self.a6.enc)

    def __eq__(self, other):
        return (
            isinstance(other, Curve)
            and self.spec == other.spec
            and self.coefficients() == other.coefficients()
        )

    def __hash__(self):
        return hash((self.spec.q, self.coefficients()))

    def __repr__(self):
        return f"Curve(q={self.spec.q}, a={list(self.coefficients())})"

    def infinity(self) -> Point:
        return Point(self, None, None)

    def point(self, x, y) -> Point:
        """Checked affine point constructor."""
        pt = Point(self, self.spec.element(x), self.spec.element(y))
        if not self.is_on_curve(pt):
            raise PointNotOnCurve(f"({pt.x.enc}, {pt.y.enc}) not on {self!r}")
        return pt

    def is_on_curve(self, pt: Point) -> bool:
        if pt.is_infinity:
            return True
        x, y = pt.x, pt.y
        lhs = y * y + self.a1 * x * y + self.a3 * y
        rhs = ((x + self.a2) * x + self.a4) * x + self.a6
        return lhs == rhs

    # -- group law -----------------------------------------------------------------

    def negate(self, pt: Point) -> Point:
        if pt.is_infinity:
            return pt
        return Point(self, pt.x, -pt.y - self.a1 * pt.x - self.a3)

    def add_points(self, p: Point, q: Point) -> Point:
        if p.is_infinity:
            return q
        if q.is_infinity:
            return p
        x1, y1, x2, y2 = p.x, p.y, q.x, q.y
        if x1 == x2:
            if y2 == -y1 - self.a1 * x1 - self.a3:
                return self.infinity()
            # remaining case is p == q with nonzero tangent denominator
            den = 2 * y1 + self.a1 * x1 + self.a3
            lam = (3 * x1 * x1 + 2 * self.a2 * x1 + self.a4 - self.a1 * y1) / den
        else:
            lam = (y2 - y1) / (x2 - x1)
        x3 = lam * lam + self.a1 * lam - self.a2 - x1 - x2
        y3 = -(lam * (x3 - x1) + y1) - self.a1 * x3 - self.a3
        return Point(self, x3, y3)

    def scalar_mul(self, n: int, pt: Point) -> Point:
        if n < 0:
            return self.scalar_mul(-n, self.negate(pt))
        acc = self.infinity()
        base = pt
        while n:
            if n & 1:
                acc = self.add_points(acc, base)
            n >>= 1
            if n:
                base = self.add_points(base, base)
        return acc

    # -- per-x solution machinery ----------------------------------------------

    def _rhs_enc(self, x: int) -> int:
        """x^3 + a2 x^2 + a4 x + a6 (encoded)."""
        s = self.spec
        return s.add_enc(
            s.mul_enc(s.add_enc(s.mul_enc(s.add_enc(x, self.a2.enc), x), self.a4.enc), x),
            self.a6.enc,
        )

    def y_solutions(self, x: int) -> list[int]:
        """Encodings of all y with (x, y) on the curve, ascending."""
        s = self.spec
        d = self._rhs_enc(x)
        if s.char2:
            c = s.mul_enc(self.a1.enc, x) ^ self.a3.enc
            if c == 0:
                return [s.sqrt_enc(d)]
            if s.q > _CHAR2_SOLVE_LIMIT:
                raise FieldTooLarge("char-2 y-solving guarded to q <= 2^16")
            tr, artin = s.trace_artin_tables()
            e = s.mul_enc(d, s.inv_enc(s.mul_enc(c, c)))
            if int(tr[e]):
                return []
            z = int(artin[e])
            ys = sorted((s.mul_enc(c, z), s.mul_enc(c, z ^ 1)))
            return ys
        # odd characteristic: complete the square
        half = s.inv_enc(2 % s.p)
        t = s.mul_enc(s.add_enc(s.mul_enc(self.a1.enc, x), self.a3.enc), half)
        w = s.add_enc(d, s.mul_enc(t, t))
        if w == 0:
            return [s.neg_enc(t)]
        if not s.is_square_enc(w):
            return []
        r = s.sqrt_enc(w)
        return sorted((s.sub_enc(r, t), s.sub_enc(s.neg_enc(r), t)))


def make_curve(spec: FieldSpec, a1, a2, a3, a4, a6) -> Curve:
    """Construct a curve, rejecting singular coefficient vectors."""
    return Curve(spec, a1, a2, a3, a4, a6)


def is_on_curve(curve: Curve, pt: Point) -> bool:
    return curve.is_on_curve(pt)


def enumerate_points(curve: Curve) -> list[Point]:
    """All rational points: infinity first, then affine sorted by (x, y) encoding."""
    q = curve.spec.q
    if q > _ENUMERATE_LIMIT:
        raise FieldTooLarge(f"point enumeration guarded to q <= 2^20, got {q}")
    spec = curve.spec
    pts = [curve.infinity()]
    for x in range(q):
        for y in curve.y_solutions(x):
            pts.append(Point(curve, FieldElement(spec, x), FieldElement(spec, y)))
    return pts


def count_exhaustive(curve: Curve) -> int:
    """#E by scanning x and counting y-solutions per x (O(q) field operations)."""
    q = curve.spec.q
    if q > _ENUMERATE_LIMIT:
        raise FieldTooLarge(f"exhaustive counting guarded to q <= 2^20, got {q}")
    spec = curve.spec
    total = 1
    if spec.char2:
        a1, a3, a2e, a4e, a6e = (
            curve.a1.enc,
            curve.a3.enc,
            curve.a2.enc,
            curve.a4.enc,
            curve.a6.enc,
        )
        tr, _ = spec.trace_artin_tables()
        mul, inv, add = spec.mul_enc, spec.inv_enc, spec.add_enc
        for x in range(q):
            c = mul(a1, x) ^ a3
            d = add(mul(add(mul(add(x, a2e), x), a4e), x), a6e)
            if c == 0:
                total += 1
            else:
                e = mul(d, inv(mul(c, c)))
                if not int(tr[e]):
                    total += 2
        return total
    chi = spec.chi_table()
    if spec.k == 1:
        p = spec.p
        c2, c4, c6 = _reduced_coefficients(curve)
        for x in range(p):
            w = (((x + c2) * x + c4) * x + c6) % p
            total += 1 + int(chi[w])
        return total
    mul, add = spec.mul_enc, spec.add_enc
    c2, c4, c6 = _reduced_coefficients(curve)
    for x in range(q):
        w = add(mul(add(mul(add(x, c2), x), c4), x), c6)
        total += 1 + int(chi[w])
    return total


def _reduced_coefficients(curve: Curve) -> tuple[int, int, int]:
    """Odd characteristic: encodings (c2, c4, c6) of the completed square
    y^2 = x^3 + c2 x^2 + c4 x + c6 isomorphic to the curve."""
    s = curve.spec
    half = s.inv_enc(2 % s.p)
    ha1 = s.mul_enc(curve.a1.enc, half)
    ha3 = s.mul_enc(curve.a3.enc, half)
    c2 = s.add_enc(curve.a2.enc, s.mul_enc(ha1, ha1))
    c4 = s.add_enc(curve.a4.enc, s.mul_enc(s.mul_enc(curve.a1.enc, curve.a3.enc), half))
    c6 = s.add_enc(curve.a6.enc, s.mul_enc(ha3, ha3))
    return c2, c4, c6


def count_pair_scan(curve: Curve) -> int:
    """O(q^2) oracle: test the raw equation on every (x, y) pair. Small q only."""
    q = curve.spec.q
    if q > 256:
        raise FieldTooLarge("pair-scan oracle is for small fields")
    spec = curve.spec
    a1, a2e, a3, a4e, a6e = curve.coefficients()
    mul, add = spec.mul_enc, spec.add_enc
    total = 1
    for x in range(q):
        rhs = add(mul(add(mul(add(x, a2e), x), a4e), x), a6e)
        a1x = mul(a1, x)
        for y in range(q):
            lhs = add(mul(y, y), add(mul(a1x, y), mul(a3, y)))
            if lhs == rhs:
                total += 1
    return total


# ---------------------------------------------------------------------------
# quadratic twists
# ---------------------------------------------------------------------------

def smallest_nonsquare(spec: FieldSpec) -> FieldElement:
    """Non-square of smallest encoding (odd q)."""
    a = 2
    while spec.is_square_enc(a):
        a += 1
    return FieldElement(spec, a)


def smallest_trace_one(spec: FieldSpec) -> FieldElement:
    """Element of absolute trace 1 with smallest encoding (char 2)."""
    a = 1
    while spec.trace_enc(a) != 1:
        a += 1
    return FieldElement(spec, a)


def quadratic_twist(curve: Curve) -> Curve:
    """A quadratic twist E' with #E + #E' = 2(q+1).

    Odd characteristic: complete the square and rescale by the smallest
    non-square d.  Characteristic 2, ordinary (a1 != 0): normalize to
    y^2 + xy = x^3 + a2 x^2 + a6 and shift a2 by the smallest trace-1
    element.  Characteristic 2, supersingular (a1 == 0): deterministic
    search through same-j curves for the complementary point count.
    """
    spec = curve.spec
    if not spec.char2:
        c2, c4, c6 = _reduced_coefficients(curve)
        d = smallest_nonsquare(spec).enc
        d2 = spec.mul_enc(d, d)
        d3 = spec.mul_enc(d2, d)
        return Curve(
            spec,
            0,
            spec.mul_enc(d, c2),
            0,
            spec.mul_enc(d2, c4),
            spec.mul_enc(d3, c6),
        )
    if curve.a1.enc != 0:
        a2n, a6n = _char2_ordinary_normal_form(curve)
        gamma = smallest_trace_one(spec)
        return Curve(spec, 1, a2n + gamma, 0, 0, a6n)
    # supersingular branch: j = 0, scan the a1 = a2 = 0 family
    if spec.q > _CHAR2_SOLVE_LIMIT:
        raise FieldTooLarge("supersingular char-2 twist search guarded to q <= 2^16")
    target = 2 * (spec.q + 1) - count_exhaustive(curve)
    for a3 in range(1, spec.q):
        for a4 in range(spec.q):
            base = Curve(spec, 0, 0, a3, a4, 0)
            n0 = count_exhaustive(base)
            if n0 == target:
                return base
            if 2 * (spec.q + 1) - n0 != target:
                continue
            # the complementary count lives at a6 with Tr(a6 / a3^2) = 1
            for a6 in range(1, spec.q):
                cand = Curve(spec, 0, 0, a3, a4, a6)
                if count_exhaustive(cand) == target:
                    return cand
    raise InternalInvariantError("no supersingular twist found (group-law bug)")  # pragma: no cover


def _char2_ordinary_normal_form(curve: Curve) -> tuple[FieldElement, FieldElement]:
    """Coefficients (a2'', a6'') of the isomorphic y^2 + xy = x^3 + a2'' x^2 + a6''."""
    a1, a2, a3, a4, a6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a6
    u = a1
    s = a3 / a1
    r = s
    t = (a4 + s * a3 + r * r) / a1 + r * s
    u2 = u * u
    a2n = (a2 + s * a1 + r + s * s) / u2
    a6n = (a6 + r * a4 + r * r * a2 + r * r * r + t * a3 + t * t + r * t * a1) / (u2 * u2 * u2)
    return a2n, a6n


# ---------------------------------------------------------------------------
# point sampling
# ---------------------------------------------------------------------------

def random_point(curve: Curve, rng: random.Random) -> Point:
    """A random rational point: random x, solve for y.

    Falls back to a deterministic scan for tiny fields whose curves may have
    very few (or zero) affine points; the scan returns infinity when the
    curve has no affine point at all.
    """
    spec = curve.spec
    q = spec.q
    attempts = 48 + 4 * q.bit_length()
    for _ in range(attempts):
        x = rng.randrange(q)
        ys = curve.y_solutions(x)
        if ys:
            y = ys[0] if len(ys) == 1 else ys[rng.randrange(2)]
            return Point(curve, FieldElement(spec, x), FieldElement(spec, y))
    if q <= _CHAR2_SOLVE_LIMIT:
        for x in range(q):
            ys = curve.y_solutions(x)
            if ys:
                return Point(curve, FieldElement(spec, x), FieldElement(spec, ys[0]))
        return curve.infinity()
    raise InternalInvariantError("random point sampling failed on a large field")  # pragma: no cover
