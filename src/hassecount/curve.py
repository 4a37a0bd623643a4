"""General Weierstrass curves over F_q, the group law, counting, and twists.

Everything is written for the long form y^2 + a1*x*y + a3*y = x^3 + a2*x^2 +
a4*x + a6 so a single code path covers characteristics 2 and 3 alongside the
generic case; only quadratic_twist, the per-x solution counting and the
choice of stepping model branch on the characteristic.

Coefficients and point coordinates are field encodings (plain ints, see
finite_field) and the formulas call the FieldSpec kernels on them, but over
odd fields with Zech tables (1 < k, q <= 2^20), where y_solutions, to_logs,
log_law and count_exhaustive work in discrete logs on the field's log,
antilog and Zech tables, with no kernel call; an integer constant c is the
encoding c % p.  In odd characteristic the constructor derives the completed
square once (Curve.completed_model) and takes the discriminant from it: over
the integers on prime fields, by ten reads of per-field tables on the odd
extension fields up to q = 49 (F_9, F_25, F_27, F_49; _curve_tables, 0.9 us
per call at q = 9) and on the kernels elsewhere; over prime fields
y_solutions and to_completed, too, evaluate over the integers, one % p each,
and y_solutions' root is one root_enc call, a table read up to p =
finite_field._ROOT_TABLE_MAX_P.  quadratic_twist does not
call the constructor in odd characteristic: it scales E's completed square
and discriminant (Curve._completed_square).  long_add, the affine addition
law of the long form, adds bare encodings; Curve.add_points wraps it in
Points for the API.
The loops that carry the traffic step on one affine model per curve
(Curve.affine_model), on bare coordinates:
- characteristic 2: the long form, added by long_add;
- odd fields with Zech tables (1 < k, q <= 2^20): log coordinates, the
  discrete logs of (x, y') on the completed square y'^2 = x^3 + c2 x^2 +
  c4 x + c6 (Curve.completed_model, a1 = a3 = 0), added by log_law, where
  a product is one integer addition and a sum one Zech lookup;
- every other odd field: the completed square on encodings, added by
  completed_law but over F_p, p > 3, where no walk steps an add.
Curve.to_model maps a point in, on every field.  Curve.mul, the one scalar
multiplication, works on the model's coordinates and never maps back; over
prime fields with p > 3 its chain runs on the completed square in Jacobian
coordinates, one inversion per multiplication.  Curve.scalar_mul is its
wrapper on Points.  Over odd prime fields the BSGS walks add on the
completed square one inversion per block: completed_add_block adds residues
to one point, and completed_pair_block makes the x of the 2h + 1 terms C -
S_h, ..., C, ..., C + S_h of a progression around a known centre C, whose
pairs C +- S_i share a denominator, with the next centre C + (2h+1)*S.
Neither returns slopes: completed_sum_y recomputes the y of a sum from its
operands, one inversion, where a walk needs it.
"""

from __future__ import annotations

import random
from functools import partial

from .errors import FieldTooLarge, PointNotOnCurve, SingularCurve
from .finite_field import FieldSpec

_ENUMERATE_LIMIT = 1 << 20

# Field sizes where the trace congruence need not become unique; cross-checked
# against the exception enumerator in tests.
EXCLUDED_Q = frozenset({3, 4, 5, 7, 9, 11, 16, 17, 23, 25, 29, 49})

# Up to this size exhaustive enumeration beats point orders outright
# (counting.count_points); it must cover EXCLUDED_Q, so it is that set's
# largest member, 49.  The odd extension fields up to it (9, 25, 27, 49)
# build their curves from per-field tables (_curve_tables).
_SMALL_Q = max(EXCLUDED_Q)


class Point:
    """A rational point: affine (x, y) encodings, or infinity (x = y = None)."""

    __slots__ = ("curve", "x", "y")

    def __init__(self, curve: "Curve", x: int | None, y: int | None):
        self.curve = curve
        self.x = x
        self.y = y

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        if self.is_infinity:
            return hash(("inf", self.curve.spec.q))
        return hash((self.x, self.y))

    def __repr__(self):
        if self.is_infinity:
            return "Point(inf)"
        return f"Point({self.x}, {self.y})"


class Curve:
    """y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6 over a FieldSpec, nonsingular."""

    __slots__ = ("spec", "a1", "a2", "a3", "a4", "a6", "discriminant", "_completed", "_model", "_short",
                 "_logs")

    def __init__(self, spec: FieldSpec, a1, a2, a3, a4, a6):
        """Validates the coefficients and the discriminant.  In odd
        characteristic the completed square (completed_model) is derived
        here, once, and the discriminant taken from it: the substitution y' =
        y + h1 x + h3 keeps it, so it is 16 disc(x^3 + c2 x^2 + c4 x + c6).
        Odd prime fields evaluate h1, h3, c2, c4, c6 and the discriminant over
        the Python integers, with one % p each, not through the field kernels
        (0.71 against 1.37 us per call at p = 7 and 17).  The odd extension
        fields up to q = _SMALL_Q = 49 (F_9 of the sweeps, F_25, F_27, F_49)
        read them from the field's q^2-entry tables (_curve_tables, built on
        the field's first curve), ten list reads: 0.9 against 1.7 us per call
        over the 59,049 vectors of F_9, 0.9 against 3.5 at 25 and 49.  The
        other odd extension fields, 3^7 among them, take the kernels and one
        discriminant formula for every odd p: its constants are encodings c %
        p, so in characteristic 3 (4 = 16 = 1, 18 = 27 = 0) it is c4^2 (c2^2
        - c4) - c2^3 c6 (4.5 us per call at 3^7).  Characteristic 2 takes it
        from the b-invariants.  A vanishing discriminant raises SingularCurve
        with the coefficient encodings and q; its message is formatted only
        when read."""
        self.spec = spec
        q = spec.q
        if not (
            type(a1) is type(a2) is type(a3) is type(a4) is type(a6) is int
            and 0 <= a1 < q and 0 <= a2 < q and 0 <= a3 < q and 0 <= a4 < q and 0 <= a6 < q
        ):
            # anything but in-range plain-int encodings is validated by the field
            a1, a2, a3, a4, a6 = (spec.element(a).enc for a in (a1, a2, a3, a4, a6))
        self.a1, self.a2, self.a3, self.a4, self.a6 = a1, a2, a3, a4, a6
        p = spec.p
        if spec.char2:
            add, mul = spec.add_enc, spec.mul_enc
            b2 = mul(a1, a1)
            b4 = mul(a1, a3)
            b6 = mul(a3, a3)
            # b8 = a1^2 a6 + a2 a3^2 + a1 a3 a4 + a4^2 and disc = b2^2 b8 + b6^2 + b2 b4 b6
            b8 = add(add(mul(b2, a6), mul(a2, b6)), mul(a4, add(b4, a4)))
            disc = add(mul(b6, add(mul(b2, b4), b6)), mul(mul(b2, b2), b8))
            self._completed = None
        elif spec.k == 1:
            # the same formulas as below, over the integers, reduced once each
            half = (p + 1) >> 1  # 1/2 mod p
            h1, h3 = a1 * half % p, a3 * half % p
            c2, c4, c6 = (a2 + h1 * h1) % p, (a4 + h1 * a3) % p, (a6 + h3 * h3) % p
            self._completed = c2, c4, c6, h1, h3
            c22 = c2 * c2
            disc = 16 * (c4 * c4 * (c22 - 4 * c4) + c6 * (c2 * (18 * c4 - 4 * c22) - 27 * c6)) % p
        elif q <= _SMALL_Q:
            half, square, cross, sums, da, db, dc = spec._curve_tables or _curve_tables(spec)
            a1q = a1 * q
            c2, c4 = square[a1q + a2], sums[cross[a1q + a3] + a4]
            c6 = square[a3 * q + a6]
            self._completed = c2, c4, c6, half[a1], half[a3]
            i = c2 * q + c4
            disc = sums[da[i] + dc[db[i] + c6]]
        else:
            add, sub, mul = spec.add_enc, spec.sub_enc, spec.mul_enc
            half = (p + 1) >> 1  # 1/2, a constant of the prime field
            h1, h3 = mul(a1, half), mul(a3, half)
            c2, c4, c6 = add(a2, mul(h1, h1)), add(a4, mul(h1, a3)), add(a6, mul(h3, h3))
            self._completed = c2, c4, c6, h1, h3
            # disc = 16 (c4^2 (c2^2 - 4 c4) + c6 (c2 (18 c4 - 4 c2^2) - 27 c6))
            c22 = mul(c2, c2)
            disc = add(
                mul(mul(c4, c4), sub(c22, mul(4 % p, c4))),
                mul(c6, sub(mul(c2, sub(mul(18 % p, c4), mul(4 % p, c22))), mul(27 % p, c6))),
            )
            disc = mul(16 % p, disc)
        if disc == 0:
            raise SingularCurve((a1, a2, a3, a4, a6), q)
        self.discriminant = disc
        self._model = None

    @classmethod
    def _completed_square(cls, spec: FieldSpec, c2: int, c4: int, c6: int, disc: int) -> Curve:
        """y^2 = x^3 + c2 x^2 + c4 x + c6 over an odd field, given its
        discriminant disc, nonzero: the slots __init__ fills, with no formula
        evaluated.  Its completed square is itself, (c2, c4, c6, 0, 0)."""
        curve = cls.__new__(cls)
        curve.spec, curve.a1, curve.a2, curve.a3, curve.a4, curve.a6 = spec, 0, c2, 0, c4, c6
        curve._completed = c2, c4, c6, 0, 0
        curve.discriminant = disc
        curve._model = None
        return curve

    # -- basic structure -----------------------------------------------------------

    def coefficients(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

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
        pt = Point(self, self.spec.element(x).enc, self.spec.element(y).enc)
        if not self.is_on_curve(pt):
            raise PointNotOnCurve(f"({pt.x}, {pt.y}) not on {self!r}")
        return pt

    def is_on_curve(self, pt: Point) -> bool:
        if pt.is_infinity:
            return True
        s, x, y = self.spec, pt.x, pt.y
        # y (y + a1 x + a3) = x^3 + a2 x^2 + a4 x + a6
        return s.mul_enc(y, s.add_enc(s.add_enc(y, s.mul_enc(self.a1, x)), self.a3)) == self._rhs_enc(x)

    # -- group law -----------------------------------------------------------------

    def negate(self, pt: Point) -> Point:
        if pt.is_infinity:
            return pt
        s = self.spec
        # -(x, y) = (x, -y - a1 x - a3)
        return Point(self, pt.x, s.neg_enc(s.add_enc(s.add_enc(pt.y, s.mul_enc(self.a1, pt.x)), self.a3)))

    def add_points(self, p: Point, q: Point) -> Point:
        """P + Q by the affine addition law of the long form (long_add)."""
        return Point(self, *long_add(self.spec, self.a1, self.a2, self.a3, self.a4, p.x, p.y, q.x, q.y))

    def completed_model(self) -> tuple[int, int, int, int, int]:
        """Odd characteristic: encodings (c2, c4, c6, h1, h3) of the isomorphic
        completed square y'^2 = x^3 + c2 x^2 + c4 x + c6, y' = y + h1 x + h3
        with h1 = a1/2, h3 = a3/2; on it -(x, y') = (x, -y').  Derived by the
        constructor, which takes the discriminant from it."""
        return self._completed

    def short_model(self) -> tuple[int, int, int]:
        """Prime fields with p > 3: (s, a, b) with s = c2/3, so that x' = x +
        s takes the completed square y^2 = x^3 + c2 x^2 + c4 x + c6 to y^2 =
        x'^3 + a x' + b.  Computed on first use and kept: the constructor
        leaves the slot unset, so building a curve costs nothing more."""
        try:
            return self._short
        except AttributeError:
            p = self.spec.p
            if self.spec.k != 1 or p <= 3:
                raise ValueError(f"no short model over F_{self.spec.q}") from None
            c2, c4, c6 = self._completed[:3]
            s = c2 * ((-p % 3 * p + 1) // 3) % p  # c2/3: (-p % 3) * p = -1 (mod 3)
            self._short = s, (c4 - c2 * s) % p, ((c2 - s) * s * s - c4 * s + c6) % p
            return self._short

    def to_completed(self, pt: Point) -> tuple[int | None, int | None]:
        """(x, y') of P on the completed square, (None, None) for infinity;
        over F_p y' = y + h1 x + h3 over the integers, one % p, as the
        constructor does."""
        x = pt.x
        if x is None:
            return None, None
        s, (_, _, _, h1, h3) = self.spec, self._completed
        if s.k == 1:
            return x, (pt.y + h1 * x + h3) % s.p
        return x, s.add_enc(pt.y, s.add_enc(s.mul_enc(h1, x), h3))

    def from_completed(self, x: int | None, y: int | None) -> Point:
        """The point (x, y') of the completed square on the long form."""
        if x is None:
            return self.infinity()
        s, (_, _, _, h1, h3) = self.spec, self.completed_model()
        return Point(self, x, s.sub_enc(y, s.add_enc(s.mul_enc(h1, x), h3)))

    def _completed_logs(self) -> tuple[int, int, int, int, int]:
        """Fields with Zech tables (odd, 1 < k, q <= 2^20): the discrete logs
        of completed_model's (c2, c4, c6, h1, h3), in [0, q-1), -1 for zero.
        Computed on first use and kept, as short_model is."""
        try:
            return self._logs
        except AttributeError:
            log = self.spec._log
            self._logs = tuple(log[c] if c else -1 for c in self._completed)
            return self._logs

    def to_logs(self, pt: Point) -> tuple[int | None, int | None]:
        """Log coordinates of P: the discrete logs of its (x, y') on the
        completed square, -1 for a zero coordinate, (None, None) for
        infinity.  Fields with Zech tables only (odd, 1 < k, q <= 2^20).
        y' = y + h1 x + h3 is formed in logs (_completed_logs), two Zech
        lookups, with no kernel call."""
        x = pt.x
        if x is None:
            return None, None
        s, y = self.spec, pt.y
        log, zech, n = s._log, s._zech, s.q - 1
        lh1, lh3 = self._completed_logs()[3:]
        lx = log[x] if x else -1
        lt = _log_sum(zech, n, (lh1 + lx) % n if lh1 >= 0 and x else -1, lh3)
        return lx, _log_sum(zech, n, log[y] if y else -1, lt)

    def from_logs(self, x: int | None, y: int | None) -> Point:
        """The point with log coordinates (x, y) on the long form."""
        if x is None:
            return self.infinity()
        exp = self.spec._exp
        return self.from_completed(exp[x] if x >= 0 else 0, exp[y] if y >= 0 else 0)

    def affine_model(self) -> tuple:
        """(to, add, neg, back): the model the group walks step on, on bare
        (x, y), None for infinity.  to(curve, P) and back(curve, x, y) map a
        Point in and out; add(x1, y1, x2, y2); neg(x, y), the y of -(x, y).
        Three models:
        - characteristic 2: the long form (long_add, y + a1 x + a3);
        - odd fields with Zech tables (1 < k, q <= 2^20): log coordinates
          on the completed square (to_logs, log_law, y + (q-1)/2);
        - every other odd field: the completed square on encodings
          (to_completed, completed_law, -y), with an add of None over F_p,
          p > 3, where mul runs its Jacobian chain and the BSGS its residue
          blocks.
        Built once, on first use; refers to no curve.  to_model, mul and
        scalar_mul read it."""
        if self._model is None:
            s = self.spec
            if s.char2:
                a1, a3, mul = self.a1, self.a3, s.mul_enc
                add = partial(long_add, s, a1, self.a2, a3, self.a4)
                self._model = lambda _, pt: (pt.x, pt.y), add, lambda x, y: y ^ mul(a1, x) ^ a3, Point
            elif s._zech is not None:
                n, h = s.q - 1, (s.q - 1) >> 1  # -1 has log h
                add = log_law(s, *self.completed_model()[:2])
                self._model = Curve.to_logs, add, lambda x, y: y if y < 0 else (y + h) % n, Curve.from_logs
            else:
                add = None if s.k == 1 and s.p > 3 else completed_law(s, *self.completed_model()[:2])
                self._model = Curve.to_completed, add, lambda x, y: s.neg_enc(y), Curve.from_completed
        return self._model

    def to_model(self, pt: Point) -> tuple:
        """P's bare (x, y) on the curve's affine model, (None, None) for
        infinity: where the BSGS, exact_order and the count's check map a
        sampled point in, once each."""
        return self.affine_model()[0](self, pt)

    def mul(self, n: int, x: int | None, y: int | None) -> tuple:
        """n*(x, y) on the bare coordinates of the affine model (to_model),
        for any integer n (negative n multiplies -(x, y)), by left-to-right
        double-and-add; (None, None) is infinity.  Two chains: prime fields
        with p > 3 run in Jacobian coordinates (_jacobian_mul), one field
        inversion per call; every other field (F_2, F_3, odd extensions,
        characteristic 2) steps the add of the model.  Both give the same
        point; both negate by the model's neg.  The Jacobian chain reads the
        short model from its slot once short_model has filled it."""
        if n == 0 or x is None:
            return None, None
        if n < 0:
            n, y = -n, self.affine_model()[2](x, y)
        s = self.spec
        if s.k == 1 and s.p > 3:
            try:
                sx, a, _ = self._short
            except AttributeError:
                sx, a, _ = self.short_model()
            return _jacobian_mul(n, x, y, sx, a, s.p)
        add = self.affine_model()[1]
        xb, yb = x, y
        for bit in bin(n)[3:]:
            x, y = add(x, y, x, y)
            if bit == "1":
                x, y = add(x, y, xb, yb)
        return x, y

    def scalar_mul(self, n: int, pt: Point) -> Point:
        """n*P for any integer n: Curve.mul on P mapped in by to_model and
        mapped back by the model's back."""
        return self.affine_model()[3](self, *self.mul(n, *self.to_model(pt)))

    # -- per-x solution machinery ----------------------------------------------

    def _rhs_enc(self, x: int) -> int:
        """x^3 + a2 x^2 + a4 x + a6 (encoded)."""
        s = self.spec
        return s.add_enc(
            s.mul_enc(s.add_enc(s.mul_enc(s.add_enc(x, self.a2), x), self.a4), x),
            self.a6,
        )

    def y_solutions(self, x: int) -> list[int]:
        """Encodings of all y with (x, y) on the curve, ascending.  In odd
        characteristic y = +-sqrt(f(x)) - t on the completed square, t = h1 x +
        h3.  On odd fields with Zech tables f(x) and t are evaluated in logs
        and the roots are the halved log (_zech_y_solutions, no kernel call);
        elsewhere one root_enc call, one exponentiation (a table read on
        prime fields up to finite_field._ROOT_TABLE_MAX_P), both tells
        whether a y exists and gives it, over F_p with f(x) and t evaluated
        over the integers, one % p each, as the constructor does."""
        s = self.spec
        if s.char2:
            d = self._rhs_enc(x)
            c = s.mul_enc(self.a1, x) ^ self.a3
            if c == 0:
                return [s.sqrt_enc(d)]
            # y = c z with z^2 + z = d / c^2
            z = s.artin_enc(s.mul_enc(d, s.inv_enc(s.mul_enc(c, c))))
            if z is None:
                return []
            return sorted((s.mul_enc(c, z), s.mul_enc(c, z ^ 1)))
        # odd characteristic: y = y' - t, y'^2 = w on the completed square
        c2, c4, c6, h1, h3 = self._completed
        if s.k == 1:
            p = s.p
            t = (h1 * x + h3) % p
            w = (((x + c2) * x + c4) * x + c6) % p
            if w == 0:
                return [-t % p]
            r = s.root_enc(w)
            if r is None:
                return []
            y1, y2 = (r - t) % p, (-r - t) % p
            return [y1, y2] if y1 < y2 else [y2, y1]
        if s._zech is not None:
            return self._zech_y_solutions(x)
        t = s.add_enc(s.mul_enc(h1, x), h3)
        w = s.add_enc(s.mul_enc(s.add_enc(s.mul_enc(s.add_enc(x, c2), x), c4), x), c6)
        if w == 0:
            return [s.neg_enc(t)]
        r = s.root_enc(w)
        if r is None:
            return []
        return sorted((s.sub_enc(r, t), s.sub_enc(s.neg_enc(r), t)))

    def _zech_y_solutions(self, x: int) -> list[int]:
        """y_solutions over an odd field with Zech tables, in logs
        (_completed_logs): w = ((x + c2) x + c4) x + c6 by three Zech sums,
        written out, and, where w is 0 or a square alpha^(2r), t = h1 x + h3
        by one more; the roots of w are +-alpha^r, and y = +-alpha^r - t.
        No kernel call."""
        s = self.spec
        log, exp, zech = s._log, s._exp, s._zech
        n = s.q - 1
        h = n >> 1  # log(-1)
        lc2, lc4, lc6, lh1, lh3 = self._completed_logs()
        if x:
            lx = log[x]
            # each sum a + c is alpha^la (1 + alpha^(lc - la)): one Zech lookup
            if lc2 < 0:
                lw = lx
            else:
                z = zech[lc2 - lx]
                lw = (lx + z) % n if z >= 0 else -1
            if lw < 0:
                lw = lc4
            elif lc4 < 0:
                lw = (lw + lx) % n
            else:
                lw += lx
                z = zech[lc4 - lw]
                lw = (lw + z) % n if z >= 0 else -1
            if lw < 0:
                lw = lc6
            elif lc6 < 0:
                lw = (lw + lx) % n
            else:
                lw += lx
                z = zech[lc6 - lw]
                lw = (lw + z) % n if z >= 0 else -1
            if lw >= 0 and lw & 1:  # not a square
                return []
            lt = _log_sum(zech, n, (lh1 + lx) % n if lh1 >= 0 else -1, lh3)
        else:
            lw, lt = lc6, lh3
            if lw >= 0 and lw & 1:
                return []
        if lw < 0:
            return [exp[lt + h] if lt >= 0 else 0]
        r = lw >> 1
        y1 = _log_sum(zech, n, r, (lt + h) % n if lt >= 0 else -1)  # alpha^r - t
        y2 = _log_sum(zech, n, r, lt)  # alpha^r + t = -(-alpha^r - t)
        y1 = exp[y1] if y1 >= 0 else 0
        y2 = exp[y2 + h] if y2 >= 0 else 0
        return [y1, y2] if y1 < y2 else [y2, y1]


def _log_sum(zech, n: int, la: int, lb: int) -> int:
    """log(a + b) from la = log a and lb = log b over a field with Zech
    tables, n = q - 1: logs in [0, n), -1 for zero, the result too.
    a + b = alpha^la (1 + alpha^(lb - la)), one Zech lookup."""
    if la < 0:
        return lb
    if lb < 0:
        return la
    z = zech[lb - la]
    return (la + z) % n if z >= 0 else -1


def _curve_tables(spec: FieldSpec) -> tuple:
    """Curve.__init__'s tables over an odd extension field with q <=
    _SMALL_Q, built on the field's first curve and kept in
    spec._curve_tables.  A pair of encodings (a, b) has index a*q + b:
    half[a] = a/2, square[a*q + b] = b + (a/2)^2, cross[a*q + b] = (a/2) b
    and sums[a*q + b] = a + b.  The discriminant 16 (c4^2 (c2^2 - 4 c4) + c6
    (c2 (18 c4 - 4 c2^2) - 27 c6)) is A(c2, c4) + B(c2, c4) c6 - 432 c6^2,
    with da[c2*q + c4] = A, db[c2*q + c4] = B and dc[b*q + c] = b c - 432
    c^2.  cross, da and db hold their values times q, the offset of the row
    they index, as shared ints (row).  Only sums and the product table prod
    call the kernels; the rest are lookups in them: 1.7 ms at q = 49."""
    q, p = spec.q, spec.p
    els = range(q)
    sums = [spec.add_enc(a, b) for a in els for b in els]
    prod = [spec.mul_enc(a, b) for a in els for b in els]
    row = [q * a for a in els]

    def times(c: int) -> list:  # a -> c a, for an integer constant c
        return prod[c % p * q:c % p * q + q]

    half, sq, m4 = times((p + 1) >> 1), [prod[a * q + a] for a in els], times(-4)
    square = [c for h in half for c in sums[sq[h] * q:sq[h] * q + q]]
    cross = [row[c] for h in half for c in prod[h * q:h * q + q]]
    s16, e18, m432 = times(16), times(18), times(-432)
    da = [row[prod[s16[sq[c4]] * q + sums[sq[c2] * q + m4[c4]]]] for c2 in els for c4 in els]
    db = [row[prod[s16[c2] * q + sums[e18[c4] * q + m4[sq[c2]]]]] for c2 in els for c4 in els]
    dc = [sums[prod[b * q + c] * q + m432[sq[c]]] for b in els for c in els]
    spec._curve_tables = tables = half, square, cross, sums, da, db, dc
    return tables


def long_add(spec: FieldSpec, a1: int, a2: int, a3: int, a4: int, x1, y1, x2, y2) -> tuple:
    """(x1, y1) + (x2, y2) on y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6
    over any field, in encodings on the FieldSpec kernels; x = y = None is
    infinity.  Tangent slope (3x^2 + 2 a2 x + a4 - a1 y)/(2y + a1 x + a3);
    x3 = lam^2 + a1 lam - a2 - x1 - x2, y3 = -(lam (x3 - x1) + y1) - a1 x3 - a3."""
    if x1 is None:
        return x2, y2
    if x2 is None:
        return x1, y1
    add, sub, mul = spec.add_enc, spec.sub_enc, spec.mul_enc
    if x1 == x2:
        w = add(add(y1, mul(a1, x1)), a3)
        if add(w, y2) == 0:  # y2 = -y1 - a1 x1 - a3: the sum is infinity
            return None, None
        num = sub(add(mul(add(mul(3 % spec.p, x1), mul(2 % spec.p, a2)), x1), a4), mul(a1, y1))
        lam = mul(num, spec.inv_enc(add(w, y1)))
    else:
        lam = mul(sub(y2, y1), spec.inv_enc(sub(x2, x1)))
    x3 = sub(mul(lam, add(lam, a1)), add(add(a2, x1), x2))
    return x3, spec.neg_enc(add(add(add(mul(lam, sub(x3, x1)), y1), mul(a1, x3)), a3))


def _jacobian_mul(n: int, xb: int, yb: int, sx: int, a: int, p: int) -> tuple:
    """n*(xb, yb) for n >= 1 on the completed square over F_p, p > 3, as
    (x, y), (None, None) for infinity.  Left-to-right double-and-add on the
    shifted square y^2 = x'^3 + a x' + b, x' = x + sx (Curve.short_model), in
    Jacobian coordinates (x', y) = (X/Z^2, Y/Z^3), Z = 0 for infinity, adding
    the affine base by mixed additions: one inversion, for the way out.  A
    doubling's Z3 = 2 Y Z vanishes for infinity (Z = 0) and for a 2-torsion
    point (Y = 0), so both come out as infinity unbranched."""
    xb = (xb + sx) % p
    x, y, z = xb, yb, 1
    for bit in bin(n)[3:]:
        yy = y * y % p  # doubling
        s = 4 * x * yy % p
        zz = z * z % p
        m = (3 * x * x + a * zz * zz) % p
        x = (m * m - 2 * s) % p
        y, z = (m * (s - x) - 8 * yy * yy) % p, 2 * y * z % p
        if bit == "0":
            continue
        if z == 0:
            x, y, z = xb, yb, 1
            continue
        zz = z * z % p
        h = (xb * zz - x) % p
        r = (yb * zz * z - y) % p
        if h == 0:  # equal x': the sum is 2*base (r = 0) or infinity
            x, y = _jacobian_mul(2, (xb - sx) % p, yb, sx, a, p) if r == 0 else (None, None)
            x, y, z = (1, 1, 0) if x is None else ((x + sx) % p, y, 1)
            continue
        hh = h * h % p
        hhh = h * hh % p
        v = x * hh % p
        x = (r * r - hhh - 2 * v) % p
        y = (r * (v - x) - y * hhh) % p
        z = z * h % p
    if z == 0:
        return None, None
    zi = pow(z, -1, p)
    zi2 = zi * zi % p
    return (x * zi2 - sx) % p, y * zi2 * zi % p


def completed_law(spec: FieldSpec, c2: int, c4: int):
    """completed_add(x1, y1, x2, y2): (x1, y1) + (x2, y2) on y^2 = x^3 + c2
    x^2 + c4 x + c6 over an odd field, on FieldSpec kernels bound once per
    curve; x = y = None is infinity.  Chord slope (y2 - y1)/(x2 - x1),
    tangent slope (3x^2 + 2 c2 x + c4)/(2y); x3 = lam^2 - c2 - x1 - x2 and
    y3 = lam (x1 - x3) - y1.  Equal x with y2 = -y1 (P + (-P), doubling y =
    0) gives infinity."""
    add, sub, mul, inv, three = spec.add_enc, spec.sub_enc, spec.mul_enc, spec.inv_enc, 3 % spec.p

    def completed_add(x1, y1, x2, y2):
        if x1 is None:
            return x2, y2
        if x2 is None:
            return x1, y1
        if x1 == x2:
            if y1 != y2 or not y1:
                return None, None
            lam = mul(add(mul(add(mul(three, x1), add(c2, c2)), x1), c4), inv(add(y1, y1)))
        else:
            lam = mul(sub(y2, y1), inv(sub(x2, x1)))
        x3 = sub(mul(lam, lam), add(add(c2, x1), x2))
        return x3, sub(mul(lam, sub(x1, x3)), y1)
    return completed_add


def log_law(spec: FieldSpec, c2: int, c4: int):
    """log_add(x1, y1, x2, y2): completed_law's chord and tangent law on log
    coordinates (Curve.to_logs) over an odd field with Zech tables; x = y =
    None is infinity.  With n = q - 1, the log of a product, quotient or
    square is a sum, difference or double of logs, and that of a sum one
    Zech lookup, log(a + b) = la + zech[lb - la]; -b has log lb + n/2.
    Zero has log -1, as in zech, so every sum checks its operands and its
    result for it.  Each log is reduced to [0, n) where a later index or a
    comparison needs it; zech has 2n entries and wraps negative indices."""
    log, zech = spec._log, spec._zech
    n = spec.q - 1
    h = n >> 1
    l2 = log[2]
    l3 = log[3] if spec.p > 3 else -1  # the tangent's 3x^2 vanishes in characteristic 3
    lc2 = log[c2] if c2 else -1
    lc4 = log[c4] if c4 else -1
    l2c2 = (l2 + lc2) % n if c2 else -1

    def log_add(x1, y1, x2, y2):
        if x1 is None:
            return x2, y2
        if x2 is None:
            return x1, y1
        if x1 == x2:
            if y1 != y2 or y1 < 0:
                return None, None
            # lam = ((3x + 2 c2) x + c4) / 2y, u = c2 + 2x
            if x1 < 0:
                num, u = lc4, lc2
            else:
                t = (x1 + l3) % n if l3 >= 0 else -1
                if t < 0:
                    t = l2c2
                elif l2c2 >= 0:
                    z = zech[l2c2 - t]
                    t = (t + z) % n if z >= 0 else -1
                if t < 0:
                    num = lc4
                else:
                    num = (t + x1) % n
                    if lc4 >= 0:
                        z = zech[lc4 - num]
                        num = (num + z) % n if z >= 0 else -1
                u = (x1 + l2) % n
                if lc2 >= 0:
                    z = zech[lc2 - u]
                    u = (u + z) % n if z >= 0 else -1
            lam = (num - l2 - y1) % n if num >= 0 else -1
        else:
            # lam = (y2 - y1) / (x2 - x1), u = c2 + x1 + x2; x2 - x1 != 0
            if x1 < 0:
                dx = x2
            elif x2 < 0:
                dx = x1 + h
            else:
                dx = x1 + h + zech[x2 - x1 - h]
            if y1 < 0:
                dy = y2
            elif y2 < 0:
                dy = y1 + h
            else:
                z = zech[y2 - y1 - h]
                dy = y1 + h + z if z >= 0 else -1
            lam = (dy - dx) % n if dy >= 0 else -1
            if x1 < 0:
                u = x2
            elif x2 < 0:
                u = x1
            else:
                z = zech[x2 - x1]
                u = (x1 + z) % n if z >= 0 else -1
            if u < 0:
                u = lc2
            elif lc2 >= 0:
                z = zech[lc2 - u]
                u = (u + z) % n if z >= 0 else -1
        # x3 = lam^2 - u
        if lam < 0:
            x3 = (u + h) % n if u >= 0 else -1
        elif u < 0:
            x3 = (lam + lam) % n
        else:
            z = zech[u + h - lam - lam]
            x3 = (lam + lam + z) % n if z >= 0 else -1
        # y3 = lam (x1 - x3) - y1
        if x3 < 0:
            v = x1
        elif x1 < 0:
            v = (x3 + h) % n
        else:
            z = zech[x3 + h - x1]
            v = (x1 + z) % n if z >= 0 else -1
        if lam < 0 or v < 0:
            y3 = (y1 + h) % n if y1 >= 0 else -1
        elif y1 < 0:
            y3 = (lam + v) % n
        else:
            w = lam + v
            z = zech[y1 + h - w]
            y3 = (w + z) % n if z >= 0 else -1
        return x3, y3
    return log_add


def completed_add_block(c2: int, c4: int, p: int, x1, y1, xs: list, ys: list, ny: int):
    """(x1, y1) + (xs[i], ys[i]) for every i on a completed square y^2 = x^3 +
    c2 x^2 + c4 x + c6 over F_p, x None for infinity, with one shared
    inversion (Montgomery's trick).

    Returns the sums' x (None for infinity) and their y for i < ny, for the
    last i and where an operand is infinity, None elsewhere: completed_sum_y
    gives any other y from the operands.
    """
    n = len(xs)
    if x1 is None:
        return list(xs), list(ys)
    x3s, y3s = [None] * n, [None] * n
    todo, prefix = [], []  # prefix[k]: product of the denominators of todo[0..k]
    acc = 1
    for i, x2 in enumerate(xs):
        if x2 is None:
            x3s[i], y3s[i] = x1, y1
            continue
        if x2 != x1:
            acc = acc * (x2 - x1) % p
        elif ys[i] == y1 and y1:  # doubling
            acc = acc * 2 * y1 % p
        else:  # the sum is infinity
            continue
        todo.append(i)
        prefix.append(acc)
    inv = pow(acc, -1, p)  # inverse of prefix[k], walking k down
    off = c2 + x1  # x3 = lam^2 - (c2 + x1) - x2
    for k in range(len(todo) - 1, -1, -1):
        i = todo[k]
        x2 = xs[i]
        if x2 != x1:
            lam = (ys[i] - y1) * (inv * prefix[k - 1] if k else inv) % p
            inv = inv * (x2 - x1) % p
        else:
            lam = ((3 * x1 + 2 * c2) * x1 + c4) * (inv * prefix[k - 1] if k else inv) % p
            inv = inv * 2 * y1 % p
        x3s[i] = x3 = (lam * lam - off - x2) % p
        if i < ny or i == n - 1:
            y3s[i] = (lam * (x1 - x3) - y1) % p
    return x3s, y3s


def completed_pair_block(c2: int, p: int, xc, yc, xs: list, ys: list, xn, yn):
    """The x of the terms C - S_h, ..., C - S_1, C, C + S_1, ..., C + S_h
    centred on C = (xc, yc), for h >= 1 addends S_i = (xs[i-1], ys[i-1]), and
    the next centre C + N, N = (xn, yn), on a completed square y^2 = x^3 + c2
    x^2 + c4 x + c6 over F_p, with one shared inversion (Montgomery's trick).
    C + S_i and C - S_i share the denominator x(S_i) - xc of their slopes
    (+-y(S_i) - yc) / (x(S_i) - xc), so the 2h + 1 terms and the next centre
    take h + 1 denominators.  Passing -S_i for S_i reverses the terms.

    Returns (x3s, xnext, ynext): the terms' x in that order and the next
    centre with its y.  No other y or slope is returned; completed_sum_y
    gives a term's y from C and its addend.  Returns None when an operand is
    infinity or a denominator vanishes (C = +-S_i or C = +-N), where a sum can
    be infinity or a doubling: completed_add_block covers those.
    """
    if xc is None or xn is None or None in xs:
        return None
    acc, prefix = 1, []  # prefix[i]: product of the denominators of xs[0..i-1]
    for x in xs:
        prefix.append(acc)
        acc = acc * (x - xc) % p
    d = xn - xc
    inv = acc * d % p
    if not inv:
        return None
    inv = pow(inv, -1, p)  # then the inverse of the product of xs[0..i], walking i down
    off = c2 + xc  # x3 = lam^2 - (c2 + xc) - x2
    ln = (yn - yc) * (inv * acc % p) % p
    inv = inv * d % p
    xnext = (ln * ln - off - xn) % p
    h = len(xs)
    x3s = [xc] * (2 * h + 1)
    for i in range(h - 1, -1, -1):
        x = xs[i]
        di = inv * prefix[i] % p
        inv = inv * (x - xc) % p
        y = ys[i]
        u = off + x
        lam = (y - yc) * di  # unreduced: only its square mod p is read
        x3s[h + 1 + i] = (lam * lam - u) % p
        lam = (y + yc) * di  # minus the slope to C - S_i: the same square
        x3s[h - 1 - i] = (lam * lam - u) % p
    return x3s, xnext, (ln * (xc - xnext) - yc) % p


def completed_add(c2: int, c4: int, p: int, x1, y1, x2, y2) -> tuple:
    """(x1, y1) + (x2, y2) on a completed square y^2 = x^3 + c2 x^2 + c4 x +
    c6 over F_p, on the integers, x = y = None for infinity: the sum
    completed_add_block gives for one addend, by the chord or tangent slope
    with one inversion; equal x with y2 = -y1 (P + (-P), doubling y = 0)
    gives infinity."""
    if x1 is None:
        return x2, y2
    if x2 is None:
        return x1, y1
    if x1 != x2:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    elif y1 == y2 and y1:
        lam = ((3 * x1 + 2 * c2) * x1 + c4) * pow(2 * y1, -1, p) % p
    else:
        return None, None
    x3 = (lam * lam - c2 - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def completed_sum_y(c2: int, c4: int, p: int, x1, y1, x2, y2, x3: int) -> int:
    """The y of (x1, y1) + (x2, y2) on a completed square over F_p, given its
    x = x3 (the sum is not infinity; x None is infinity): one inversion, for
    the chord or tangent slope lam, and y3 = lam (x1 - x3) - y1."""
    if x2 is None:
        return y1
    if x1 is None:
        return y2
    if x1 != x2:
        lam = (y2 - y1) * pow(x2 - x1, -1, p)
    else:  # a finite sum of equal x is a doubling
        lam = ((3 * x1 + 2 * c2) * x1 + c4) * pow(2 * y1, -1, p)
    return (lam * (x1 - x3) - y1) % p


def enumerate_points(curve: Curve) -> list[Point]:
    """All rational points: infinity first, then affine sorted by (x, y) encoding."""
    q = curve.spec.q
    if q > _ENUMERATE_LIMIT:
        raise FieldTooLarge(f"point enumeration guarded to q <= 2^20, got {q}")
    pts = [curve.infinity()]
    for x in range(q):
        for y in curve.y_solutions(x):
            pts.append(Point(curve, x, y))
    return pts


def count_exhaustive(curve: Curve) -> int:
    """#E by scanning x and counting y-solutions per x, O(q) steps.

    Characteristic 2 solves y^2 + c y = d by the trace of d/c^2 on the field
    kernels.  Odd characteristic sums chi(f(x)) for the completed square y'^2
    = f(x) = x^3 + c2 x^2 + c4 x + c6: over F_p on plain ints, and over an
    odd extension field, which below the guard always has Zech tables, in
    log order x = alpha^i.  There f(x) = x^3 (1 + c2/x + c4/x^2 + c6/x^3),
    whose terms have the logs l2 - i, l4 - 2i and l6 - 3i: each of the three
    additions is one Zech lookup, and chi(f(x)) is the parity of i plus the
    log of the sum.  A missing term reads a table of zeros, so the loop does
    not test the coefficients; a partial sum that vanishes takes the next
    term's log.
    """
    q = curve.spec.q
    if q > _ENUMERATE_LIMIT:
        raise FieldTooLarge(f"exhaustive counting guarded to q <= 2^20, got {q}")
    spec = curve.spec
    total = 1
    if spec.char2:
        a1, a2, a3, a4, a6 = curve.coefficients()
        mul, add, inv, tr = spec.mul_enc, spec.add_enc, spec.inv_enc, spec.trace_enc
        for x in range(q):
            c = mul(a1, x) ^ a3
            d = add(mul(add(mul(add(x, a2), x), a4), x), a6)
            if c == 0:
                total += 1
            elif not tr(mul(d, inv(mul(c, c)))):
                total += 2
        return total
    c2, c4, c6 = curve._completed[:3]
    if spec.k == 1:
        p = spec.p
        chi = spec.chi_table()
        for x in range(p):
            w = (((x + c2) * x + c4) * x + c6) % p
            total += 1 + chi[w]
        return total
    log, zech = spec._log, spec._zech
    n = q - 1
    l2, l4, l6 = log[c2], log[c4], log[c6]
    d, e = l4, l6  # l4 - 2i and l6 - 3i, mod n
    if c2:  # log(1 + c2/x) = zech[l2 - i], read backwards: zech has period n
        r1 = zech[l2 + 1:l2 + n + 1]
        r1.reverse()
    else:
        r1 = bytes(n)
    z4 = zech if c4 else bytes(2 * n)
    z6 = zech if c6 else bytes(2 * n)
    odd = zeros = 0  # odd: the x != 0 with chi(f(x)) = -1; zeros: with f(x) = 0
    for i, r in enumerate(r1):
        if r < 0:
            r = d if c4 else -1
        else:
            z = z4[d - r]
            r = r + z if z >= 0 else -1
        if r < 0:
            r = e if c6 else -1
        else:
            z = z6[e - r]  # e - r > -2n: zech's negative indices wrap
            r = r + z if z >= 0 else -1
        if r < 0:
            zeros += 1
        else:
            odd += (r + i) & 1
        d -= 2
        if d < 0:
            d += n
        e -= 3
        if e < 0:
            e += n
    # x = 0 adds 1 + chi(c6); the other x add 1 where f(x) = 0, else 2 or 0
    return total + 1 + (1 - 2 * (l6 & 1) if c6 else 0) + 2 * n - zeros - 2 * odd


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

def smallest_trace_one(spec: FieldSpec, scale: int = 1) -> int:
    """Encoding of the smallest a with absolute trace Tr(scale * a) = 1 (char 2,
    scale != 0).

    a -> Tr(scale * a) is F_2-linear, so every encoding below 2^j maps to 0
    when the basis elements 1, 2, ..., 2^(j-1) do: the answer is the first
    basis element that maps to 1.
    """
    return next(b for b in (1 << i for i in range(spec.k)) if spec.trace_enc(spec.mul_enc(scale, b)))


def quadratic_twist(curve: Curve) -> Curve:
    """A quadratic twist E' with #E + #E' = 2(q+1).

    Odd characteristic: y^2 = x^3 + d c2 x^2 + d^2 c4 x + d^3 c6, E's
    completed square rescaled by the smallest non-square d.  x = d X, y =
    d^(3/2) Y maps it onto E over F_q(sqrt d), so its discriminant is d^6
    times E's (u^12 with u^2 = d), nonzero; both are set directly
    (Curve._completed_square), not derived again.  Characteristic 2,
    ordinary (a1 != 0): normalize to y^2 + xy = x^3 + a2 x^2 + a6 and shift
    a2 by the smallest trace-1 element.  Characteristic 2, supersingular
    (a1 == 0): add to a6 the smallest delta with Tr(delta / a3^2) = 1.  Then
    y^2 + a3 y = f(x) + delta has a root in F_q exactly when y^2 + a3 y =
    f(x) has none, so the count flips at every x; y -> y + s with s^2 + a3 s = delta (s in F_{q^2})
    maps E onto E'.  Applied twice it gives back E.
    """
    spec = curve.spec
    if not spec.char2:
        mul = spec.mul_enc
        c2, c4, c6 = curve.completed_model()[:3]
        d = spec.smallest_nonsquare()
        d2 = mul(d, d)
        d3 = mul(d2, d)
        return Curve._completed_square(spec, mul(d, c2), mul(d2, c4), mul(d3, c6),
                                       mul(mul(d3, d3), curve.discriminant))
    if curve.a1 != 0:
        a2n, a6n = _char2_ordinary_normal_form(curve)
        return Curve(spec, 1, spec.add_enc(a2n, smallest_trace_one(spec)), 0, 0, a6n)
    delta = smallest_trace_one(spec, spec.inv_enc(spec.mul_enc(curve.a3, curve.a3)))
    return Curve(spec, 0, curve.a2, curve.a3, curve.a4, curve.a6 ^ delta)


def _char2_ordinary_normal_form(curve: Curve) -> tuple[int, int]:
    """Coefficients (a2'', a6'') of the isomorphic y^2 + xy = x^3 + a2'' x^2 + a6''
    (characteristic 2, where encodings add by XOR)."""
    mul, inv = curve.spec.mul_enc, curve.spec.inv_enc
    a1, a2, a3, a4, a6 = curve.coefficients()
    s = mul(a3, inv(a1))
    r = s
    t = mul(a4 ^ mul(s, a3) ^ mul(r, r), inv(a1)) ^ mul(r, s)
    u2 = mul(a1, a1)  # u = a1
    a2n = mul(a2 ^ mul(s, a1) ^ r ^ mul(s, s), inv(u2))
    r2 = mul(r, r)
    a6n = mul(
        a6 ^ mul(r, a4) ^ mul(r2, a2) ^ mul(r2, r) ^ mul(t, a3) ^ mul(t, t) ^ mul(mul(r, t), a1),
        inv(mul(mul(u2, u2), u2)),
    )
    return a2n, a6n


# ---------------------------------------------------------------------------
# point sampling
# ---------------------------------------------------------------------------

def random_point(curve: Curve, rng: random.Random) -> Point:
    """A random rational point: random x, solve for y.

    After 48 + 4 * bitlen(q) failed draws, which only tiny fields whose
    curves have very few (or zero) affine points ever see, it falls back to
    a deterministic scan; the scan returns infinity when the curve has no
    affine point at all.
    """
    q = curve.spec.q
    attempts = 48 + 4 * q.bit_length()
    for _ in range(attempts):
        x = rng.randrange(q)
        ys = curve.y_solutions(x)
        if ys:
            y = ys[0] if len(ys) == 1 else ys[rng.randrange(2)]
            return Point(curve, x, y)
    for x in range(q):
        ys = curve.y_solutions(x)
        if ys:
            return Point(curve, x, ys[0])
    return curve.infinity()
