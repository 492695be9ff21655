"""Outward-rounded interval arithmetic and the Krawczyk test.

Every arithmetic helper widens its result by one ulp per operation, so a
computed interval always contains the exact real-number result. The tape
reaches the super-logarithm and its derivatives as RA primitives (see
``terms.compile_terms``). A primitive's range function is its whole
enclosure, rounded outward by the primitive itself: the catalog widens
its float formulas by two ulps, and the AbelFunction folds in its own
seed evaluation error. The interval layer checks the domain and calls it.

IEEE 754 rounds +, -, * and / correctly, so one ulp covers their error.
It promises nothing for exp and log: ``iexp``, ``ilog`` and the
AbelFunction widen the results of ``math.exp``/``math.log`` by one ulp,
which is sound only while those functions are within one ulp of the
exact value. Every enclosure, a grid cell's included, takes exp and log
from them; ``np.exp``/``np.log`` enter only point values and scans.
``tests/test_intervals.py`` checks both libraries against 120-bit mpmath.

An Interval is checked (no NaN, lo <= hi) where it is built from outside
values: the constructor, ``Interval.point``, ``intersect`` and the
enclosures of exp, log, 1/x and RA primitives. ``iadd``, ``isub``,
``ineg``, ``imul``, ``isqr`` and ``iscale`` skip the check: from valid
operands they yield ordered, NaN-free bounds by construction.

A Box is the tuple of its coordinate Intervals, and its constructor
checks that it has one. ``subdivide``, ``split_step`` and
``census._inflate`` build their boxes unchecked from a box that has.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from .errors import DomainError
from .terms import (CONST, RA, CompiledTerms, TermNode, check_arity,
                    compile_terms, exp_sat, tape_gradients, tape_values)

_INF = math.inf
_NINF = -math.inf
_nextafter = math.nextafter
_tuple_new = tuple.__new__


def _mid(lo: float, hi: float) -> float:
    """The midpoint of [lo, hi]: 0 or the finite end clamped to 0 where an
    end is infinite, and never an overflow."""
    if lo == -_INF or hi == _INF:
        return 0.0 if lo == -_INF and hi == _INF else (
            min(hi, 0.0) if lo == -_INF else max(lo, 0.0))
    m = 0.5 * (lo + hi)
    if m == _INF or m == _NINF:     # lo + hi overflowed
        m = 0.5 * lo + 0.5 * hi
    return m


class Interval(tuple):
    """Closed interval [lo, hi] with lo <= hi, stored as the pair (lo, hi).

    Being a tuple, an Interval is immutable and hashable, and compares
    equal to the plain tuple ``(lo, hi)``.
    """

    __slots__ = ()

    def __new__(cls, lo: float, hi: float) -> "Interval":
        if not lo <= hi:    # also false when either end is NaN
            raise DomainError(f"invalid interval [{lo}, {hi}]")
        return _tuple_new(cls, (lo, hi))

    def __getnewargs__(self):
        return tuple(self)

    lo = property(itemgetter(0))
    hi = property(itemgetter(1))

    @classmethod
    def point(cls, v: float) -> "Interval":
        if v != v:
            raise DomainError(f"invalid interval [{v}, {v}]")
        return _tuple_new(cls, (v, v))

    @property
    def mid(self) -> float:
        return _mid(self[0], self[1])

    @property
    def width(self) -> float:
        return self[1] - self[0]

    def contains(self, v: float) -> bool:
        return self[0] <= v <= self[1]

    def contains_zero(self) -> bool:
        return self[0] <= 0.0 <= self[1]

    def intersects(self, other: "Interval") -> bool:
        return self[0] <= other[1] and other[0] <= self[1]

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self[0], other[0]), min(self[1], other[1]))

    def strictly_inside(self, other: "Interval") -> bool:
        return other[0] < self[0] and self[1] < other[1]

    def __repr__(self):
        return f"[{self[0]}, {self[1]}]"


def iadd(x: Interval, y: Interval) -> Interval:
    lo, hi = x[0] + y[0], x[1] + y[1]
    if lo != lo:    # -inf + inf
        lo = _NINF
    if hi != hi:
        hi = _INF
    return _tuple_new(Interval, (_nextafter(lo, _NINF), _nextafter(hi, _INF)))


def isub(x: Interval, y: Interval) -> Interval:
    lo, hi = x[0] - y[1], x[1] - y[0]
    if lo != lo:
        lo = _NINF
    if hi != hi:
        hi = _INF
    return _tuple_new(Interval, (_nextafter(lo, _NINF), _nextafter(hi, _INF)))


def ineg(x: Interval) -> Interval:
    return _tuple_new(Interval, (-x[1], -x[0]))


def _pin(p: float) -> float:
    # a corner product is NaN only as 0 * inf; a factor that is exactly 0
    # pins the product to 0 even against an infinite partner
    return 0.0 if p != p else p


def imul(x: Interval, y: Interval) -> Interval:
    xl, xh = x
    yl, yh = y
    a, b, c, d = xl * yl, xl * yh, xh * yl, xh * yh
    s = a + b + c + d
    if s != s:      # some corner may be NaN
        a, b, c, d = _pin(a), _pin(b), _pin(c), _pin(d)
    return _tuple_new(Interval, (_nextafter(min(a, b, c, d), _NINF),
                                 _nextafter(max(a, b, c, d), _INF)))


def isqr(x: Interval) -> Interval:
    lo, hi = x
    a, b = lo * lo, hi * hi
    # a square is never below 0, also where its float underflows to 0
    low = 0.0 if lo <= 0.0 <= hi else max(_nextafter(min(a, b), _NINF), 0.0)
    return _tuple_new(Interval, (low, _nextafter(max(a, b), _INF)))


def iscale(x: Interval, c: float) -> Interval:
    lo, hi = _pin(c * x[0]), _pin(c * x[1])
    if c < 0.0:
        lo, hi = hi, lo
    return _tuple_new(Interval, (_nextafter(lo, _NINF), _nextafter(hi, _INF)))


def iexp(x: Interval) -> Interval:
    # above EXP_MAX, exp_sat gives inf, one ulp below which is the largest
    # double, a sound lower bound since exp overflows there
    return Interval(max(_nextafter(exp_sat(x[0]), _NINF), 0.0),
                    _nextafter(exp_sat(x[1]), _INF))


def ilog(x: Interval) -> Interval:
    lo, hi = x
    if lo <= 0.0:
        raise DomainError(f"log over interval reaching {lo} <= 0")
    return Interval(_nextafter(math.log(lo), _NINF),
                    _nextafter(math.log(hi), _INF))


def iinv_pos(x: Interval) -> Interval:
    # reciprocal of an interval bounded away from 0 on the positive side
    if x.lo <= 0.0:
        raise DomainError("reciprocal of interval reaching 0")
    hi_part = 0.0 if x.lo == _INF else _nextafter(1.0 / x.lo, _INF)
    lo_part = 0.0 if x.hi == _INF else _nextafter(1.0 / x.hi, _NINF)
    return Interval(lo_part, hi_part)


class Box(tuple):
    """Axis-aligned product of intervals, stored as the tuple of its
    coordinate Intervals.

    Being a tuple, a Box is immutable and hashable, and compares equal to
    the plain tuple of its Intervals.
    """

    __slots__ = ()

    def __new__(cls, coords) -> "Box":
        box = _tuple_new(cls, coords)
        if not box:
            raise DomainError("box needs at least one coordinate")
        return box

    def __getnewargs__(self):
        return (tuple(self),)

    @classmethod
    def from_bounds(cls, bounds: Sequence[Sequence[float]]) -> "Box":
        return cls(Interval(float(a), float(b)) for a, b in bounds)

    @classmethod
    def cube(cls, radius: float, n: int) -> "Box":
        return cls(Interval(-radius, radius) for _ in range(n))

    @property
    def coords(self) -> tuple:
        return tuple(self)

    @property
    def n(self) -> int:
        return len(self)

    @property
    def widths(self) -> tuple:
        return tuple(c.width for c in self)

    @property
    def max_width(self) -> float:
        return max(self.widths)

    def midpoint(self) -> list[float]:
        return [c.mid for c in self]

    def contains(self, point: Sequence[float]) -> bool:
        return all(c.contains(float(v)) for c, v in zip(self, point))

    def within(self, other: "Box") -> bool:
        return all(o.lo <= c.lo and c.hi <= o.hi for c, o in zip(self, other))

    def intersects(self, other: "Box") -> bool:
        return all(c.intersects(o) for c, o in zip(self, other))

    def bounds(self) -> list[tuple[float, float]]:
        return [(c.lo, c.hi) for c in self]

    def __repr__(self):
        return " x ".join(map(repr, self))


def _halves(box: Box):
    """The halves of box across its first widest coordinate, split at that
    coordinate's midpoint; None when no coordinate has positive width."""
    widths = [hi - lo for lo, hi in box]
    w = max(widths)
    if w <= 0.0:
        return None
    i = widths.index(w)
    lo, hi = box[i]
    m = _mid(lo, hi)
    left = list(box)
    right = list(box)
    left[i] = Interval(lo, m)
    right[i] = Interval(m, hi)
    return _tuple_new(Box, left), _tuple_new(Box, right)


def subdivide(box: Box) -> tuple[Box, Box]:
    """Bisect the widest coordinate; ties go to the lowest index."""
    halves = _halves(box)
    if halves is None:
        raise DomainError("cannot subdivide a point box")
    return halves


def split_step(stack: list, box: Box, depth: int, max_depth: int) -> bool:
    """One step of a depth-first bisection search over ``(box, depth)``
    pairs: push the halves of ``box`` at ``depth + 1``, right then left,
    so the left half is popped next. Returns False, pushing nothing, when
    ``box`` is at the depth cap or has zero width."""
    halves = None if depth >= max_depth else _halves(box)
    if halves is None:
        return False
    stack.append((halves[1], depth + 1))
    stack.append((halves[0], depth + 1))
    return True


# ---------------------------------------------------------------------------
# interval evaluation over compiled tapes

class IntervalArith:
    """Outward-rounded intervals for run_tape: enclosures over one box.
    Stateless: the class itself is the arithmetic."""

    const = staticmethod(Interval.point)
    add = staticmethod(iadd)
    mul = staticmethod(imul)
    sqr = staticmethod(isqr)
    neg = staticmethod(ineg)
    exp = staticmethod(iexp)
    log = staticmethod(ilog)
    log_factor = staticmethod(iinv_pos)

    @staticmethod
    def ra(prim, x):
        lo, hi = x
        if lo < prim.lo or hi > prim.hi:
            raise DomainError(f"{prim.name} argument range [{lo}, {hi}] "
                              f"leaves [{prim.lo}, {prim.hi}]")
        return Interval(*prim.range_fn(lo, hi))

    @staticmethod
    def ra_factor(prim, x):
        return Interval(*prim.derivative().range_fn(*x))


# ---------------------------------------------------------------------------
# straight-line code for hot tapes, one function per tape shape

# A tape's shape is its ops with every constant and RA primitive replaced
# by a slot, with its roots and its number of variables; the slot values
# are the tape's own. Tapes that differ only in their constants, such as
# the critical systems of one formula under different rotations, share a
# shape. An interval pass of a shape over n inputs (its values, its
# Jacobian, or the whole Krawczyk test) is generated at its first call over
# any tape of the shape, and every tape of the shape runs that function;
# each tape runs the pass's prologue once. Generating is nearly all
# compile(), 30 to 70 us a line on a 2-core 2.0 GHz Xeon VM; on the
# benchmark's workloads, running a pass through the tape walker for its
# first 32 calls before generating it saved no time.

# Shapes whose generated code outlives their tapes; a shape that this many
# others have been looked up after is dropped. One pass of the benchmark's
# census workload looks up 23 shapes and one of morse 20, so the bound
# holds the working sets of two such workloads; tier-1 makes about 210,
# nearly all used by one test.
SHAPE_CACHE = 64

_ZERO = Interval.point(0.0)
_ONE = Interval.point(1.0)
# imul(x, [0, 0]) for every valid x: each corner is +-0 (0 * inf pins to 0),
# rounded out by one ulp
_ZERO_PRODUCT = imul(_ONE, _ZERO)


def _is_zero(x) -> bool:
    return isinstance(x, Interval) and x[0] == 0.0 == x[1]


class _Param(int):
    """A value of generated code that depends on a tape's slots but on no
    input: its index in the list that the prologue fills, which starts
    with the slot values."""

    __slots__ = ()


class _TapeWriter:
    """Lines of one generated function over float locals, and the prologue
    that feeds it: an arithmetic for tape_values and tape_gradients whose
    operations write code.

    An operand is of one of three kinds. An Interval is the same for every
    tape of the shape (the seed gradients, and what is built only from
    them) and is folded here with the helpers above. A _Param depends on
    the slots but on no input: its operations become prologue steps, calls
    of IntervalArith that run once per tape, and the generated code reads
    their results from ``P``. Any other operand is the pair of names of its
    two float locals. iadd, isub, imul, iscale, isqr and ineg are written
    out as their own float operations, so the code keeps every bit of the
    helpers. exp, log and ra of inputs, and every derivative factor, are
    lines that call IntervalArith, bound as ``A`` in the namespace, with
    its domain checks and messages.

    Every operation is value-numbered: keyed by its method and the names of
    its operands (a constant Interval's names are keyed by the float.hex of
    its ends, so 0.0 and -0.0 stay apart), an operation already written or
    stepped returns its earlier result. add and mul are keyed without
    order: IEEE + and * commute, and imul(x, y) equals imul(y, x) bit for
    bit.
    """

    def __init__(self, n_slots: int = 0):
        self.lines: list[str] = []
        # constants are bound here, never formatted into the source, so
        # inf, -0.0 and subnormals keep their bits
        self.ns = {"nx": _nextafter, "inf": _INF, "ninf": _NINF,
                   "tn": _tuple_new, "IV": Interval, "pin": _pin, "imul": imul,
                   "A": IntervalArith,
                   "mid": _mid, "KR": KrawczykResult, "BOX": Box,
                   "NOZERO": _NOZERO, "UNKNOWN": _UNKNOWN}
        self.n_slots = n_slots
        self.steps: list = []       # (IntervalArith method, arguments)
        # (_Param, whole) -> the local names of its two ends, or of it
        # whole (an Interval or a primitive), in the order of P
        self.exports: dict = {}
        self.points: set = set()    # constant slots and their negations
        self.numbered: dict = {}    # operation key -> its result
        self.consts: dict = {}      # constant's key -> its bound name

    def _key(self, x):
        # an operand as a key: constants by the bits of their ends
        if type(x) is _Param:
            return "P", int(x)
        if isinstance(x, Interval):
            return "I", x[0].hex(), x[1].hex()
        return x

    def _numbered(self, key, write):
        got = self.numbered.get(key)
        if got is None:
            got = self.numbered[key] = write()
        return got

    def const(self, v):
        # a slot of the shape, or a seed gradient
        if type(v) is not _Param:
            return Interval.point(v)
        p = self._step("const", v)
        self.points.add(p)
        return p

    def _step(self, method: str, *args) -> _Param:
        def write():
            self.steps.append((method, args))
            return _Param(self.n_slots + len(self.steps) - 1)
        return self._numbered(
            ("step", method) + tuple(map(self._key, args)), write)

    def _fold(self, method: str, helper, *args):
        # every operand is input-free
        if all(isinstance(a, Interval) for a in args):
            return helper(*args)
        return self._step(method, *args)

    def _export(self, p: _Param, whole: bool):
        key = (p, whole)
        if key not in self.exports:
            self.exports[key] = f"pw{p}" if whole else (f"pl{p}", f"ph{p}")
        return self.exports[key]

    def _const(self, key, value) -> str:
        # the name bound to a constant, one per key
        got = self.consts.get(key)
        if got is None:
            got = self.consts[key] = f"k{len(self.ns)}"
            self.ns[got] = value
        return got

    def names(self, x):
        if type(x) is _Param:
            return self._export(x, False)
        if isinstance(x, Interval):
            return (self._const(x[0].hex(), x[0]),
                    self._const(x[1].hex(), x[1]))
        return x

    def out(self):
        n = len(self.lines)
        return f"lo{n}", f"hi{n}"

    def interval(self, x) -> str:
        # a pair of locals becomes an Interval; a constant is bound, and a
        # prologue value or primitive is read from P
        if type(x) is tuple:
            return f"tn(IV, ({x[0]}, {x[1]}))"
        if type(x) is _Param:
            return self._export(x, True)
        return self._const(self._key(x), x)

    def function(self, params: str, result: str | None = None):
        """The lines as a function of params that returns result, or that
        ends in the lines' own returns."""
        unpack = [n for names in self.exports.values()
                  for n in ((names,) if isinstance(names, str) else names)]
        lines = ([", ".join(unpack) + ", = P"] if unpack else []) + self.lines
        if result is not None:
            lines.append(f"return {result}")
        src = "".join(f"    {line}\n" for line in lines)
        exec(compile(f"def code({params}):\n{src}", "<interval code>", "exec"),
             self.ns)
        return self.ns.pop("code")

    def mid(self, name: str, x) -> None:
        """A line that sets the float local name to Interval.mid of x."""
        if isinstance(x, Interval):
            self.lines.append(f"{name} = {self._const(x.mid.hex(), x.mid)}")
            return
        lo, hi = self.names(x)
        # the common case inline, the rest as Interval.mid
        self.lines.append(f"{name} = t if ninf < {lo} and {hi} < inf and "
                          f"ninf < (t := 0.5 * ({lo} + {hi})) < inf else mid({lo}, {hi})")

    def add(self, x, y):
        if type(x) is not tuple and type(y) is not tuple:
            return self._fold("add", iadd, x, y)
        x, y = self.names(x), self.names(y)
        return self._numbered(("add",) + tuple(sorted((x, y))),
                              lambda: self._add(x, y))

    def _add(self, x, y):
        (xl, xh), (yl, yh) = x, y
        lo, hi = self.out()
        # a NaN end is -inf + inf, widened to that side's infinity; a sum of
        # points (a pair of one name, as at the midpoint) is one sum
        self.lines.append(
            f"t = {xl} + {yl}; {lo} = nx(t, ninf) if t == t else ninf; "
            f"{hi} = nx(t, inf) if t == t else inf" if xl == xh and yl == yh else
            f"{lo} = nx(t, ninf) if (t := {xl} + {yl}) == t else ninf; "
            f"{hi} = nx(t, inf) if (t := {xh} + {yh}) == t else inf")
        return lo, hi

    def sub(self, x, y):
        x, y = self.names(x), self.names(y)
        return self._numbered(("sub", x, y), lambda: self._sub(x, y))

    def _sub(self, x, y):
        (xl, xh), (yl, yh) = x, y
        lo, hi = self.out()
        self.lines.append(
            f"t = {xl} - {yl}; {lo} = nx(t, ninf) if t == t else ninf; "
            f"{hi} = nx(t, inf) if t == t else inf" if xl == xh and yl == yh else
            f"{lo} = nx(t, ninf) if (t := {xl} - {yh}) == t else ninf; "
            f"{hi} = nx(t, inf) if (t := {xh} - {yl}) == t else inf")
        return lo, hi

    def neg(self, x):
        if type(x) is not tuple:
            p = self._fold("neg", ineg, x)
            if x in self.points:
                self.points.add(p)
            return p
        return self._numbered(("neg", x), lambda: self._neg(x))

    def _neg(self, x):
        lo, hi = self.out()
        self.lines.append(f"{lo} = -{x[1]}; {hi} = -{x[0]}")
        return lo, hi

    def sqr(self, x):
        if type(x) is not tuple:
            return self._fold("sqr", isqr, x)
        return self._numbered(("sqr", x), lambda: self._sqr(x))

    def _sqr(self, x):
        xl, xh = x
        lo, hi = self.out()
        # a lower end whose square is 0 (the float underflows) stays 0.0,
        # as max(nx(0.0, ninf), 0.0) does in isqr
        if xl == xh:    # a point: one square
            self.lines.append(f"m0 = {xl} * {xl}; {hi} = nx(m0, inf); "
                              f"{lo} = 0.0 if m0 == 0.0 else nx(m0, ninf)")
            return lo, hi
        # comparisons in place of max and min, which they equal bit for bit
        self.lines.append(
            f"m0 = {xl} * {xl}; m1 = {xh} * {xh}; "
            f"{hi} = nx(m1 if m1 > m0 else m0, inf); "
            f"{lo} = 0.0 if {xl} <= 0.0 <= {xh} or "
            f"(t := m1 if m1 < m0 else m0) == 0.0 else nx(t, ninf)")
        return lo, hi

    def mul(self, x, y):
        if _is_zero(x) or _is_zero(y):
            return _ZERO_PRODUCT
        if type(x) is not tuple:
            if type(y) is not tuple:
                return self._fold("mul", imul, x, y)
            x, y = y, x     # imul(x, y) and imul(y, x) agree to the bit
        elif type(y) is tuple and y[0] == y[1]:
            x, y = y, x     # a point pair first
        return self._numbered(("mul",) + tuple(sorted((x, self.names(y)))),
                              lambda: self._mul(x, y))

    def _mul(self, x, y):
        lo, hi = self.out()
        xl, xh = x
        yl, yh = self.names(y)
        # a finite nonzero point c needs no NaN test, and x.lo*c and x.hi*c
        # are the extreme corners, in order when c > 0
        two = (f"{lo} = nx({xl} * {yl}, ninf); {hi} = nx({xh} * {yl}, inf)",
               f"{lo} = nx({xh} * {yl}, ninf); {hi} = nx({xl} * {yl}, inf)")
        # finite ends of one sign: no 0 * inf, and the signs of x's ends
        # pick the two extreme corners when the code runs
        signed = (f"{lo} = nx({xl} * {yl} if {xl} >= 0.0 else {xl} * {yh}, ninf); "
                  f"{hi} = nx({xh} * {yh} if {xh} >= 0.0 else {xh} * {yl}, inf)",
                  f"{lo} = nx({xh} * {yl} if {xh} >= 0.0 else {xh} * {yh}, ninf); "
                  f"{hi} = nx({xl} * {yh} if {xl} >= 0.0 else {xl} * {yl}, inf)")
        rest = f"else: {lo}, {hi} = imul(({xl}, {xh}), ({yl}, {yh}))"
        if xl == xh:
            # a point x: its corners with yl and yh, each twice; a NaN
            # corner is 0 * inf
            if yl == yh or y in self.points:
                self.lines.append(f"t = {xl} * {yl}; t = t if t == t else 0.0; "
                                  f"{lo} = nx(t, ninf); {hi} = nx(t, inf)")
            else:
                self.lines += [
                    f"m0 = {xl} * {yl}; m1 = {xl} * {yh}",
                    "if (t := m0 + m1) != t: m0 = pin(m0); m1 = pin(m1)",
                    f"{lo} = nx(m1 if m1 < m0 else m0, ninf); "
                    f"{hi} = nx(m1 if m1 > m0 else m0, inf)"]
        elif type(y) is _Param:
            # a value not known here: its signs pick the corners when the
            # code runs, and an end at 0 or inf takes imul itself
            pick = two if y in self.points else signed
            self.lines += [f"if 0.0 < {yl} and {yh} < inf: {pick[0]}",
                           f"elif ninf < {yl} and {yh} < 0.0: {pick[1]}", rest]
        elif type(y) is not tuple and (0.0 < y[0] and y[1] < _INF
                                       or _NINF < y[0] and y[1] < 0.0):
            self.lines.append((two if y[0] == y[1] else signed)[y[0] < 0.0])
        else:
            # comparisons in place of min and max, which they equal bit for
            # bit (the first of equal corners wins either way)
            self.lines += [
                f"m0 = {xl} * {yl}; m1 = {xl} * {yh}; m2 = {xh} * {yl}; m3 = {xh} * {yh}",
                "if (t := m0 + m1 + m2 + m3) != t: "
                "m0 = pin(m0); m1 = pin(m1); m2 = pin(m2); m3 = pin(m3)",
                "a = m1 if m1 < m0 else m0; a = m2 if m2 < a else a; "
                f"a = m3 if m3 < a else a; {lo} = nx(a, ninf)",
                "a = m1 if m1 > m0 else m0; a = m2 if m2 > a else a; "
                f"a = m3 if m3 > a else a; {hi} = nx(a, inf)"]
        return lo, hi

    def scale(self, x, c: str):
        """iscale(x, c) for the float local c."""
        x = self.names(x)
        return self._numbered(("scale", x, c), lambda: self._scale(x, c))

    def _scale(self, x, c):
        xl, xh = x
        lo, hi = self.out()
        self.lines += [
            f"m0 = t if (t := {c} * {xl}) == t else 0.0; "
            f"m1 = t if (t := {c} * {xh}) == t else 0.0",
            f"if {c} < 0.0: {lo} = nx(m1, ninf); {hi} = nx(m0, inf)",
            f"else: {lo} = nx(m0, ninf); {hi} = nx(m1, inf)"]
        return lo, hi

    def _call(self, method: str, *args):
        args = ", ".join(map(self.interval, args))

        def write():
            lo, hi = self.out()
            self.lines.append(f"{lo}, {hi} = A.{method}({args})")
            return lo, hi
        return self._numbered(("call", method, args), write)

    def _value(self, method: str, *args):
        # an input-free value is a prologue step; a derivative factor is
        # always a line, so that it runs after every value
        if type(args[-1]) is not tuple:
            return self._step(method, *args)
        return self._call(method, *args)

    exp = functools.partialmethod(_value, "exp")
    log = functools.partialmethod(_value, "log")
    ra = functools.partialmethod(_value, "ra")
    log_factor = functools.partialmethod(_call, "log_factor")
    ra_factor = functools.partialmethod(_call, "ra_factor")


class _Shape:
    """A tape shape: a tape whose CONST and RA payloads are slots
    (``_Param``), and per interval pass over n inputs, keyed (kind, n), its
    generated code, prologue steps and exports."""

    __slots__ = ("tape", "n_slots", "passes")

    def __init__(self, key):
        ops, roots, n_vars = key
        self.tape = CompiledTerms(list(ops), list(roots), n_vars)
        self.n_slots = sum(type(op[3]) is _Param for op in ops)
        self.passes: dict = {}


@functools.lru_cache(maxsize=SHAPE_CACHE)
def _shape(key) -> _Shape:
    return _Shape(key)


def _instance(ct: CompiledTerms):
    """The shape of a tape and its slot values, found once per tape."""
    got = ct.cache.get("shape")
    if got is None:
        ops, slots = [], []
        for code, a, b, payload in ct.ops:
            if code == CONST or code == RA:
                slots.append(payload)
                payload = _Param(len(slots) - 1)
            ops.append((code, a, b, payload))
        key = (tuple(ops), tuple(ct.roots), ct.n_vars)
        got = ct.cache["shape"] = (_shape(key), slots)
    return got


def _listed(items) -> str:
    return "[" + ", ".join(items) + "]"


def _generate(shape: _Shape, n: int, kind: str):
    """Straight-line code for an interval pass of a tape shape over n input
    intervals, written by running the walkers of run_tape over a
    _TapeWriter. Returns (code, steps, exports): the prologue runs the
    steps on a tape's slots once and hands the exports to the code as P.
    code is a function of (coords, P) that returns, by kind:

    - "values": run_tape(ct, coords, IntervalArith);
    - "jacobian": run_tape(ct, coords, IntervalArith, grad=True);
    - "krawczyk": the KrawczykResult of krawczyk_test on the box. Every
      value (tape_values), then the range pretest and Unknown for a box
      of zero width, then the gradients from those values
      (tape_gradients), the midpoint m, the values over [m, m], and the
      tail of _write_tail.
    """
    w = _TapeWriter(shape.n_slots)
    coords = [(f"xl{j}", f"xh{j}") for j in range(n)]
    w.lines.append(_listed(f"({lo}, {hi})" for lo, hi in coords) + " = coords")
    roots = shape.tape.roots
    vals = tape_values(shape.tape, coords, w)
    result = _listed(w.interval(vals[r]) for r in roots)
    if kind == "values":
        return w.function("coords, P", result), w.steps, list(w.exports)
    if kind == "krawczyk":
        inside = " and ".join("{} <= 0.0 <= {}".format(*w.names(vals[r]))
                              for r in roots)
        # box.max_width == 0.0, the widths compared in order as max does
        w.lines += [f"if not ({inside}): return NOZERO",
                    "width = {1} - {0}".format(*coords[0])]
        w.lines += ["width = t if (t := {1} - {0}) > width else width".format(*c)
                    for c in coords[1:]]
        w.lines.append("if width == 0.0: return UNKNOWN")
    grads = tape_gradients(shape.tape, vals, n, w)
    if kind == "jacobian":
        result += ", " + _listed(_listed(map(w.interval, g)) for g in grads)
        return w.function("coords, P", result), w.steps, list(w.exports)
    mids = [f"mp{j}" for j in range(n)]
    for m, x in zip(mids, coords):
        w.mid(m, x)
    at_m = tape_values(shape.tape, [(m, m) for m in mids], w)
    _write_tail(w, coords, mids, [at_m[r] for r in roots], grads)
    return w.function("coords, P"), w.steps, list(w.exports)


def _prologue(steps, exports, slots) -> list:
    """P for one tape: every input-free value, from the slot values."""
    env = list(slots)
    for method, args in steps:
        env.append(getattr(IntervalArith, method)(
            *[env[a] if type(a) is _Param else a for a in args]))
    P: list = []
    for p, whole in exports:
        if whole:
            P.append(env[p])
        else:
            P += env[p]
    return P


def _hot_code(ct: CompiledTerms, kind: str, coords):
    """(code, P) for this pass of the tape over the intervals coords: the
    code of its shape, generated at the first call of the pass over any
    tape of the shape, and the tape's prologue values."""
    n = len(coords)
    key = ("interval", kind, n)
    got = ct.cache.get(key)
    if got is not None:
        return got
    check_arity(ct, n, "box")
    shape, slots = _instance(ct)
    code = shape.passes.get((kind, n))
    if code is None:
        code = shape.passes[(kind, n)] = _generate(shape, n, kind)
    try:
        P = _prologue(code[1], code[2], slots)
    except Exception:
        # an input-free value fails on every box. Only a value step can
        # fail, so the tape's value walk raises that fault, or an earlier
        # one of the inputs, as run_tape does
        tape_values(ct, coords, IntervalArith)
        raise
    got = ct.cache[key] = (code[0], P)
    return got


def interval_eval_compiled(ct: CompiledTerms, box: Box) -> list[Interval]:
    code, P = _hot_code(ct, "values", box)
    return code(box, P)


def interval_eval(term: TermNode, box: Box, abel=None) -> Interval:
    """Range enclosure of a term over a box."""
    return interval_eval_compiled(compile_terms([term], abel), box)[0]


def interval_jacobian_compiled(ct: CompiledTerms, box: Box):
    """Interval forward mode: values plus per-root interval gradients."""
    code, P = _hot_code(ct, "jacobian", box)
    return code(box, P)


# ---------------------------------------------------------------------------
# Krawczyk existence / uniqueness test

@dataclass(frozen=True)
class KrawczykResult:
    """verdict is one of "UniqueZero", "NoZero", "Unknown"; contracted is
    the Krawczyk image intersected with the box when the verdict is
    UniqueZero, else None."""

    verdict: str
    contracted: Box | None = None


_NOZERO = KrawczykResult("NoZero")
_UNKNOWN = KrawczykResult("Unknown")


def _write_inverse(w: _TapeWriter, c: list, fail: str) -> None:
    """Lines that replace the n x n matrix in the float locals c[i][j] by
    its inverse, or return ``fail`` when an entry is not finite, a pivot is
    0 or not finite, or an entry of the inverse is not finite. A value that
    overflows on the way stays non-finite to the end unless it is a pivot,
    so no overflow goes unseen.

    Gauss-Jordan elimination in place with partial pivoting: the pivot of
    column k is the first largest |c[i][k]| for i >= k, its row is swapped
    into row k and divided by it, and every other row i less c[i][k] times
    row k; the columns are swapped back, last swap first, at the end.
    """
    n = len(c)
    finite = " and ".join(f"ninf < {v} < inf" for row in c for v in row)
    check = f"if not ({finite}): return {fail}"
    w.lines.append(check)

    def swaps(k, flip):
        for i in range(k + 1, n):
            a, b = flip(k), flip(i)
            w.lines.append(f"{'el' if i > k + 1 else ''}if p{k} == {i}: "
                           f"{', '.join(a + b)} = {', '.join(b + a)}")

    for k in range(n):
        pivot = c[k][k]
        if k + 1 < n:
            w.lines.append(f"p{k} = {k}; b = {pivot} if {pivot} >= 0.0 else -{pivot}")
            w.lines += [f"if (t := {c[i][k]} if {c[i][k]} >= 0.0 else -{c[i][k]}) > b: "
                        f"p{k} = {i}; b = t" for i in range(k + 1, n)]
            swaps(k, lambda i: c[i])
        w.lines.append(f"if {pivot} == 0.0 or not ninf < {pivot} < inf: return {fail}")
        w.lines.append(f"d = {pivot}; {pivot} = 1.0; "
                       + "; ".join(f"{v} = {v} / d" for v in c[k]))
        w.lines += [f"f = {c[i][k]}; {c[i][k]} = 0.0; " + "; ".join(
            f"{v} = {v} - f * {u}" for v, u in zip(c[i], c[k]))
            for i in range(n) if i != k]
    for k in reversed(range(n - 1)):
        swaps(k, lambda j: [row[j] for row in c])
    w.lines.append(check)


def _write_rows(w: _TapeWriter, x, mids, fm, jac, c) -> list:
    """Lines for the rows of K = m - C f(m) + (I - C J)(X - m), over the
    operands x (the box), mids (the names of m's floats), fm (f over
    [m, m]), jac (jac[k][j] = d f_k / d x_j over X) and the float locals
    c of the preconditioner. Row i comes from the same float operations,
    in the same order, as this helper form:

        s_j = isub(X_j, [m_j, m_j])
        acc = [m_i, m_i];  acc = isub(acc, iscale(F_j, C[i][j]))  for each j
        then for each j:  e = [I_ij, I_ij]
                          e = isub(e, iscale(J[k][j], C[i][k]))  for each k
                          acc = iadd(acc, imul(e, s_j))
    """
    r = range(len(x))
    shifted = [w.sub(x[j], (mids[j], mids[j])) for j in r]
    rows = []
    for i in r:
        acc = (mids[i], mids[i])
        for j in r:
            acc = w.sub(acc, w.scale(fm[j], c[i][j]))
        for j in r:
            entry = _ONE if i == j else _ZERO
            for k in r:
                entry = w.sub(entry, w.scale(jac[k][j], c[i][k]))
            acc = w.add(acc, w.mul(entry, shifted[j]))
        rows.append(acc)
    return rows


def _write_tail(w: _TapeWriter, x, mids, fm, jac) -> None:
    """Lines that end the Krawczyk test from the box x, the names of its
    midpoint's floats, f over [m, m] and the interval Jacobian over x, each
    return a KrawczykResult:

    - Unknown unless the midpoints of the Jacobian's entries have a finite
      inverse C (``_write_inverse``);
    - UniqueZero, with K as the contracted box, when every row of K
      (``_write_rows``) lies strictly inside x;
    - NoZero when some row misses x, else Unknown.
    """
    r = range(len(x))
    c = [[f"c{i}_{j}" for j in r] for i in r]
    for i in r:
        for j in r:
            w.mid(c[i][j], jac[i][j])
    _write_inverse(w, c, "UNKNOWN")
    rows = _write_rows(w, x, mids, fm, jac, c)
    inside = " and ".join(f"{xl} < {kl} and {kh} < {xh}"
                          for (kl, kh), (xl, xh) in zip(rows, x))
    w.lines.append(f"if {inside}: return KR('UniqueZero', tn(BOX, ("
                   + "".join(f"tn(IV, ({kl}, {kh})), " for kl, kh in rows) + ")))")
    meets = " and ".join(f"{kl} <= {xh} and {xl} <= {kh}"
                         for (kl, kh), (xl, xh) in zip(rows, x))
    w.lines += [f"if not ({meets}): return NOZERO", "return UNKNOWN"]


def _unpack(items, name: str) -> str:
    def pattern(x):
        if isinstance(x, list):
            return _listed(map(pattern, x))
        return x if isinstance(x, str) else f"({x[0]}, {x[1]})"
    return f"{pattern(items)} = {name}"


@functools.cache
def _inverse(n: int):
    w = _TapeWriter()
    c = [[f"c{i}_{j}" for j in range(n)] for i in range(n)]
    w.lines.append(_unpack(c, "M"))
    _write_inverse(w, c, "None")
    return w.function("M", _listed(map(_listed, c)))


def float_inverse(matrix) -> list | None:
    """The inverse of a square matrix of floats (a sequence of rows) by the
    Gauss-Jordan elimination of the Krawczyk preconditioner, as a list of
    rows; None when an entry is not finite, a pivot is 0 or not finite, or
    an entry of the inverse is not finite. Plain float code, so its bits depend on no
    linear-algebra library."""
    return _inverse(len(matrix))(matrix)


def krawczyk_test(system, box: Box) -> KrawczykResult:
    """Certify zero existence/uniqueness for a square system on a box.

    UniqueZero additionally certifies non-singularity: the contraction
    K(X) inside the interior forces every Jacobian in the enclosure to be
    invertible. NoZero comes from the range pretest (inclusion isotone,
    so it can never flip under box shrinking) or from K(X) missing X.
    Both verdicts hold for any finite preconditioner C, and f(m) enters
    as an enclosure over the point box [m, m], never as a float.

    The whole test runs as one function, generated for the tape's shape
    at its first test (``_generate``).
    """
    ct = system.compiled
    n = len(box)
    got = ct.cache.get(("interval", "krawczyk", n))
    if got is None:
        # a pass is cached only for an n that passed this check
        if len(ct.roots) != n:
            raise DomainError(
                f"system has {len(ct.roots)} equations, box dimension {n}")
        got = _hot_code(ct, "krawczyk", box)
    code, P = got
    return code(box, P)
