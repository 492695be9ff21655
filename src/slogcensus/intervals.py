"""Outward-rounded interval arithmetic and the Krawczyk test.

Every arithmetic helper widens its result by one ulp per operation, so a
computed interval always contains the exact real-number result. The tape
reaches the super-logarithm and its derivatives as RA primitives (see
``terms.compile_terms``). A primitive's range function is its whole
enclosure, rounded outward by the primitive itself: the catalog widens
its float formulas by two ulps, and the AbelFunction folds in its own
seed evaluation error. The interval layer checks the domain and calls it.

An Interval is checked (no NaN, lo <= hi) where it is built from outside
values: the constructor, ``Interval.point``, ``intersect`` and the
enclosures of exp, log, 1/x and RA primitives. ``iadd``, ``isub``,
``ineg``, ``imul``, ``isqr`` and ``iscale`` skip the check: from valid
operands they yield ordered, NaN-free bounds by construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Sequence

import numpy as np

from .abel import exp_sat
from .errors import DomainError
from .terms import (CONST, RA, CompiledTerms, TermNode, check_arity,
                    compile_terms, run_tape, tape_gradients, tape_values)

_INF = math.inf
_NINF = -math.inf
_nextafter = math.nextafter
_tuple_new = tuple.__new__


def _dn(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


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
        lo, hi = self
        if lo == -_INF or hi == _INF:
            return 0.0 if lo == -_INF and hi == _INF else (
                min(hi, 0.0) if lo == -_INF else max(lo, 0.0))
        m = 0.5 * (lo + hi)
        if m == _INF or m == _NINF:     # lo + hi overflowed
            m = 0.5 * lo + 0.5 * hi
        return m

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
    if lo <= 0.0 <= hi:
        return _tuple_new(Interval, (0.0, _nextafter(max(a, b), _INF)))
    return _tuple_new(Interval, (_nextafter(min(a, b), _NINF),
                                 _nextafter(max(a, b), _INF)))


def iscale(x: Interval, c: float) -> Interval:
    lo, hi = _pin(c * x[0]), _pin(c * x[1])
    if c < 0.0:
        lo, hi = hi, lo
    return _tuple_new(Interval, (_nextafter(lo, _NINF), _nextafter(hi, _INF)))


def iexp(x: Interval) -> Interval:
    # above EXP_MAX, exp_sat gives inf and _dn(inf) the largest double,
    # a sound lower bound since exp overflows there
    return Interval(max(_dn(exp_sat(x[0])), 0.0), _up(exp_sat(x[1])))


def ilog(x: Interval) -> Interval:
    if x.lo <= 0.0:
        raise DomainError(f"log over interval reaching {x.lo} <= 0")
    hi = _up(math.log(x.hi)) if x.hi < _INF else _INF
    return Interval(_dn(math.log(x.lo)), hi)


def iinv_pos(x: Interval) -> Interval:
    # reciprocal of an interval bounded away from 0 on the positive side
    if x.lo <= 0.0:
        raise DomainError("reciprocal of interval reaching 0")
    hi_part = 0.0 if x.lo == _INF else _up(1.0 / x.lo)
    lo_part = 0.0 if x.hi == _INF else _dn(1.0 / x.hi)
    return Interval(lo_part, hi_part)


@dataclass(frozen=True)
class Box:
    """Axis-aligned product of intervals."""

    coords: tuple

    def __post_init__(self):
        if not self.coords:
            raise DomainError("box needs at least one coordinate")

    @classmethod
    def from_bounds(cls, bounds: Sequence[Sequence[float]]) -> "Box":
        return cls(tuple(Interval(float(a), float(b)) for a, b in bounds))

    @classmethod
    def cube(cls, radius: float, n: int) -> "Box":
        return cls(tuple(Interval(-radius, radius) for _ in range(n)))

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def widths(self) -> tuple:
        return tuple(c.width for c in self.coords)

    @property
    def max_width(self) -> float:
        return max(self.widths)

    def midpoint(self) -> list[float]:
        return [c.mid for c in self.coords]

    def contains(self, point: Sequence[float]) -> bool:
        return all(c.contains(float(v)) for c, v in zip(self.coords, point))

    def within(self, other: "Box") -> bool:
        return all(o.lo <= c.lo and c.hi <= o.hi
                   for c, o in zip(self.coords, other.coords))

    def intersects(self, other: "Box") -> bool:
        return all(c.intersects(o) for c, o in zip(self.coords, other.coords))

    def bounds(self) -> list[tuple[float, float]]:
        return [(c.lo, c.hi) for c in self.coords]

    def __repr__(self):
        return " x ".join(repr(c) for c in self.coords)


def subdivide(box: Box) -> tuple[Box, Box]:
    """Bisect the widest coordinate; ties go to the lowest index."""
    widths = box.widths
    w = max(widths)
    if w <= 0.0:
        raise DomainError("cannot subdivide a point box")
    i = widths.index(w)
    c = box.coords[i]
    m = c.mid
    left = list(box.coords)
    right = list(box.coords)
    left[i] = Interval(c.lo, m)
    right[i] = Interval(m, c.hi)
    return Box(tuple(left)), Box(tuple(right))


def split_step(stack: list, box: Box, depth: int, max_depth: int) -> bool:
    """One step of a depth-first bisection search over ``(box, depth)``
    pairs: push the halves of ``box`` at ``depth + 1``, right then left,
    so the left half is popped next. Returns False, pushing nothing, when
    ``box`` is at the depth cap or has zero width."""
    if depth >= max_depth or box.max_width == 0.0:
        return False
    left, right = subdivide(box)
    stack.append((right, depth + 1))
    stack.append((left, depth + 1))
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
        if x.lo < prim.lo or x.hi > prim.hi:
            raise DomainError(
                f"{prim.name} argument range {x} leaves [{prim.lo}, {prim.hi}]")
        return Interval(*prim.range_fn(x.lo, x.hi))

    @staticmethod
    def ra_factor(prim, x):
        return Interval(*prim.derivative().range_fn(x.lo, x.hi))


# ---------------------------------------------------------------------------
# straight-line code for hot tapes, one function per tape shape

# A tape's shape is its ops with every constant and RA primitive replaced
# by a slot, with its roots and its number of variables; the slot values
# are the tape's own. Tapes that differ only in their constants, such as
# the critical systems of one formula under different rotations, share a
# shape. An interval pass of a shape (its values, or its Jacobian over n
# inputs with the values and the range pretest before it) runs through
# run_tape for its first HOT_CALLS calls, counted over every tape of the
# shape, then through Python generated once for the shape.
# On a 2-core 2.0 GHz Xeon VM, generating costs 50 to 55 us a line. On the
# Jacobian pass of the circle's last-stage critical system (40 slots, 122
# lines) that is 6.0 to 6.6 ms, the time the generated code saves in about
# 27 to 37 calls (195-250 -> 26-28 us each, the cold path walking the
# values once and reusing them for the gradients); its value pass (54
# lines) costs 2.8 to 3.0 ms, about 70 calls' saving (50-54 -> 10.5-11
# us). Each tape of the shape also runs a prologue once per pass, 16 us
# (values) or 81 to 92 us (Jacobian). A pass is generated once its shape
# has run it that many times, so a shape evaluated only a few times in
# all never pays for generation, and one evaluated often pays at most
# about twice (Jacobian) to three times (values) the least it could.
HOT_CALLS = 32
# Shapes whose call counts and generated code outlive their tapes; a shape
# that this many others have been looked up after is dropped. One pass of
# the benchmark's census workload looks up 23 shapes and one of morse 20,
# so the bound holds the working sets of two such workloads; tier-1 makes
# about 210, nearly all used by one test.
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
    lines that call the IntervalArith ``A``, with its domain checks and
    messages.
    """

    def __init__(self, n_slots: int = 0):
        self.lines: list[str] = []
        # constants are bound here, never formatted into the source, so
        # inf, -0.0 and subnormals keep their bits
        self.ns = {"nx": _nextafter, "inf": _INF, "ninf": _NINF,
                   "tn": _tuple_new, "IV": Interval, "pin": _pin, "imul": imul}
        self.n_slots = n_slots
        self.steps: list = []       # (IntervalArith method, arguments)
        # (_Param, whole) -> the local names of its two ends, or of it
        # whole (an Interval or a primitive), in the order of P
        self.exports: dict = {}
        self.points: set = set()    # constant slots and their negations

    def const(self, v):
        # a slot of the shape, or a seed gradient
        if type(v) is not _Param:
            return Interval.point(v)
        p = self._step("const", v)
        self.points.add(p)
        return p

    def _step(self, method: str, *args) -> _Param:
        self.steps.append((method, args))
        return _Param(self.n_slots + len(self.steps) - 1)

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

    def bind(self, value) -> str:
        name = f"k{len(self.ns)}"
        self.ns[name] = value
        return name

    def names(self, x):
        if type(x) is _Param:
            return self._export(x, False)
        return (self.bind(x[0]), self.bind(x[1])) if isinstance(x, Interval) else x

    def out(self):
        n = len(self.lines)
        return f"lo{n}", f"hi{n}"

    def interval(self, x) -> str:
        # a pair of locals becomes an Interval; a constant is bound, and a
        # prologue value or primitive is read from P
        if type(x) is tuple:
            return f"tn(IV, ({x[0]}, {x[1]}))"
        return self._export(x, True) if type(x) is _Param else self.bind(x)

    def function(self, params: str, result: str):
        unpack = [n for names in self.exports.values()
                  for n in ((names,) if isinstance(names, str) else names)]
        lines = ([", ".join(unpack) + ", = P"] if unpack else []) + self.lines
        src = "".join(f"    {line}\n" for line in lines)
        exec(compile(f"def code({params}):\n{src}    return {result}\n",
                     "<interval code>", "exec"), self.ns)
        return self.ns.pop("code")

    def add(self, x, y):
        if type(x) is not tuple and type(y) is not tuple:
            return self._fold("add", iadd, x, y)
        (xl, xh), (yl, yh) = self.names(x), self.names(y)
        lo, hi = self.out()
        # a NaN end is -inf + inf, widened to that side's infinity
        self.lines.append(f"{lo} = nx(t, ninf) if (t := {xl} + {yl}) == t else ninf; "
                          f"{hi} = nx(t, inf) if (t := {xh} + {yh}) == t else inf")
        return lo, hi

    def sub(self, x, y):
        (xl, xh), (yl, yh) = self.names(x), self.names(y)
        lo, hi = self.out()
        self.lines.append(f"{lo} = nx(t, ninf) if (t := {xl} - {yh}) == t else ninf; "
                          f"{hi} = nx(t, inf) if (t := {xh} - {yl}) == t else inf")
        return lo, hi

    def neg(self, x):
        if type(x) is not tuple:
            p = self._fold("neg", ineg, x)
            if x in self.points:
                self.points.add(p)
            return p
        lo, hi = self.out()
        self.lines.append(f"{lo} = -{x[1]}; {hi} = -{x[0]}")
        return lo, hi

    def sqr(self, x):
        if type(x) is not tuple:
            return self._fold("sqr", isqr, x)
        xl, xh = x
        lo, hi = self.out()
        self.lines.append(
            f"m0 = {xl} * {xl}; m1 = {xh} * {xh}; {hi} = nx(max(m0, m1), inf); "
            f"{lo} = 0.0 if {xl} <= 0.0 <= {xh} else nx(min(m0, m1), ninf)")
        return lo, hi

    def mul(self, x, y):
        if _is_zero(x) or _is_zero(y):
            return _ZERO_PRODUCT
        if type(x) is not tuple:
            if type(y) is not tuple:
                return self._fold("mul", imul, x, y)
            x, y = y, x     # imul(x, y) and imul(y, x) agree to the bit
        lo, hi = self.out()
        xl, xh = x
        yl, yh = self.names(y)
        # a finite nonzero point c needs no NaN test, and x.lo*c and x.hi*c
        # are the extreme corners, in order when c > 0
        two = (f"{lo} = nx({xl} * {yl}, ninf); {hi} = nx({xh} * {yl}, inf)",
               f"{lo} = nx({xh} * {yl}, ninf); {hi} = nx({xl} * {yl}, inf)")
        four = [
            f"m0 = {xl} * {yl}; m1 = {xl} * {yh}; m2 = {xh} * {yl}; m3 = {xh} * {yh}",
            "if (t := m0 + m1 + m2 + m3) != t: "
            "m0 = pin(m0); m1 = pin(m1); m2 = pin(m2); m3 = pin(m3)",
            f"{lo} = nx(min(m0, m1, m2, m3), ninf); {hi} = nx(max(m0, m1, m2, m3), inf)"]
        if type(y) is _Param and y in self.points:
            # a point whose value is not known here: its sign picks the
            # corners when the code runs, and 0 or inf takes imul itself
            self.lines += [f"if 0.0 < {yl} < inf: {two[0]}",
                           f"elif ninf < {yl} < 0.0: {two[1]}",
                           f"else: {lo}, {hi} = imul(({xl}, {xh}), ({yl}, {yh}))"]
        elif isinstance(y, Interval) and y[0] == y[1] and 0.0 < abs(y[0]) < _INF:
            self.lines.append(two[y[0] < 0.0])
        else:
            self.lines += four
        return lo, hi

    def scale(self, x, c: str):
        """iscale(x, c) for the float local c."""
        xl, xh = x
        lo, hi = self.out()
        self.lines += [
            f"m0 = t if (t := {c} * {xl}) == t else 0.0; "
            f"m1 = t if (t := {c} * {xh}) == t else 0.0",
            f"if {c} < 0.0: {lo} = nx(m1, ninf); {hi} = nx(m0, inf)",
            f"else: {lo} = nx(m0, ninf); {hi} = nx(m1, inf)"]
        return lo, hi

    def _call(self, method: str, *args):
        lo, hi = self.out()
        self.lines.append(f"{lo}, {hi} = A.{method}({', '.join(map(self.interval, args))})")
        return lo, hi

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
    (``_Param``), and per interval pass over n inputs, keyed (grad, n), its
    call count or its generated code, prologue steps and exports."""

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


def _generate(shape: _Shape, n: int, grad: bool):
    """Straight-line code for an interval pass of a tape shape over n input
    intervals, written by running the walkers of run_tape over a
    _TapeWriter. Returns (code, steps, exports): the prologue runs the
    steps on a tape's slots once and hands the exports to the code as P.

    Without grad, code is a function of (coords, A, P) that returns
    run_tape(ct, coords, A). With grad, a function of (coords, A, P,
    pretest) in three parts: every value (tape_values); then, when pretest
    is set, the Krawczyk range pretest, which returns None if some root's
    range excludes 0; then the gradients from those values
    (tape_gradients), and the return of run_tape(ct, coords, A, grad=True).
    """
    w = _TapeWriter(shape.n_slots)
    coords = [(f"xl{j}", f"xh{j}") for j in range(n)]
    w.lines.append("[" + ", ".join(f"({lo}, {hi})" for lo, hi in coords) + "] = coords")
    vals = tape_values(shape.tape, coords, w)
    roots = [vals[r] for r in shape.tape.roots]
    result = "[" + ", ".join(map(w.interval, roots)) + "]"
    if not grad:
        return w.function("coords, A, P", result), w.steps, list(w.exports)

    inside = " and ".join("{} <= 0.0 <= {}".format(*w.names(r)) for r in roots)
    w.lines.append(f"if pretest and not ({inside}): return None")
    grads = tape_gradients(shape.tape, vals, n, w)
    result += ", [" + ", ".join(
        "[" + ", ".join(map(w.interval, g)) + "]" for g in grads) + "]"
    return w.function("coords, A, P, pretest", result), w.steps, list(w.exports)


def _prologue(steps, exports, slots, arith) -> list:
    """P for one tape: every input-free value, from the slot values."""
    env = list(slots)
    for method, args in steps:
        env.append(getattr(arith, method)(
            *[env[a] if type(a) is _Param else a for a in args]))
    P: list = []
    for p, whole in exports:
        if whole:
            P.append(env[p])
        else:
            P += env[p]
    return P


def _hot_code(ct: CompiledTerms, grad: bool, n: int, arith):
    """(code, P) for this pass of the tape over n inputs, or None while
    the pass of its shape has run fewer than HOT_CALLS times."""
    check_arity(ct, n, "box")
    key = ("interval", grad, n)
    got = ct.cache.get(key)
    if got is not None:
        return got
    shape, slots = _instance(ct)
    code = shape.passes.get((grad, n), 0)
    if type(code) is int:
        if code < HOT_CALLS:
            shape.passes[(grad, n)] = code + 1
            return None
        code = shape.passes[(grad, n)] = _generate(shape, n, grad)
    try:
        P = _prologue(code[1], code[2], slots, arith)
    except Exception:
        # an input-free value fails on every box; run_tape raises that
        # fault or one before it, as the reference does
        return None
    got = ct.cache[key] = (code[0], P)
    return got


def _values(ct: CompiledTerms, coords, arith) -> list[Interval]:
    hot = _hot_code(ct, False, len(coords), arith)
    return run_tape(ct, coords, arith) if hot is None else hot[0](coords, arith, hot[1])


def _jacobian(ct: CompiledTerms, coords, arith, pretest: bool):
    """run_tape(ct, coords, arith, grad=True), or None when pretest is set
    and some root's range excludes 0."""
    hot = _hot_code(ct, True, len(coords), arith)
    if hot is not None:
        return hot[0](coords, arith, hot[1], pretest)
    vals = tape_values(ct, coords, arith)
    ranges = [vals[r] for r in ct.roots]
    if pretest and not all(r[0] <= 0.0 <= r[1] for r in ranges):
        return None
    return ranges, tape_gradients(ct, vals, len(coords), arith)


def interval_eval_compiled(ct: CompiledTerms, box: Box) -> list[Interval]:
    return _values(ct, box.coords, IntervalArith)


def interval_eval(term: TermNode, box: Box, abel=None) -> Interval:
    """Range enclosure of a term over a box."""
    return interval_eval_compiled(compile_terms([term], abel), box)[0]


def interval_jacobian_compiled(ct: CompiledTerms, box: Box):
    """Interval forward mode: values plus per-root interval gradients."""
    return _jacobian(ct, box.coords, IntervalArith, False)


# ---------------------------------------------------------------------------
# Krawczyk existence / uniqueness test

@dataclass(frozen=True)
class KrawczykResult:
    """verdict is one of "UniqueZero", "NoZero", "Unknown"; contracted is
    the Krawczyk image intersected with the box when the verdict is
    UniqueZero, else None."""

    verdict: str
    contracted: Box | None = None


@functools.cache
def _krawczyk_rows(n: int):
    """K = m - C f(m) + (I - C J)(X - m) over n coordinates as straight-line
    float code, generated on first use for each n: a function of
    (X, m, F, J, C) that returns the rows of K as Intervals. X is the box,
    m its midpoint, F the enclosure of f at m, J the interval Jacobian over
    X (J[k][j] = d f_k / d x_j) and C the preconditioner as lists of
    floats. Row i comes from the same float operations, in the same order,
    as this helper form:

        s_j = isub(X_j, [m_j, m_j])
        acc = [m_i, m_i];  acc = isub(acc, iscale(F_j, C[i][j]))  for each j
        then for each j:  e = [I_ij, I_ij]
                          e = isub(e, iscale(J[k][j], C[i][k]))  for each k
                          acc = iadd(acc, imul(e, s_j))
    """
    w = _TapeWriter()
    r = range(n)
    x = [(f"xl{j}", f"xh{j}") for j in r]
    fm = [(f"fl{j}", f"fh{j}") for j in r]
    jac = [[(f"jl{k}_{j}", f"jh{k}_{j}") for j in r] for k in r]
    c = [[f"c{i}_{k}" for k in r] for i in r]

    def pattern(items):
        return "[" + ", ".join(items) + "]"

    w.lines += [
        pattern(f"({lo}, {hi})" for lo, hi in x) + " = X",
        pattern(f"mp{j}" for j in r) + " = m",
        pattern(f"({lo}, {hi})" for lo, hi in fm) + " = F",
        pattern(pattern(f"({lo}, {hi})" for lo, hi in row) for row in jac) + " = J",
        pattern(pattern(row) for row in c) + " = C"]
    shifted = [w.sub(x[j], (f"mp{j}", f"mp{j}")) for j in r]
    rows = []
    for i in r:
        acc = (f"mp{i}", f"mp{i}")
        for j in r:
            acc = w.sub(acc, w.scale(fm[j], c[i][j]))
        for j in r:
            entry = _ONE if i == j else _ZERO
            for k in r:
                entry = w.sub(entry, w.scale(jac[k][j], c[i][k]))
            acc = w.add(acc, w.mul(entry, shifted[j]))
        rows.append(acc)
    return w.function("X, m, F, J, C", pattern(map(w.interval, rows)))


def krawczyk_test(system, box: Box) -> KrawczykResult:
    """Certify zero existence/uniqueness for a square system on a box.

    UniqueZero additionally certifies non-singularity: the contraction
    K(X) inside the interior forces every Jacobian in the enclosure to be
    invertible. NoZero comes from the range pretest (inclusion isotone,
    so it can never flip under box shrinking) or from K(X) missing X.
    Both verdicts hold for any finite preconditioner C, and f(m) enters
    as an enclosure over the point box [m, m], never as a float.
    """
    ct = system.compiled
    coords = box.coords
    n = len(coords)
    if len(ct.roots) != n:
        raise DomainError(
            f"system has {len(ct.roots)} equations, box dimension {n}")
    arith = IntervalArith
    if box.max_width == 0.0:    # only the range pretest can decide
        ranges = _values(ct, coords, arith)
        return KrawczykResult("Unknown" if all(r.contains_zero() for r in ranges)
                              else "NoZero")

    # the range pretest, then the interval Jacobian from the same values
    got = _jacobian(ct, coords, arith, True)
    if got is None:
        return KrawczykResult("NoZero")
    jac = got[1]
    m = box.midpoint()
    fm = _values(ct, [Interval.point(v) for v in m], arith)
    mid_jac = [[g.mid for g in row] for row in jac]
    if not all(map(math.isfinite, chain.from_iterable(mid_jac))):
        return KrawczykResult("Unknown")
    try:
        # LAPACK's bits set C, and with it every K row and every report
        C = np.linalg.inv(mid_jac).tolist()
    except np.linalg.LinAlgError:
        return KrawczykResult("Unknown")
    if not all(map(math.isfinite, chain.from_iterable(C))):
        return KrawczykResult("Unknown")

    k_rows = _krawczyk_rows(n)(coords, m, fm, jac, C)
    if all(k.strictly_inside(c) for k, c in zip(k_rows, coords)):
        contracted = Box(tuple(k.intersect(c) for k, c in zip(k_rows, coords)))
        return KrawczykResult("UniqueZero", contracted)
    if any(not k.intersects(c) for k, c in zip(k_rows, coords)):
        return KrawczykResult("NoZero")
    return KrawczykResult("Unknown")
