"""Outward-rounded interval arithmetic and the Krawczyk test.

Every arithmetic helper widens its result by one ulp per operation, so a
computed interval always contains the exact real-number result. Enclosures
of the super-logarithm and its derivatives come from the AbelFunction,
which already folds in its own seed evaluation error.

An Interval is checked (no NaN, lo <= hi) where it is built from outside
values: the constructor, ``Interval.point``, ``intersect`` and the
enclosures of exp, log, 1/x, RA primitives and phi. ``iadd``, ``isub``,
``ineg``, ``imul``, ``isqr`` and ``iscale`` skip the check: from valid
operands they yield ordered, NaN-free bounds by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

import numpy as np

from .abel import exp_sat
from .errors import DomainError
from .terms import (ADD, CONST, DPHI, EXP, LOG, MUL, NEG, PHI, RA, SQR, VAR,
                    CompiledTerms, TermNode, compile_terms, run_tape)

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


# ---------------------------------------------------------------------------
# interval evaluation over compiled tapes

def _ra_range(prim, x: Interval) -> Interval:
    lo, hi = prim.range_fn(x.lo, x.hi)
    return Interval(_dn(_dn(lo)), _up(_up(hi)))


class IntervalArith:
    """Outward-rounded intervals for run_tape: enclosures over one box."""

    const = staticmethod(Interval.point)
    add = staticmethod(iadd)
    mul = staticmethod(imul)
    sqr = staticmethod(isqr)
    neg = staticmethod(ineg)

    def __init__(self, abel):
        self.abel = abel

    def exp(self, x, grad):
        v = iexp(x)
        return v, v

    def log(self, x, grad):
        return ilog(x), (iinv_pos(x) if grad else None)

    def ra(self, prim, x, grad):
        if x.lo < prim.lo or x.hi > prim.hi:
            raise DomainError(
                f"{prim.name} argument range {x} leaves [{prim.lo}, {prim.hi}]")
        return _ra_range(prim, x), (_ra_range(prim.derivative(), x) if grad else None)

    def phi(self, x, grad):
        v = Interval(*self.abel.interval_phi(x.lo, x.hi))
        return v, (Interval(*self.abel.interval_dphi(x.lo, x.hi)) if grad else None)

    def dphi(self, x, grad):
        v = Interval(*self.abel.interval_dphi(x.lo, x.hi))
        return v, (Interval(*self.abel.interval_d2phi(x.lo, x.hi)) if grad else None)


# ---------------------------------------------------------------------------
# straight-line code for hot tapes

# An interval pass over a tape (its values, or its Jacobian over n inputs)
# runs through run_tape for its first HOT_CALLS calls, then through Python
# generated for it. Generating costs about 32 us a line. On the Jacobian of
# a circle critical system (43 slots, 136 lines) that is 4.4 ms, the time
# the generated code saves in about 20 calls (250 -> 30 us each); its value
# pass (40 lines) costs 1.3 ms, about 30 calls' saving (51 -> 11 us). A pass
# is generated once it has run that many times, so a tape evaluated only a
# few times, as most census tapes are, never pays for generation, and one
# evaluated often pays at most about twice the least it could.
HOT_CALLS = 32

_ZERO = Interval.point(0.0)
_ONE = Interval.point(1.0)
# imul(x, [0, 0]) for every valid x: each corner is +-0 (0 * inf pins to 0),
# rounded out by one ulp
_ZERO_PRODUCT = imul(_ONE, _ZERO)
_METHOD = {EXP: "exp", LOG: "log", RA: "ra", PHI: "phi", DPHI: "dphi"}


def _is_zero(x) -> bool:
    return isinstance(x, Interval) and x[0] == 0.0 == x[1]


class _TapeWriter:
    """Lines of one generated interval pass.

    An operand that depends on no input is an Interval, folded here with
    the helpers above; any other is the pair of names of its two float
    locals. iadd, imul, isqr and ineg are written out as their own float
    operations, so the code keeps every bit of the helpers.
    """

    def __init__(self):
        self.lines: list[str] = []
        # constants are bound here, never formatted into the source, so
        # inf, -0.0 and subnormals keep their bits
        self.ns = {"nx": _nextafter, "inf": _INF, "ninf": _NINF,
                   "tn": _tuple_new, "IV": Interval, "pin": _pin}

    def bind(self, value) -> str:
        name = f"k{len(self.ns)}"
        self.ns[name] = value
        return name

    def names(self, x):
        return (self.bind(x[0]), self.bind(x[1])) if isinstance(x, Interval) else x

    def out(self):
        n = len(self.lines)
        return f"lo{n}", f"hi{n}"

    def interval(self, x) -> str:
        return self.bind(x) if isinstance(x, Interval) else f"tn(IV, ({x[0]}, {x[1]}))"

    def add(self, x, y):
        if isinstance(x, Interval) and isinstance(y, Interval):
            return iadd(x, y)
        (xl, xh), (yl, yh) = self.names(x), self.names(y)
        lo, hi = self.out()
        # a NaN end is -inf + inf, widened to that side's infinity
        self.lines.append(f"{lo} = nx(t, ninf) if (t := {xl} + {yl}) == t else ninf; "
                          f"{hi} = nx(t, inf) if (t := {xh} + {yh}) == t else inf")
        return lo, hi

    def neg(self, x):
        if isinstance(x, Interval):
            return ineg(x)
        lo, hi = self.out()
        self.lines.append(f"{lo} = -{x[1]}; {hi} = -{x[0]}")
        return lo, hi

    def sqr(self, x):
        if isinstance(x, Interval):
            return isqr(x)
        xl, xh = x
        lo, hi = self.out()
        self.lines.append(
            f"m0 = {xl} * {xl}; m1 = {xh} * {xh}; {hi} = nx(max(m0, m1), inf); "
            f"{lo} = 0.0 if {xl} <= 0.0 <= {xh} else nx(min(m0, m1), ninf)")
        return lo, hi

    def mul(self, x, y):
        if isinstance(x, Interval):
            if isinstance(y, Interval):
                return imul(x, y)
            x, y = y, x     # imul(x, y) and imul(y, x) agree to the bit
        if _is_zero(y):
            return _ZERO_PRODUCT
        lo, hi = self.out()
        xl, xh = x
        if isinstance(y, Interval):
            c = y[0]
            if c == y[1] and 0.0 < abs(c) < _INF:
                # a finite nonzero point: no corner is NaN, and x.lo*c and
                # x.hi*c are the extreme corners, in order when c > 0
                k = self.bind(c)
                if c < 0.0:
                    xl, xh = xh, xl
                self.lines.append(f"{lo} = nx({xl} * {k}, ninf); {hi} = nx({xh} * {k}, inf)")
                return lo, hi
        yl, yh = self.names(y)
        self.lines += [
            f"m0 = {xl} * {yl}; m1 = {xl} * {yh}; m2 = {xh} * {yl}; m3 = {xh} * {yh}",
            "if (t := m0 + m1 + m2 + m3) != t: "
            "m0 = pin(m0); m1 = pin(m1); m2 = pin(m2); m3 = pin(m3)",
            f"{lo} = nx(min(m0, m1, m2, m3), ninf); {hi} = nx(max(m0, m1, m2, m3), inf)"]
        return lo, hi

    def call(self, code, x, payload, grad):
        # through IntervalArith, with its domain checks and messages
        args = self.interval(x)
        if code == RA:
            args = f"{self.bind(payload)}, {args}"
        lo, hi = self.out()
        flo, fhi = f"f{lo}", f"f{hi}"
        factor = f"({flo}, {fhi})" if grad else "_"
        self.lines.append(f"({lo}, {hi}), {factor} = A.{_METHOD[code]}({args}, {grad})")
        return (lo, hi), ((flo, fhi) if grad else None)


def _generate(ct: CompiledTerms, n: int, grad: bool):
    """Straight-line code for run_tape(ct, coords, IntervalArith(abel),
    grad) over n input intervals, as a function of (coords, arith)."""
    w = _TapeWriter()
    vals: list = []
    grads: list = []
    zeros = [_ZERO] * n
    for code, a, b, payload in ct.ops:
        f = None
        if code == VAR:
            v = w.out()
            w.lines.append(f"{v[0]}, {v[1]} = coords[{payload:d}]")
        elif code == CONST:
            v = Interval.point(payload)
        elif code == ADD:
            v = w.add(vals[a], vals[b])
        elif code == MUL:
            v = w.mul(vals[a], vals[b])
        elif code == SQR:
            v = w.sqr(vals[a])
            if grad and not all(map(_is_zero, grads[a])):   # else f is unused
                f = w.add(vals[a], vals[a])
        elif code == NEG:
            v = w.neg(vals[a])
        else:
            v, f = w.call(code, vals[a], payload, grad)
        vals.append(v)
        if not grad:
            continue
        if code == VAR:
            g = list(zeros)
            g[payload] = _ONE
        elif code == CONST:
            g = zeros
        elif code == ADD:
            g = [w.add(p, q) for p, q in zip(grads[a], grads[b])]
        elif code == MUL:
            va, vb = vals[a], vals[b]
            g = [w.add(w.mul(va, q), w.mul(vb, p))
                 for p, q in zip(grads[a], grads[b])]
        elif code == NEG:
            g = [w.neg(p) for p in grads[a]]
        else:
            g = [w.mul(f, p) for p in grads[a]]
        grads.append(g)
    roots = "[" + ", ".join(w.interval(vals[r]) for r in ct.roots) + "]"
    if grad:
        roots += ", [" + ", ".join(
            "[" + ", ".join(map(w.interval, grads[r])) + "]"
            for r in ct.roots) + "]"
    src = "".join(f"    {line}\n" for line in w.lines + [f"return {roots}"])
    exec(compile("def tape(coords, A):\n" + src, "<interval tape>", "exec"), w.ns)
    return w.ns.pop("tape")


def _hot_code(ct: CompiledTerms, grad: bool, n: int):
    """The generated code for this pass of the tape, or None while the
    pass has run fewer than HOT_CALLS times."""
    key = ("interval", grad, n)
    got = ct.cache.get(key, 0)
    if type(got) is int:
        if got < HOT_CALLS:
            ct.cache[key] = got + 1
            return None
        got = ct.cache[key] = _generate(ct, n, grad)
    return got


def interval_eval_compiled(ct: CompiledTerms, box: Box, abel) -> list[Interval]:
    code = _hot_code(ct, False, box.n)
    if code is None:
        return run_tape(ct, box.coords, IntervalArith(abel))
    return code(box.coords, IntervalArith(abel))


def interval_eval(term: TermNode, box: Box, abel=None) -> Interval:
    """Range enclosure of a term over a box."""
    if abel is None:
        from .abel import get_default_abel

        abel = get_default_abel()
    return interval_eval_compiled(compile_terms([term]), box, abel)[0]


def interval_jacobian_compiled(ct: CompiledTerms, box: Box, abel):
    """Interval forward mode: values plus per-root interval gradients."""
    if box.n < ct.n_vars:
        raise DomainError(f"box dimension {box.n} below term arity {ct.n_vars}")
    code = _hot_code(ct, True, box.n)
    if code is None:
        return run_tape(ct, box.coords, IntervalArith(abel), grad=True)
    return code(box.coords, IntervalArith(abel))


# ---------------------------------------------------------------------------
# Krawczyk existence / uniqueness test

@dataclass(frozen=True)
class KrawczykResult:
    """verdict is one of "UniqueZero", "NoZero", "Unknown"; contracted is
    the Krawczyk image intersected with the box when the verdict is
    UniqueZero, else None."""

    verdict: str
    contracted: Box | None = None


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
    abel = system.abel
    n = box.n
    if len(ct.roots) != n:
        raise DomainError(
            f"system has {len(ct.roots)} equations, box dimension {n}")

    ranges = interval_eval_compiled(ct, box, abel)
    if any(not r.contains_zero() for r in ranges):
        return KrawczykResult("NoZero")
    if box.max_width == 0.0:
        return KrawczykResult("Unknown")

    m = box.midpoint()
    fm = interval_eval_compiled(ct, Box(tuple(map(Interval.point, m))), abel)
    _, jac_iv = interval_jacobian_compiled(ct, box, abel)
    mid_jac = np.array([[g.mid for g in row] for row in jac_iv])
    if not np.all(np.isfinite(mid_jac)):
        return KrawczykResult("Unknown")
    try:
        C = np.linalg.inv(mid_jac)
    except np.linalg.LinAlgError:
        return KrawczykResult("Unknown")
    if not np.all(np.isfinite(C)):
        return KrawczykResult("Unknown")
    C = C.tolist()

    # K = m - C f(m) + (I - C J)(X - m), evaluated row by row in intervals
    shifted = [isub(box.coords[j], Interval.point(m[j])) for j in range(n)]
    k_rows: list[Interval] = []
    for i in range(n):
        acc = Interval.point(m[i])
        for j in range(n):
            acc = isub(acc, iscale(fm[j], C[i][j]))
        for j in range(n):
            entry = Interval.point(1.0 if i == j else 0.0)
            for k in range(n):
                entry = isub(entry, iscale(jac_iv[k][j], C[i][k]))
            acc = iadd(acc, imul(entry, shifted[j]))
        k_rows.append(acc)

    if all(k.strictly_inside(c) for k, c in zip(k_rows, box.coords)):
        contracted = Box(tuple(k.intersect(c)
                               for k, c in zip(k_rows, box.coords)))
        return KrawczykResult("UniqueZero", contracted)
    if any(not k.intersects(c) for k, c in zip(k_rows, box.coords)):
        return KrawczykResult("NoZero")
    return KrawczykResult("Unknown")
