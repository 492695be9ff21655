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
from .terms import CompiledTerms, TermNode, compile_terms, run_tape

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
        return 0.5 * (lo + hi)

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


def interval_eval_compiled(ct: CompiledTerms, box: Box, abel) -> list[Interval]:
    return run_tape(ct, box.coords, IntervalArith(abel))


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
    return run_tape(ct, box.coords, IntervalArith(abel), grad=True)


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
