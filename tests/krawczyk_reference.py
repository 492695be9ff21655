"""The Krawczyk test by the tape walker and the interval helpers, the
reference that the generated Krawczyk code is held to bit for bit. It
shares no code with ``intervals._TapeWriter``: the values, gradients and
``f(m)`` come from ``run_tape``'s walks over ``IntervalArith``, the
preconditioner from a pure-Python Gauss-Jordan elimination and the rows of
K from ``iadd``, ``isub``, ``imul`` and ``iscale``.

Beside it, the census's per-box steps in checked ``Interval`` form, the
reference for their float forms: the inflation of a tested box
(``census._inflate``) and the bisection (``intervals.subdivide``)."""

import math

from slogcensus.census import _INFLATE
from slogcensus.errors import DomainError
from slogcensus.intervals import (Box, Interval, IntervalArith,
                                  KrawczykResult, iadd, imul, iscale, isub)
from slogcensus.terms import run_tape, tape_gradients, tape_values


def inflate_by_helpers(box, outer) -> Box:
    """``census._inflate`` by Interval, max and min: each coordinate padded
    by _INFLATE of its width (at least 1e-300) and clamped to outer."""
    coords = []
    for c, o in zip(box.coords, outer.coords):
        pad = _INFLATE * max(c.width, 1e-300)
        coords.append(Interval(max(c.lo - pad, o.lo), min(c.hi + pad, o.hi)))
    return Box(tuple(coords))


def subdivide_by_helpers(box) -> tuple:
    """``intervals.subdivide`` by Interval: the first widest coordinate
    split at its ``Interval.mid``."""
    widths = [c.width for c in box.coords]
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


def gauss_jordan(M):
    """Reference inverse: Gauss-Jordan in place with partial pivoting (the
    first largest |a[i][k]|, i >= k), the columns swapped back at the end;
    None for a non-finite entry, a zero or non-finite pivot or a non-finite
    inverse."""
    n = len(M)
    if not all(math.isfinite(v) for row in M for v in row):
        return None
    a = [list(row) for row in M]
    pivots = []
    for k in range(n):
        p = k
        for i in range(k + 1, n):
            if abs(a[i][k]) > abs(a[p][k]):
                p = i
        a[k], a[p] = a[p], a[k]
        pivots.append(p)
        if a[k][k] == 0.0 or not math.isfinite(a[k][k]):
            return None
        d = a[k][k]
        a[k][k] = 1.0
        a[k] = [v / d for v in a[k]]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i][k] = 0.0
                a[i] = [v - f * u for v, u in zip(a[i], a[k])]
    for k in reversed(range(n)):
        for row in a:
            row[k], row[pivots[k]] = row[pivots[k]], row[k]
    if not all(math.isfinite(v) for row in a for v in row):
        return None
    return a


def rows_by_helpers(X, m, F, J, C):
    """The rows of K = m - C f(m) + (I - C J)(X - m), formed with the
    interval helpers."""
    n = len(X)
    shifted = [isub(X[j], Interval.point(m[j])) for j in range(n)]
    rows = []
    for i in range(n):
        acc = Interval.point(m[i])
        for j in range(n):
            acc = isub(acc, iscale(F[j], C[i][j]))
        for j in range(n):
            entry = Interval.point(1.0 if i == j else 0.0)
            for k in range(n):
                entry = isub(entry, iscale(J[k][j], C[i][k]))
            acc = iadd(acc, imul(entry, shifted[j]))
        rows.append(acc)
    return rows


def tail_by_helpers(X, m, F, J) -> KrawczykResult:
    """The end of the Krawczyk test from the box X, its midpoint m, f over
    [m, m] and the interval Jacobian J, with the reference inverse of J's
    midpoints as the preconditioner."""
    C = gauss_jordan([[e.mid for e in row] for row in J])
    if C is None:
        return KrawczykResult("Unknown")
    rows = rows_by_helpers(X, m, F, J, C)
    if all(k.strictly_inside(x) for k, x in zip(rows, X)):
        return KrawczykResult("UniqueZero", Box(tuple(
            k.intersect(x) for k, x in zip(rows, X))))
    if any(not k.intersects(x) for k, x in zip(rows, X)):
        return KrawczykResult("NoZero")
    return KrawczykResult("Unknown")


def krawczyk_by_helpers(system, box) -> KrawczykResult:
    """``intervals.krawczyk_test`` by the walker: the values over the box,
    the range pretest, Unknown for a box of zero width, the gradients from
    the same values, f over [m, m] by run_tape, then tail_by_helpers."""
    ct = system.compiled
    coords = box.coords
    vals = tape_values(ct, coords, IntervalArith)
    if not all(vals[r].contains_zero() for r in ct.roots):
        return KrawczykResult("NoZero")
    if box.max_width == 0.0:
        return KrawczykResult("Unknown")
    jac = tape_gradients(ct, vals, len(coords), IntervalArith)
    m = box.midpoint()
    fm = run_tape(ct, [Interval.point(v) for v in m], IntervalArith)
    return tail_by_helpers(list(coords), m, fm, jac)
