"""Interval arithmetic, boxes, enclosures, and the Krawczyk certifier."""

import dataclasses
import itertools
import math
import operator
import pickle
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from krawczyk_reference import inflate_by_helpers, subdivide_by_helpers
from slogcensus.census import _inflate, build_system
from slogcensus.errors import DomainError
from slogcensus.gridoracle import CellArith, eval_cells
from slogcensus.intervals import (Box, Interval, _TapeWriter, iadd, iexp,
                                  ilog, imul, iinv_pos, ineg, interval_eval,
                                  interval_eval_compiled,
                                  interval_jacobian_compiled, iscale, isqr,
                                  isub, krawczyk_test, split_step, subdivide)
from slogcensus.terms import (EXP_MAX, add, compile_terms, const,
                              default_catalog, dphi, eval_term, exp, exp_sat,
                              log, mul, neg, parse_term, phi, ra, run_tape,
                              sub, var)

_fin = st.floats(-1e6, 1e6, allow_nan=False)


# ---------------------------------------------------------------------------
# interval type

def test_interval_basics():
    x = Interval(1.0, 3.0)
    assert x.mid == 2.0
    assert x.width == 2.0
    assert x.contains(1.0) and x.contains(3.0)
    assert not x.contains_zero()
    assert Interval.point(2.0).width == 0.0


def test_interval_rejects_inverted_bounds():
    for lo, hi in ((2.0, 1.0), (math.nan, 1.0), (1.0, math.nan),
                   (math.nan, math.nan), (math.inf, -math.inf)):
        with pytest.raises(DomainError):
            Interval(lo, hi)
    with pytest.raises(DomainError):
        Interval.point(math.nan)
    with pytest.raises(DomainError):
        Interval(0.0, 1.0).intersect(Interval(2.0, 3.0))


def test_interval_public_behaviour():
    x = Interval(1.0, 2.0)
    assert repr(x) == "[1.0, 2.0]"
    assert repr(Interval.point(-0.0)) == "[-0.0, -0.0]"
    # an Interval is the pair (lo, hi): equal to it, hashed like it
    assert x == (1.0, 2.0) and x == Interval(1.0, 2.0)
    assert x != Interval(1.0, 3.0)
    assert hash(x) == hash(Interval(1.0, 2.0)) == hash((1.0, 2.0))
    assert len({x, Interval(1.0, 2.0), Interval(0.0, 2.0)}) == 2
    assert {x: "a"}[Interval(1.0, 2.0)] == "a"
    with pytest.raises(AttributeError):
        x.lo = 0.0
    back = pickle.loads(pickle.dumps(x))
    assert type(back) is Interval and back == x
    a = Box.from_bounds([(0.0, 1.0), (-1.0, 1.0)])
    assert a == Box.from_bounds([(0.0, 1.0), (-1.0, 1.0)])
    assert a != Box.from_bounds([(0.0, 1.0), (-1.0, 2.0)])
    assert a.bounds() == [(0.0, 1.0), (-1.0, 1.0)]
    assert all(type(c) is Interval for c in a.coords)
    assert repr(a) == "[0.0, 1.0] x [-1.0, 1.0]"
    inner = Box.from_bounds([(0.25, 0.5), (0.0, 1.0)])
    assert inner.within(a) and not a.within(inner)
    assert a.intersects(inner)
    assert a.intersects(Box.from_bounds([(1.0, 2.0), (1.0, 2.0)]))
    assert not a.intersects(Box.from_bounds([(1.5, 2.0), (0.0, 1.0)]))


def test_interval_set_operations():
    a = Interval(0.0, 2.0)
    b = Interval(1.0, 3.0)
    assert a.intersects(b)
    assert a.intersect(b).lo == 1.0
    assert Interval(1.2, 1.8).strictly_inside(a)
    assert not a.strictly_inside(a)


# ---------------------------------------------------------------------------
# outward-rounded arithmetic

def _contains(z: Interval, v: float) -> bool:
    return z.lo <= v <= z.hi


@settings(max_examples=200)
@given(_fin, _fin, _fin, _fin)
def test_add_mul_soundness(a, b, c, d):
    x = Interval(min(a, b), max(a, b))
    y = Interval(min(c, d), max(c, d))
    for px in (x.lo, x.hi, x.mid):
        for py in (y.lo, y.hi, y.mid):
            assert _contains(iadd(x, y), px + py)
            assert _contains(isub(x, y), px - py)
            assert _contains(imul(x, y), px * py)
    assert _contains(ineg(x), -x.mid)
    assert _contains(isqr(x), x.mid * x.mid)
    assert _contains(iscale(x, 3.0), 3.0 * x.mid)


# the helpers as they were with the validating dataclass: every corner
# product through _mul0, isub as iadd(x, ineg(y)); bounds as plain pairs

def _ref_mul0(a, b):
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def _ref_iadd(x, y):
    lo, hi = x[0] + y[0], x[1] + y[1]
    if math.isnan(lo):
        lo = -math.inf
    if math.isnan(hi):
        hi = math.inf
    return math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)


def _ref_isub(x, y):
    return _ref_iadd(x, (-y[1], -y[0]))


def _ref_imul(x, y):
    c = (_ref_mul0(x[0], y[0]), _ref_mul0(x[0], y[1]),
         _ref_mul0(x[1], y[0]), _ref_mul0(x[1], y[1]))
    return math.nextafter(min(c), -math.inf), math.nextafter(max(c), math.inf)


def _ref_isqr(x):
    a, b = _ref_mul0(x[0], x[0]), _ref_mul0(x[1], x[1])
    if x[0] <= 0.0 <= x[1] or min(a, b) == 0.0:    # 0, or a square underflowed
        return 0.0, math.nextafter(max(a, b), math.inf)
    return math.nextafter(min(a, b), -math.inf), math.nextafter(max(a, b), math.inf)


def _ref_iscale(x, c):
    if c >= 0.0:
        return (math.nextafter(_ref_mul0(c, x[0]), -math.inf),
                math.nextafter(_ref_mul0(c, x[1]), math.inf))
    return (math.nextafter(_ref_mul0(c, x[1]), -math.inf),
            math.nextafter(_ref_mul0(c, x[0]), math.inf))


def _same_bits(got, ref):
    # unchecked results must still be ordered and NaN-free
    assert type(got) is Interval and got.lo <= got.hi
    assert (got.lo.hex(), got.hi.hex()) == (float(ref[0]).hex(), float(ref[1]).hex())


def _check_helpers(x, y, c):
    _same_bits(iadd(x, y), _ref_iadd(x, y))
    _same_bits(isub(x, y), _ref_isub(x, y))
    _same_bits(imul(x, y), _ref_imul(x, y))
    _same_bits(isqr(x), _ref_isqr(x))
    _same_bits(iscale(x, c), _ref_iscale(x, c))
    neg = ineg(x)
    assert neg.lo <= neg.hi and (neg.lo, neg.hi) == (-x.hi, -x.lo)


_MAX = sys.float_info.max
# 1e-200 squares to 0 in floats, as 5e-324 does
_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e-200, -1e-200, 1.0, -1.0, 0.1,
            _MAX, -_MAX, math.inf, -math.inf)
_SPECIAL_IV = [Interval(a, b) for a in _SPECIAL for b in _SPECIAL if a <= b]


def test_unchecked_helpers_keep_every_bit_on_special_values():
    for x, y in itertools.product(_SPECIAL_IV, repeat=2):
        for c in (y.lo, y.hi):
            _check_helpers(x, y, c)


_any = st.floats(allow_nan=False)


@settings(max_examples=500)
@given(_any, _any, _any, _any, st.floats(allow_nan=False, allow_infinity=False))
def test_unchecked_helpers_keep_every_bit(a, b, c, d, k):
    _check_helpers(Interval(min(a, b), max(a, b)),
                   Interval(min(c, d), max(c, d)), k)


def test_outward_rounding_strict():
    z = iadd(Interval.point(0.1), Interval.point(0.2))
    assert z.lo < 0.1 + 0.2 < z.hi or (z.lo <= 0.30000000000000004 <= z.hi
                                       and z.width > 0.0)


@settings(max_examples=200)
@given(st.floats(-700.0, 700.0), st.floats(-700.0, 700.0))
def test_exp_soundness(a, b):
    x = Interval(min(a, b), max(a, b))
    z = iexp(x)
    for p in (x.lo, x.mid, x.hi):
        assert _contains(z, math.exp(p))


def test_exp_saturates_at_the_end_of_the_double_range():
    assert math.isfinite(math.exp(EXP_MAX))
    with pytest.raises(OverflowError):
        math.exp(math.nextafter(EXP_MAX, math.inf))
    assert exp_sat(EXP_MAX) == math.exp(EXP_MAX)
    assert exp_sat(709.79) == math.inf
    z = iexp(Interval(709.79, 709.79))
    assert z.lo == _MAX and z.hi == math.inf


@settings(max_examples=200)
@given(st.floats(700.0, _MAX), st.floats(0.0, 20.0))
def test_exp_lower_end_stays_finite_near_overflow(a, w):
    # exp(a) > max double once math.exp(a) overflows, so max is a sound
    # lower end; inf would not bound the finite real exp(a) from below
    z = iexp(Interval(a, a + w))
    assert z.lo <= _MAX
    with mpmath.workdps(30):
        assert z.lo <= mpmath.exp(mpmath.mpf(a))


@settings(max_examples=200)
@given(st.floats(1e-300, 1e300), st.floats(1e-300, 1e300))
def test_log_inv_soundness(a, b):
    x = Interval(min(a, b), max(a, b))
    for p in (x.lo, x.mid, x.hi):
        assert _contains(ilog(x), math.log(p))
        assert _contains(iinv_pos(x), 1.0 / p)


def test_exp_and_log_of_math_and_numpy_are_within_one_ulp():
    # iexp, ilog, CellArith and the abel widen these results by one ulp,
    # which encloses the exact value only while each is within one ulp of
    # it; a platform whose libm or numpy errs by more must fail here
    rng = np.random.default_rng(15)
    exp_xs = np.concatenate([rng.uniform(-700.0, 700.0, 1500),
                             rng.uniform(-5.0, 5.0, 1500)])
    log_xs = np.concatenate([10.0 ** rng.uniform(-300.0, 300.0, 1500),
                             rng.uniform(0.25, 4.0, 1500)])
    cases = [("exp", mpmath.exp, exp_xs, math.exp, np.exp),
             ("log", mpmath.log, log_xs, math.log, np.log)]
    with mpmath.workprec(120):
        for name, exact_fn, xs, scalar, array in cases:
            for x, by_math, by_numpy in zip(xs.tolist(),
                                            map(scalar, xs.tolist()),
                                            array(xs).tolist()):
                exact = exact_fn(mpmath.mpf(x))
                for lib, y in (("math", by_math), ("numpy", by_numpy)):
                    assert (math.nextafter(y, -math.inf) <= exact
                            <= math.nextafter(y, math.inf)), (lib, name, x)


def test_log_rejects_nonpositive():
    with pytest.raises(DomainError):
        ilog(Interval(-1.0, 2.0))


def test_sqr_no_dependency_loss():
    z = isqr(Interval(-2.0, 3.0))
    assert z.lo == 0.0
    assert z.hi >= 9.0


@pytest.mark.parametrize("lo, hi", [(1e-200, 1e-199), (-1e-199, -1e-200),
                                    (1e-200, 1e-200), (5e-324, 1e-160)])
def test_an_underflowing_square_keeps_lower_end_zero(lo, hi):
    # the float square is 0, so nx(0.0, -inf) = -5e-324 would put a
    # square below the 0.0 that isqr gives an interval holding 0
    want = (0.0, isqr(Interval(lo, hi)).hi)
    assert isqr(Interval(lo, hi)) == want
    ct = compile_terms([parse_term("x1*x1")])
    assert interval_eval_compiled(ct, Box.from_bounds([(lo, hi)]))[0] == want
    (clo, chi), = eval_cells(ct, [np.array([lo])], [np.array([hi])])
    assert (clo[0], chi[0]) == want
    assert tuple(map(float, CellArith().sqr((lo, hi)))) == want
    # generated code squares a point (the Krawczyk midpoint) in one product
    w = _TapeWriter()
    ends = w.sqr(("x", "x"))
    point = w.function("x", "({}, {})".format(*ends))
    assert point(lo) == (0.0, isqr(Interval(lo, lo)).hi)


# ---------------------------------------------------------------------------
# boxes

def test_box_cube_and_bounds():
    b = Box.cube(2.0, 3)
    assert b.n == 3
    assert b.max_width == 4.0
    assert b.contains([0.0, 1.9, -2.0])
    assert not b.contains([2.1, 0.0, 0.0])
    back = Box.from_bounds(b.bounds())
    assert back.bounds() == b.bounds()


def test_subdivide_splits_widest_axis():
    b = Box.from_bounds([(0.0, 1.0), (0.0, 4.0)])
    left, right = subdivide(b)
    assert left.coords[0].width == 1.0
    assert left.coords[1].hi == right.coords[1].lo == 2.0


def test_subdivide_point_box_rejected():
    with pytest.raises(DomainError):
        subdivide(Box.from_bounds([(1.0, 1.0)]))


def test_split_step_pushes_halves_left_on_top():
    stack = []
    assert split_step(stack, Box.from_bounds([(0.0, 1.0), (0.0, 4.0)]), 3, 10)
    # the widest axis is halved, and the left half is popped first
    (left, dl), (right, dr) = stack.pop(), stack.pop()
    assert left.bounds() == [(0.0, 1.0), (0.0, 2.0)] and dl == 4
    assert right.bounds() == [(0.0, 1.0), (2.0, 4.0)] and dr == 4


def test_split_step_stops_at_the_depth_cap_and_at_zero_width():
    stack = []
    assert not split_step(stack, Box.cube(1.0, 2), 10, 10)
    assert not split_step(stack, Box.from_bounds([(1.0, 1.0)]), 0, 10)
    assert stack == []


def test_midpoint_never_overflows():
    for lo, hi in ((9e307, 1e308), (-1e308, -9e307), (_MAX, _MAX),
                   (-_MAX, -_MAX), (1e308, _MAX)):
        m = Interval(lo, hi).mid
        assert math.isfinite(m) and lo <= m <= hi
    # finite sums keep the plain formula's bits
    for lo, hi in ((1.0, 3.0), (-_MAX, _MAX), (5e-324, 5e-324), (0.1, 0.7)):
        assert Interval(lo, hi).mid.hex() == (0.5 * (lo + hi)).hex()


def test_subdivide_near_the_end_of_the_double_range():
    left, right = subdivide(Box.from_bounds([(1e308, 1.7e308)]))
    m = left.coords[0].hi
    assert m == right.coords[0].lo and 1e308 < m < 1.7e308


def test_box_is_the_tuple_of_its_intervals(abel):
    b = Box.from_bounds([(0.0, 1.0), (-1.0, 1.0)])
    coords = (Interval(0.0, 1.0), Interval(-1.0, 1.0))
    assert not dataclasses.is_dataclass(Box)
    assert b == coords == ((0.0, 1.0), (-1.0, 1.0))
    assert hash(b) == hash(coords)
    assert b.coords == tuple(b) and type(b.coords) is tuple
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(b, protocol))
        assert type(back) is Box and back == b
        assert all(type(c) is Interval for c in back)
    for empty in (lambda: Box(()), lambda: Box.cube(1.0, 0)):
        with pytest.raises(DomainError, match="box needs at least one coordinate"):
            empty()
    res = krawczyk_test(build_system(["x1*x1 - 2"], abel=abel),
                        Box.from_bounds([(1.0, 2.0)]))
    assert type(res.contracted) is Box
    assert all(type(c) is Interval for c in res.contracted)


# census._inflate and subdivide on floats against their Interval forms

def _box_bits(box):
    assert type(box) is Box and all(type(c) is Interval for c in box)
    return [(lo.hex(), hi.hex()) for lo, hi in box]


def _outcome(fn, *args):
    try:
        got = fn(*args)
    except Exception as e:  # compared by type and message
        return type(e), str(e)
    return [_box_bits(b) for b in got] if type(got) is tuple else _box_bits(got)


def _same_as_helpers(box, outer):
    assert _outcome(_inflate, box, outer) == \
        _outcome(inflate_by_helpers, box, outer), (box, outer)
    assert _outcome(subdivide, box) == \
        _outcome(subdivide_by_helpers, box), box
    # split_step pushes subdivide's halves, right then left
    stack = []
    assert not split_step(stack, box, 5, 5) and stack == []
    if max(c.width for c in box) == 0.0:
        assert not split_step(stack, box, 0, 5) and stack == []
    else:
        assert split_step(stack, box, 0, 5)
        assert [_box_bits(b) for b, _ in reversed(stack)] == \
            _outcome(subdivide_by_helpers, box), box


_ENDS = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 1.0, -1.0, 0.1,
         1.7e308, -1.7e308, _MAX, -_MAX, math.inf, -math.inf)
_ENDS_IV = [Interval(a, b) for a in _ENDS for b in _ENDS if a <= b]


def test_float_box_steps_keep_every_bit_on_special_ends():
    # every 1-D box against every 1-D root box, which need not contain it,
    # then 2-D children of a root box, clamped by it
    for c, o in itertools.product(_ENDS_IV, repeat=2):
        _same_as_helpers(Box((c,)), Box((o,)))
    root = Box.from_bounds([(-1.7e308, 1.7e308), (0.0, 1.0)])
    for c, d in itertools.product(_ENDS_IV, repeat=2):
        if Box((c, d)).within(root):
            _same_as_helpers(Box((c, d)), root)


def test_float_box_steps_raise_as_the_helpers_on_a_nan_end():
    # a NaN end of the box makes a NaN end; one of the root box is passed
    # over by max and min, and so by the comparisons
    nan = math.nan
    ok = Interval(0.0, 1.0)
    for lo, hi in ((nan, 1.0), (0.0, nan), (nan, nan)):
        bad = tuple.__new__(Interval, (lo, hi))
        for box, outer in ((Box((bad,)), Box((ok,))), (Box((ok, bad)), Box((ok, ok))),
                           (Box((ok,)), Box((bad,)))):
            got = _outcome(_inflate, box, outer)
            assert got == _outcome(inflate_by_helpers, box, outer)
            assert (got[0] is DomainError) == (bad in box)


_ends = st.floats(allow_nan=False)


@settings(max_examples=500)
@given(st.lists(st.lists(_ends, min_size=4, max_size=4), min_size=1,
                max_size=3), st.booleans())
def test_float_box_steps_keep_every_bit(ends, nested):
    # nested: each coordinate of the box inside the root box's, as in a
    # census; otherwise two independent boxes
    if nested:
        ends = [sorted(e) for e in ends]
        box = Box(Interval(b, c) for _, b, c, _ in ends)
        outer = Box(Interval(a, d) for a, _, _, d in ends)
    else:
        box = Box(Interval(*sorted(e[:2])) for e in ends)
        outer = Box(Interval(*sorted(e[2:])) for e in ends)
    _same_as_helpers(box, outer)


# ---------------------------------------------------------------------------
# term enclosures

_leaf = st.one_of(
    st.integers(0, 1).map(var),
    st.floats(-2.0, 2.0, allow_nan=False).map(const))


def _trees(depth):
    if depth == 0:
        return _leaf
    inner = _trees(depth - 1)
    return st.one_of(
        _leaf,
        st.tuples(inner, inner).map(lambda p: add(*p)),
        st.tuples(inner, inner).map(lambda p: mul(*p)),
        st.tuples(inner, inner).map(lambda p: sub(*p)),
        inner.map(neg),
        inner.map(exp),
        inner.map(phi),
        inner.map(dphi))


_coord = st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 1.5))


@settings(max_examples=150, deadline=None)
@given(_trees(3), _coord, _coord)
def test_enclosure_soundness(abel, t, c0, c1):
    box = Box.from_bounds([(c0[0], c0[0] + c0[1]), (c1[0], c1[0] + c1[1])])
    try:
        rng = interval_eval(t, box, abel)
        v = eval_term(t, box.midpoint(), abel)
    except DomainError:
        return
    assert rng.lo <= v <= rng.hi


def test_enclosure_isotone(abel):
    t = parse_term("phi(x1)*exp(x2) - x1*x1")
    outer = Box.from_bounds([(-1.0, 2.0), (-1.0, 1.0)])
    inner = Box.from_bounds([(0.0, 1.0), (-0.5, 0.5)])
    ro = interval_eval(t, outer, abel)
    ri = interval_eval(t, inner, abel)
    assert ro.lo <= ri.lo and ri.hi <= ro.hi


class _Huge(Exception):
    """An exact value past exp(690), whose exp mpmath could not hold."""


def _mp_exp(x):
    if x > 690:
        raise _Huge
    return mpmath.exp(x)


# the catalog primitives as exact functions: value and derivative
_MP_PRIMS = {"sin": (mpmath.sin, mpmath.cos),
             "cos": (mpmath.cos, lambda x: -mpmath.sin(x)),
             "atan": (mpmath.atan, lambda x: 1 / (1 + x * x))}


class _MpArith:
    """mpmath numbers for run_tape: a tape's value and gradient at a
    point, to far below a float's ulp at 50 digits."""

    const = staticmethod(mpmath.mpf)
    add = staticmethod(operator.add)
    mul = staticmethod(operator.mul)
    sqr = staticmethod(lambda x: x * x)
    neg = staticmethod(operator.neg)
    exp = staticmethod(_mp_exp)
    log = staticmethod(mpmath.log)
    log_factor = staticmethod(lambda x: 1 / x)
    ra = staticmethod(lambda prim, x: _MP_PRIMS[prim.name][0](x))
    ra_factor = staticmethod(lambda prim, x: _MP_PRIMS[prim.name][1](x))


def _exact_terms():
    cat = default_catalog()

    def extend(inner):
        pair = st.tuples(inner, inner)
        return st.one_of(
            pair.map(lambda p: add(*p)), pair.map(lambda p: mul(*p)),
            inner.map(lambda t: mul(t, t)), inner.map(neg),
            inner.map(exp), inner.map(lambda t: exp(exp(t))), inner.map(log),
            # a log whose argument stays positive
            inner.map(lambda t: log(add(mul(t, t), const(0.5)))),
            *(inner.map(lambda t, p=cat[name]: ra(p, t))
              for name in _MP_PRIMS))

    return st.recursive(_leaf, extend, max_leaves=5)


_side = st.tuples(st.floats(-3.0, 3.0), st.floats(-12.0, 0.0))


@settings(max_examples=100, deadline=None)
@given(st.lists(_exact_terms(), min_size=1, max_size=2), _side, _side,
       st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                min_size=3, max_size=3))
def test_generated_passes_enclose_the_exact_values(terms, s0, s1, drawn):
    """The value and Jacobian passes over a box of widths 1e-12 to 1, and
    the value pass over a point box [p, p] (as f(m) is enclosed), hold
    the exact values and gradients at the box's corners, its midpoint and
    drawn points of it."""
    ct = compile_terms(terms)
    box = Box.from_bounds([(c, c + 10.0 ** e) for c, e in (s0, s1)])
    try:
        vals, jac = interval_jacobian_compiled(ct, box)
    except DomainError:
        return
    assert interval_eval_compiled(ct, box) == vals
    (x0, x1), (y0, y1) = box
    points = [[x, y] for x in (x0, x1) for y in (y0, y1)] + [box.midpoint()]
    points += [[min(x0 + u * (x1 - x0), x1), min(y0 + v * (y1 - y0), y1)]
               for u, v in drawn]
    with mpmath.workdps(50):
        for p in points:
            try:
                exact, grads = run_tape(ct, [mpmath.mpf(v) for v in p],
                                        _MpArith, grad=True)
            except _Huge:
                continue
            at_p = interval_eval_compiled(ct, Box.from_bounds(
                [(v, v) for v in p]))
            for r, v in enumerate(exact):
                assert vals[r].lo <= v <= vals[r].hi, (r, box, p)
                assert at_p[r].lo <= v <= at_p[r].hi, (r, p)
                for j, g in enumerate(grads[r]):
                    assert jac[r][j].lo <= g <= jac[r][j].hi, (r, j, box, p)


# ---------------------------------------------------------------------------
# Krawczyk certifier

def test_krawczyk_unique_sqrt2(abel):
    sys_ = build_system(["x1*x1 - 2"], abel=abel)
    res = krawczyk_test(sys_, Box.from_bounds([(1.0, 2.0)]))
    assert res.verdict == "UniqueZero"
    assert res.contracted.contains([math.sqrt(2.0)])


def test_krawczyk_no_zero(abel):
    sys_ = build_system(["x1*x1 - 2"], abel=abel)
    assert krawczyk_test(sys_, Box.from_bounds([(3.0, 4.0)])).verdict == "NoZero"


def test_krawczyk_unique_circle_line(abel):
    sys_ = build_system(["x1*x1 + x2*x2 - 1", "x1 - x2"], abel=abel)
    s = math.sqrt(0.5)
    box = Box.from_bounds([(s - 0.1, s + 0.1), (s - 0.1, s + 0.1)])
    assert krawczyk_test(sys_, box).verdict == "UniqueZero"


def test_krawczyk_singular_zero_unknown(abel):
    sys_ = build_system(["x1*x1"], abel=abel)
    res = krawczyk_test(sys_, Box.from_bounds([(-0.5, 0.5)]))
    assert res.verdict == "Unknown"


def test_krawczyk_phi_system(abel):
    sys_ = build_system(["phi(x1) - 0.5"], abel=abel)
    res = krawczyk_test(sys_, Box.from_bounds([(1.2, 2.0)]))
    assert res.verdict == "UniqueZero"
    assert res.contracted.contains([1.646292558082848])


@pytest.mark.parametrize("w", [1e-9, 1e-10, 1e-11, 1e-12, 1e-13])
def test_krawczyk_encloses_midpoint_value(abel, w):
    # a flat expanded cubic: its float value at the midpoint is pure
    # rounding, so only an enclosure of f(m) keeps the zero in the box
    c = 1.000000000000001
    with mpmath.workdps(40):
        r = 1 + mpmath.cbrt(mpmath.mpf(c) - 1)
    sys_ = build_system([f"x1*x1*x1 - 3*x1*x1 + 3*x1 - {c!r}"], abel=abel)
    box = Box.from_bounds([(float(r) - w, float(r) + w)])
    assert box.coords[0].lo < r < box.coords[0].hi
    assert krawczyk_test(sys_, box).verdict != "NoZero"


def test_krawczyk_dimension_mismatch(abel):
    # the check runs before a tape's pass of each n is cached, so it fires
    # on a fresh tape and again once the tape's n = 2 pass has run
    sys_ = build_system(["x1*x1 + x2*x2 - 1", "x1 - x2"], abel=abel)

    def wrong_dimensions_raise():
        for n in (1, 3):
            with pytest.raises(DomainError, match=fr"^system has 2 equations, "
                                                  fr"box dimension {n}$"):
                krawczyk_test(sys_, Box.cube(1.0, n))

    wrong_dimensions_raise()
    krawczyk_test(sys_, Box.cube(1.0, 2))
    assert ("interval", "krawczyk", 2) in sys_.compiled.cache
    wrong_dimensions_raise()
