"""Interval arithmetic, boxes, enclosures, and the Krawczyk certifier."""

import itertools
import math
import pickle
import sys

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from slogcensus.abel import EXP_MAX, exp_sat
from slogcensus.census import build_system
from slogcensus.errors import DomainError
from slogcensus.intervals import (Box, Interval, iadd, iexp, ilog, imul,
                                  iinv_pos, ineg, interval_eval, iscale,
                                  isqr, isub, krawczyk_test, subdivide)
from slogcensus.terms import (add, const, dphi, eval_term, exp, mul, neg,
                              parse_term, phi, sub, var)

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
    if x[0] <= 0.0 <= x[1]:
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
_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 0.1, _MAX, -_MAX,
            math.inf, -math.inf)
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


def test_log_rejects_nonpositive():
    with pytest.raises(DomainError):
        ilog(Interval(-1.0, 2.0))


def test_sqr_no_dependency_loss():
    z = isqr(Interval(-2.0, 3.0))
    assert z.lo == 0.0
    assert z.hi >= 9.0


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
    sys_ = build_system(["x1*x1 + x2*x2 - 1", "x1 - x2"], abel=abel)
    with pytest.raises(DomainError):
        krawczyk_test(sys_, Box.from_bounds([(0.0, 1.0)]))
