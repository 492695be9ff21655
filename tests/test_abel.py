"""Super-logarithm construction: anchors, smoothness, growth, inversion."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import brentq

from slogcensus.abel import (AbelFunction, _horner, build_abel,
                             get_default_abel)
from slogcensus.errors import BuildError, DomainError
from slogcensus.terms import exp_n, log_n

_E = math.e


# ---------------------------------------------------------------------------
# construction and anchors

def test_default_is_cached():
    assert get_default_abel() is get_default_abel()


def test_anchor_values(abel):
    assert abel.eval_phi(1.0) == 0.0
    assert abel.eval_phi(0.0) == pytest.approx(-1.0, abs=1e-12)
    assert abel.eval_phi(_E) == pytest.approx(1.0, abs=1e-12)
    assert abel.eval_phi(math.exp(_E)) == pytest.approx(2.0, abs=1e-12)


def test_junction_jumps_within_tol(abel):
    jumps = abel.junction_jumps()
    for j in range(abel.order + 1):
        assert abs(jumps[j]) <= abel.tol


def test_abel_equation_residual(abel):
    assert abel.abel_residual(abel.residual_grid(-5.0, 5.0, 10_000)) <= 1e-8


def test_abel_equation_far_left(abel):
    # junction recursion also holds where phi hugs its horizontal asymptote
    for x in [-40.0, -12.0, -3.0]:
        lhs = abel.eval_phi(math.exp(x))
        assert lhs == pytest.approx(abel.eval_phi(x) + 1.0, abs=1e-10)


def test_left_asymptote(abel):
    assert abel.eval_phi(-30.0) == pytest.approx(-2.0, abs=1e-10)
    # strictness above -2 is float-representable down to about -33; the
    # deeper tail rounds to exactly -2.0
    xs = np.linspace(-50.0, 0.0, 501)
    vals = abel.eval_phi_array(xs)
    assert np.all(vals >= -2.0)
    assert np.all(vals <= -1.0)
    near = abel.eval_phi_array(np.linspace(-30.0, 0.0, 501))
    assert np.all(near > -2.0)


# ---------------------------------------------------------------------------
# monotonicity and derivative bounds

def test_strictly_increasing(abel):
    xs = np.unique(np.concatenate([
        np.linspace(-30.0, 5.0, 3000), np.geomspace(5.0, 1e8, 3000)]))
    vals = abel.eval_phi_array(xs)
    assert np.all(np.diff(vals) > 0.0)


def test_derivative_positive_and_decaying(abel):
    xs = np.geomspace(1e-6, 1e6, 2001)
    dv = abel.eval_dphi_array(xs)
    assert np.all(dv > 0.0)
    decades = [abel.eval_dphi(10.0 ** k) for k in (2, 4, 8)]
    assert decades[0] > decades[1] > decades[2]


def test_published_derivative_constants(abel):
    assert abel.sup_dphi_fundamental == pytest.approx(0.914406, abs=5e-7)
    assert abel.sup_dphi_global == pytest.approx(1.047196, abs=5e-7)
    assert abel.sup_dphi_global >= 1.0
    assert abel.sup_dphi_nonpos < 1.0
    assert abel.inf_dphi_fundamental > 0.0


def test_derivative_matches_finite_differences(abel):
    for x in [0.3, 1.7, 5.0, 40.0, -2.0]:
        h = 1e-5 * max(1.0, abs(x))
        fd = (abel.eval_phi(x + h) - abel.eval_phi(x - h)) / (2 * h)
        assert abel.eval_dphi(x) == pytest.approx(fd, rel=1e-7)
        fd2 = (abel.eval_dphi(x + h) - abel.eval_dphi(x - h)) / (2 * h)
        assert abel.eval_d2phi(x) == pytest.approx(fd2, rel=1e-5, abs=1e-10)


def test_array_evaluators_on_a_float_equal_the_scalar_ones(abel):
    # a reduced system's phi patches are the array evaluators, and point
    # evaluation (Newton polishing, gradients) hands them one float at a time
    pairs = [(abel.eval_phi_array, abel.eval_phi),
             (abel.eval_dphi_array, abel.eval_dphi),
             (abel.eval_d2phi_array, abel.eval_d2phi)]
    for x in np.linspace(-50.0, 50.0, 4001):
        x = float(x)
        for array_fn, scalar_fn in pairs:
            assert array_fn(x) == scalar_fn(x), (array_fn.__name__, x)


def _full_walk(x):
    # the band walk that updates every factor at every step
    shift, d1, c2, c1 = 0, 1.0, 1.0, 0.0
    while x > _E:
        d1 /= x
        inv = 1.0 / x
        c1 = (c1 - c2 * inv) * inv
        c2 = c2 * inv * inv
        x = math.log(x)
        shift += 1
    while x < 1.0:
        x = math.exp(x)
        d1 *= x
        c1 = c2 * x + c1 * x
        c2 = c2 * x * x
        shift -= 1
    return x, shift, d1, c2, c1


_SPECIAL_X = [v for x in (0.0, 1.0, _E, 1e300)
              for y in (math.nextafter(x, -math.inf), x,
                        math.nextafter(x, math.inf))
              for v in (y, -y)]


@given(st.one_of(st.sampled_from(_SPECIAL_X),
                 st.floats(allow_nan=False, allow_infinity=False)))
def test_each_derivative_walks_only_what_it_reads(x):
    # phi, phi' and phi'' each update only their own factors on the walk
    # to [1, e]; the floats are those of the walk that updates them all
    abel = get_default_abel()
    y, shift, d1, c2, c1 = _full_walk(x)
    u = y - 1.0
    want = [_horner(abel._p_desc, u) + shift,
            d1 * _horner(abel._dp_desc, u),
            c2 * _horner(abel._d2p_desc, u) + c1 * _horner(abel._dp_desc, u)]
    got = [abel.eval_phi(x), abel.eval_dphi(x), abel.eval_d2phi(x)]
    assert [v.hex() for v in got] == [v.hex() for v in want]


@pytest.mark.parametrize("lo_end,hi_end,log_scale", [
    (-5.0, 10.0, False),     # the junctions at 0, 1 and e
    (-300.0, -20.0, False),  # deep left: two or more exp steps
    (1e6, 1e300, True),      # far right: two or more log steps
])
def test_d2phi_array_matches_scalar(abel, lo_end, hi_end, log_scale):
    # the array walk steps with np.log/np.exp, the scalar one with math
    rng = np.random.default_rng(23)
    xs = rng.uniform(lo_end, hi_end, 2000) if not log_scale else \
        np.exp(rng.uniform(math.log(lo_end), math.log(hi_end), 2000))
    want = [abel.eval_d2phi(float(x)) for x in xs]
    np.testing.assert_allclose(abel.eval_d2phi_array(xs), want,
                               rtol=1e-13, atol=0.0)
    assert abel.eval_d2phi_array(xs.reshape(40, 50)).shape == (40, 50)


# ---------------------------------------------------------------------------
# interval enclosures

def test_interval_phi_encloses_samples(abel):
    for lo, hi in [(-3.0, -1.0), (0.5, 2.0), (10.0, 1e4), (-20.0, 30.0)]:
        a, b = abel.interval_phi(lo, hi)
        for x in np.linspace(lo, hi, 97):
            assert a <= abel.eval_phi(float(x)) <= b


def test_interval_dphi_encloses_samples(abel):
    for lo, hi in [(0.25, 0.5), (1.0, _E), (3.0, 7.0), (-5.0, 2.0)]:
        a, b = abel.interval_dphi(lo, hi)
        for x in np.linspace(lo, hi, 97):
            assert a - 1e-15 <= abel.eval_dphi(float(x)) <= b + 1e-15


def test_interval_d2phi_encloses_samples(abel):
    for lo, hi in [(0.5, 1.5), (2.0, 6.0), (-4.0, 0.0)]:
        a, b = abel.interval_d2phi(lo, hi)
        for x in np.linspace(lo, hi, 97):
            assert a - 1e-12 <= abel.eval_d2phi(float(x)) <= b + 1e-12


@pytest.mark.parametrize("lo,hi", [(3.0, math.inf), (-math.inf, math.inf)])
def test_interval_derivatives_reject_infinite_ends(abel, lo, hi):
    # log(inf) = inf, so the right end would never reach the band; the
    # enclosures reject such ends before splitting
    for enclosure in (abel.interval_dphi, abel.interval_d2phi):
        with pytest.raises(DomainError, match="need finite ends"):
            enclosure(lo, hi)


def _mp_phi_jet(abel, x):
    """(phi, phi', phi'') at x in 50-digit arithmetic, by the chain rules."""
    if x > mpmath.e:
        y = mpmath.log(x)
        p, d1, d2 = _mp_phi_jet(abel, y)
        return p + 1, d1 / x, (d2 - d1) / (x * x)
    if x < 1:
        y = mpmath.exp(x)
        p, d1, d2 = _mp_phi_jet(abel, y)
        return p - 1, d1 * y, d2 * y * y + d1 * y
    u = x - 1
    coeffs = [mpmath.mpf(c) for c in abel.coeffs]  # p(y) = sum a_m u^(m+1)
    p = sum(c * u ** (m + 1) for m, c in enumerate(coeffs))
    d1 = sum((m + 1) * c * u ** m for m, c in enumerate(coeffs))
    d2 = sum((m + 1) * m * c * u ** (m - 1)
             for m, c in enumerate(coeffs) if m >= 1)
    return p, d1, d2


@pytest.mark.parametrize("lo_end,hi_end,log_scale", [
    (-5.0, 10.0, False),     # the junctions at 0, 1 and e
    (-300.0, -20.0, False),  # deep left: two or more exp steps
    (1e6, 1e300, True),      # far right: two or more log steps
])
def test_interval_enclosures_contain_high_precision_values(
        abel, lo_end, hi_end, log_scale):
    # reduced systems enclose phi, phi' and phi'' through these routines
    # alone, so each must hold the true value, not just the float one
    rng = np.random.default_rng(17)
    enclosures = (abel.interval_phi, abel.interval_dphi, abel.interval_d2phi)
    with mpmath.workdps(50):
        for _ in range(12):
            ends = rng.uniform(lo_end, hi_end, 2) if not log_scale else \
                np.exp(rng.uniform(math.log(lo_end), math.log(hi_end), 2))
            lo, hi = sorted(float(v) for v in ends)
            boxes = [f(lo, hi) for f in enclosures]
            for x in [lo, hi] + [float(v) for v in rng.uniform(lo, hi, 6)]:
                jet = _mp_phi_jet(abel, mpmath.mpf(x))
                for k, ((a, b), v) in enumerate(zip(boxes, jet)):
                    assert a <= v <= b, (k, lo, hi, x, a, float(v), b)


# ---------------------------------------------------------------------------
# inverse

def test_trans_exp_anchors(abel):
    assert abel.trans_exp(0.0) == pytest.approx(1.0, abs=1e-12)
    assert abel.trans_exp(1.0) == pytest.approx(_E, rel=1e-12)
    assert abel.trans_exp(-1.0) == pytest.approx(0.0, abs=1e-10)


def test_trans_exp_roundtrip(abel):
    for x in np.geomspace(0.1, 1e4, 301):
        y = abel.trans_exp(abel.eval_phi(float(x)))
        assert abs(y - x) <= 1e-9 * (1.0 + abs(x))


def test_trans_exp_domain(abel):
    with pytest.raises(DomainError):
        abel.trans_exp(-2.0)
    with pytest.raises(DomainError):
        abel.trans_exp(abel.phi_top * 1.001)
    assert math.isfinite(abel.trans_exp(abel.phi_top))


def test_phi_top_value(abel):
    assert abel.phi_top == pytest.approx(3.639250548464765, rel=1e-12)


def test_check_transexp(abel):
    # x - phi(x) > i certifies trans_exp(x) > exp_i(x) at that point
    assert abel.check_transexp(1, 5.0)
    assert abel.check_transexp(2, 5.0)
    assert abel.check_transexp(3, 5.0)
    assert not abel.check_transexp(3, 1.0)


# ---------------------------------------------------------------------------
# iterated exponentials and domination

def test_exp_log_towers():
    assert exp_n(1.0, 0) == 1.0
    assert exp_n(0.0, 2) == pytest.approx(_E)
    assert log_n(exp_n(1.0, 3), 3) == pytest.approx(1.0, rel=1e-12)
    assert exp_n(709.79, 1) == exp_n(7.0, 3) == math.inf


def test_domination_threshold_level_one(abel):
    rep = abel.check_domination(1, _E, 1e6)
    assert rep.found
    assert rep.threshold == pytest.approx(_E, rel=1e-12)


def test_domination_threshold_level_two(abel):
    # |phi(x)| <= log log x iff y - phi(y) >= 2 at y = log log x, so the
    # crossing sits at exp(exp(y2)) with y2 the level-2 onset (about 7.28e9)
    y2 = brentq(lambda y: y - abel.eval_phi(y) - 2.0, 3.0, 3.3, xtol=1e-14)
    x2 = math.exp(math.exp(y2))
    rep = abel.check_domination(2, 1e8, 1e10)
    step = (1e10 / 1e8) ** (1.0 / (rep.samples - 1)) - 1.0
    assert rep.found
    assert x2 <= rep.threshold <= x2 * (1.0 + step)
    # a window that ends before the crossing has no threshold
    assert not abel.check_domination(2, _E, 1e8).found


def test_domination_scan_guards(abel):
    with pytest.raises(DomainError):
        abel.check_domination(3, _E, 1e6)
    with pytest.raises(DomainError):
        abel.check_domination(2, 1.0, 1e6)  # log log too small at the left end


# ---------------------------------------------------------------------------
# serialization and validation

def test_save_load_roundtrip(abel, tmp_path):
    path = tmp_path / "seed.json"
    abel.save(str(path))
    back = AbelFunction.load(str(path))
    assert back.coeffs == abel.coeffs
    assert back.order == abel.order
    assert back.eval_phi(0.7) == abel.eval_phi(0.7)


def test_load_rejects_corrupt_seed(abel, tmp_path):
    import json
    doc = json.loads(abel.to_json())
    doc["coeffs"][2] += 1e-3
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(BuildError):
        AbelFunction.load(str(path))
    # validation can be deferred for inspection
    loose = AbelFunction.load(str(path), validate=False)
    with pytest.raises(BuildError):
        loose.validate()


def test_from_json_malformed():
    with pytest.raises(BuildError):
        AbelFunction.from_json("{}")


@pytest.mark.parametrize("field, value", [
    ("coeffs", ["a", 0, 0, 0, 0, 0, 0]), ("coeffs", 5), ("coeffs", "0123456"),
    ("coeffs", [None] * 7), ("coeffs", [True] * 7),
    ("coeffs", [math.nan] * 7), ("coeffs", [10 ** 400] * 7),
    ("order", math.inf), ("order", 3.7), ("order", 3.0), ("order", "3"),
    ("order", True), ("tol", "1e-8"), ("tol", True), ("tol", None),
    ("tol", math.inf), ("tol", math.nan), ("format_version", True),
    ("format_version", 1.0), ("format_version", "1")], ids=[
    "coeffs-text", "coeffs-number", "coeffs-string", "coeffs-null",
    "coeffs-bool", "coeffs-nan", "coeffs-huge-int", "order-inf",
    "order-fraction", "order-float", "order-string", "order-bool",
    "tol-string", "tol-bool", "tol-null", "tol-inf", "tol-nan",
    "version-bool", "version-float", "version-string"])
def test_from_json_rejects_fields_that_are_not_numbers(abel, field, value):
    # each of these once escaped from_json as a ValueError, TypeError or
    # OverflowError, or was read as a seed (an order of 3.7 as 3, a tol
    # of "1e-8" as 1e-8)
    import json
    doc = json.loads(abel.to_json())
    doc[field] = value
    with pytest.raises(BuildError, match="malformed seed file"):
        AbelFunction.from_json(json.dumps(doc), validate=False)


def test_from_json_accepts_an_integer_tol(abel):
    import json
    doc = json.loads(abel.to_json())
    doc["tol"] = 1
    assert AbelFunction.from_json(json.dumps(doc), validate=False).tol == 1.0


def test_coefficients_that_overflow_their_derivatives_are_rejected(abel):
    # 7 * 1e308 is inf: the derivative tables would hold it, and np.roots
    # of them would fail with LinAlgError
    with pytest.raises(BuildError, match="overflow their derivatives"):
        AbelFunction([1e308] * 7, 3, 1e-8, validate=False)


def test_build_rejects_bad_arguments():
    with pytest.raises(BuildError):
        build_abel(order=5)
    with pytest.raises(BuildError):
        build_abel(tol=-1.0)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
def test_a_seed_takes_only_a_finite_positive_tol(abel, tol):
    # every thresholds of slog-check scales with tol: an infinite one
    # would pass each check
    with pytest.raises(BuildError, match="tol must be finite and positive"):
        build_abel(tol=tol)
    with pytest.raises(BuildError, match="tol must be finite and positive"):
        AbelFunction(abel.coeffs, abel.order, tol, validate=False)


def test_lower_order_build():
    a2 = build_abel(order=2)
    assert a2.abel_residual(a2.residual_grid(-5.0, 5.0, 2000)) <= a2.tol
    jumps = a2.junction_jumps()
    assert all(abs(j) <= a2.tol for j in jumps[: a2.order + 1])
