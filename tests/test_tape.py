"""One tape walker, four arithmetics: floats, intervals, point arrays and
cell arrays must agree with each other on every opcode."""

import gc
import math
import re
import sys
import weakref
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slogcensus import intervals
from slogcensus.abel import AbelFunction, build_abel
from slogcensus.census import (build_system, count_nonsingular_zeros,
                              reduce_phi_complexity)
from slogcensus.errors import DifferentiationError, DomainError
from slogcensus.gridoracle import (GridSpec, eval_cells, eval_points,
                                   gradient_points, membership_mask)
from slogcensus.intervals import (HOT_CALLS, Box, Interval, IntervalArith,
                                  _krawczyk_rows, iadd, imul,
                                  interval_eval, interval_eval_compiled,
                                  interval_jacobian_compiled, iscale, isub,
                                  krawczyk_test)
from slogcensus.morse import prove_empty
from slogcensus.terms import (RA, CompiledTerms, RAPrimitive,
                              abel_primitives, add, add_all, compile_terms,
                              const, default_catalog, eval_compiled,
                              eval_term, exp, gradient, gradient_compiled,
                              log, mul, mul_all, neg, parse_term, ra,
                              run_tape, var)

# every tape reads both variables, so gradients have two entries
SOURCES = [
    "exp(x1)*x2 - x1*x1 + 0.5",
    "log(x1*x1 + 1.0) - phi(x2)",
    "dphi(x1*x2) + sin(x1)*atan(x2)",
]
# boxes are drawn inside this cube, where every tape is defined
RADIUS = 1.5


def _tapes(abel):
    tapes = [compile_terms([parse_term(s)]) for s in SOURCES]
    # restricted phi and phi' primitives with derivative chains, from
    # the phi elimination
    reduced = reduce_phi_complexity(
        build_system(["phi(x1) - x2", "dphi(x2)*x1"], abel=abel), 2.0)
    return tapes + [reduced.compiled]


def _boxes(count=12, seed=5):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        c = rng.uniform(-RADIUS + 0.2, RADIUS - 0.2, 2)
        w = rng.uniform(0.01, 0.2, 2)
        out.append(Box.from_bounds(list(zip(c - w, c + w))))
    return out


def _samples(box, rng, count=4):
    lo = np.array([c.lo for c in box.coords])
    hi = np.array([c.hi for c in box.coords])
    return [list(lo), list(hi)] + [list(rng.uniform(lo, hi))
                                   for _ in range(count)]


def test_tapes_cover_every_opcode(abel):
    codes = {op[0] for ct in _tapes(abel) for op in ct.ops}
    assert codes == set(range(RA + 1))
    prims = {op[3].name for ct in _tapes(abel) for op in ct.ops
             if isinstance(op[3], RAPrimitive)}
    assert {"sin", "atan"} <= prims
    assert any(name.startswith("slog_patch") for name in prims)


def test_four_arithmetics_agree(abel):
    rng = np.random.default_rng(11)
    boxes = _boxes()
    for ct in _tapes(abel):
        points = []
        for box in boxes:
            ranges = interval_eval_compiled(ct, box)
            _, jac = interval_jacobian_compiled(ct, box)
            for p in _samples(box, rng):
                vals = eval_compiled(ct, p)
                gvals, grads = gradient_compiled(ct, p)
                assert gvals == vals
                points.append((p, vals, grads))
                for r, v in enumerate(vals):
                    assert ranges[r].contains(v), (ct.roots[r], box, p)
                    for j, g in enumerate(grads[r]):
                        assert jac[r][j].contains(g), (r, j, box, p)

        # point arrays against the float walk, to rounding of the
        # vectorised exp, log and phi routines
        coords = [np.array([p[j] for p, _, _ in points]) for j in range(2)]
        arr = eval_points(ct, coords)
        garr, gradarr = gradient_points(ct, coords)
        for k, (_, vals, grads) in enumerate(points):
            for r, v in enumerate(vals):
                assert arr[r][k] == pytest.approx(v, rel=1e-12, abs=1e-12)
                assert garr[r][k] == arr[r][k]
                for j, g in enumerate(grads[r]):
                    assert gradarr[r][j][k] == pytest.approx(
                        g, rel=1e-12, abs=1e-12)

        # cells: each box of the list is one cell
        los = [np.array([b.coords[j].lo for b in boxes]) for j in range(2)]
        his = [np.array([b.coords[j].hi for b in boxes]) for j in range(2)]
        cells = eval_cells(ct, los, his)
        per_box = len(points) // len(boxes)
        for k, (p, vals, _) in enumerate(points):
            cell = k // per_box
            for r, v in enumerate(vals):
                assert cells[r][0][cell] <= v <= cells[r][1][cell], (r, p)


def _every_walk(ct, point):
    """One call per evaluator at the point (as a one-cell grid and as a
    degenerate box)."""
    box = Box.from_bounds([(v, v) for v in point])
    arrays = [np.array([v]) for v in point]
    return {
        "eval_compiled": lambda: eval_compiled(ct, point),
        "gradient_compiled": lambda: gradient_compiled(ct, point),
        "interval_eval_compiled": lambda: interval_eval_compiled(ct, box),
        "interval_jacobian_compiled":
            lambda: interval_jacobian_compiled(ct, box),
        "eval_points": lambda: eval_points(ct, arrays),
        "gradient_points": lambda: gradient_points(ct, arrays),
        "eval_cells": lambda: eval_cells(ct, arrays, arrays),
    }


@pytest.mark.parametrize("source,point", [
    ("log(x1)", [-0.5]),
    ("log(x1 - x1)", [1.0]),
    ("sin(x1)", [3.0]),
    ("atan(x1*x1)", [1.6]),
])
def test_every_walk_rejects_points_outside_the_domain(source, point):
    cat = default_catalog(restriction=2.0)
    ct = compile_terms([parse_term(source, catalog=cat)])
    for walk in _every_walk(ct, point).values():
        with pytest.raises(DomainError):
            walk()


def test_gradients_of_a_primitive_without_derivative_fail_alike():
    # d3atan closes the catalog's atan chain and has no derivative
    ct = compile_terms([parse_term("d3atan(x1)")])
    walks = _every_walk(ct, [0.25])
    for name in ("gradient_compiled", "interval_jacobian_compiled",
                 "gradient_points"):
        with pytest.raises(DifferentiationError):
            walks[name]()
    for name in ("eval_compiled", "interval_eval_compiled", "eval_points",
                 "eval_cells"):
        walks[name]()


# ---------------------------------------------------------------------------
# generated straight-line code for hot interval tapes, against run_tape

_MAX = sys.float_info.max
_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 0.5, _MAX, -_MAX,
            math.inf, -math.inf)
# every ordered pair of special ends, point boxes included
_SPECIAL_IV = [(a, b) for a in _SPECIAL for b in _SPECIAL if a <= b]
# partners for them: infinite points, zeros against infinities
_PARTNERS = [(-math.inf, -math.inf), (math.inf, math.inf), (0.0, 0.0),
             (-0.0, math.inf), (-math.inf, 5e-324), (-math.inf, math.inf),
             (-_MAX, _MAX), (-1.0, 0.5), (5e-324, 5e-324), (0.5, 1.0)]
_SAFE = Box.from_bounds([(0.5, 0.6), (0.5, 0.6)])


def _generated_tapes(abel):
    """Tapes over x1 and x2 whose hot code has every opcode, folded
    constants of each kind, 0 * inf corners and domain faults."""
    cat = default_catalog(restriction=2.0)
    sources = [
        "x1*x2 - x1*x1 + 3.0*x1 - 0.5*x2 + 3.0*3.0*x2",
        "(x1 + x2)*(x1 - x2)",
        "(2.0 + 1.5*2.0)*x1*x2 + exp(1.0)*x2 - x1*(1.0 - 1.0)",
        "log(x1) + log(2.0) - sin(x2)*atan(x1)",
        "exp(x1 - x2)*x1*x1 + dphi(x2)*phi(x1)",
        "d3atan(x1) + x2",      # a primitive without derivative
    ]
    extra = [compile_terms([parse_term(s, catalog=cat)]) for s in sources]
    # a signed zero from the prologue (a -0.0 constant is 0.0), a
    # nonzero constant root and a log of a negative constant, which must
    # fail on every call
    extra.append(compile_terms([add(mul(neg(const(0.0)), var(0)),
                                    mul(const(-0.25), var(1))),
                                const(-2.5),
                                add(mul(var(0), var(1)), const(5e-324))]))
    extra.append(compile_terms([add(log(const(-1.0)), var(0)), var(1)]))
    return _tapes(abel) + extra


def _bits(x):
    if isinstance(x, Interval):
        return (x.lo.hex(), x.hi.hex())
    assert not isinstance(x, tuple), x
    return [_bits(v) for v in x]


def _outcome(fn):
    """Every bit of a result, or the type and message of its exception."""
    try:
        return _bits(fn())
    except Exception as exc:     # must match the reference's exactly
        return type(exc), str(exc)


def _generated(ct):
    """How many interval passes of the tape's shape have generated code."""
    passes = intervals._instance(ct)[0].passes.values()
    return sum(type(v) is not int for v in passes)


def _heat(ct, box=_SAFE):
    for _ in range(HOT_CALLS + 1):
        for walk in (interval_eval_compiled, interval_jacobian_compiled):
            try:
                walk(ct, box)
            except (DomainError, DifferentiationError):
                pass


def _generated_matches_run_tape(ct, box):
    """Compares both passes; returns run_tape's outcomes."""
    outcomes = []
    for grad, walk in ((False, interval_eval_compiled),
                       (True, interval_jacobian_compiled)):
        want = _outcome(lambda: run_tape(ct, box.coords, IntervalArith,
                                         grad=grad))
        got = _outcome(lambda: walk(ct, box))
        assert got == want, (grad, box)
        outcomes.append(want)
    return outcomes


@pytest.fixture(scope="module")
def hot_tapes(abel):
    tapes = _generated_tapes(abel)
    for ct in tapes:
        _heat(ct)
        assert _generated(ct) == 2
    return tapes


def test_generated_tapes_cover_every_opcode(hot_tapes):
    codes = {op[0] for ct in hot_tapes for op in ct.ops}
    assert codes == set(range(RA + 1))
    prims = {op[3].name for ct in hot_tapes for op in ct.ops
             if isinstance(op[3], RAPrimitive)}
    assert {"sin", "atan"} <= prims
    assert any(name.startswith("slog_patch") for name in prims)


def test_generated_code_keeps_every_bit_on_special_ends(hot_tapes):
    boxes = [Box.from_bounds(pair) for a in _SPECIAL_IV for b in _PARTNERS
             for pair in ([a, b], [b, a])]
    for ct in hot_tapes:
        for box in boxes:
            _generated_matches_run_tape(ct, box)


def test_generated_code_keeps_every_bit_on_small_boxes(hot_tapes):
    for ct in hot_tapes:
        for box in _boxes(count=40, seed=3):
            _generated_matches_run_tape(ct, box)


_end = st.floats(allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(_end, _end, _end, _end)
def test_generated_code_keeps_every_bit(hot_tapes, a, b, c, d):
    box = Box.from_bounds([(min(a, b), max(a, b)), (min(c, d), max(c, d))])
    for ct in hot_tapes:
        _generated_matches_run_tape(ct, box)


def test_generated_code_raises_what_run_tape_raises(hot_tapes):
    # log reaching 0 or below, RA arguments leaving [-2, 2], and the log of
    # a negative constant, which fails on every box
    boxes = [Box.from_bounds([(-1.0, 0.5), (0.5, 0.6)]),
             Box.from_bounds([(0.0, 0.5), (0.5, 0.6)]),
             Box.from_bounds([(0.5, 0.6), (1.5, 2.5)]),
             Box.from_bounds([(2.5, 3.0), (0.5, 0.6)])]
    faults = {DomainError: 0, DifferentiationError: 0}
    for ct in hot_tapes:
        for box in boxes:
            for want in _generated_matches_run_tape(ct, box):
                if want[0] in faults:
                    faults[want[0]] += 1
    assert faults[DomainError] >= 2 * (len(boxes) + 3)
    assert faults[DifferentiationError] >= 1


def test_a_pass_is_generated_once_it_has_run_hot_calls_times(fresh_shapes):
    ct = compile_terms([parse_term("x1*x2 + exp(x1)")])
    other = compile_terms([parse_term("x1*x2 + exp(x1)")])
    for _ in range(HOT_CALLS):
        interval_eval_compiled(ct, _SAFE)
        interval_jacobian_compiled(ct, _SAFE)
    assert _generated(ct) == 0
    interval_eval_compiled(ct, _SAFE)
    assert _generated(ct) == 1
    interval_jacobian_compiled(ct, _SAFE)
    passes = dict(intervals._instance(ct)[0].passes)
    assert len(passes) == 2
    interval_eval_compiled(ct, _SAFE)
    interval_jacobian_compiled(ct, _SAFE)
    assert intervals._instance(ct)[0].passes == passes
    # a second tape of the shape runs the same code from its first call
    interval_eval_compiled(other, _SAFE)
    interval_jacobian_compiled(other, _SAFE)
    assert intervals._instance(other)[0] is intervals._instance(ct)[0]
    assert {k: other.cache[("interval",) + k][0] for k in passes} == \
        {k: code[0] for k, code in passes.items()}
    # the cache takes no part in equality or repr
    assert ct == compile_terms([parse_term("x1*x2 + exp(x1)")])
    assert repr(ct) == repr(other) and "cache" not in repr(ct)


def test_generated_code_is_freed_when_its_shape_is_evicted(fresh_shapes):
    ct = compile_terms([parse_term("x1*x2 + exp(x1)")])
    _heat(ct)
    refs = [weakref.ref(code[0])
            for code in intervals._instance(ct)[0].passes.values()]
    assert len(refs) == 2
    del ct
    gc.collect()
    # the code outlives the tape: the next tape of the shape runs it at once
    again = compile_terms([parse_term("x1*x2 + exp(x1)")])
    interval_eval_compiled(again, _SAFE)
    assert again.cache[("interval", False, 2)][0] is refs[0]()
    del again
    # until SHAPE_CACHE other shapes have been looked up since
    for k in range(intervals.SHAPE_CACHE):
        interval_eval_compiled(compile_terms([var(k)]), Box.cube(1.0, k + 1))
    gc.collect()
    assert all(ref() is None for ref in refs)


# slot values for tapes of one shape: zero (a -0.0 constant is 0.0; the
# prologue's k0*k1 makes a signed zero), the least subnormal, ends whose
# products overflow, negatives (log of them fails)
_SLOTS = st.sampled_from((0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0,
                          -1.0, -2.5, 0.5)) | st.floats(
    allow_nan=False, allow_infinity=False)


def _instance(c):
    """A tape of one fixed shape with the four slot values c: point
    products, a product of slots, exp and log of slots, a slot root."""
    x1, x2 = var(0), var(1)
    k = [const(v) for v in c]
    return compile_terms([
        add_all([mul_all([k[0], x1, x2]), mul(k[1], x2), mul(exp(k[2]), x1)]),
        add_all([mul(log(k[3]), x1), mul(mul(k[0], k[1]), x2), k[1]]),
        k[2]])


def _reduced_instances(abel):
    # the same equations reduced at two radii: RA slots whose primitives
    # have different domains
    return [reduce_phi_complexity(build_system(
        ["phi(x1) - x2", "dphi(x2)*x1 - 0.5"], abel=abel), r).compiled
        for r in (1.0, 2.0)]


@pytest.fixture(scope="module")
def shared_shapes(abel):
    """A hot tape of each shape, with the code of its passes."""
    tapes = [_instance((0.5, -2.5, 1.0, 3.0))] + _reduced_instances(abel)[:1]
    for ct in tapes:
        _heat(ct)
        assert _generated(ct) == 2
    return [(ct, dict(intervals._instance(ct)[0].passes)) for ct in tapes]


def _runs_shared_code(ct, hot, box):
    """The tape shares the shape of ``hot`` and its code, and both passes
    keep every bit of run_tape."""
    hot_ct, passes = hot
    _generated_matches_run_tape(ct, box)
    shape = intervals._instance(ct)[0]
    assert shape is intervals._instance(hot_ct)[0] and shape.passes == passes
    for (grad, n), code in passes.items():
        got = ct.cache.get(("interval", grad, n))
        # a tape whose prologue fails runs run_tape instead
        assert got is None or got[0] is code[0]


@settings(max_examples=150, deadline=None)
@given(st.lists(_SLOTS, min_size=4, max_size=4, unique=True),
       st.lists(_end, min_size=4, max_size=4))
def test_tapes_of_one_shape_share_code_and_keep_every_bit(
        shared_shapes, c, ends):
    ct = _instance(c)
    box = Box.from_bounds([sorted(ends[:2]), sorted(ends[2:])])
    for _ in range(2):      # once with the prologue run, once without
        _runs_shared_code(ct, shared_shapes[0], box)
        _runs_shared_code(ct, shared_shapes[0], _SAFE)


def test_reduced_tapes_share_code_and_keep_every_bit(shared_shapes, abel):
    boxes = _boxes(count=20, seed=7) + [
        Box.from_bounds([(0.5, 0.6), (1.5, 2.5)]),     # leaves one domain
        Box.from_bounds([(-3.0, 3.0), (-0.1, 0.1)])]
    for ct in _reduced_instances(abel):
        for box in boxes:
            _runs_shared_code(ct, shared_shapes[1], box)


def test_a_reduced_tape_runs_the_code_of_its_original(abel, monkeypatch,
                                                      fresh_shapes):
    made = []
    generate = intervals._generate

    def counted(shape, n, grad):
        made.append((grad, n))
        return generate(shape, n, grad)

    monkeypatch.setattr(intervals, "_generate", counted)
    system = build_system(["phi(x1) - x2", "x2 - 0.25"], abel=abel)
    reduced = reduce_phi_complexity(system, 4.0)
    for ct in (system.compiled, reduced.compiled):
        _heat(ct)
    # one function per pass between them
    assert sorted(made) == [(False, 2), (True, 2)]
    assert intervals._instance(reduced.compiled)[0] is \
        intervals._instance(system.compiled)[0]
    assert count_nonsingular_zeros(reduced, 4.0).to_dict() == \
        count_nonsingular_zeros(system, 4.0).to_dict()


# ---------------------------------------------------------------------------
# the abel of a phi node is bound when its tape is compiled


@pytest.fixture(scope="module")
def abel2(abel):
    a2 = build_abel(order=2)
    # far enough from the default that every check below tells them apart
    assert abs(a2.eval_phi(0.35) - abel.eval_phi(0.35)) > 1e-3
    return a2


def test_point_values_and_gradients_come_from_the_bound_abel(abel2):
    t = parse_term("phi(x1) + dphi(x1)")
    for x in (-1.5, 0.35, 2.5, 40.0):
        assert eval_term(t, [x], abel2) == \
            abel2.eval_phi(x) + abel2.eval_dphi(x)
        assert gradient(t, [x], abel2) == \
            [abel2.eval_dphi(x) + abel2.eval_d2phi(x)]
    xs = np.array([-1.5, 0.35, 2.5, 40.0])
    ct = compile_terms([parse_term("phi(x1)")], abel2)
    vals, grads = gradient_points(ct, [xs])
    assert np.array_equal(vals[0], abel2.eval_phi_array(xs))
    assert np.array_equal(grads[0][0], abel2.eval_dphi_array(xs))


def test_enclosures_come_from_the_bound_abel(abel2):
    got = interval_eval(parse_term("phi(x1)"), Box.from_bounds([(0.3, 0.4)]),
                        abel2)
    assert got == abel2.interval_phi(0.3, 0.4)
    # cells: phi encloses the whole array at once
    los, his = np.array([0.3, 1.5, 7.0]), np.array([0.4, 1.75, 9.0])
    ct = compile_terms([parse_term("phi(x1)")], abel2)
    (clo, chi), = eval_cells(ct, [los], [his])
    want = abel2.interval_phi(los, his)
    assert np.array_equal(clo, want[0]) and np.array_equal(chi, want[1])


def test_searches_use_the_bound_abel(abel, abel2):
    # the census zero of phi(x1) = 0.5 is the bound abel's inverse
    rep = count_nonsingular_zeros(
        build_system(["phi(x1) - 0.5"], abel=abel2), 4.0)
    assert rep.exact and rep.certified_count == 1
    assert rep.zeros[0][0] == pytest.approx(abel2.trans_exp(0.5), abs=1e-12)
    assert abs(abel.trans_exp(0.5) - abel2.trans_exp(0.5)) > 1e-6
    # phi over [0.3, 0.4] stays below -0.604 for the order-2 abel only
    eqs = [parse_term("phi(x1) + 0.604")]
    box = Box.from_bounds([(0.3, 0.4)])
    assert prove_empty(eqs, box, abel2)
    assert not prove_empty(eqs, box, abel)
    # the grid oracle's sublevel set at cell centers
    grid = GridSpec(box, (1000,))
    mask = membership_mask([[(parse_term("phi(x1) + 0.65"), "<=")]], grid,
                           abel2)
    mids = grid.cell_axes[2][0]
    assert np.array_equal(mask, abel2.eval_phi_array(mids) + 0.65 <= 0.0)
    assert not np.array_equal(mask, abel.eval_phi_array(mids) + 0.65 <= 0.0)


# ---------------------------------------------------------------------------
# a primitive's range function is its whole enclosure, for float ends and,
# entry by entry, for arrays of ends


def _chain(prim):
    # prim and its derivatives, once round a cycle
    out = [prim]
    while out[-1].deriv is not None and out[-1].deriv not in out:
        out.append(out[-1].deriv)
    return out


@pytest.fixture(scope="module")
def every_primitive(abel):
    """The catalog, phi, phi' and phi'' of the abel, and the restricted
    chains of one phi elimination."""
    reduced = reduce_phi_complexity(
        build_system(["phi(x1) - x2", "dphi(x2)*x1"], abel=abel), 2.0)
    patches = [op[3] for op in reduced.compiled.ops
               if isinstance(op[3], RAPrimitive)]
    prims = [*default_catalog().values(),
             *_chain(abel_primitives(abel)["phi"]),
             *(q for p in patches for q in _chain(p))]
    assert len(prims) == 12 + 3 + 5
    return prims


def _ends_in(prim, pairs):
    # [lo, hi] pairs inside the primitive's domain, cut to [-1e3, 1e3]
    a, b = max(prim.lo, -1e3), min(prim.hi, 1e3)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    ends = np.array([sorted((mid + half * u, mid + half * v))
                     for u, v in pairs])
    return ends[:, 0], ends[:, 1]


def _hex(values):
    return [float(v).hex() for v in values]


def _vectorised(prim):
    # phi and its restrictions enclose arrays with numpy's exp and log
    return getattr(prim.range_fn, "__func__", None) is AbelFunction.interval_phi


def _same_ends(prim, got, want):
    """Array ends equal per-entry ends by float.hex, or for phi within
    1e-14: numpy's exp and log differ from math's by an ulp on some
    platforms, far inside the 1e-13 seed error both ends add."""
    if _vectorised(prim):
        assert np.all(np.abs(np.ravel(got) - np.array(list(want))) <= 1e-14), \
            prim.name
    else:
        assert _hex(np.ravel(got)) == _hex(want), prim.name


_unit = st.one_of(st.sampled_from([-1.0, 0.0, 1.0]),
                  st.floats(-1.0, 1.0))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_unit, _unit), min_size=6, max_size=6))
def test_range_functions_take_arrays_entry_by_entry(every_primitive, pairs):
    for prim in every_primitive:
        lo, hi = _ends_in(prim, pairs)
        want = [prim.range_fn(a, b) for a, b in zip(lo.tolist(), hi.tolist())]
        for shape in ((6,), (2, 3)):
            got = prim.range_fn(lo.reshape(shape), hi.reshape(shape))
            assert got[0].shape == got[1].shape == shape, prim.name
            _same_ends(prim, got[0], (w[0] for w in want))
            _same_ends(prim, got[1], (w[1] for w in want))


def _ulps(x, k):
    # k ulps up from x, or -k down
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


_U = 2.0 ** -53
# the float error bounds of the d2atan and d3atan formulas at x, from the
# value v there
_ATAN_ERR = {
    "d2atan": lambda x, v: 8.0 * _U * abs(v),
    "d3atan": lambda x, v: 16.0 * _U * (6.0 * x * x + 2.0) / (
        (1.0 + x * x) * (1.0 + x * x) * (1.0 + x * x)),
}


def test_catalog_ends_lie_two_ulps_outside_its_formulas():
    # over a point [x, x] both ends of a formula's range are one float,
    # or for d2atan and d3atan the value less and plus its error bound
    xs = np.random.default_rng(3).uniform(-100.0, 100.0, 200).tolist()
    for prim in default_catalog().values():
        err = _ATAN_ERR.get(prim.name)
        for x in xs:
            lo, hi = prim.range_fn(x, x)
            if err is None:
                assert _ulps(lo, 4) == hi, (prim.name, x)
            else:
                v = prim.fn(x)
                assert lo == _ulps(v - err(x, v), -2), (prim.name, x)
                assert hi == _ulps(v + err(x, v), 2), (prim.name, x)


def test_atan_derivative_ends_enclose_the_exact_values():
    # the formulas' float errors pass two ulps near +-1/sqrt(3), where
    # 6x^2 - 2 cancels, and at many points besides
    rng = np.random.default_rng(11)
    xs = (rng.uniform(-100.0, 100.0, 3000).tolist()
          + rng.uniform(-2.0, 2.0, 3000).tolist()
          + [0.5773502691896258, -0.5773502691896258])
    exact = {"d2atan": lambda x: -2 * x / (1 + x * x) ** 2,
             "d3atan": lambda x: (6 * x * x - 2) / (1 + x * x) ** 3}
    cat = default_catalog()
    with mpmath.workdps(60):
        for name, fn in exact.items():
            misses = [x for x in xs if not (
                cat[name].range_fn(x, x)[0] <= fn(mpmath.mpf(x))
                <= cat[name].range_fn(x, x)[1])]
            assert not misses, (name, len(misses), misses[:3])


def test_cells_and_boxes_enclose_primitives_alike(every_primitive):
    # both are one call of the range function, which rounds its own ends
    pairs = [(u, v) for u in np.linspace(-1.0, 0.6, 9)
             for v in (u, u + 0.01, u + 0.3)]
    for prim in every_primitive:
        ct = compile_terms([ra(prim, var(0))])
        lo, hi = _ends_in(prim, pairs)
        (clo, chi), = eval_cells(ct, [lo], [hi])
        assert _hex(clo) + _hex(chi) == _hex(np.concatenate(
            prim.range_fn(lo, hi))), prim.name
        boxes = [interval_eval_compiled(ct, Box.from_bounds([(a, b)]))[0]
                 for a, b in zip(lo.tolist(), hi.tolist())]
        for box, a, b in zip(boxes, lo.tolist(), hi.tolist()):
            assert _hex(box) == _hex(prim.range_fn(a, b)), prim.name
        _same_ends(prim, clo, (box.lo for box in boxes))
        _same_ends(prim, chi, (box.hi for box in boxes))


def test_log_of_a_negative_slot_raises_on_every_call(fresh_shapes):
    box = Box.from_bounds([(0.5, 0.6)])
    for c in (-1.0, -0.5, -1.0):
        ct = compile_terms([add(log(const(c)), var(0))])
        fault = re.escape(f"log over interval reaching {c} <= 0")
        for _ in range(HOT_CALLS + 2):
            for walk in (interval_eval_compiled, interval_jacobian_compiled):
                with pytest.raises(DomainError, match=fault):
                    walk(ct, box)
    assert _generated(ct) == 2
    # where a value of the inputs fails before it, that fault is raised
    for c in (-1.0, -0.5, 2.0):
        ct = compile_terms([add(log(var(0)), log(const(c)))])
        for _ in range(HOT_CALLS + 2):
            for box in (Box.from_bounds([(-0.25, 0.6)]),
                        Box.from_bounds([(0.5, 0.6)])):
                _generated_matches_run_tape(ct, box)
        assert _generated(ct) == 2


def test_short_boxes_and_points_raise_domain_error(abel):
    t = parse_term("x1 + x2", ["x1", "x2"])
    box_fault = "box dimension 1 below term arity 2"
    with pytest.raises(DomainError, match=box_fault):
        interval_eval(t, Box.cube(1.0, 1))
    for walk in (eval_term, gradient):
        with pytest.raises(DomainError, match="point dimension 1 below term arity 2"):
            walk(t, [0.5], abel)
    ct = compile_terms([t])
    _heat(ct)
    assert _generated(ct) == 2
    for walk in (interval_eval_compiled, interval_jacobian_compiled):
        with pytest.raises(DomainError, match=box_fault):
            walk(ct, Box.cube(1.0, 1))
    with pytest.raises(DomainError, match="point dimension 1 below term arity 2"):
        gradient_compiled(ct, [0.5])
    arrays = [np.array([0.5])]
    for walk in (eval_points, gradient_points):
        with pytest.raises(DomainError, match="point dimension 1 below term arity 2"):
            walk(ct, arrays)
    with pytest.raises(DomainError, match="cell dimension 1 below term arity 2"):
        eval_cells(ct, arrays, arrays)


def test_every_number_kind_raises_the_value_fault_before_the_factor_fault():
    # d3atan has no derivative, and log(-0.5) fails: every value is
    # computed before any derivative factor, so the log's DomainError wins
    ct = compile_terms([parse_term("d3atan(x1) + log(x1)")])
    walks = _every_walk(ct, [-0.5])
    for name in ("gradient_compiled", "gradient_points",
                 "interval_jacobian_compiled"):
        with pytest.raises(DomainError, match="log"):
            walks[name]()
    _heat(ct, Box.from_bounds([(0.5, 0.6)]))
    assert _generated(ct) == 2
    with pytest.raises(DomainError, match="log"):
        interval_jacobian_compiled(ct, Box.from_bounds([(-0.5, 0.5)]))


def test_a_cold_jacobian_evaluates_each_value_once(abel, monkeypatch,
                                                   fresh_shapes):
    calls = []
    interval_phi = type(abel).interval_phi

    def counted(self, lo, hi):
        calls.append((lo, hi))
        return interval_phi(self, lo, hi)

    monkeypatch.setattr(type(abel), "interval_phi", counted)
    # a tape's phi primitive holds its abel's methods from the abel's
    # first compile on, so the abel is built after the patch
    ct = compile_terms([parse_term("phi(x1)*x1")], build_abel())
    interval_jacobian_compiled(ct, Box.from_bounds([(0.5, 0.6)]))
    assert _generated(ct) == 0
    assert calls == [(0.5, 0.6)]


# ---------------------------------------------------------------------------
# the Krawczyk test on hot tapes (one generated pass for the range pretest
# and the Jacobian) against cold ones (run_tape)

# square systems over 1, 2 and 3 unknowns; with the reduced phi system
# they cover every opcode. In the d3atan ones a derivative factor that
# always fails comes before a log value that fails on part of the boxes
_KRAWCZYK_SOURCES = [
    ["exp(x1)*x1 - x1*x1 + 0.5"],
    ["log(x1*x1 + 1.0) - phi(x1) + 0.25"],
    ["dphi(x1) + sin(x1)*atan(x1) - 0.5"],
    ["d3atan(x1) + log(x1)"],
    ["x1*x2 - x1*x1 + 3.0*x1 - 0.5*x2", "(x1 + x2)*(x1 - x2) - 0.25"],
    ["exp(x1 - x2)*x1 - 1.0", "log(x1*x1 + 1.0) - sin(x2)"],
    ["d3atan(x1) + log(x2)", "x1 - x2"],
    ["x1*x1 + x2*x2 + x3*x3 - 1", "x1 - x2", "x3*exp(x1)"],
    ["phi(x1) - x2", "dphi(x2)*x3 - 0.5", "x1 + atan(x3) - 2.0*x3"],
]


def _krawczyk_systems(abel):
    cat = default_catalog(restriction=2.0)
    systems = [compile_terms([parse_term(s, catalog=cat) for s in eqs])
               for eqs in _KRAWCZYK_SOURCES]
    reduced = reduce_phi_complexity(
        build_system(["phi(x1) - x2", "dphi(x2)*x1"], abel=abel), 2.0)
    return systems + [reduced.compiled]


def _krawczyk_outcome(ct, box):
    try:
        res = krawczyk_test(SimpleNamespace(compiled=ct), box)
    except Exception as exc:     # must match the cold path's exactly
        return type(exc), str(exc)
    c = res.contracted
    return res.verdict, None if c is None else [
        (v.lo.hex(), v.hi.hex()) for v in c.coords]


def _hot_matches_cold(ct, box):
    # a copy of the tape whose shape is its own, with no call counts, runs
    # run_tape
    cold = CompiledTerms(ct.ops, ct.roots, ct.n_vars)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intervals, "_shape", intervals._Shape)
        want = _krawczyk_outcome(cold, box)
    assert _generated(cold) == 0
    assert _krawczyk_outcome(ct, box) == want, box
    return want


@pytest.fixture(scope="module")
def hot_systems(abel):
    systems = _krawczyk_systems(abel)
    for ct in systems:
        _heat(ct, Box.from_bounds([(0.5, 0.6)] * len(ct.roots)))
        assert _generated(ct) == 2
    return systems


def test_krawczyk_systems_cover_every_opcode(hot_systems):
    assert {len(ct.roots) for ct in hot_systems} == {1, 2, 3}
    assert {op[0] for ct in hot_systems for op in ct.ops} == set(range(RA + 1))
    prims = {op[3].name for ct in hot_systems for op in ct.ops
             if isinstance(op[3], RAPrimitive)}
    assert any(name.startswith("slog_patch") for name in prims)


def _special_boxes(n):
    # every special interval on each axis in turn, against each partner
    return [Box.from_bounds([a if i == k else b for i in range(n)])
            for a in _SPECIAL_IV for b in _PARTNERS for k in range(n)]


def test_hot_krawczyk_keeps_every_bit_on_special_ends(hot_systems):
    verdicts = set()
    for ct in hot_systems:
        for box in _special_boxes(len(ct.roots)):
            verdicts.add(_hot_matches_cold(ct, box)[0])
    assert {"NoZero", "Unknown", DomainError, DifferentiationError} <= verdicts


def _small_boxes(n, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        c = rng.uniform(-RADIUS + 0.2, RADIUS - 0.2, n)
        w = rng.uniform(0.01, 0.2, n)
        out.append(Box.from_bounds(list(zip(c - w, c + w))))
    return out


def test_hot_krawczyk_keeps_every_bit_on_small_boxes(hot_systems):
    verdicts = set()
    for ct in hot_systems:
        n = len(ct.roots)
        # and boxes around the zero (0, phi(0)) = (0, -1) of the reduced
        # phi system and around a zero of the sphere system
        boxes = _small_boxes(n, 60, seed=n) + [
            Box.from_bounds([(-0.05, 0.05), (-1.05, -0.95)]),
            Box.from_bounds([(0.6, 0.8), (0.6, 0.8), (-0.1, 0.1)])]
        for box in boxes:
            if box.n == n:
                verdicts.add(_hot_matches_cold(ct, box)[0])
    assert {"UniqueZero", "NoZero", "Unknown"} <= verdicts


@settings(max_examples=150, deadline=None)
@given(st.lists(_end, min_size=6, max_size=6))
def test_hot_krawczyk_keeps_every_bit(hot_systems, ends):
    pairs = [(min(a, b), max(a, b)) for a, b in zip(ends[::2], ends[1::2])]
    for ct in hot_systems:
        _hot_matches_cold(ct, Box.from_bounds(pairs[:len(ct.roots)]))


def _rows_by_helpers(X, m, F, J, C):
    """The K rows of the Krawczyk test formed with the interval helpers."""
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


# finite preconditioner entries, exact zeros of both signs among them
_C_ENTRIES = (0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 0.5, -3.25, 1e300,
              -_MAX)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_krawczyk_rows_keep_every_bit_of_the_helpers(n):
    rng = np.random.default_rng(n)
    ivs = [Interval(*p) for p in _SPECIAL_IV + _PARTNERS]

    def pick(k):
        return [ivs[i] for i in rng.integers(len(ivs), size=k)]

    rows = _krawczyk_rows(n)
    for _ in range(3000):
        X = pick(n)
        m = [x.mid for x in X]
        F = pick(n)
        J = [pick(n) for _ in range(n)]
        C = [[_C_ENTRIES[i] for i in rng.integers(len(_C_ENTRIES), size=n)]
             for _ in range(n)]
        assert _bits(rows(X, m, F, J, C)) == \
            _bits(_rows_by_helpers(X, m, F, J, C)), (X, m, F, J, C)
    assert _krawczyk_rows(n) is rows
