"""Grid oracle: vectorised evaluation, zero cells, component counting."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import CORPUS, ORACLE_RES, PHI_CORPUS
from slogcensus import gridoracle
from slogcensus.census import build_system, reduce_phi_complexity
from slogcensus.errors import DomainError
from slogcensus.gridoracle import (CellArith, GridSpec, eval_cells,
                                   eval_points, flood_components,
                                   flood_components_sublevel,
                                   gradient_points, membership_mask,
                                   oracle_zero_count, zero_cell_mask)
from slogcensus.intervals import Box, interval_eval_compiled
from slogcensus.morse import (QFFormula, milnor_tube, schedule_for_ball,
                              wilkie_reduce)
from slogcensus.terms import (add, compile_terms, const, eval_term, exp,
                              log, mul, parse_term, phi, sub, var)

_CIRCLE = "x1*x1 + x2*x2 - 1"


# ---------------------------------------------------------------------------
# grid plumbing

def test_gridspec_invariants():
    g = GridSpec.square(2.0, 2, 16)
    assert g.cells == 256
    assert g.edges(0)[0] == -2.0 and g.edges(0)[-1] == 2.0
    with pytest.raises(DomainError):
        GridSpec.square(2.0, 2, 1)
    with pytest.raises(DomainError):
        GridSpec(Box.cube(1.0, 2), (8,))
    with pytest.raises(DomainError):
        GridSpec(Box.cube(1.0, 2), (64, 64), cap=1000)
    # products past 2**63 must not wrap around under the cap
    with pytest.raises(DomainError):
        GridSpec(Box.cube(1.0, 3), (2**21, 2**21, 2**22))
    with pytest.raises(DomainError):
        GridSpec(Box.cube(1.0, 3), (3 * 10**6,) * 3)


def test_eval_points_matches_scalar(abel):
    t = parse_term("phi(x1)*x2 - exp(x2)*0.25")
    ct = compile_terms([t], abel)
    xs = np.linspace(-2.0, 4.0, 7)
    ys = np.linspace(-1.0, 1.0, 7)
    vals = eval_points(ct, [xs, ys])[0]
    for i in range(7):
        want = eval_term(t, [float(xs[i]), float(ys[i])], abel)
        assert vals[i] == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("text, bounds", [
    # a 0 * inf corner, and exp overflowing on both sides of a difference
    ("x1*exp(x2)", [(0.0, 1.0), (709.0, 710.0)]),
    ("exp(x1) - exp(x2)", [(709.0, 710.0), (709.0, 710.0)])])
def test_cells_near_overflow_equal_their_boxes_without_warning(abel, text,
                                                               bounds):
    ct = compile_terms([parse_term(text)], abel)
    (box,) = interval_eval_compiled(ct, Box.from_bounds(bounds))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ((lo, hi),) = eval_cells(ct, [np.array([b[0]]) for b in bounds],
                                 [np.array([b[1]]) for b in bounds])
    assert (lo[0], hi[0]) == (box.lo, box.hi)


# ---------------------------------------------------------------------------
# zero cells and zero counting

def test_zero_cells_cover_known_zeros(abel):
    sys_ = build_system(["x1*x1 + x2*x2 - 1", "x1 - x2"], abel=abel)
    grid = GridSpec.square(2.0, 2, 512)
    mask = zero_cell_mask(sys_, grid)
    assert mask.any()
    s = math.sqrt(0.5)
    cells = np.argwhere(mask)
    edges = [grid.edges(axis) for axis in (0, 1)]

    def covered(point):
        for idx in cells:
            if all(edges[ax][i] <= p <= edges[ax][i + 1]
                   for ax, (i, p) in enumerate(zip(idx, point))):
                return True
        return False

    assert covered((s, s)) and covered((-s, -s))


def test_oracle_zero_count_circle_line(abel):
    sys_ = build_system(["x1*x1 + x2*x2 - 1", "x1 - x2"], abel=abel)
    count, centers = oracle_zero_count(sys_, GridSpec.square(2.0, 2, 769))
    assert count == 2
    s = math.sqrt(0.5)
    got = sorted(tuple(c) for c in centers)
    assert got[0] == pytest.approx((-s, -s), abs=0.02)
    assert got[1] == pytest.approx((s, s), abs=0.02)


def test_oracle_zero_count_one_dim(abel):
    sys_ = build_system(["x1*x1*x1 - x1"], abel=abel)
    count, _ = oracle_zero_count(sys_, GridSpec.square(2.0, 1, 4097))
    assert count == 3


def test_oracle_zero_count_empty(abel):
    sys_ = build_system(["x1*x1 + 1"], abel=abel)
    count, centers = oracle_zero_count(sys_, GridSpec.square(2.0, 1, 1025))
    assert count == 0 and centers == []


# ---------------------------------------------------------------------------
# semialgebraic membership and flood fill

def _dnf(*conjs):
    return tuple(tuple((parse_term(s), rel) for s, rel in conj)
                 for conj in conjs)


def test_flood_circle_is_one_component(abel):
    dnf = _dnf([("x1*x1 + x2*x2 - 1", "=")])
    grid = GridSpec.square(2.0, 2, 512)
    assert flood_components(dnf, grid, abel) == 1


def test_flood_two_blobs(abel):
    # (x-1)^2 + y^2 <= 1/4 union (x+1)^2 + y^2 <= 1/4, as closed sublevels
    dnf = _dnf(
        [("0.0625 - (x1 - 1.0)*(x1 - 1.0) - x2*x2", ">")],
        [("0.0625 - (x1 + 1.0)*(x1 + 1.0) - x2*x2", ">")])
    grid = GridSpec.square(2.0, 2, 512)
    assert flood_components(dnf, grid, abel) == 2


def test_flood_strict_halfline(abel):
    dnf = _dnf([("x1", ">")])
    assert flood_components(dnf, GridSpec.square(2.0, 1, 1024), abel) == 1


def test_flood_conjunction(abel):
    # unit circle restricted to the open right half plane: one arc
    dnf = _dnf([("x1*x1 + x2*x2 - 1", "="), ("x1", ">")])
    assert flood_components(dnf, GridSpec.square(2.0, 2, 512), abel) == 1


def test_membership_ball_clip(abel):
    dnf = _dnf([("x1 - x1", "=")])  # everything
    grid = GridSpec.square(2.0, 2, 128)
    full = membership_mask(dnf, grid, abel)
    clipped = membership_mask(dnf, grid, abel, ball_radius=1.0)
    assert full.all()
    assert clipped.sum() < full.sum()
    assert flood_components(dnf, grid, abel, ball_radius=1.0) == 1


def test_sublevel_components(abel):
    t = parse_term("x1*x1 - 1")  # [-1, 1]
    assert flood_components_sublevel(t, GridSpec.square(3.0, 1, 1024), abel) == 1
    t2 = parse_term("(x1*x1 - 1)*(x1*x1 - 4)")  # two bands, 1<=|x|<=2
    n = flood_components_sublevel(t2, GridSpec.square(3.0, 1, 2048), abel)
    assert n == 2


def test_phi_membership(abel):
    # phi(x) = 0 exactly at x = 1
    dnf = _dnf([("phi(x1)", "=")])
    count, centers = oracle_zero_count(
        build_system(["phi(x1)"], abel=abel), GridSpec.square(4.0, 1, 4097))
    assert count == 1
    assert centers[0][0] == pytest.approx(1.0, abs=0.01)
    assert flood_components(dnf, GridSpec.square(4.0, 1, 4096), abel) == 1


# ---------------------------------------------------------------------------
# the open grid against the flat walk it replaced

def _flat_cells(grid, table):
    """Each variable gathered out to one entry per cell, in flat order:
    the walk the grid oracle made before it walked an open grid."""
    idx = np.unravel_index(np.arange(grid.cells), tuple(grid.resolution))
    return [table[ax][idx[ax]] for ax in range(grid.n)]


def _flat_zero_cell_mask(system, grid):
    lows, highs, _ = grid.cell_axes
    ok = np.ones(grid.cells, dtype=bool)
    for lo, hi in eval_cells(system.compiled, _flat_cells(grid, lows),
                             _flat_cells(grid, highs)):
        ok &= (lo <= 0.0) & (hi >= 0.0)
    return ok.reshape(tuple(grid.resolution))


def _flat_atom_mask(term, rel, grid, abel):
    ct = compile_terms([term], abel)
    centers = _flat_cells(grid, grid.cell_axes[2])
    if rel == "=":
        vals, grads = gradient_points(ct, centers)
        tau = 4.0 * grid.cell_diag * np.sqrt(sum(p * p for p in grads[0]))
        flat = np.abs(vals[0]) <= tau
    else:
        val = eval_points(ct, centers)[0]
        flat = val > 0.0 if rel == ">" else val <= 0.0
    return flat.reshape(tuple(grid.resolution))


def _flat_membership_mask(dnf, grid, abel, ball_radius):
    mask = np.zeros(tuple(grid.resolution), dtype=bool)
    for conj in dnf:
        m = np.ones(tuple(grid.resolution), dtype=bool)
        for term, rel in conj:
            m &= _flat_atom_mask(term, rel, grid, abel)
        mask |= m
    r2 = sum(c * c for c in _flat_cells(grid, grid.cell_axes[2]))
    return mask & (r2 <= ball_radius * ball_radius).reshape(mask.shape)


# resolutions that no slab of three rows divides
_OPEN_RES = {1: 1001, 2: 97, 3: 23}


@pytest.fixture(params=["three-rows", "one-row"])
def slab(request, monkeypatch):
    """Patch the slab size for a grid: three rows and one cell, or one
    cell less than a row (one cell in 1-D), so that each slab holds three
    rows or one."""
    def set_for(grid):
        row = grid.cells // grid.resolution[0]
        chunk = 3 * row + 1 if request.param == "three-rows" else row - 1
        monkeypatch.setattr(gridoracle, "_CHUNK", max(chunk, 1))
        return grid
    return set_for


def _reduced(eqs, radius, abel):
    return reduce_phi_complexity(build_system(eqs, abel=abel), radius)


@pytest.mark.parametrize("name, eqs, radius, reduced", [
    *[(name, eqs, radius, False) for name, eqs, radius, _ in CORPUS],
    *[(name, eqs, radius, True) for name, eqs, radius, _ in PHI_CORPUS]],
    ids=[row[0] for row in CORPUS]
    + [f"reduced-{row[0]}" for row in PHI_CORPUS])
def test_open_grid_zero_cells_equal_the_flat_walk(abel, slab, name, eqs,
                                                  radius, reduced):
    system = (_reduced(eqs, radius, abel) if reduced
              else build_system(eqs, abel=abel))
    grid = slab(GridSpec.square(radius, system.n, _OPEN_RES[system.n]))
    mask = zero_cell_mask(system, grid)
    assert np.array_equal(mask, _flat_zero_cell_mask(system, grid))
    assert mask.any()


def test_open_grid_tube_atoms_equal_the_flat_walk(abel, slab):
    # the circle's last-stage Milnor tube, as gamma_estimate floods it
    f_l, _ = wilkie_reduce(QFFormula((((parse_term(_CIRCLE), "="),),), 2))
    eps, delta = schedule_for_ball(2.0).pairs[-1]
    tube = milnor_tube(f_l, eps, delta, 2)
    grid = slab(GridSpec.square(delta / math.sqrt(eps) * 1.01, 2, 131))
    for rel in ("=", "<=", ">"):
        mask = gridoracle._atom_mask(tube, rel, grid, abel)
        assert np.array_equal(mask, _flat_atom_mask(tube, rel, grid, abel))
        assert mask.any() and not mask.all(), rel


@pytest.mark.parametrize("text, n", [
    (_CIRCLE, 2), ("phi(x1) - x2", 2), ("dphi(x1) - x2*x2", 2),
    ("x1*x1 + x2*x2 + x3*x3 - 1", 3), ("x1*x1 - 1", 1)])
def test_open_grid_membership_equals_the_flat_walk(abel, slab, text, n):
    dnf = _dnf([(text, "=")], [("x1 - 0.3", ">"), (text, "<=")])
    grid = slab(GridSpec.square(2.0, n, _OPEN_RES[n]))
    mask = membership_mask(dnf, grid, abel, ball_radius=1.7)
    assert np.array_equal(mask,
                          _flat_membership_mask(dnf, grid, abel, 1.7))
    assert mask.any() and not mask.all()


# ---------------------------------------------------------------------------
# the evaluators' broadcast contract

def test_open_grid_inputs_give_every_result_the_cells_shape(abel):
    # a constant root, and x1*x1 + x2, whose derivative in x2 is constant
    ct = compile_terms([parse_term("2.5"), parse_term("x1*x1 + x2")], abel)
    xs, ys = np.linspace(-1.0, 1.0, 5), np.linspace(0.0, 2.0, 3)
    grid = [xs.reshape(-1, 1), ys.reshape(1, -1)]
    flat = [np.repeat(xs, 3), np.tile(ys, 5)]
    const_root, root = eval_points(ct, grid)
    assert const_root.shape == root.shape == (5, 3)
    assert np.all(const_root == 2.5)
    assert np.array_equal(root.ravel(), eval_points(ct, flat)[1])
    vals, grads = gradient_points(ct, grid)
    assert [v.shape for v in vals] == [(5, 3)] * 2
    assert [g.shape for gs in grads for g in gs] == [(5, 3)] * 4
    assert np.all(grads[0][0] == 0.0) and np.all(grads[1][1] == 1.0)
    assert np.array_equal(grads[1][0].ravel(),
                          gradient_points(ct, flat)[1][1][0])
    ends = [y + 0.5 for y in grid]
    (clo, chi), (lo, hi) = eval_cells(ct, grid, ends)
    assert clo.shape == chi.shape == lo.shape == hi.shape == (5, 3)
    assert np.all(clo == 2.5) and np.all(chi == 2.5)
    flat_lo, flat_hi = eval_cells(ct, flat, [f + 0.5 for f in flat])[1]
    assert np.array_equal(lo.ravel(), flat_lo)
    assert np.array_equal(hi.ravel(), flat_hi)


def test_a_constant_argument_takes_the_array_path_of_its_primitive(abel):
    # phi's float walk (math.exp) and array walk (np.exp) differ by an ulp
    # at -2.6 on an AVX-512 numpy 2.4; every point's value comes from the
    # array walk, whether or not the argument depends on a variable, and
    # every cell's enclosure from the float ends, as a box's does
    c = np.array([-2.6])
    ct = compile_terms([parse_term("phi(-2.6)")], abel)
    xs = [np.linspace(-1.0, 1.0, 4)]
    assert np.array_equal(eval_points(ct, xs)[0],
                          np.repeat(abel.eval_phi_array(c), 4))
    (lo, hi), = eval_cells(ct, xs, xs)
    want_lo, want_hi = abel.interval_phi(-2.6, -2.6)
    assert np.all(lo == want_lo) and np.all(hi == want_hi)


@pytest.mark.parametrize("source", ["log(1.8 - x1) + x2",
                                    "sin(50*x1 + 12) + x2"])
def test_a_fault_in_the_last_slab_still_raises(abel, monkeypatch, source):
    # on 16 rows of width 0.25, only the last (centres 1.875, cells up to
    # 2) takes log's argument to 0 or below or sin's past 100
    monkeypatch.setattr(gridoracle, "_CHUNK", 16)
    grid = GridSpec.square(2.0, 2, 16)
    short = GridSpec(Box.from_bounds([(-2.0, 1.75), (-2.0, 2.0)]), (15, 16))
    system = build_system([source, "x2"], abel=abel)
    term = parse_term(source)
    zero_cell_mask(system, short)
    membership_mask(_dnf([(source, ">")]), short, abel)
    with pytest.raises(DomainError):
        zero_cell_mask(system, grid)
    for rel in ("=", ">"):
        with pytest.raises(DomainError):
            gridoracle._atom_mask(term, rel, grid, abel)


# ---------------------------------------------------------------------------
# the coarse-to-fine walk against the flat walk

@pytest.mark.parametrize("resolution, sides", [
    ((4097,), [64, 1]), ((1001,), [1]), ((769, 769), [64, 8, 1]),
    ((97, 97), [8, 1]), ((97, 97, 97), [16, 4, 1]), ((23, 23, 23), [4, 1]),
    ((769, 2), [1])])
def test_block_sides_follow_the_grid(resolution, sides):
    assert gridoracle._block_sides(resolution) == sides


def test_the_subpaving_encloses_few_cells(abel, monkeypatch):
    # every enclosure goes through the module's eval_cells, as a tracer
    # that wraps it sees them
    sizes = []

    def counted(ct, los, his):
        ends = eval_cells(ct, los, his)
        sizes.append(ends[0][0].size)
        return ends

    monkeypatch.setattr(gridoracle, "eval_cells", counted)
    system = build_system(["x1*x1 + x2*x2 - 1", "x1 - x2"], abel=abel)
    grid = GridSpec.square(2.0, 2, 769)
    assert zero_cell_mask(system, grid).sum() == 6
    assert 0 < sum(sizes) < grid.cells // 100


def _scan_centers(mask, grid):
    """Cluster centres by one scan of the grid per label: the form that
    oracle_zero_count took before it grouped the kept cells."""
    labels, count = gridoracle._label(mask)
    mids = grid.cell_axes[2]
    centers = []
    for lab in range(1, count + 1):
        idx = np.argwhere(labels == lab)
        centers.append([float(np.mean(mids[ax][idx[:, ax]]))
                        for ax in range(grid.n)])
    return centers


@pytest.mark.parametrize("name, eqs, radius, reduced", [
    *[(name, eqs, radius, False) for name, eqs, radius, _ in CORPUS],
    *[(name, eqs, radius, True) for name, eqs, radius, _ in PHI_CORPUS]],
    ids=[row[0] for row in CORPUS]
    + [f"reduced-{row[0]}" for row in PHI_CORPUS])
def test_subpaved_zero_cells_and_centres_equal_the_flat_walk(abel, name, eqs,
                                                            radius, reduced):
    system = (_reduced(eqs, radius, abel) if reduced
              else build_system(eqs, abel=abel))
    grid = GridSpec.square(radius, system.n, ORACLE_RES[system.n])
    mask = zero_cell_mask(system, grid)
    assert np.array_equal(mask, _flat_zero_cell_mask(system, grid))
    count, centers = oracle_zero_count(system, grid)
    want = _scan_centers(mask, grid)
    assert count == len(want) > 0
    assert [[c.hex() for c in p] for p in centers] == \
        [[c.hex() for c in p] for p in want]


@pytest.mark.parametrize("eqs, any_zero", [
    (["log(x1 - x1 + 0.01) + x2", "x2"], False),
    (["log(x1 - x1 + 0.01) + 4.6 + x2", "x1 - x2"], True)])
def test_blocks_may_leave_a_domain_that_no_cell_leaves(abel, eqs, any_zero):
    # x1 - x1 + 0.01 is at least 0.01 - 0.0053 on a cell of the 769 grid,
    # but goes below 0 on every block of 8 or 64 cells
    system = build_system(eqs, abel=abel)
    grid = GridSpec.square(2.0, 2, 769)
    assert gridoracle._block_sides(grid.resolution)[0] > 1
    mask = zero_cell_mask(system, grid)
    assert np.array_equal(mask, _flat_zero_cell_mask(system, grid))
    assert mask.any() == any_zero


# resolutions that no block side divides; 4 097 gives one-variable grids
# a level of blocks, which grids of under 4 096 cells do not get
_DRAWN_RES = (2, 3, 5, 97, 769, 1001, 4097)


def _grid_terms(n):
    leaf = st.one_of(st.integers(0, n - 1).map(var),
                     st.floats(-2.0, 2.0).map(const))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, inner).map(lambda p: add(*p)),
            st.tuples(inner, inner).map(lambda p: mul(*p)),
            inner.map(exp), inner.map(log), inner.map(phi),
            # a log whose argument stays positive
            st.tuples(inner, st.floats(0.01, 1.0)).map(
                lambda p: log(add(mul(p[0], p[0]), const(p[1])))))

    return st.recursive(leaf, extend, max_leaves=5)


@st.composite
def _drawn_grids(draw):
    """(terms, grid, point): n terms in n variables, an off-centre grid of
    at most 10**6 cells, often with one resolution on every axis (a grid
    gets blocks only where its shortest axis is long), and a point of its
    box."""
    n = draw(st.integers(1, 3))
    sizes = st.sampled_from(_DRAWN_RES[:-1] if n > 1 else _DRAWN_RES)
    res = draw(st.one_of(sizes.map(lambda r: [r] * n),
                         st.lists(sizes, min_size=n, max_size=n))
               .filter(lambda r: math.prod(r) <= 10**6))
    los = draw(st.lists(st.floats(-3.0, 1.0), min_size=n, max_size=n))
    widths = draw(st.lists(st.floats(0.5, 4.0), min_size=n, max_size=n))
    grid = GridSpec(Box.from_bounds([(a, a + w) for a, w in zip(los, widths)]),
                    tuple(res))
    terms = draw(st.lists(_grid_terms(n), min_size=n, max_size=n))
    at = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    point = [a + f * w for a, f, w in zip(los, at, widths)]
    return terms, grid, point


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError:
        return DomainError


@settings(max_examples=100, deadline=None)
@given(_drawn_grids())
def test_zero_cells_equal_the_flat_walk_on_drawn_systems(abel, drawn):
    # each equation is shifted by its value at a point of the box, where
    # that value is finite, so that most systems have a zero cell
    terms, grid, point = drawn
    eqs = []
    for t in terms:
        value = _outcome(eval_term, t, point, abel)
        shift = value if isinstance(value, float) and math.isfinite(value) \
            else 0.0
        eqs.append(sub(t, const(shift)))
    system = build_system(eqs, abel=abel)
    mask = _outcome(zero_cell_mask, system, grid)
    flat = _outcome(_flat_zero_cell_mask, system, grid)
    if flat is DomainError:
        assert mask is DomainError
    else:
        assert mask is not DomainError and np.array_equal(mask, flat)


# ---------------------------------------------------------------------------
# isotonicity: the enclosure of a part of an interval lies in the
# enclosure of the interval

@st.composite
def _hull_and_part(draw, ends):
    """((A, B), (a, b)) with A <= a <= b <= B; a part's ends are often a
    hull end or the float next to it. Ends sort with -0.0 below 0.0, so
    that a drawn (0.0, -0.0) gives st.floats a valid range."""
    lo, hi = sorted(draw(st.lists(ends, min_size=2, max_size=2)),
                    key=lambda v: (v, math.copysign(1.0, v)))
    inside = st.one_of(
        st.sampled_from([lo, hi, min(math.nextafter(lo, math.inf), hi),
                         max(math.nextafter(hi, -math.inf), lo)]),
        st.floats(lo, hi))
    a, b = sorted([draw(inside), draw(inside)])
    return (lo, hi), (a, b)


def _arrays(pair):
    return tuple(np.array([v]) for v in pair)


def _assert_inside(part, hull, slack=(0.0, 0.0)):
    (pl,), (ph,) = part
    (hl,), (hh,) = hull
    assert hl - slack[0] <= pl and ph <= hh + slack[1], \
        (f"[{float(pl).hex()}, {float(ph).hex()}] not inside "
         f"[{float(hl).hex()}, {float(hh).hex()}]")


_WIDE = st.floats(-1e308, 1e308)
_CELL_OPS = {"add": _WIDE, "mul": _WIDE, "sqr": _WIDE, "neg": _WIDE,
             "exp": st.floats(-800.0, 800.0),
             "log": st.floats(5e-324, 1e308)}


@pytest.mark.parametrize("op", sorted(_CELL_OPS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cell_enclosures_are_isotone(op, data):
    ends = _CELL_OPS[op]
    fn = getattr(CellArith(), op)
    args = [data.draw(_hull_and_part(ends))
            for _ in range(2 if op in ("add", "mul") else 1)]
    with np.errstate(all="ignore"):
        hull = fn(*[_arrays(h) for h, _ in args])
        part = fn(*[_arrays(p) for _, p in args])
    _assert_inside(part, hull)


@pytest.mark.parametrize("name", ["phi", "dphi"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_phi_enclosures_are_isotone_up_to_their_walks_rounding(abel, name,
                                                              data):
    # phi's float walk, a Horner sum plus an integer shift, is not monotone
    # at the last ulp, and phi''s band ranges evaluate Horner sums at other
    # points for a part than for its hull; so a part's enclosure may pass
    # its hull's by a few ulps of max(1, |end|), far inside the widening by
    # the seed error (about 1e-13) that each enclosure carries
    enclose = abel.interval_phi if name == "phi" else abel.interval_dphi
    hull, part = data.draw(_hull_and_part(st.floats(-20.0, 50.0)))
    big = enclose(*hull)
    ulps = [8.0 * np.spacing(max(1.0, abs(e))) for e in big]
    _assert_inside(_arrays(enclose(*part)), _arrays(big), ulps)
