"""Grid oracle: vectorised evaluation, zero cells, component counting."""

import math
import warnings

import numpy as np
import pytest

from slogcensus.census import build_system
from slogcensus.errors import DomainError
from slogcensus.gridoracle import (GridSpec, eval_cells, eval_points,
                                   flood_components,
                                   flood_components_sublevel,
                                   membership_mask, oracle_zero_count,
                                   zero_cell_mask)
from slogcensus.intervals import Box, interval_eval_compiled
from slogcensus.terms import compile_terms, eval_term, parse_term


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
