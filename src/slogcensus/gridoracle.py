"""Grid ground truth: zero localization and component counts.

Nothing here is certified; the module exists so certified results can be
checked against an independent method in tests and reports. Zero cells
are found coarse to fine: blocks of cells are enclosed first, and single
cells only inside blocks whose enclosures hold 0 (``zero_cell_mask``).
Membership tests cell centres against a tolerance, with no enclosure to
prune by, so it walks every cell: as an open grid, in slabs of whole
rows of axis 0, each variable entering as its own axis of cell values,
shaped to broadcast against the others. A subterm then costs the size of
the axes it depends on, and only operations that mix variables run over
every cell of the slab.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .abel import EXP_MAX
from .errors import DomainError
from .intervals import Box
from .terms import (CompiledTerms, FloatArith, TermNode, check_arity,
                    compile_terms, run_tape)

_CHUNK = 32768


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell grid over a box, at most ``cap`` cells in total."""

    box: Box
    resolution: tuple
    cap: int = 100_000_000

    def __post_init__(self):
        if len(self.resolution) != self.box.n:
            raise DomainError("one resolution per axis required")
        if any(r < 2 for r in self.resolution):
            raise DomainError("resolution below 2")
        if self.cells > self.cap:
            raise DomainError(f"grid of {self.cells} cells exceeds cap {self.cap}")

    @classmethod
    def square(cls, radius: float, n: int, res: int) -> "GridSpec":
        return cls(Box.cube(radius, n), tuple([res] * n))

    @property
    def n(self) -> int:
        return self.box.n

    @property
    def cells(self) -> int:
        return math.prod(int(r) for r in self.resolution)

    def edges(self, axis: int) -> np.ndarray:
        c = self.box.coords[axis]
        return np.linspace(c.lo, c.hi, self.resolution[axis] + 1)

    def steps(self) -> np.ndarray:
        return np.array([(c.hi - c.lo) / r
                         for c, r in zip(self.box.coords, self.resolution)])

    @functools.cached_property
    def cell_axes(self) -> tuple:
        """(lower ends, upper ends, midpoints) of the cells, one array per
        axis each."""
        edges = [self.edges(i) for i in range(self.n)]
        return ([e[:-1] for e in edges], [e[1:] for e in edges],
                [0.5 * (e[:-1] + e[1:]) for e in edges])

    @property
    def cell_diag(self) -> float:
        return float(np.sqrt(np.sum(self.steps() ** 2)))


# ---------------------------------------------------------------------------
# vectorized tape evaluation over point arrays and cell-interval arrays

def _exp_arr(x: np.ndarray) -> np.ndarray:
    return np.where(x <= EXP_MAX, np.exp(np.minimum(x, EXP_MAX)), np.inf)


class PointArith(FloatArith):
    """Arrays of points for run_tape, one array per variable, broadcast
    against each other; constants stay floats."""

    def exp(self, x):
        return _exp_arr(x)

    def log(self, x):
        if np.any(x <= 0.0):
            raise DomainError("log of non-positive value on grid")
        return np.log(x)

    def ra(self, prim, x):
        # a constant argument goes in as an array too: it takes the
        # primitive's array path, whose bits may differ from its float path
        if np.any(x < prim.lo) or np.any(x > prim.hi):
            raise DomainError(f"{prim.name} argument leaves domain on grid")
        return np.asarray(prim.fn(np.atleast_1d(x)), dtype=float)

    def ra_factor(self, prim, x):
        return np.asarray(prim.derivative().fn(x), dtype=float)


def _broadcast(out, shape):
    # every array of a (nested) list or tuple of results, broadcast to shape
    if isinstance(out, (list, tuple)):
        return type(out)(_broadcast(v, shape) for v in out)
    return np.broadcast_to(out, shape)


def _run_quiet(ct: CompiledTerms, inputs, arith, coords, grad: bool = False):
    # overflow to inf, the 0*inf corners and inf - inf are handled by the
    # arithmetics themselves, so numpy's warnings about them carry nothing
    with np.errstate(all="ignore"):
        out = run_tape(ct, inputs, arith, grad=grad)
    return _broadcast(out, np.broadcast_shapes(*map(np.shape, coords)))


def eval_points(ct: CompiledTerms, coords: Sequence[np.ndarray]) -> list:
    """Values of every root at an array of points (one array per variable,
    broadcast against each other), each of the points' common shape."""
    check_arity(ct, len(coords), "point")
    return _run_quiet(ct, coords, PointArith(), coords)


def gradient_points(ct: CompiledTerms, coords: Sequence[np.ndarray]):
    """Forward-mode values and gradients at an array of points, each of
    the points' common shape."""
    check_arity(ct, len(coords), "point")
    return _run_quiet(ct, coords[:ct.n_vars], PointArith(), coords,
                      grad=True)


def _mul_corners(al, ah, bl, bh):
    # 0 * inf must clamp to 0 for containment
    def m(p, q):
        out = p * q
        return np.where((p == 0.0) | (q == 0.0), 0.0, out)

    c1, c2, c3, c4 = m(al, bl), m(al, bh), m(ah, bl), m(ah, bh)
    lo = np.minimum(np.minimum(c1, c2), np.minimum(c3, c4))
    hi = np.maximum(np.maximum(c1, c2), np.maximum(c3, c4))
    return lo, hi


def _out(lo: np.ndarray, hi: np.ndarray):
    return np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)


class CellArith:
    """(lo, hi) array pairs for run_tape: enclosures over grid cells. No
    caller takes gradients over cells, so there are no derivative factors."""

    def const(self, c):
        return c, c

    def add(self, x, y):
        lo, hi = x[0] + y[0], x[1] + y[1]
        return _out(np.nan_to_num(lo, nan=-np.inf), np.nan_to_num(hi, nan=np.inf))

    def mul(self, x, y):
        return _out(*_mul_corners(*x, *y))

    def sqr(self, x):
        al, ah = x
        a, b = al * al, ah * ah
        lo = np.where((al <= 0.0) & (ah >= 0.0), 0.0, np.minimum(a, b))
        return _out(lo, np.maximum(a, b))

    def neg(self, x):
        return -x[1], -x[0]

    def exp(self, x):
        return (np.maximum(np.nextafter(_exp_arr(x[0]), -np.inf), 0.0),
                np.nextafter(_exp_arr(x[1]), np.inf))

    def log(self, x):
        if np.any(x[0] <= 0.0):
            raise DomainError("log reaches non-positive values on grid")
        return _out(np.log(x[0]), np.log(x[1]))

    def ra(self, prim, x):
        if np.any(x[0] < prim.lo) or np.any(x[1] > prim.hi):
            raise DomainError(f"{prim.name} argument leaves domain on grid")
        return prim.range_fn(*np.atleast_1d(*x))  # as in PointArith.ra


def eval_cells(ct: CompiledTerms, los: Sequence[np.ndarray],
               his: Sequence[np.ndarray]) -> list:
    """Interval enclosures of every root over an array of cells (one array
    of ends per variable, broadcast against each other), each end of the
    cells' common shape."""
    check_arity(ct, min(len(los), len(his)), "cell")
    return _run_quiet(ct, list(zip(los, his)), CellArith(), [*los, *his])


def _slabs(shape: tuple, *tables):
    """Walk an array of the given shape as an open grid, in slabs of whole
    rows of axis 0, each of at most _CHUNK entries and at least one row:
    yield the slab's slice of axis 0, then for each table (one array per
    axis, indexed by an entry's index on that axis, as in
    GridSpec.cell_axes) its arrays, axis i's shaped to its length along
    dimension i and to 1 along the others, and axis 0's cut to the slab."""
    n = len(shape)
    rows = max(1, _CHUNK // (math.prod(shape) // shape[0]))
    shapes = [[-1 if d == ax else 1 for d in range(n)] for ax in range(n)]
    opened = [[t[ax].reshape(shapes[ax]) for ax in range(n)] for t in tables]
    for start in range(0, shape[0], rows):
        sl = slice(start, start + rows)
        yield (sl, *[[t[0][sl], *t[1:]] for t in opened])


# ---------------------------------------------------------------------------
# zero localization

def _block_sides(resolution) -> list:
    """Block sides, in cells, of the levels of the coarse-to-fine walk,
    from the first level down to 1. A level splits each block f ways
    along every axis, f = 2**ceil(6/n), so into about 64 blocks (64 in
    1-D, 8**2 in 2-D, 4**3 in 3-D); the first level takes the largest
    power of f that leaves at least f blocks along the shortest axis."""
    f = 2 ** -(-6 // len(resolution))
    sides = [1]
    while sides[-1] * f * f <= min(resolution):
        sides.append(sides[-1] * f)
    return sides[::-1]


def _may_hold_zero(ct: CompiledTerms, los, his, cells: bool) -> np.ndarray:
    """For each cell (or, without cells, each block of cells) of an array,
    whether every equation's enclosure over it contains 0. An array of
    blocks whose evaluation leaves a domain keeps all its blocks."""
    try:
        ends = eval_cells(ct, los, his)
    except DomainError:
        if cells:
            raise
        return np.ones(np.broadcast_shapes(*map(np.shape, [*los, *his])),
                       dtype=bool)
    keep = True
    for lo, hi in ends:
        keep = keep & (lo <= 0.0) & (hi >= 0.0)
    return keep


def _sub_blocks(starts, side: int, sub: int, resolution):
    """First cells of the blocks of side ``sub`` inside the blocks of side
    ``side`` that start at ``starts`` (one index array per axis), the
    blocks past the grid's last cell left out."""
    n = len(starts)
    offsets = np.arange(0, side, sub)
    shape = (len(starts[0]),) + (len(offsets),) * n
    subs = [np.broadcast_to(
        s.reshape((-1,) + (1,) * n)
        + offsets.reshape([-1 if d == ax else 1 for d in range(n)]),
        shape).ravel() for ax, s in enumerate(starts)]
    inside = np.logical_and.reduce([s < r for s, r in zip(subs, resolution)])
    return [s[inside] for s in subs]


def _block_ends(edges, starts, side: int, resolution):
    """(lower ends, upper ends) of the blocks of ``side`` cells a side
    that start at the cells ``starts``, one array per axis, from the
    grid's edges: a block is the hull of its cells, cut at the grid's
    end."""
    return ([e[s] for e, s in zip(edges, starts)],
            [e[np.minimum(s + side, r)]
             for e, s, r in zip(edges, starts, resolution)])


def zero_cell_mask(system, grid: GridSpec) -> np.ndarray:
    """Boolean grid: interval evaluation of every equation contains 0.

    Found coarse to fine, by subpaving (SIVIA; Jaulin, Kieffer, Didrit &
    Walter, *Applied Interval Analysis*, 2001, ch. 3). The first level
    encloses blocks of ``_block_sides(...)[0]`` cells a side on the open
    grid of blocks. Each later level splits the blocks on which every
    equation's enclosure holds 0 and encloses the parts, gathered in
    pieces of at most ``_CHUNK`` cells or one block's parts. The last
    level is the cells: each gets the float operations on the same ends
    as in a walk over every cell. Only that level raises a
    ``DomainError``; a block may leave a domain that none of its cells
    leaves (``log(x1 - x1 + 0.01)``), and then all of its piece goes on.

    A cell is left out unenclosed only where the enclosure of a block
    that holds it, rigorous, excludes 0, so no zero lies in it.
    ``CellArith``'s operations are isotone in floats, so over them the
    mask is the one a walk over every cell gives. ``phi``'s and
    ``phi'``'s enclosures are not isotone at the last ulp: a part's may
    pass its hull's by a few ulps of max(1, |end|) (their float walks are
    not monotone at that ulp). A cell whose own enclosure reaches 0 by
    no more than that may be left out; none does on the corpus.
    """
    ct = system.compiled
    res = tuple(grid.resolution)
    edges = [grid.edges(ax) for ax in range(grid.n)]
    sides = _block_sides(res)
    side = sides[0]
    firsts = [np.arange(0, r, side) for r in res]
    keep = np.empty(tuple(map(len, firsts)), dtype=bool)
    for sl, los, his in _slabs(keep.shape,
                               *_block_ends(edges, firsts, side, res)):
        keep[sl] = _may_hold_zero(ct, los, his, side == 1)
    if side == 1:
        return keep
    starts = [f * side for f in np.nonzero(keep)]
    for sub in sides[1:]:
        per = max(1, _CHUNK // (side // sub) ** grid.n)
        kept = [[np.empty(0, dtype=np.intp)] * grid.n]
        for p in range(0, len(starts[0]), per):
            subs = _sub_blocks([s[p:p + per] for s in starts], side, sub, res)
            ok = _may_hold_zero(ct, *_block_ends(edges, subs, sub, res),
                                sub == 1)
            kept.append([s[ok] for s in subs])
        starts = [np.concatenate(axis) for axis in zip(*kept)]
        side = sub
    mask = np.zeros(res, dtype=bool)
    mask[tuple(starts)] = True
    return mask


def _label(mask: np.ndarray):
    # imported here, not at module level: scipy.ndimage takes about 0.3 s
    # to import and nothing else needs it
    from scipy import ndimage

    structure = ndimage.generate_binary_structure(mask.ndim, 1)
    return ndimage.label(mask, structure=structure)


def oracle_zero_count(system, grid: GridSpec):
    """Number of connected clusters of zero cells, with cluster centers.

    For systems whose zeros are isolated and grid-separated this equals
    the number of zeros; tests double-check residuals at the centers.
    """
    mask = zero_cell_mask(system, grid)
    labels, count = _label(mask)
    if not count:
        return 0, []
    # the zero cells in C order, grouped by label in a stable order, so
    # each centre averages its cells in the order a scan of the grid meets
    # them
    cells, labs = np.argwhere(mask), labels[mask]
    order = np.argsort(labs, kind="stable")
    clusters = np.split(cells[order], np.flatnonzero(np.diff(labs[order])) + 1)
    mids = grid.cell_axes[2]
    return count, [[float(np.mean(mids[ax][idx[:, ax]]))
                    for ax in range(grid.n)] for idx in clusters]


# ---------------------------------------------------------------------------
# component counting

def _atom_mask(term: TermNode, rel: str, grid: GridSpec, abel) -> np.ndarray:
    if rel not in ("=", ">", "<="):
        raise DomainError(f"unsupported relation {rel!r}")
    ct = compile_terms([term], abel)
    mask = np.empty(tuple(grid.resolution), dtype=bool)
    for sl, centers in _slabs(tuple(grid.resolution), grid.cell_axes[2]):
        if rel == "=":
            vals, grads = gradient_points(ct, centers)
            g = np.sqrt(sum(p * p for p in grads[0]))
            mask[sl] = np.abs(vals[0]) <= 4.0 * grid.cell_diag * g
        elif rel == ">":
            mask[sl] = eval_points(ct, centers)[0] > 0.0
        else:
            mask[sl] = eval_points(ct, centers)[0] <= 0.0
    return mask


def membership_mask(dnf, grid: GridSpec, abel,
                    ball_radius: float | None = None) -> np.ndarray:
    """Cell-center membership for a DNF of (term, rel) atoms.

    Equality atoms are thickened by a per-cell tolerance of four cell
    diagonals times the local gradient norm, so measure-zero sets stay
    grid-visible without bleeding across true gaps.
    """
    mask = np.zeros(tuple(grid.resolution), dtype=bool)
    for conj in dnf:
        m = np.ones(tuple(grid.resolution), dtype=bool)
        for term, rel in conj:
            m &= _atom_mask(term, rel, grid, abel)
        mask |= m
    if ball_radius is not None:
        for sl, centers in _slabs(tuple(grid.resolution), grid.cell_axes[2]):
            mask[sl] &= sum(c * c for c in centers) <= ball_radius * ball_radius
    return mask


def flood_components(dnf, grid: GridSpec, abel,
                     ball_radius: float | None = None) -> int:
    """Connected components (2n-connectivity) of a DNF set on the grid."""
    mask = membership_mask(dnf, grid, abel, ball_radius)
    _, count = _label(mask)
    return int(count)


def flood_components_sublevel(term: TermNode, grid: GridSpec, abel) -> int:
    """Components of the region term <= 0 at cell centers."""
    mask = _atom_mask(term, "<=", grid, abel)
    _, count = _label(mask)
    return int(count)

