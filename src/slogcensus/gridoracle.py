"""Grid ground truth: zero localization and component counting.

Nothing here is certified; the module exists so certified results can be
checked against an independent method in tests and reports. Zero cells
and the cells of a sign atom (``term <= 0`` or ``term > 0``) are found
coarse to fine, by one subpaving walk (``_subpave``): blocks of cells
are enclosed first, a block whose enclosure decides it is filled or
dropped whole, and only the cells of the blocks that stay open are
enclosed (zero cells) or evaluated at their centres (sign atoms).
Equality atoms test cell centres against a tolerance, with no enclosure
to prune by, so they walk every cell: as an open grid, in slabs of whole
rows of axis 0, each variable entering as its own axis of cell values,
shaped to broadcast against the others. A subterm then costs the size of
the axes it depends on, and only operations that mix variables run over
every cell of the slab. Counts label only the box that bounds a mask's
cells, and nothing where no cell is in.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .intervals import Box, IntervalArith, iexp, ilog
from .terms import (EXP_MAX, CompiledTerms, FloatArith, TermNode, check_arity,
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


def _pin(p):
    # a corner product is NaN only as 0 * inf, pinned to 0 as in imul
    return np.where(p != p, 0.0, p)


def _per_cell(enclose, x):
    """The box enclosure ``enclose`` over each cell of x, a pair of arrays
    of ends, each cell passed as its pair (lo, hi): two arrays of the
    cells' shape."""
    lo, hi = np.broadcast_arrays(*x)
    cells = zip(lo.ravel().tolist(), hi.ravel().tolist())
    ends = np.fromiter(itertools.chain.from_iterable(map(enclose, cells)),
                       float, 2 * lo.size).reshape(lo.shape + (2,))
    return ends[..., 0], ends[..., 1]


class CellArith:
    """(lo, hi) array pairs for run_tape: enclosures over grid cells, each
    the enclosure of the box with the cell's ends, bit for bit. add, mul,
    sqr and neg run the float operations of iadd, imul, isqr and ineg over
    whole arrays; exp, log and ra run the box's own (iexp, ilog and the
    primitive's range function) one cell at a time. No caller takes
    gradients over cells, so there are no derivative factors."""

    def const(self, c):
        return c, c

    def add(self, x, y):
        # a NaN end is -inf + inf, widened to that side's infinity
        lo, hi = x[0] + y[0], x[1] + y[1]
        return (np.nextafter(np.where(lo != lo, -np.inf, lo), -np.inf),
                np.nextafter(np.where(hi != hi, np.inf, hi), np.inf))

    def mul(self, x, y):
        (al, ah), (bl, bh) = x, y
        c1, c2 = _pin(al * bl), _pin(al * bh)
        c3, c4 = _pin(ah * bl), _pin(ah * bh)
        lo = np.minimum(np.minimum(c1, c2), np.minimum(c3, c4))
        hi = np.maximum(np.maximum(c1, c2), np.maximum(c3, c4))
        return np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)

    def sqr(self, x):
        al, ah = x
        a, b = al * al, ah * ah
        # a square is never below 0, also where its float underflows to 0
        low = np.maximum(np.nextafter(np.minimum(a, b), -np.inf), 0.0)
        return (np.where((al <= 0.0) & (0.0 <= ah), 0.0, low),
                np.nextafter(np.maximum(a, b), np.inf))

    def neg(self, x):
        return -x[1], -x[0]

    def exp(self, x):
        return _per_cell(iexp, x)

    def log(self, x):
        return _per_cell(ilog, x)

    def ra(self, prim, x):
        return _per_cell(functools.partial(IntervalArith.ra, prim), x)


def _unbounded(x):
    return np.isinf(x[0]) | np.isinf(x[1])


def _holds_zero(x):
    return (x[0] <= 0.0) & (x[1] >= 0.0)


class _NaNMarkingArith(CellArith):
    """CellArith that also marks, in ``nan``, the cells over which a
    point's float walk may meet NaN: a sum of two unbounded enclosures
    (inf - inf) and a product of an unbounded one with one that holds 0
    (0 * inf, which mul pins to 0). A point's NaN starts in no other
    operation, and a point's values lie in its cell's enclosures."""

    def __init__(self):
        self.nan = np.False_

    def add(self, x, y):
        self.nan = self.nan | (_unbounded(x) & _unbounded(y))
        return super().add(x, y)

    def mul(self, x, y):
        self.nan = (self.nan | (_unbounded(x) & _holds_zero(y))
                    | (_unbounded(y) & _holds_zero(x)))
        return super().mul(x, y)


def eval_cells(ct: CompiledTerms, los: Sequence[np.ndarray],
               his: Sequence[np.ndarray],
               arith: CellArith | None = None) -> list:
    """Interval enclosures of every root over an array of cells (one array
    of ends per variable, broadcast against each other), each end of the
    cells' common shape, in ``arith`` (a new CellArith by default)."""
    check_arity(ct, min(len(los), len(his)), "cell")
    return _run_quiet(ct, list(zip(los, his)), arith or CellArith(),
                      [*los, *his])


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
# coarse-to-fine subpaving

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


def _fill(mask: np.ndarray, starts, side: int):
    """Set the cells of the blocks of ``side`` cells a side that start at
    the cells ``starts`` (one index array per axis): the blocks that the
    grid's end cuts cell by cell, the others through a view of the mask
    with one axis per block index and one per cell offset (splitting each
    axis of a strided view needs no copy, so the reshape is a view)."""
    whole = np.logical_and.reduce(
        [s + side <= r for s, r in zip(starts, mask.shape)])
    blocks = mask[tuple(slice(0, r - r % side) for r in mask.shape)].reshape(
        [d for r in mask.shape for d in (r // side, side)])
    blocks[tuple(i for s in starts
                 for i in (s[whole] // side, slice(None)))] = True
    mask[tuple(_sub_blocks([s[~whole] for s in starts], side, 1,
                           mask.shape))] = True


def _subpave(grid: GridSpec, split, leaf) -> np.ndarray:
    """Boolean grid of the cells that a rule puts in, found coarse to
    fine, by subpaving (SIVIA; Jaulin, Kieffer, Didrit & Walter, *Applied
    Interval Analysis*, 2001, ch. 3).

    The rule is two functions. ``split(los, his)`` takes an array of
    blocks of cells by their lower and upper ends, one array per axis,
    broadcast against each other, and returns two boolean arrays (or
    scalars) of their shape: the blocks wholly in, which are filled with
    no further work, and the blocks that stay open; the others are out.
    ``leaf(idx)`` takes an array of cells by their indices, one index
    array per axis, broadcast against each other, and returns the cells
    in.

    The first level splits blocks of ``_block_sides(...)[0]`` cells a side
    on the open grid of blocks, in slabs; where that side is 1, ``leaf``
    takes every cell there. Each later level splits the open blocks into
    parts, gathered in pieces of at most ``_CHUNK`` cells or one block's
    parts, and the last takes ``leaf`` over their cells.
    """
    res = tuple(grid.resolution)
    edges = [grid.edges(ax) for ax in range(grid.n)]
    sides = _block_sides(res)
    side = sides[0]
    mask = np.zeros(res, dtype=bool)
    if side == 1:
        for sl, idx in _slabs(res, [np.arange(r) for r in res]):
            mask[sl] = leaf(idx)
        return mask
    firsts = [np.arange(0, r, side) for r in res]
    inside = np.empty(tuple(map(len, firsts)), dtype=bool)
    opened = np.empty_like(inside)
    for sl, los, his in _slabs(inside.shape,
                               *_block_ends(edges, firsts, side, res)):
        inside[sl], opened[sl] = split(los, his)
    if inside.any():
        _fill(mask, [f * side for f in np.nonzero(inside)], side)
    starts = [f * side for f in np.nonzero(opened)]
    for sub in sides[1:]:
        per = max(1, _CHUNK // (side // sub) ** grid.n)
        kept = [[np.empty(0, dtype=np.intp)] * grid.n]
        for p in range(0, len(starts[0]), per):
            subs = _sub_blocks([s[p:p + per] for s in starts], side, sub, res)
            if sub == 1:
                ins = leaf(subs)
                mask[tuple(s[ins] for s in subs)] = True
                continue
            ins, ok = (np.broadcast_to(v, subs[0].shape)
                       for v in split(*_block_ends(edges, subs, sub, res)))
            if ins.any():
                _fill(mask, [s[ins] for s in subs], sub)
            kept.append([s[ok] for s in subs])
        starts = [np.concatenate(axis) for axis in zip(*kept)]
        side = sub
    return mask


def _zero_rule(ct: CompiledTerms, grid: GridSpec):
    """The rule of zero cells: a block stays open, and a cell is in,
    where every equation's enclosure over it contains 0. An array of
    blocks whose evaluation leaves a domain stays open; one of cells
    raises."""
    lows, highs, _ = grid.cell_axes

    def all_hold_zero(los, his):
        keep = True
        for end in eval_cells(ct, los, his):
            keep = keep & _holds_zero(end)
        return keep

    def split(los, his):
        try:
            return False, all_hold_zero(los, his)
        except DomainError:
            return False, True

    def leaf(idx):
        return all_hold_zero([lo[i] for lo, i in zip(lows, idx)],
                             [hi[i] for hi, i in zip(highs, idx)])

    return split, leaf


def _sign_rule(ct: CompiledTerms, rel: str, grid: GridSpec):
    """The rule of a sign atom, the one root of ``ct`` ``<=`` 0 or ``>``
    0. For ``<=`` a block is in where its enclosure has ``hi <= 0`` and
    out where it has ``lo > 0``; ``>`` is the mirror. A block stays open
    where its enclosure straddles 0, where a centre's float walk may meet
    NaN in it (which is in neither), and, with all its array, where the
    evaluation leaves a domain. A cell is in where the root's value at
    its centre (``eval_points``) satisfies the relation.

    A block decided by its enclosure decides its centres as their own
    values would, since a centre's float walk stays inside the block's
    enclosures: the box operations round outward from the same float
    operations; numpy's exp and log lie within the ulp by which iexp and
    ilog widen math's (the one-ulp assumption the tests check against
    mpmath); and phi's array walk lies within the seed error that its
    enclosure carries. So the mask is the one a walk over every centre
    gives."""
    mids = grid.cell_axes[2]

    def split(los, his):
        arith = _NaNMarkingArith()
        try:
            ((lo, hi),) = eval_cells(ct, los, his, arith)
        except DomainError:
            return False, True
        below, above = hi <= 0.0, lo > 0.0
        inside, out = (below, above) if rel == "<=" else (above, below)
        return inside & ~arith.nan, ~(inside | out) | arith.nan

    def leaf(idx):
        value = eval_points(ct, [m[i] for m, i in zip(mids, idx)])[0]
        return value <= 0.0 if rel == "<=" else value > 0.0

    return split, leaf


def zero_cell_mask(system, grid: GridSpec) -> np.ndarray:
    """Boolean grid: interval evaluation of every equation contains 0.

    Found by ``_subpave`` with ``_zero_rule``: each later level splits the
    blocks on which every equation's enclosure holds 0, and the last
    level encloses the cells of those blocks. Each cell, like each block,
    is enclosed as the box with its ends (``CellArith``), bit for bit.
    Only the cell level raises a ``DomainError``; a block may leave a
    domain that none of its cells leaves (``log(x1 - x1 + 0.01)``), and
    then all of its piece goes on.

    A cell is left out unenclosed only where the enclosure of a block
    that holds it, rigorous, excludes 0, so no zero lies in it. The box
    operations, exp and log included, are isotone in floats, so over
    them the mask is the one a walk over every cell gives. ``phi``'s and
    ``phi'``'s enclosures are not isotone at the last ulp: a part's may
    pass its hull's by a few ulps of max(1, |end|) (their float walks are
    not monotone at that ulp). A cell whose own enclosure reaches 0 by
    no more than that may be left out; none does on the corpus.
    """
    return _subpave(grid, *_zero_rule(system.compiled, grid))


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
    return _clusters(zero_cell_mask(system, grid), grid.cell_axes[2])


def _clusters(mask: np.ndarray, mids) -> tuple:
    """(count, centres) of the components (2n-connectivity) of a mask's
    cells, each centre the mean of its cells' ``mids`` (one array of cell
    midpoints per axis), labelled on the box that bounds the cells."""
    box = _bounding_box(mask)
    if box is None:
        return 0, []
    start, inner = box
    labels, count = _label(inner)
    # the cells in C order (a crop keeps it), grouped by label in a stable
    # order, so each centre averages its cells in the order a scan of the
    # grid meets them
    cells, labs = np.argwhere(inner) + start, labels[inner]
    order = np.argsort(labs, kind="stable")
    clusters = np.split(cells[order], np.flatnonzero(np.diff(labs[order])) + 1)
    return count, [[float(np.mean(mids[ax][idx[:, ax]]))
                    for ax in range(mask.ndim)] for idx in clusters]


# ---------------------------------------------------------------------------
# component counting

def _atom_mask(term: TermNode, rel: str, grid: GridSpec, abel) -> np.ndarray:
    if rel not in ("=", ">", "<="):
        raise DomainError(f"unsupported relation {rel!r}")
    ct = compile_terms([term], abel)
    if rel != "=":
        return _subpave(grid, *_sign_rule(ct, rel, grid))
    mask = np.empty(tuple(grid.resolution), dtype=bool)
    for sl, centers in _slabs(tuple(grid.resolution), grid.cell_axes[2]):
        vals, grads = gradient_points(ct, centers)
        g = np.sqrt(sum(p * p for p in grads[0]))
        mask[sl] = np.abs(vals[0]) <= 4.0 * grid.cell_diag * g
    return mask


def membership_mask(dnf, grid: GridSpec, abel,
                    ball_radius: float | None = None) -> np.ndarray:
    """Cell-center membership for a DNF of (term, rel) atoms.

    Equality atoms are thickened by a per-cell tolerance of four cell
    diagonals times the local gradient norm, so measure-zero sets stay
    grid-visible without bleeding across true gaps; they walk every
    cell. Sign atoms (``<=``, ``>``) are found by subpaving
    (``_sign_rule``): a cell's membership is its centre's value, as over
    every cell, but only the cells of blocks whose enclosure straddles 0
    are evaluated.
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


def _bounding_box(mask: np.ndarray):
    """(first index on each axis, the mask cropped to them) of the box that
    bounds a mask's cells, which holds every component whole and joins
    none; None where no cell is in."""
    spans = [np.flatnonzero(mask.any(axis=tuple(
        d for d in range(mask.ndim) if d != ax))) for ax in range(mask.ndim)]
    if not spans[0].size:
        return None
    return ([int(s[0]) for s in spans],
            mask[tuple(slice(s[0], s[-1] + 1) for s in spans)])


def _count(mask: np.ndarray) -> int:
    """Components (2n-connectivity) of a mask's cells: 0, with no label,
    where no cell is in, and otherwise the label count of the box that
    bounds the cells in."""
    box = _bounding_box(mask)
    return 0 if box is None else int(_label(box[1])[1])


def flood_components(dnf, grid: GridSpec, abel,
                     ball_radius: float | None = None) -> int:
    """Connected components (2n-connectivity) of a DNF set on the grid,
    counted by ``_count``."""
    return _count(membership_mask(dnf, grid, abel, ball_radius))


def flood_components_sublevel(term: TermNode, grid: GridSpec, abel) -> int:
    """Components (2n-connectivity) of the region term <= 0 at cell
    centres: the subpaved mask of the one atom (``_sign_rule``), counted
    by ``_count`` (no label where no centre is in, else one of the box
    that bounds the centres in)."""
    return _count(_atom_mask(term, "<=", grid, abel))
