"""Brute-force grid ground truth: zero localization and component counts.

Nothing here is certified; the module exists so certified results can be
checked against an independent method in tests and reports. Interval
evaluation over cells is vectorized with numpy and processed in chunks.
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
    """Arrays of points for run_tape, one array per variable."""

    def __init__(self, like: np.ndarray):
        self.like = like

    def const(self, c):
        return np.full_like(self.like, c)

    def exp(self, x):
        return _exp_arr(x)

    def log(self, x):
        if np.any(x <= 0.0):
            raise DomainError("log of non-positive value on grid")
        return np.log(x)

    def ra(self, prim, x):
        if np.any(x < prim.lo) or np.any(x > prim.hi):
            raise DomainError(f"{prim.name} argument leaves domain on grid")
        return np.asarray(prim.fn(x), dtype=float)

    def ra_factor(self, prim, x):
        return np.asarray(prim.derivative().fn(x), dtype=float)


def eval_points(ct: CompiledTerms, coords: Sequence[np.ndarray]) -> list:
    """Values of every root at an array of points (one array per variable)."""
    check_arity(ct, len(coords), "point")
    return run_tape(ct, coords, PointArith(coords[0]))


def gradient_points(ct: CompiledTerms, coords: Sequence[np.ndarray]):
    """Forward-mode values and gradients at an array of points."""
    check_arity(ct, len(coords), "point")
    return run_tape(ct, coords[:ct.n_vars], PointArith(coords[0]), grad=True)


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

    def __init__(self, like: np.ndarray):
        self.like = like

    def const(self, c):
        v = np.full_like(self.like, c)
        return v, v

    def add(self, x, y):
        lo, hi = x[0] + y[0], x[1] + y[1]
        return _out(np.nan_to_num(lo, nan=-np.inf), np.nan_to_num(hi, nan=np.inf))

    def mul(self, x, y):
        return _out(*_mul_corners(*x, *y))

    def sqr(self, x):
        al, ah = x
        lo, hi = _mul_corners(al, ah, al, ah)
        lo = np.where((al <= 0.0) & (ah >= 0.0), 0.0, np.maximum(lo, 0.0))
        return _out(lo, hi)

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
        return prim.range_fn(*x)


def eval_cells(ct: CompiledTerms, los: Sequence[np.ndarray],
               his: Sequence[np.ndarray]) -> list:
    """Interval enclosures of every root over an array of cells."""
    check_arity(ct, min(len(los), len(his)), "cell")
    return run_tape(ct, list(zip(los, his)), CellArith(los[0]))


def _chunks(grid: GridSpec, *tables):
    """Walk the cells in flat order, _CHUNK at a time: yield the flat
    slice, then for each table (one array per axis, indexed by a cell's
    index on that axis, as in GridSpec.cell_axes) its arrays at the
    chunk's cells."""
    shape = tuple(grid.resolution)
    total = grid.cells
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        # named, so it lives until the next chunk: freed at once, it let
        # the heap of a 1024^2 flood fill grow by about 4 MB
        flat = np.arange(start, stop)
        idx = np.unravel_index(flat, shape)
        yield (slice(start, stop),
               *[[t[ax][idx[ax]] for ax in range(grid.n)] for t in tables])


# ---------------------------------------------------------------------------
# zero localization

def zero_cell_mask(system, grid: GridSpec) -> np.ndarray:
    """Boolean grid: interval evaluation of every equation contains 0."""
    ct = system.compiled
    flat = np.zeros(grid.cells, dtype=bool)
    lows, highs, _ = grid.cell_axes
    for sl, los, his in _chunks(grid, lows, highs):
        roots = eval_cells(ct, los, his)
        ok = np.ones(los[0].shape, dtype=bool)
        for lo, hi in roots:
            ok &= (lo <= 0.0) & (hi >= 0.0)
        flat[sl] = ok
    return flat.reshape(tuple(grid.resolution))


def grid_zero_cells(system, grid: GridSpec) -> list:
    """Index tuples of cells whose interval evaluation contains zero in
    every equation."""
    mask = zero_cell_mask(system, grid)
    return [tuple(int(v) for v in idx) for idx in np.argwhere(mask)]


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
    centers = []
    mids = grid.cell_axes[2]
    for lab in range(1, count + 1):
        idx = np.argwhere(labels == lab)
        centers.append([float(np.mean(mids[ax][idx[:, ax]]))
                        for ax in range(grid.n)])
    return count, centers


# ---------------------------------------------------------------------------
# component counting

def _atom_mask(term: TermNode, rel: str, grid: GridSpec, abel) -> np.ndarray:
    ct = compile_terms([term], abel)
    flat_val = np.empty(grid.cells)
    flat_tau = np.zeros(grid.cells)
    need_tau = rel == "="
    for sl, centers in _chunks(grid, grid.cell_axes[2]):
        if need_tau:
            vals, grads = gradient_points(ct, centers)
            g = np.sqrt(sum(p * p for p in grads[0]))
            flat_tau[sl] = 4.0 * grid.cell_diag * g
            flat_val[sl] = vals[0]
        else:
            flat_val[sl] = eval_points(ct, centers)[0]
    if rel == "=":
        return (np.abs(flat_val) <= flat_tau).reshape(tuple(grid.resolution))
    if rel == ">":
        return (flat_val > 0.0).reshape(tuple(grid.resolution))
    if rel == "<=":
        return (flat_val <= 0.0).reshape(tuple(grid.resolution))
    raise DomainError(f"unsupported relation {rel!r}")


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
        flat = np.zeros(grid.cells, dtype=bool)
        for sl, centers in _chunks(grid, grid.cell_axes[2]):
            r2 = sum(c * c for c in centers)
            flat[sl] = r2 <= ball_radius * ball_radius
        mask &= flat.reshape(tuple(grid.resolution))
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


def resolution_stable_components(dnf, box: Box, abel, resolutions=(512, 1024),
                                 ball_radius: float | None = None):
    """Counts at each resolution plus a stability flag (top two agree)."""
    counts = []
    for res in resolutions:
        grid = GridSpec(box, tuple([res] * box.n))
        counts.append(flood_components(dnf, grid, abel, ball_radius))
    return counts, counts[-1] == counts[-2]
