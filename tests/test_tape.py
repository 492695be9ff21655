"""One tape walker, four arithmetics: floats, intervals, point arrays and
cell arrays must agree with each other on every opcode."""

import numpy as np
import pytest

from slogcensus.census import build_system, reduce_phi_complexity
from slogcensus.errors import DifferentiationError, DomainError
from slogcensus.gridoracle import eval_cells, eval_points, gradient_points
from slogcensus.intervals import (Box, interval_eval_compiled,
                                  interval_jacobian_compiled)
from slogcensus.terms import (RAPrimitive, compile_terms, default_catalog,
                              eval_compiled, gradient_compiled, parse_term)

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
    assert codes == set(range(11))
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
            ranges = interval_eval_compiled(ct, box, abel)
            _, jac = interval_jacobian_compiled(ct, box, abel)
            for p in _samples(box, rng):
                vals = eval_compiled(ct, p, abel)
                gvals, grads = gradient_compiled(ct, p, abel)
                assert gvals == vals
                points.append((p, vals, grads))
                for r, v in enumerate(vals):
                    assert ranges[r].contains(v), (ct.roots[r], box, p)
                    for j, g in enumerate(grads[r]):
                        assert jac[r][j].contains(g), (r, j, box, p)

        # point arrays against the float walk, to rounding of the
        # vectorised exp, log and phi routines
        coords = [np.array([p[j] for p, _, _ in points]) for j in range(2)]
        arr = eval_points(ct, coords, abel)
        garr, gradarr = gradient_points(ct, coords, abel)
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
        cells = eval_cells(ct, los, his, abel)
        per_box = len(points) // len(boxes)
        for k, (p, vals, _) in enumerate(points):
            cell = k // per_box
            for r, v in enumerate(vals):
                assert cells[r][0][cell] <= v <= cells[r][1][cell], (r, p)


def _every_walk(ct, point, abel):
    """One call per evaluator at the point (as a one-cell grid and as a
    degenerate box)."""
    box = Box.from_bounds([(v, v) for v in point])
    arrays = [np.array([v]) for v in point]
    return {
        "eval_compiled": lambda: eval_compiled(ct, point, abel),
        "gradient_compiled": lambda: gradient_compiled(ct, point, abel),
        "interval_eval_compiled": lambda: interval_eval_compiled(ct, box, abel),
        "interval_jacobian_compiled":
            lambda: interval_jacobian_compiled(ct, box, abel),
        "eval_points": lambda: eval_points(ct, arrays, abel),
        "gradient_points": lambda: gradient_points(ct, arrays, abel),
        "eval_cells": lambda: eval_cells(ct, arrays, arrays, abel),
    }


@pytest.mark.parametrize("source,point", [
    ("log(x1)", [-0.5]),
    ("log(x1 - x1)", [1.0]),
    ("sin(x1)", [3.0]),
    ("atan(x1*x1)", [1.6]),
])
def test_every_walk_rejects_points_outside_the_domain(abel, source, point):
    cat = default_catalog(restriction=2.0)
    ct = compile_terms([parse_term(source, catalog=cat)])
    for walk in _every_walk(ct, point, abel).values():
        with pytest.raises(DomainError):
            walk()


def test_gradients_of_a_primitive_without_derivative_fail_alike(abel):
    # d3atan closes the catalog's atan chain and has no derivative
    ct = compile_terms([parse_term("d3atan(x1)")])
    walks = _every_walk(ct, [0.25], abel)
    for name in ("gradient_compiled", "interval_jacobian_compiled",
                 "gradient_points"):
        with pytest.raises(DifferentiationError):
            walks[name]()
    for name in ("eval_compiled", "interval_eval_compiled", "eval_points",
                 "eval_cells"):
        walks[name]()
