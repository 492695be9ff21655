"""Spans around calls into each slogcensus layer, and the per-layer metrics.

A traced run replaces the module attributes that the program calls through
(``slogcensus.census.krawczyk_test``, ``slogcensus.gridoracle.eval_cells``
and so on, plus the interval and array methods of ``AbelFunction``) with
timing wrappers. Nothing under ``src/`` changes. Each span records its
name, start, end, parent span and operation id, and up to three numbers
read from the call: its work (points, cells, tape length) and its result
(Krawczyk verdict, census depth and unknown boxes). Spans are kept in
compact arrays and written out when the run ends.
"""

from __future__ import annotations

import array
import functools
import sys
import time

import numpy as np

_VERDICT = {"UniqueZero": 0.0, "NoZero": 1.0, "Unknown": 2.0}


def _size_of_arg(k):
    return lambda args: float(np.size(args[k]))


def _first_array_of_arg(k):
    return lambda args: float(np.size(args[k][0]))


def _census_result(rep):
    return float(rep.depth_used), float(len(rep.unknown_boxes))


# layer -> (owner, attribute, work from args, numbers from result); an owner
# that is a class name wraps a method, so args[0] is self
TRACED = {
    "abel": [
        ("slogcensus.abel", "build_abel", None, None),
        ("AbelFunction", "interval_phi", None, None),
        ("AbelFunction", "interval_dphi", None, None),
        ("AbelFunction", "interval_d2phi", None, None),
        ("AbelFunction", "eval_phi_array", _size_of_arg(1), None),
        ("AbelFunction", "eval_dphi_array", _size_of_arg(1), None),
    ],
    "terms": [
        ("slogcensus.terms", "parse_term", None, None),
        ("slogcensus.terms", "compile_terms", None, None),
        ("slogcensus.terms", "differentiate", None, None),
        ("slogcensus.terms", "substitute", None, None),
        ("slogcensus.terms", "eval_compiled", None, None),
        ("slogcensus.terms", "gradient_compiled", None, None),
    ],
    "intervals": [
        ("slogcensus.intervals", "krawczyk_test",
         lambda args: float(len(args[0].compiled.ops)),
         lambda res: (_VERDICT[res.verdict], 0.0)),
        ("slogcensus.intervals", "interval_eval_compiled", None, None),
        ("slogcensus.intervals", "interval_jacobian_compiled", None, None),
    ],
    "census": [
        ("slogcensus.census", "count_nonsingular_zeros", None,
         _census_result),
        ("slogcensus.census", "count_over_box", None, _census_result),
        ("slogcensus.census", "reduce_phi_complexity", None, None),
        ("slogcensus.census", "search_radius", None, None),
    ],
    "morse": [
        ("slogcensus.morse", "component_bound", None,
         lambda rep: (float(len(rep.stage_counts)), 0.0)),
        ("slogcensus.morse", "gamma_estimate", None, None),
        ("slogcensus.morse", "certify_schedule", None, None),
        ("slogcensus.morse", "prove_empty", None, None),
        ("slogcensus.morse", "critical_system", None, None),
        ("slogcensus.morse", "oracle_components", None, None),
    ],
    "gridoracle": [
        ("slogcensus.gridoracle", "eval_cells", _first_array_of_arg(1),
         None),
        ("slogcensus.gridoracle", "eval_points", _first_array_of_arg(1),
         None),
        ("slogcensus.gridoracle", "gradient_points", _first_array_of_arg(1),
         None),
        ("slogcensus.gridoracle", "oracle_zero_count", None, None),
        ("slogcensus.gridoracle", "flood_components", None, None),
        ("slogcensus.gridoracle", "flood_components_sublevel", None, None),
    ],
}

SETUP_OP = -1      # spans outside any operation
PROBE_OP = -2      # spans of the probe operations (see workloads.PROBE)


class Tracer:
    """Span recorder; ``op`` is the id of the operation now running."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name = array.array("H")
        self.parent = array.array("l")
        self.op_of = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self.work = array.array("d")
        self.info = array.array("d")
        self.info2 = array.array("d")
        self.stack: list[int] = []
        self.op = SETUP_OP

    def install(self):
        """Wrap every function in TRACED wherever a slogcensus module holds
        a reference to it."""
        from slogcensus.abel import AbelFunction

        holders = [m for n, m in sys.modules.items()
                   if n == "slogcensus" or n.startswith("slogcensus.")]
        for layer, entries in TRACED.items():
            for owner, attr, work_fn, info_fn in entries:
                if owner == "AbelFunction":
                    fn = getattr(AbelFunction, attr)
                    setattr(AbelFunction, attr,
                            self._wrap(attr, layer, fn, work_fn, info_fn))
                    continue
                fn = getattr(sys.modules[owner], attr)
                wrapper = self._wrap(attr, layer, fn, work_fn, info_fn)
                for mod in holders:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapper)

    def _wrap(self, label, layer, fn, work_fn, info_fn):
        nid = len(self.names)
        self.names.append(label)
        self.layers.append(layer)
        name, parent, op_of = self.name, self.parent, self.op_of
        start, end, work = self.start, self.end, self.work
        info, info2, stack = self.info, self.info2, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_of.append(self.op)
            work.append(work_fn(args) if work_fn is not None else 0.0)
            info.append(0.0)
            info2.append(0.0)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if info_fn is not None:
                info[i], info2[i] = info_fn(result)
            return result

        return wrapper

    def arrays(self) -> dict:
        out = {key: np.frombuffer(getattr(self, key), dtype=dtype).copy()
               for key, dtype in (("name", np.uint16), ("parent", np.int64),
                                  ("op_of", np.int64), ("start", np.float64),
                                  ("end", np.float64), ("work", np.float64),
                                  ("info", np.float64),
                                  ("info2", np.float64))}
        out["names"] = np.array(self.names)
        out["layers"] = np.array(self.layers)
        return out


# ---------------------------------------------------------------------------
# per-layer metrics

class _Spans:
    """Span arrays restricted to one scope, with self times."""

    def __init__(self, arr: dict, keep: np.ndarray, passes: int):
        names = list(arr["names"])
        dur = arr["end"] - arr["start"]
        parent = arr["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self.ids = {n: i for i, n in enumerate(names)}
        self.name = arr["name"]
        self.parent = parent
        self.dur = dur
        self.self_time = dur - child
        self.work = arr["work"]
        self.info = arr["info"]
        self.info2 = arr["info2"]
        self.keep = keep
        self.passes = passes

    def of(self, *labels):
        ids = [self.ids[lab] for lab in labels]
        return self.keep & np.isin(self.name, ids)

    def under(self, labels, parents):
        """Spans named ``labels`` whose parent span is one of ``parents``."""
        mask = self.of(*labels)
        par = self.parent[mask]
        pmask = self.of(*parents)
        ok = np.zeros(mask.sum(), dtype=bool)
        ok[par >= 0] = pmask[par[par >= 0]]
        out = np.zeros_like(mask)
        out[np.flatnonzero(mask)[ok]] = True
        return out


def _mean(values, mask, scale=1.0):
    n = int(mask.sum())
    return (float(values[mask].mean()) * scale if n else 0.0), n


def _per_pass(s, mask, values=None):
    n = int(mask.sum())
    total = float(values[mask].sum()) if values is not None else float(n)
    return total / s.passes, n


def _ratio(num, den, scale=1.0):
    return (num / den * scale if den else 0.0), int(den > 0)


_ABEL_IV = ("interval_phi", "interval_dphi", "interval_d2phi")
_ABEL_ARR = ("eval_phi_array", "eval_dphi_array")
_TERMS_BUILD = ("parse_term", "compile_terms", "differentiate", "substitute")
_TERMS_POINT = ("eval_compiled", "gradient_compiled")
_CENSUS = ("count_nonsingular_zeros", "count_over_box")
_MORSE = tuple(attr for _, attr, _, _ in TRACED["morse"])
_GRID_EVAL = ("eval_cells", "eval_points", "gradient_points")
_GRID_LABEL = ("oracle_zero_count", "flood_components",
               "flood_components_sublevel")


def _verdicts(s, code):
    mask = s.of("krawczyk_test")
    return _per_pass(s, mask & (s.info == code))[0], int(mask.sum())


def _decided(s):
    mask = s.of("krawczyk_test")
    decided = int((mask & (s.info < 2.0)).sum())
    return _ratio(decided, int(mask.sum()))


def _boxes_per_census(s):
    return _ratio(int(s.of("krawczyk_test").sum()), int(s.of(*_CENSUS).sum()))


def _boxes_per_s(s):
    m = s.of(*_CENSUS)
    return _ratio(int(s.of("krawczyk_test").sum()), float(s.dur[m].sum()))


def _census_self(s):
    m = s.of(*_CENSUS)
    return _ratio(float(s.self_time[m].sum()),
                  int(s.of("krawczyk_test").sum()), 1e6)


def _depth_max(s):
    m = s.of(*_CENSUS)
    return (float(s.info[m].max()) if m.any() else 0.0), int(m.sum())


def _prove_empty_boxes(s):
    boxes = s.under(("interval_eval_compiled",), ("prove_empty",))
    return _ratio(int(boxes.sum()), int(s.of("prove_empty").sum()))


def _rotations(s):
    stages = float(s.info[s.of("component_bound")].sum())
    censuses = s.under(_CENSUS, ("component_bound",))
    return _ratio(int(censuses.sum()), stages)


def _eval_ns_per_cell(s):
    m = s.of(*_GRID_EVAL)
    return _ratio(float(s.dur[m].sum()), float(s.work[m].sum()), 1e9)


def _array_ns(s):
    m = s.of(*_ABEL_ARR)
    return _ratio(float(s.dur[m].sum()), float(s.work[m].sum()), 1e9)


def _sublevel_grids(s):
    grids = s.under(("flood_components_sublevel",), ("gamma_estimate",))
    return _ratio(int(grids.sum()), int(s.of("gamma_estimate").sum()))


# name -> (unit, function of the scoped spans returning (value, base)); a
# base of 0 means the scope made no call the metric reads
LAYER_METRICS = {
    "abel.interval_calls": ("count", lambda s: _per_pass(s, s.of(*_ABEL_IV))),
    "abel.interval_us": ("us", lambda s: _mean(s.dur, s.of(*_ABEL_IV), 1e6)),
    "abel.array_ns_per_point": ("ns", _array_ns),
    # length of the tape that each Krawczyk test walks
    "terms.tape_ops": ("count",
                       lambda s: _mean(s.work, s.of("krawczyk_test"))),
    "terms.build_ms": ("ms", lambda s: (
        _per_pass(s, s.of(*_TERMS_BUILD), s.dur)[0] * 1e3,
        int(s.of(*_TERMS_BUILD).sum()))),
    "terms.point_eval_us": ("us",
                            lambda s: _mean(s.dur, s.of(*_TERMS_POINT), 1e6)),
    "intervals.krawczyk_calls": ("count", lambda s: _per_pass(
        s, s.of("krawczyk_test"))),
    "intervals.krawczyk_us": ("us", lambda s: _mean(
        s.dur, s.of("krawczyk_test"), 1e6)),
    "intervals.range_us": ("us", lambda s: _mean(
        s.dur, s.of("interval_eval_compiled"), 1e6)),
    "intervals.jacobian_us": ("us", lambda s: _mean(
        s.dur, s.of("interval_jacobian_compiled"), 1e6)),
    "intervals.unique": ("count", lambda s: _verdicts(s, 0.0)),
    "intervals.nozero": ("count", lambda s: _verdicts(s, 1.0)),
    "intervals.unknown": ("count", lambda s: _verdicts(s, 2.0)),
    "intervals.decided_ratio": ("ratio", _decided),
    "census.boxes_per_census": ("count", _boxes_per_census),
    "census.boxes_per_s": ("1/s", _boxes_per_s),
    "census.self_us_per_box": ("us", _census_self),
    "census.depth_max": ("count", _depth_max),
    "census.unknown_boxes": ("count", lambda s: (
        _per_pass(s, s.of(*_CENSUS), s.info2)[0], int(s.of(*_CENSUS).sum()))),
    "census.reduce_ms": ("ms", lambda s: _mean(
        s.dur, s.of("reduce_phi_complexity"), 1e3)),
    "morse.prove_empty_ms": ("ms", lambda s: _mean(
        s.dur, s.of("prove_empty"), 1e3)),
    "morse.prove_empty_boxes": ("count", _prove_empty_boxes),
    "morse.stage_census_ms": ("ms", lambda s: _mean(
        s.dur, s.under(_CENSUS, ("component_bound",)), 1e3)),
    "morse.rotations_per_stage": ("count", _rotations),
    "morse.self_ms": ("ms", lambda s: (
        _per_pass(s, s.of(*_MORSE), s.self_time)[0] * 1e3,
        int(s.of(*_MORSE).sum()))),
    "gridoracle.cells": ("count", lambda s: (
        _per_pass(s, s.of(*_GRID_EVAL), s.work)[0],
        int(s.of(*_GRID_EVAL).sum()))),
    "gridoracle.eval_ns_per_cell": ("ns", _eval_ns_per_cell),
    "gridoracle.label_ms": ("ms", lambda s: (
        _per_pass(s, s.of(*_GRID_LABEL), s.self_time)[0] * 1e3,
        int(s.of(*_GRID_LABEL).sum()))),
    "gridoracle.sublevel_grids": ("count", _sublevel_grids),
}


def layer_metrics(arr: dict, passes: int) -> tuple[dict, dict]:
    """Per-layer metrics from the workload's own spans; a metric whose
    calls the workload never makes reads the probe spans instead.

    Returns ({name: (value, unit)}, {name: "workload" | "probe"}).
    """
    op_of = arr["op_of"]
    work = _Spans(arr, op_of >= 0, passes)
    probe = _Spans(arr, op_of == PROBE_OP, 1)
    values, sources = {}, {}
    for name, (unit, fn) in LAYER_METRICS.items():
        value, base = fn(work)
        sources[name] = "workload"
        if not base:
            value, _ = fn(probe)
            sources[name] = "probe"
        values[name] = (value, unit)
    setup = _Spans(arr, op_of == SETUP_OP, 1)
    build, _ = _mean(setup.dur, setup.of("build_abel"), 1e3)
    values["abel.build_ms"] = (build, "ms")
    sources["abel.build_ms"] = "setup"
    return values, sources
