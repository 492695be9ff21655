"""Certified zero counting for square systems built from the term language.

A census run is a branch-and-prune search over a box: the Krawczyk test
certifies or excludes zeros per box, undecided boxes are bisected until a
depth cap, and whatever remains undecided is reported rather than guessed.
Zeros exactly on a bisection face are caught by inflating each child box a
little before testing; two certificates count as one zero when one's
enclosure lies inside the other's tested box.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .errors import BuildError, DomainError, PathError, count, numbers, parse_json
from .intervals import (Box, Interval, float_inverse, interval_eval_compiled,
                        krawczyk_test, split_step)
from .terms import (RAPrimitive, TermNode, abel_or_default, abel_primitives,
                    add_all, collect_phi_monomials, compile_terms, const,
                    derivative_chain, exp_n, gradient_compiled,
                    growth_exponent, mul_all, parse_term, ra, rebuild,
                    substitute, to_text, var)

DEFAULT_RADIUS = 8.0
DEFAULT_DEPTH = 40

_INFLATE = 0.05          # relative child-box inflation against face zeros
_tuple_new = tuple.__new__


@dataclass(frozen=True)
class SystemParams:
    """Parameter block (l_0..l_n, eps_1..eps_n, delta), all in [-1, 1]."""

    l: tuple
    eps: tuple
    delta: float

    def __post_init__(self):
        vals = list(self.l) + list(self.eps) + [self.delta]
        if any(not (-1.0 <= v <= 1.0) for v in vals):
            raise BuildError("parameters must lie in [-1, 1]")

    @classmethod
    def zeros(cls, n: int) -> "SystemParams":
        return cls(tuple([0.0] * (n + 1)), tuple([0.0] * n), 0.0)

    @classmethod
    def from_dict(cls, d: Mapping, n: int) -> "SystemParams":
        if not isinstance(d, Mapping):
            raise BuildError("params must be an object")
        l = numbers(d.get("l", [0.0] * (n + 1)), "params l", 1)
        eps = numbers(d.get("eps", [0.0] * n), "params eps", 1)
        delta = numbers(d.get("delta", 0.0), "params delta")
        if len(l) != n + 1 or len(eps) != n:
            raise BuildError(f"expected {n + 1} l-entries and {n} eps-entries")
        return cls(l, eps, delta)


class SquareSystem:
    """n equations in n unknowns with numeric parameters substituted; an
    ``abel`` of None stands for the default super-logarithm."""

    def __init__(self, equations: Sequence[TermNode], abel,
                 sources: Sequence[str] | None = None,
                 var_names: Sequence[str] | None = None):
        self.equations = tuple(equations)
        self.n = len(self.equations)
        self.abel = abel
        self.sources = tuple(sources) if sources is not None else None
        self.var_names = tuple(var_names) if var_names is not None else None
        self.compiled = compile_terms(self.equations, abel)
        if self.compiled.n_vars > self.n:
            raise BuildError(
                f"equation uses variable index {self.compiled.n_vars - 1} but "
                f"the system has {self.n} unknowns")
        self.phi_args, self.dphi_args = collect_phi_monomials(self.equations)

    def shifted(self, eta: Sequence[float]) -> "SquareSystem":
        """System with target vector subtracted: equations - eta."""
        eqs = [add_all([eq, const(-float(e))]) if e != 0.0 else eq
               for eq, e in zip(self.equations, eta)]
        return SquareSystem(eqs, self.abel)

    def tilted(self, matrix) -> "SquareSystem":
        """System composed with a linear map: equations evaluated at A x."""
        if len(matrix) != self.n or any(len(r) != self.n for r in matrix):
            raise BuildError(f"matrix of {len(matrix)} rows does not match "
                             f"n={self.n}")
        mapping = {}
        for i in range(self.n):
            parts = []
            for j in range(self.n):
                c = float(matrix[i][j])
                if c == 0.0:
                    continue
                parts.append(var(j) if c == 1.0 else mul_all([const(c), var(j)]))
            mapping[i] = add_all(parts) if parts else const(0.0)
        eqs = [substitute(eq, mapping) for eq in self.equations]
        return SquareSystem(eqs, self.abel)

    def __repr__(self):
        eqs = ", ".join(to_text(eq, self.var_names) for eq in self.equations)
        return f"SquareSystem({eqs})"


def _param_bindings(params: SystemParams, n: int) -> dict:
    extra = {"delta": const(params.delta)}
    for i, v in enumerate(params.l):
        extra[f"l{i}"] = const(v)
    for i, v in enumerate(params.eps):
        extra[f"eps{i + 1}"] = const(v)
    return extra


def build_system(equations: Sequence, params=None, abel=None,
                 var_names: Sequence[str] | None = None) -> SquareSystem:
    """Build a square system from term nodes or source strings.

    Source strings may reference the parameter names l0..ln, eps1..epsn
    and delta; these are substituted as constants from ``params``.
    """
    n = len(equations)
    if n == 0:
        raise BuildError("empty system")
    if var_names is None and any(isinstance(e, str) for e in equations):
        var_names = [f"x{i + 1}" for i in range(n)]
    if params is None:
        sp = SystemParams.zeros(n)
    elif isinstance(params, SystemParams):
        sp = params
    else:
        sp = SystemParams.from_dict(params, n)
    extra = _param_bindings(sp, n)
    nodes = []
    sources = []
    for e in equations:
        if isinstance(e, str):
            sources.append(e)
            nodes.append(parse_term(e, var_names, extra=extra))
        else:
            sources.append(None)
            nodes.append(e)
    srcs = sources if all(s is not None for s in sources) else None
    return SquareSystem(nodes, abel, sources=srcs, var_names=var_names)


# ---------------------------------------------------------------------------
# search radius from the growth argument

@dataclass(frozen=True)
class RadiusReport:
    radius: float
    heuristic: bool
    growth_level: int = 0
    cutoff: float = 0.0
    phi_count: int = 0
    dphi_count: int = 0


def search_radius(system: SquareSystem) -> RadiusReport:
    """Ball radius beyond which zeros are ruled out by the growth bound.

    phi-free systems carry no such bound; they get ``DEFAULT_RADIUS``
    and an explicit heuristic flag.
    """
    args = list(system.phi_args) + list(system.dphi_args)
    if not args:
        return RadiusReport(DEFAULT_RADIUS, True)
    s = max(growth_exponent(a).s for a in args)
    k = len(system.phi_args)
    u = len(system.dphi_args)
    abel = abel_or_default(system.abel)
    d_chain = abel.chain_cutoff(max(k, 1), s)
    d_norm = 2.0 * (2.0 * system.n + 2.0 + u * abel.sup_dphi_global)
    d = max(d_chain, d_norm * (1.0 + 1e-12))
    r = exp_n(d, s)
    return RadiusReport(float(r), False, s, float(d), k, u)


# ---------------------------------------------------------------------------
# branch and prune

@dataclass
class CensusReport:
    certified_count: int
    unknown_boxes: list
    search_radius: float
    depth_used: int
    zeros: list = field(default_factory=list)

    @property
    def exact(self) -> bool:
        return not self.unknown_boxes

    def to_dict(self) -> dict:
        return {
            "certified_count": self.certified_count,
            "exact": self.exact,
            "unknown_boxes": [b.bounds() for b in self.unknown_boxes],
            "search_radius": self.search_radius,
            "depth_used": self.depth_used,
            "zeros": [list(z) for z in self.zeros],
        }


def _inflate(box: Box, outer: Box) -> Box:
    # box padded by _INFLATE of each width (at least 1e-300) and clamped to
    # outer. Each comparison is max(a, b) or min(a, b) of the same operands
    # in the same order, so signed zeros and NaN come out as they would
    coords = []
    for (lo, hi), (olo, ohi) in zip(box, outer):
        pad = hi - lo
        pad = _INFLATE * (1e-300 if 1e-300 > pad else pad)
        lo -= pad
        hi += pad
        lo = olo if olo > lo else lo
        hi = ohi if ohi < hi else hi
        if not lo <= hi:    # as Interval(lo, hi) checks
            raise DomainError(f"invalid interval [{lo}, {hi}]")
        coords.append(_tuple_new(Interval, (lo, hi)))
    return _tuple_new(Box, coords)


def _polish(system: SquareSystem, enclosure: Box) -> list[float]:
    # Newton from the midpoint, kept inside the certified enclosure; it
    # stops at the last finite point when a value, the Jacobian's inverse
    # or a step is not finite. The inverse is the preconditioner's float
    # Gauss-Jordan, and each step a sum in a fixed order, so the polished
    # zeros depend on no linear-algebra library
    bounds = enclosure.bounds()
    x = enclosure.midpoint()
    for _ in range(20):
        vals, grads = gradient_compiled(system.compiled, x)
        inverse = float_inverse(grads)
        if inverse is None or not all(map(math.isfinite, vals)):
            break
        step = []
        for row in inverse:
            s = 0.0
            for c, f in zip(row, vals):
                s += c * f
            step.append(s)
        if not all(map(math.isfinite, step)):
            break
        x = [min(max(v - s, lo), hi) for v, s, (lo, hi) in zip(x, step, bounds)]
        if max(map(abs, step)) < 1e-14 * (1.0 + max(map(abs, x))):
            break
    return x


def _count_over_box(system: SquareSystem, root: Box, max_depth: int,
                    radius_label: float) -> CensusReport:
    if max_depth < 0:
        raise DomainError(f"depth must be non-negative, got {max_depth}")
    stack = [(root, 0)]
    certs: list[tuple[Box, Box]] = []   # (tested box, enclosure) of each hit
    zeros: list[list[float]] = []
    unknown: list[Box] = []
    depth_used = 0
    while stack:
        box, depth = stack.pop()
        depth_used = max(depth_used, depth)
        tested = _inflate(box, root)
        result = krawczyk_test(system, tested)
        if result.verdict == "NoZero":
            continue
        if result.verdict == "UniqueZero":
            enc = result.contracted
            # a tested box holds exactly one zero, which lies in its
            # enclosure: an enclosure inside another certificate's tested
            # box encloses that certificate's zero, and disjoint enclosures
            # hold distinct zeros; any other overlap is bisected like an
            # undecided box
            same = any(enc.within(t) or e.within(tested) for t, e in certs)
            if same or not any(enc.intersects(e) for _, e in certs):
                certs.append((tested, enc))
                if not same:
                    zeros.append(_polish(system, enc))
                continue
        if not split_step(stack, box, depth, max_depth):
            unknown.append(box)
    zeros.sort(key=lambda z: tuple(round(v, 9) for v in z))
    unknown.sort(key=lambda b: tuple(b.bounds()))
    return CensusReport(len(zeros), unknown, radius_label, depth_used, zeros)


def count_nonsingular_zeros(system: SquareSystem, radius: float,
                            max_depth: int = DEFAULT_DEPTH) -> CensusReport:
    """Certified census over the box of the given radius around 0.

    Singular zeros are never counted; they persist as unknown boxes so
    the report shows exactly where certification gave up.
    """
    if not (radius > 0.0) or not math.isfinite(radius):
        raise DomainError("radius must be positive and finite")
    root = Box.cube(float(radius), system.n)
    return _count_over_box(system, root, max_depth, float(radius))


def count_over_box(system: SquareSystem, box: Box,
                   max_depth: int = DEFAULT_DEPTH) -> CensusReport:
    """Census over an explicit box instead of an origin-centered cube."""
    label = max(max(abs(c.lo), abs(c.hi)) for c in box.coords)
    return _count_over_box(system, box, max_depth, float(label))


# ---------------------------------------------------------------------------
# deformation paths

def _determinant(matrix) -> float:
    """Determinant of a square matrix of floats (a sequence of rows) by
    Gaussian elimination with partial pivoting, in plain float code."""
    rows = [[float(c) for c in r] for r in matrix]
    det = 1.0
    for k in range(len(rows)):
        p = max(range(k, len(rows)), key=lambda i: abs(rows[i][k]))
        if rows[p][k] == 0.0:
            return 0.0
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            det = -det
        pivot = rows[k]
        det *= pivot[k]
        for r in rows[k + 1:]:
            f = r[k] / pivot[k]
            for c in range(k + 1, len(rows)):
                r[c] -= f * pivot[c]
    return det


@dataclass(frozen=True)
class DeformationPath:
    """Piecewise-linear path of (matrix, target, params) over t in [0, 1]."""

    breakpoints: tuple
    matrices: tuple
    targets: tuple
    params: tuple | None = None

    def __post_init__(self):
        ts = self.breakpoints
        if len(ts) < 2 or ts[0] != 0.0 or ts[-1] != 1.0:
            raise PathError("breakpoints must run from 0.0 to 1.0")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise PathError("breakpoints must increase")
        if not (len(self.matrices) == len(self.targets) == len(ts)):
            raise PathError("one matrix and target per breakpoint")
        if self.params is not None and len(self.params) != len(ts):
            raise PathError("one param block per breakpoint when given")
        n = len(self.targets[0])
        if any(len(e) != n or len(m) != n or any(len(r) != n for r in m)
               for m, e in zip(self.matrices, self.targets)):
            raise PathError(f"path matrices must be {n} x {n} and targets "
                            f"of length {n}")
        for m in self.matrices:
            if abs(_determinant(m)) < 1e-9:
                raise PathError("singular matrix at a breakpoint")

    def at(self, t: float):
        """(matrix, target, params) at t: each entry (1 - w) * left + w * right
        between the breakpoints around t, left and right as floats."""
        ts = self.breakpoints
        if not (0.0 <= t <= 1.0):
            raise PathError(f"t={t} outside [0, 1]")
        j = max(0, min(len(ts) - 2, bisect.bisect_right(ts, t) - 1))
        w = (t - ts[j]) / (ts[j + 1] - ts[j])
        v = 1.0 - w

        def mix(xs, ys):
            return [v * float(x) + w * float(y) for x, y in zip(xs, ys)]

        a = [mix(r0, r1) for r0, r1 in
             zip(self.matrices[j], self.matrices[j + 1])]
        eta = mix(self.targets[j], self.targets[j + 1])
        params = None
        if self.params is not None:
            p0, p1 = self.params[j], self.params[j + 1]
            params = SystemParams(
                tuple((1 - w) * x + w * y for x, y in zip(p0.l, p1.l)),
                tuple((1 - w) * x + w * y for x, y in zip(p0.eps, p1.eps)),
                (1 - w) * p0.delta + w * p1.delta)
        return a, eta, params


@dataclass
class TrackReport:
    counts: list
    certified: list
    verdict: str
    first_issue_step: Optional[int]
    transitions: list

    def to_dict(self) -> dict:
        return {"counts": self.counts, "certified": self.certified,
                "verdict": self.verdict,
                "first_issue_step": self.first_issue_step,
                "transitions": self.transitions}


def _instantiate(system: SquareSystem, a, eta, params) -> SquareSystem:
    if params is not None:
        if system.sources is None:
            raise PathError(
                "parameter paths need a system built from source text")
        base = build_system(list(system.sources), params, system.abel,
                            system.var_names)
    else:
        base = system
    inst = base if a is None else base.tilted(a)
    if eta is not None and any(v != 0.0 for v in eta):
        inst = inst.shifted(eta)
    return inst


def track_path(system: SquareSystem, path: DeformationPath, steps: int,
               radius: float, max_depth: int = DEFAULT_DEPTH) -> TrackReport:
    """Count zeros along the deformation and report constancy.

    The verdict is "constant" only when every step is fully certified and
    all counts agree; otherwise the first offending step is reported,
    whether the problem is an uncertified box or a count change.
    """
    if steps < 2:
        raise PathError("steps must be at least 2")
    a_sing = None
    counts: list[int] = []
    certified: list[bool] = []
    for j in range(steps + 1):
        t = j / steps
        a, eta, params = path.at(t)
        if abs(_determinant(a)) < 1e-9:
            raise PathError(f"singular matrix at step {j} (t={t})")
        inst = _instantiate(system, a, eta, params)
        rep = count_nonsingular_zeros(inst, radius, max_depth)
        counts.append(rep.certified_count)
        certified.append(rep.exact)
    transitions = [(j, counts[j - 1], counts[j])
                   for j in range(1, len(counts)) if counts[j] != counts[j - 1]]
    bad_steps = [j for j, c in enumerate(certified) if not c]
    issues = bad_steps + [t[0] for t in transitions]
    if not issues:
        verdict = "constant"
        first = None
    else:
        first = min(issues)
        verdict = "uncertified" if bad_steps and min(bad_steps) == first \
            else "varies"
    return TrackReport(counts, certified, verdict, first, transitions)


# ---------------------------------------------------------------------------
# complexity reduction: restrict phi and its derivatives to the ball

def _restrict(prim: RAPrimitive, lo: float, hi: float,
              label: str) -> RAPrimitive:
    # prim and its derivative chain on a padded interval, level k named
    # label_dk. The pad absorbs an argument range over a part of the box
    # that passes its range over the box: phi's and phi''s enclosures
    # are not isotone at the last ulp.
    pad = 0.5 + 0.05 * (hi - lo)
    a, b = lo - pad, hi + pad
    chain = [prim]
    while chain[-1].deriv is not None:
        chain.append(chain[-1].deriv)
    return derivative_chain(
        [label + (f"_d{k}" if k else "") for k in range(len(chain))], a, b,
        [(p.fn, p.range_fn, max(abs(v) for v in p.range_fn(a, b)))
         for p in chain])[0]


def reduce_phi_complexity(system: SquareSystem, radius: float) -> SquareSystem:
    """Replace each phi/dphi node by its restriction to the ball.

    The argument of every phi/dphi occurrence must have a finite range
    enclosure over the search box. A phi or dphi node compiles to the
    abel's primitive over the whole line (``terms.abel_primitives``); the
    reduced system holds that primitive restricted to a compact interval,
    which evaluates and encloses exactly as the node does, and its tape
    has the original's shape.
    """
    if not system.phi_args and not system.dphi_args:
        return system
    box = Box.cube(float(radius), system.n)
    abel = abel_or_default(system.abel)
    prims = abel_primitives(abel)
    made: list = []

    def rewrite(node: TermNode) -> TermNode:
        # rebuild meets each distinct phi or dphi node once, so each
        # (argument, kind) pair gets one primitive
        if node.kind not in ("phi", "dphi"):
            return node
        arg = node.children[0]
        rng = interval_eval_compiled(compile_terms([arg], abel), box)[0]
        if not (math.isfinite(rng.lo) and math.isfinite(rng.hi)):
            raise DomainError(
                f"phi argument {to_text(arg)} has unbounded range over "
                f"the radius-{radius} box")
        label = f"slog_patch{len(made) + 1}"
        if node.kind == "dphi":
            label += "_d"
        made.append(_restrict(prims[node.kind], rng.lo, rng.hi, label))
        return ra(made[-1], arg)

    eqs = rebuild(system.equations, rewrite)
    return SquareSystem(eqs, abel, var_names=system.var_names)


# ---------------------------------------------------------------------------
# system description files

def load_system_file(path: str, abel=None):
    """Read a JSON system description; returns (system, radius or None)."""
    with open(path, "rb") as fh:
        return system_from_dict(parse_json(fh.read(), "system file"), abel)


def read_file_fields(doc, what: str, body: str):
    """(variable names, the ``body`` list, radius or None) of a system or
    formula document; BuildError when the document is malformed."""
    if not isinstance(doc, dict):
        raise BuildError(f"{what} file must hold a JSON object")
    try:
        vars_field = doc["vars"]
        content = doc[body]
    except KeyError as exc:
        raise BuildError(f"{what} file missing field {exc}") from exc
    if (isinstance(vars_field, list)
            and all(isinstance(v, str) for v in vars_field)):
        var_names = vars_field
    else:
        var_names = [f"x{i + 1}" for i in
                     range(count(vars_field, f"{what} file vars", 1))]
    if not isinstance(content, list):
        raise BuildError(f"{body} must be a list")
    radius = doc.get("radius")
    return var_names, content, None if radius is None else numbers(
        radius, f"{what} file radius")


def system_from_dict(doc: dict, abel=None):
    var_names, equations, radius = read_file_fields(doc, "system", "equations")
    if not all(isinstance(e, str) for e in equations):
        raise BuildError("equations must be strings")
    if len(equations) != len(var_names):
        raise BuildError(
            f"{len(equations)} equations for {len(var_names)} variables")
    system = build_system(equations, doc.get("params"), abel, var_names)
    return system, radius
