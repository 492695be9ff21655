"""Component bounds for quantifier-free sets via compact level-set tubes.

The chain: normalize a formula to a disjunction of {=, >} atoms, collapse
it to a single equation (one auxiliary variable per strict atom of a
conjunction, shared across conjunctions), add squared affine constraints,
thicken the zero set to a compact tube, and count critical points of a
generic height function on the tube boundary.
Half the certified critical count bounds the number of connected
components; a grid oracle supplies the independent comparison value.

The passage from tube components to the limit set's components is a
topological continuity step the code assumes rather than re-checks; every
report carries that flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .abel import get_default_abel
from .census import SquareSystem, count_nonsingular_zeros, read_file_fields
from .errors import BuildError, CertificationError, DomainError, parse_json
from .gridoracle import GridSpec, flood_components, flood_components_sublevel
from .intervals import Box, interval_eval_compiled, split_step
from .terms import (TermNode, add_all, compile_terms, const, differentiate,
                    free_variables, mul, mul_all, neg, parse_term, sub,
                    substitute, var)

_ORTHO_TOL = 1e-12
_ORACLE_RES = {1: 2048, 2: 512, 3: 128}
CENSUS_DEPTH = 36
EMPTY_DEPTH = 34          # prove_empty's bisection depth cap


def _sq(t: TermNode) -> TermNode:
    return mul(t, t)


def _linear_form(coeffs) -> TermNode:
    """sum c_j * x_j over the nonzero coefficients; 0 when there are none."""
    return add_all([mul_all([const(float(c)), var(j)])
                    for j, c in enumerate(coeffs) if float(c) != 0.0])


# ---------------------------------------------------------------------------
# formulas

@dataclass(frozen=True)
class QFFormula:
    """Disjunction of conjunctions of (term, rel) atoms, rel in {=, >}."""

    dnf: tuple
    n: int

    def __post_init__(self):
        for conj in self.dnf:
            for _, rel in conj:
                if rel not in ("=", ">"):
                    raise BuildError(f"non-normalized relation {rel!r}")


# Each relation of t to 0, stated once as the disjunction of {=, >} atoms
# it means; True marks an atom over -t. A negated atom takes the
# relation's complement.
_MEANS = {
    "=": (("=", False),),
    ">": ((">", False),),
    "<": ((">", True),),
    ">=": ((">", False), ("=", False)),
    "<=": ((">", True), ("=", False)),
    "!=": ((">", False), (">", True)),
}
_COMPLEMENT = {"=": "!=", "!=": "=", ">": "<=", "<=": ">", "<": ">=",
               ">=": "<"}
_KINDS = {str: "another string", list: "an array",
          dict: "an object", bool: "a boolean", int: "a number",
          float: "a number", type(None): "null"}


def _dnf(node, negated: bool) -> list:
    """DNF of a formula tree, or of its negation when ``negated``: a list
    of conjunctions, each a list of (term, rel) atoms with rel in {=, >}.
    Negation moves down by De Morgan and ends in a complement relation."""
    kind = node[0]
    if kind == "atom":
        _, term, rel = node
        if not (isinstance(rel, str) and rel in _MEANS):
            # named by its JSON kind, never echoed: it may be any document
            got = _KINDS.get(type(rel), type(rel).__name__)
            raise BuildError(f"relation must be one of {', '.join(_MEANS)}; "
                             f"got {got}")
        if negated:
            rel = _COMPLEMENT[rel]
        return [[(neg(term) if flip else term, r)] for r, flip in _MEANS[rel]]
    if kind == "not":
        return _dnf(node[1], not negated)
    if kind not in ("and", "or"):
        raise BuildError(f"unknown formula node {kind!r}")
    parts = [_dnf(c, negated) for c in node[1:]]
    if (kind == "or") != negated:     # an or, or a negated and: a union
        return [conj for p in parts for conj in p]
    out = [[]]
    for p in parts:
        out = [a + b for a in out for b in p]
    return out


def normalize(formula, n: int) -> QFFormula:
    """Rewrite a formula tree to DNF over {=, >} atoms.

    Formula trees are tuples: ("atom", term, rel), ("not", f),
    ("and", f1, ...), ("or", f1, ...), with rel drawn from
    {=, >, <, <=, >=, !=}. A bare QFFormula passes through unchanged.
    """
    if isinstance(formula, QFFormula):
        return formula
    return QFFormula(tuple(tuple(c) for c in _dnf(formula, False)), n)


def atom(term: TermNode, rel: str = "="):
    return ("atom", term, rel)


# ---------------------------------------------------------------------------
# single-equation reduction and affine restriction

def wilkie_reduce(formula: QFFormula):
    """Collapse a DNF to one equation whose zero set projects onto it.

    Equality atoms contribute their term squared; the j-th strict atom
    f > 0 of a conjunction gets the variable u_j with (f*u_j^2 - 1)^2,
    solvable exactly when f > 0. Every conjunction shares u_0, u_1, ...:
    the product's zero set is the union of its factors' zero sets, and each
    factor still projects onto its own conjunction. Returns (product term,
    auxiliary variable count), the count being the most strict atoms in
    one conjunction.
    """
    aux = 0
    factors = []
    for conj in formula.dnf:
        squares = []
        strict = 0
        for term, rel in conj:
            if rel == "=":
                squares.append(_sq(term))
            else:
                u = var(formula.n + strict)
                strict += 1
                squares.append(_sq(sub(mul_all([term, _sq(u)]),
                                          const(1.0))))
        aux = max(aux, strict)
        factors.append(add_all(squares))
    return mul_all(factors), aux


@dataclass(frozen=True)
class AffineSubspace:
    """Rows (l_1..l_n, offset), each entry in [-1, 1]; zero rows allowed."""

    rows: tuple

    def __post_init__(self):
        for row in self.rows:
            if any(not (-1.0 <= float(v) <= 1.0) for v in row):
                raise BuildError("affine entries must lie in [-1, 1]")

    @classmethod
    def full(cls) -> "AffineSubspace":
        return cls(())

    def constraint_terms(self, n: int) -> list[TermNode]:
        out = []
        for row in self.rows:
            if len(row) != n + 1:
                raise BuildError(f"affine row needs {n + 1} entries")
            out.append(sub(_linear_form(row[:-1]), const(float(row[-1]))))
        return out


def affine_restrict(f: TermNode, subspace: AffineSubspace, n: int) -> TermNode:
    """Add squared affine constraints: F + sum (l . x - l_m)^2."""
    cons = subspace.constraint_terms(n)
    if not cons:
        return f
    return add_all([f] + [_sq(c) for c in cons])


def _nvars(f_l: TermNode, nvars: int | None) -> int:
    """nvars when given, else the largest free variable + 1 (1 for none)."""
    if nvars is None:
        nvars = max(free_variables(f_l), default=0) + 1
    return nvars


def milnor_tube(f_l: TermNode, eps: float, delta: float,
                nvars: int | None = None) -> TermNode:
    """Level form of the compact thickening: F_L^2 + eps*|x|^2 - delta^2,
    over ``nvars`` coordinates (default: the largest free variable + 1)."""
    if not (0.0 < eps < 1.0 and 0.0 < delta < 1.0):
        raise DomainError("eps and delta must lie in (0, 1)")
    radial = add_all([_sq(var(i)) for i in range(_nvars(f_l, nvars))])
    return add_all([_sq(f_l), mul_all([const(eps), radial]),
                    const(-delta * delta)])


# ---------------------------------------------------------------------------
# critical-point system of the height function on the tube

def critical_system(f_l: TermNode, eps: float, delta: float, rotation,
                    abel=None, nvars: int | None = None) -> SquareSystem:
    """Square system for the critical points of the last-coordinate
    projection on the tube boundary, in rotated coordinates y = Q x."""
    if abel is None:
        abel = get_default_abel()
    q = np.asarray(rotation, dtype=float)
    nv = _nvars(f_l, nvars)
    if q.shape != (nv, nv):
        raise BuildError(f"rotation shape {q.shape}, expected ({nv}, {nv})")
    if float(np.max(np.abs(q.T @ q - np.eye(nv)))) > _ORTHO_TOL:
        raise BuildError("rotation is not orthogonal to 1e-12")
    # x_i = sum_j Q[j][i] y_j substitutes the inverse rotation
    g = substitute(f_l, {i: _linear_form(q[:, i]) for i in range(nv)})
    eqs = []
    for i in range(nv - 1):
        dg = differentiate(g, i)
        eqs.append(add_all([mul_all([const(2.0), g, dg]),
                            mul_all([const(2.0 * eps), var(i)])]))
    eqs.append(milnor_tube(g, eps, delta, nv))
    return SquareSystem(eqs, abel)


# ---------------------------------------------------------------------------
# emptiness prover and schedule certification

def prove_empty(equations: Sequence[TermNode], box: Box, abel) -> bool:
    """Certify that no common zero exists in the box, by subdivision.

    Possibly overdetermined: a box dies when any equation's enclosure
    misses 0. Returns False at the first undecided box that ``split_step``
    cannot split (depth ``EMPTY_DEPTH`` or zero width).
    """
    ct = compile_terms(list(equations), abel)
    stack = [(box, 0)]
    while stack:
        b, depth = stack.pop()
        ranges = interval_eval_compiled(ct, b)
        if any(not r.contains_zero() for r in ranges):
            continue
        if not split_step(stack, b, depth, EMPTY_DEPTH):
            return False
    return True


@dataclass(frozen=True)
class MilnorSchedule:
    """Strictly decreasing (eps, delta) stages inside (0, 1)^2."""

    pairs: tuple

    def __post_init__(self):
        for e, d in self.pairs:
            if not (0.0 < e < 1.0 and 0.0 < d < 1.0):
                raise BuildError("schedule entries must lie in (0, 1)^2")
        es = [p[0] for p in self.pairs]
        ds = [p[1] for p in self.pairs]
        if any(b >= a for a, b in zip(es, es[1:])) or \
           any(b >= a for a, b in zip(ds, ds[1:])):
            raise BuildError("schedule must strictly decrease")


def schedule_for_ball(radius: float) -> MilnorSchedule:
    """Three stages, delta halving from min(0.1, radius/10) and eps
    quartering, whose tube ball delta/sqrt(eps) equals the given radius
    at every stage, so the tube can reach the whole search region."""
    if not (radius > 0.0 and math.isfinite(radius)):
        raise DomainError("radius must be finite and positive")
    delta0 = min(0.1, radius / 10.0)
    eps0 = (delta0 / radius) ** 2
    return MilnorSchedule(tuple((eps0 * 0.25 ** i, delta0 * 0.5 ** i)
                                for i in range(3)))


def _regular_level(f_l: TermNode, eps: float, delta: float, abel,
                   nv: int) -> bool:
    # delta^2 is regular for F_L^2 + eps|x|^2 iff the tube level and its
    # gradient have no common zero; all such points satisfy
    # eps|x|^2 <= delta^2
    tube = milnor_tube(f_l, eps, delta, nv)
    eqs = [differentiate(tube, i) for i in range(nv)] + [tube]
    r = delta / math.sqrt(eps) * (1.0 + 1e-6)
    return prove_empty(eqs, Box.cube(r, nv), abel)


def certify_schedule(f_l: TermNode, schedule: MilnorSchedule, abel,
                     nvars: int, seed: int = 0) -> MilnorSchedule:
    """Check each delta^2 is a regular value, resampling delta within
    +/-10% (seeded, at most 8 tries) when a stage fails its
    certificate."""
    rng = np.random.default_rng(seed)
    out = []
    for eps, delta in schedule.pairs:
        d = delta
        for _ in range(8):
            # a draw outside (0, 1) is no tube level: a failed try
            if 0.0 < d < 1.0 and _regular_level(f_l, eps, d, abel, nvars):
                break
            d = delta * (1.0 + float(rng.uniform(-0.1, 0.1)))
        else:
            raise CertificationError(
                f"no regular level near delta={delta} at eps={eps}")
        out.append((eps, d))
    # resampling must not break the strict decrease
    ds = [p[1] for p in out]
    if any(b >= a for a, b in zip(ds, ds[1:])):
        raise CertificationError("resampled deltas lost monotonicity")
    return MilnorSchedule(tuple(out))


# ---------------------------------------------------------------------------
# component bound and gamma estimate

@dataclass
class ComponentReport:
    critical_count: int
    component_bound: int
    oracle_components: Optional[int]
    rotation: list
    schedule: list
    stage_counts: list = field(default_factory=list)
    limit_transfer_assumed: bool = True

    def to_dict(self) -> dict:
        return {
            "critical_count": self.critical_count,
            "component_bound": self.component_bound,
            "oracle_components": self.oracle_components,
            "rotation": self.rotation,
            "schedule": [list(p) for p in self.schedule],
            "stage_counts": self.stage_counts,
            "limit_transfer_assumed": self.limit_transfer_assumed,
        }


def _haar_rotation(nv: int, rng) -> np.ndarray:
    a = rng.normal(size=(nv, nv))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def _oracle_dnf(formula: QFFormula, subspace: AffineSubspace):
    dnf = []
    cons = subspace.constraint_terms(formula.n)
    for conj in formula.dnf:
        dnf.append(list(conj) + [(c, "=") for c in cons])
    return dnf


def oracle_components(formula: QFFormula, subspace: AffineSubspace,
                      radius: float, abel) -> int:
    """Grid flood-fill count of formula ∩ subspace ∩ ball components."""
    grid = GridSpec.square(radius, formula.n, _ORACLE_RES.get(formula.n, 64))
    return flood_components(_oracle_dnf(formula, subspace), grid, abel,
                            ball_radius=radius)


def component_bound(formula, subspace: AffineSubspace, radius: float,
                    seed: int = 0, abel=None, n: int | None = None,
                    include_oracle: bool = True,
                    census_depth: int = CENSUS_DEPTH) -> ComponentReport:
    """Certified critical-count bound on connected components.

    Per stage: rotate by a seeded Haar draw, count the critical system's
    zeros, and insist every zero is certified; up to 5 fresh rotations
    absorb unlucky (non-Morse) directions. The component bound is half
    the worst certified stage count, rounded up.
    """
    if abel is None:
        abel = get_default_abel()
    if not isinstance(formula, QFFormula):
        if n is None:
            raise BuildError("n is required for unnormalized formulas")
        formula = normalize(formula, n)
    f, aux = wilkie_reduce(formula)
    nv = formula.n + aux
    f_l = affine_restrict(f, subspace, formula.n)
    schedule = certify_schedule(f_l, schedule_for_ball(radius), abel, nv,
                                seed=seed)
    rng = np.random.default_rng(seed)
    stage_counts = []
    used_rotation = None
    for eps, delta in schedule.pairs:
        count = None
        for _ in range(5):
            q = _haar_rotation(nv, rng)
            system = critical_system(f_l, eps, delta, q, abel, nv)
            # critical points can sit exactly on the |y| = delta/sqrt(eps)
            # sphere; a 1% cushion keeps them certifiable off the cube faces
            r = delta / math.sqrt(eps) * 1.01 + 1e-9
            rep = count_nonsingular_zeros(system, r, census_depth)
            if rep.exact:
                count = rep.certified_count
                used_rotation = q
                break
        if count is None:
            raise CertificationError(
                f"no Morse rotation found at eps={eps}, delta={delta}")
        stage_counts.append(count)
    critical = max(stage_counts)
    bound = (critical + 1) // 2
    oracle = None
    if include_oracle and formula.n in _ORACLE_RES:
        oracle = oracle_components(formula, subspace, radius, abel)
    return ComponentReport(
        critical, bound, oracle,
        [[float(v) for v in row] for row in used_rotation],
        list(schedule.pairs), stage_counts)


@dataclass
class GammaReport:
    estimate: int
    bound: int
    trials: list

    def to_dict(self) -> dict:
        return {"estimate": self.estimate, "bound": self.bound,
                "trials": self.trials}


def _stable_sublevel_count(term: TermNode, nv: int, radius: float, abel):
    """Sublevel component count, escalating resolution until two
    consecutive grids agree. Returns (count, stable)."""
    base = _ORACLE_RES.get(nv)
    if base is None:
        raise BuildError(f"grid oracle supports at most 3 dims, got {nv}")
    prev = None
    res = base
    for _ in range(4):
        grid = GridSpec.square(radius, nv, res)
        count = flood_components_sublevel(term, grid, abel)
        if prev is not None and count == prev:
            return count, True
        prev = count
        res *= 2
    return prev, False


def gamma_estimate(formula, n: int, trials: int, radius: float, seed: int,
                   abel=None,
                   census_depth: int = CENSUS_DEPTH) -> GammaReport:
    """Sampled estimate of the worst affine-slice component count.

    Each trial draws a row count k in {0..n} and k affine rows with
    entries uniform in [-1, 1]. The certified pipeline bounds the slice's
    components; the oracle side flood-fills the same compact thickening
    the bound measures (its component count obeys the half-critical-count
    inequality stage by stage, with no limit passage), so the estimate
    can never exceed the bound on a trial.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if abel is None:
        abel = get_default_abel()
    formula = normalize(formula, n) if not isinstance(formula, QFFormula) \
        else formula
    f, aux = wilkie_reduce(formula)
    nv = formula.n + aux
    rng = np.random.default_rng(seed)
    per_trial = []
    best = 0
    best_bound = 0
    for t in range(trials):
        k = int(rng.integers(0, n + 1))
        rows = tuple(tuple(float(v) for v in rng.uniform(-1, 1, n + 1))
                     for _ in range(k))
        subspace = AffineSubspace(rows)
        rep = component_bound(formula, subspace, radius,
                              seed=seed + 1000 + t, abel=abel,
                              include_oracle=False, census_depth=census_depth)
        eps_f, delta_f = rep.schedule[-1]
        f_l = affine_restrict(f, subspace, formula.n)
        tube = milnor_tube(f_l, eps_f, delta_f, nv)
        est, stable = _stable_sublevel_count(
            tube, nv, delta_f / math.sqrt(eps_f) * 1.01, abel)
        if est > rep.component_bound:
            raise CertificationError(
                f"trial {t}: oracle count {est} exceeds certified "
                f"bound {rep.component_bound}")
        per_trial.append({"k": k, "components": est, "oracle_stable": stable,
                          "bound": rep.component_bound})
        best_bound = max(best_bound, rep.component_bound)
        best = max(best, est)
    return GammaReport(best, best_bound, per_trial)


# ---------------------------------------------------------------------------
# formula files

def load_formula_file(path: str):
    """Read a JSON formula description; returns (QFFormula, radius or None)."""
    with open(path, "rb") as fh:
        return formula_from_dict(parse_json(fh.read(), "formula file"))


def formula_from_dict(doc: dict):
    names, dnf_field, radius = read_file_fields(doc, "formula", "dnf")
    if not all(isinstance(conj, list) and all(
            isinstance(e, dict) and isinstance(e.get("term"), str)
            for e in conj) for conj in dnf_field):
        raise BuildError("each dnf entry must be a list of atoms, "
                         "objects with a term string")
    tree = ("or",) + tuple(
        ("and",) + tuple(atom(parse_term(e["term"], names), e.get("rel", "="))
                         for e in conj)
        for conj in dnf_field)
    return normalize(tree, len(names)), radius
