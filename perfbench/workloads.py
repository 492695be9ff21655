"""Operation lists and output checks for the four benchmark workloads.

An operation is one closed-loop call into slogcensus: ``run()`` returns the
program's output and ``check(output)`` returns ``None`` when the output is
right and a one-line reason when it is not. Checks compare against values
computed apart from the program (analytic counts, residuals evaluated from
the source text with ``math`` and ``AbelFunction.eval_phi``/``eval_dphi``,
closed-form points) or against properties the method must have. None of
them compares against a stored copy of an earlier output.

Operations call the program through module attributes
(``census.count_nonsingular_zeros``), so the timing wrappers that a traced
run installs on those attributes see every call.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import slogcensus.census as census
import slogcensus.gridoracle as gridoracle
import slogcensus.morse as morse
import slogcensus.terms as terms

# The zero-count corpus of tests/conftest.py: (name, equations, radius,
# number of nonsingular zeros in the radius cube). Kept here so that the
# benchmark stands alone.
CORPUS = [
    ("line", ["x1 - 0.5"], 2.0, 1),
    ("parabola", ["x1*x1 - 1"], 2.0, 2),
    ("exp-shift", ["exp(x1) - 2"], 2.0, 1),
    ("cubic", ["x1*x1*x1 - x1"], 2.0, 3),
    ("slog-level", ["phi(x1) - 0.5"], 4.0, 1),
    ("slog-slope", ["dphi(x1) - 0.5"], 8.0, 2),
    ("circle-line", ["x1*x1 + x2*x2 - 1", "x1 - x2"], 2.0, 2),
    ("circle-axes", ["x1*x1 + x2*x2 - 1", "x1*x2"], 2.0, 4),
    ("parabola-line", ["x2 - x1*x1", "x2 - 1"], 2.0, 2),
    ("slog-graph", ["phi(x1) - x2", "x2 - 0.25"], 4.0, 1),
    ("slog-nested", ["phi(exp(phi(x1))) - 0.5", "x2"], 4.0, 1),
    ("sphere-planes", ["x1*x1 + x2*x2 + x3*x3 - 1", "x1 - x2", "x3"], 2.0, 2),
    ("shifted-axes", ["x1 - 0.5", "x2 + 0.25", "x3 - 0.125"], 2.0, 1),
]
PHI_CORPUS = [row for row in CORPUS if "phi" in " ".join(row[1])]
GROWTH_SYSTEM = "slog-graph"    # censused at its search_radius growth radius

# gate-4 oracle resolutions per dimension
ORACLE_RES = {1: 4097, 2: 769, 3: 97}
# The spline (RA) nodes of reduced 2-D systems are enclosed cell by cell in
# Python, about 40-80 us a cell, so 769^2 cells would take 24-49 s per
# system. 97^2 still separates their single zero.
REDUCED_RES = {1: 4097, 2: 97}

# Each singular system has one double zero, at the listed point.
SINGULAR = [
    ("singular-square", ["x1*x1"], (0.0,)),
    ("singular-cone", ["x1*x1 + x2*x2", "x1 - x2"], (0.0, 0.0)),
    ("singular-cube", ["(x1-0.5)*(x1-0.5)*(x1-0.5)"], (0.5,)),
]
# Two nonsingular zeros each, closer than the census merge tolerance.
CLOSE_ROOTS = [
    ("close-1e-8", ["(x1 - 1e-8)*(x1 + 1e-8)"], 2),
    ("close-5e-8", ["(x1-0.3)*(x1-0.30000005)"], 2),
]
SMALL_RADIUS = 2.0

# (name, equation, dimension, analytic components in the radius-2 ball,
# analytic critical count of the height function on the tube boundary)
FORMULAS = [
    ("circle", "x1*x1 + x2*x2 - 1", 2, 1, 4),
    ("pair", "x1*x1 - 1", 1, 2, None),
    ("empty", "x1*x1 + 1", 1, 0, None),
    ("slog-graph", "phi(x1) - x2", 2, 1, None),
]
MORSE_RADIUS = 2.0
# Single-trial gamma seeds on the circle: seed 14 draws k = 0 affine rows,
# seed 9 draws k = 1, and seeds 22, 15 and 18 draw k = 2. With them the
# middle operation of a pass is gamma:22 (about 0.5 s), three times dearer
# than its cheaper neighbour and three times cheaper than its dearer one,
# so op_p50_ms does not jump between two operations' costs.
GAMMA_SEEDS = (14, 9, 22, 15, 18)
# gamma_estimate compares sublevel grids at 512 and 1024 cells per axis
TUBE_RES = (512, 1024)

RESIDUAL_TOL = 1e-8

CLI_SYSTEM = {"vars": ["x1", "x2"],
              "equations": ["x1*x1 + x2*x2 - 1", "x1 - x2"],
              "radius": 2.0}
CLI_PATH = {"breakpoints": [0.0, 1.0], "steps": 4}
CLI_EVAL_AT = (2.5, 3.0)


class Op:
    """One operation: a name, the call to time and the check of its output."""

    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


# ---------------------------------------------------------------------------
# independent references

def source_residuals(sources, point, abel):
    """Equation values at a point, evaluated from the source text with
    ``math`` and the scalar super-logarithm, not through a compiled tape."""
    env = {"__builtins__": {}, "exp": math.exp, "log": math.log,
           "phi": abel.eval_phi, "dphi": abel.eval_dphi}
    env.update({f"x{i + 1}": float(v) for i, v in enumerate(point)})
    return [eval(compile(src, "<equation>", "eval"), env) for src in sources]


def _check_zeros(report, sources, expected, radius, abel):
    if report.certified_count != expected:
        return f"counted {report.certified_count}, expected {expected}"
    if not report.exact:
        return f"{len(report.unknown_boxes)} unknown boxes left"
    if len(report.zeros) != expected:
        return f"{len(report.zeros)} zeros listed for count {expected}"
    for z in report.zeros:
        if max(abs(v) for v in z) > radius:
            return f"zero {z} outside the radius-{radius} cube"
        res = max(abs(r) for r in source_residuals(sources, z, abel))
        if not res <= RESIDUAL_TOL:
            return f"residual {res:.3e} at {z}"
    for i, a in enumerate(report.zeros):
        for b in report.zeros[i + 1:]:
            gap = max(abs(p - q) for p, q in zip(a, b))
            if gap <= 1e-12 * (1.0 + max(abs(v) for v in a)):
                return f"zeros {a} and {b} coincide"
    return None


def _check_singular(report, point):
    if report.certified_count != 0:
        return f"counted {report.certified_count} at a singular zero"
    if report.exact:
        return "singular zero reported as exact"
    if not any(box.contains(point) for box in report.unknown_boxes):
        return f"no unknown box covers the singular zero {point}"
    return None


# ---------------------------------------------------------------------------
# census: certified branch-and-prune

def census_ops(abel, ctx):
    ops = []
    for name, eqs, radius, count in CORPUS:
        system = census.build_system(eqs, abel=abel)
        ops.append(Op(
            f"census:{name}",
            lambda s=system, r=radius: census.count_nonsingular_zeros(s, r),
            lambda rep, e=eqs, c=count, r=radius:
                _check_zeros(rep, e, c, r, abel)))
    for name, eqs, radius, count in PHI_CORPUS:
        system = census.build_system(eqs, abel=abel)
        ops.append(Op(
            f"reduced:{name}",
            lambda s=system, r=radius: census.count_nonsingular_zeros(
                census.reduce_phi_complexity(s, r), r),
            lambda rep, e=eqs, c=count, r=radius:
                _check_zeros(rep, e, c, r, abel)))
    name, eqs, _, count = next(row for row in CORPUS
                               if row[0] == GROWTH_SYSTEM)
    system = census.build_system(eqs, abel=abel)

    def growth(s=system):
        rr = census.search_radius(s)
        return rr, census.count_nonsingular_zeros(s, rr.radius)

    def check_growth(out, e=eqs, c=count):
        rr, rep = out
        if rr.heuristic or not math.isfinite(rr.radius):
            return f"growth radius {rr.radius} is not certified"
        return _check_zeros(rep, e, c, rr.radius, abel)

    ops.append(Op(f"growth:{name}", growth, check_growth))
    for name, eqs, point in SINGULAR:
        system = census.build_system(eqs, abel=abel)
        ops.append(Op(
            f"singular:{name}",
            lambda s=system: census.count_nonsingular_zeros(s, SMALL_RADIUS),
            lambda rep, p=point: _check_singular(rep, p)))
    for name, eqs, count in CLOSE_ROOTS:
        system = census.build_system(eqs, abel=abel)
        ops.append(Op(
            f"close:{name}",
            lambda s=system: census.count_nonsingular_zeros(s, SMALL_RADIUS),
            lambda rep, e=eqs, c=count:
                _check_zeros(rep, e, c, SMALL_RADIUS, abel)))
    return ops


# ---------------------------------------------------------------------------
# morse: component bounds and gamma trials

def _formula(text, n):
    return morse.QFFormula((((terms.parse_term(text), "="),),), n)


def check_bound(rep, components, critical):
    if rep.component_bound < components:
        return (f"bound {rep.component_bound} below {components} "
                f"components")
    if critical is not None and rep.critical_count != critical:
        return f"critical count {rep.critical_count}, expected {critical}"
    return None


def check_gamma(rep):
    (trial,) = rep.trials
    got, bound = trial["components"], trial["bound"]
    if got > bound:
        return f"{got} components above the trial bound {bound}"
    if got > 2:
        return f"{got} components in a slice of the circle"
    if trial["k"] == 0 and got != 1:
        return f"{got} components for the full circle"
    if rep.estimate != got:
        return f"estimate {rep.estimate} differs from the trial's {got}"
    return None


def morse_ops(abel, ctx):
    ops = []
    for name, text, n, components, critical in FORMULAS:
        formula = _formula(text, n)
        ops.append(Op(
            f"components:{name}",
            lambda f=formula: morse.component_bound(
                f, morse.AffineSubspace.full(), MORSE_RADIUS, abel=abel,
                include_oracle=False),
            lambda rep, c=components, k=critical: check_bound(rep, c, k)))
    circle = _formula(FORMULAS[0][1], 2)
    for seed in GAMMA_SEEDS:
        ops.append(Op(
            f"gamma:{seed}",
            lambda s=seed: morse.gamma_estimate(
                circle, n=2, trials=1, radius=MORSE_RADIUS, seed=s,
                abel=abel),
            check_gamma))
    return ops


# ---------------------------------------------------------------------------
# oracle: grid evaluation and flood fill alone

def _check_count(expected):
    def check(got):
        count = got[0] if isinstance(got, tuple) else got
        return None if count == expected else \
            f"counted {count}, expected {expected}"
    return check


def oracle_ops(abel, ctx):
    ops = []
    for name, eqs, radius, count in CORPUS:
        system = census.build_system(eqs, abel=abel)
        grid = gridoracle.GridSpec.square(radius, system.n,
                                          ORACLE_RES[system.n])
        ops.append(Op(
            f"oracle:{name}",
            lambda s=system, g=grid: gridoracle.oracle_zero_count(s, g),
            _check_count(count)))
    for name, eqs, radius, count in PHI_CORPUS:
        system = census.reduce_phi_complexity(
            census.build_system(eqs, abel=abel), radius)
        grid = gridoracle.GridSpec.square(radius, system.n,
                                          REDUCED_RES[system.n])
        ops.append(Op(
            f"oracle-reduced:{name}",
            lambda s=system, g=grid: gridoracle.oracle_zero_count(s, g),
            _check_count(count)))
    for name, text, n, components, _ in FORMULAS:
        formula = _formula(text, n)
        ops.append(Op(
            f"oracle-components:{name}",
            lambda f=formula: morse.oracle_components(
                f, morse.AffineSubspace.full(), MORSE_RADIUS, abel),
            _check_count(components)))
    # the circle's final-stage Milnor tube, on the grid gamma_estimate uses
    f_l, _ = morse.wilkie_reduce(_formula(FORMULAS[0][1], 2))
    eps, delta = morse.schedule_for_ball(MORSE_RADIUS).pairs[-1]
    tube = morse.milnor_tube(f_l, eps, delta, 2)
    ball = delta / math.sqrt(eps) * 1.01
    for res in TUBE_RES:
        grid = gridoracle.GridSpec.square(ball, 2, res)
        ops.append(Op(
            f"tube:{res}",
            lambda g=grid: gridoracle.flood_components_sublevel(tube, g,
                                                                abel),
            _check_count(1)))
    return ops


# ---------------------------------------------------------------------------
# cli: one subprocess per invocation

def cli_commands(ctx):
    """Writes the gate-9 input files into ``ctx["workdir"]`` and returns
    ({command: argv after ``slogcensus.cli``}, path of slog-check's --out
    report). ``--seed`` is the run's seed."""
    workdir, seed = ctx["workdir"], str(ctx["seed"])
    os.makedirs(workdir, exist_ok=True)
    system = os.path.join(workdir, "system.json")
    path = os.path.join(workdir, "path.json")
    report = os.path.join(workdir, "slog-check.json")
    with open(system, "w", encoding="utf-8") as fh:
        json.dump(CLI_SYSTEM, fh)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(CLI_PATH, fh)
    at = ",".join(str(v) for v in CLI_EVAL_AT)
    return {
        "slog-check": ["slog-check", "--out", report],
        "eval": ["eval", "phi(x1)*x2", "--at", at, "--grad", "--seed", seed],
        "zeros": ["zeros", system, "--seed", seed],
        "track": ["track", system, path, "--seed", seed],
    }, report


def cli_ops(abel, ctx):
    """Invocations of slog-check, eval, zeros and track on the gate-9
    inputs, one ``python -m slogcensus.cli`` process each. Each output is
    (exit code, stdout bytes, --out file bytes)."""
    env = ctx["env"]
    commands, report = cli_commands(ctx)
    x1, x2 = CLI_EVAL_AT
    phi, dphi = abel.eval_phi(x1), abel.eval_dphi(x1)
    half = 1.0 / math.sqrt(2.0)
    semantic = {
        "slog-check": lambda doc: None if doc["passed"] and all(
            c["passed"] for c in doc["checks"]) else "slog-check failed",
        "eval": lambda doc: None if (
            math.isclose(doc["value"], x2 * phi, rel_tol=1e-12)
            and math.isclose(doc["gradient"][0], x2 * dphi, rel_tol=1e-12)
            and math.isclose(doc["gradient"][1], phi, rel_tol=1e-12)) else
        f"eval gave {doc['value']}, {doc['gradient']}",
        "zeros": lambda doc: None if _near_pm(doc["report"]["zeros"], half)
        else f"zeros {doc['report']['zeros']}",
        "track": lambda doc: None if (
            doc["report"]["counts"] == [2] * (CLI_PATH["steps"] + 1)
            and all(doc["report"]["certified"])) else
        f"track counts {doc['report']['counts']}",
    }
    first: dict = {}

    def make(name, argv):
        def run():
            proc = subprocess.run(
                [sys.executable, "-m", "slogcensus.cli"] + argv,
                capture_output=True, env=env)
            body = None
            if name == "slog-check":
                with open(report, "rb") as fh:
                    body = fh.read()
            return proc.returncode, proc.stdout, body

        def check(out):
            code, stdout, body = out
            if code != 0:
                return f"exit code {code}"
            doc = json.loads(body if body is not None else stdout)
            bad = semantic[name](doc)
            if bad:
                return bad
            seen = first.setdefault(name, (stdout, body))
            if seen != (stdout, body):
                return "report differs from the first invocation's bytes"
            return None

        return Op(f"cli:{name}", run, check)

    return [make(name, argv) for name, argv in commands.items()]


def _near_pm(zeros, half):
    want = [[-half, -half], [half, half]]
    if len(zeros) != 2:
        return False
    return all(max(abs(a - b) for a, b in zip(z, w)) <= 1e-12
               for z, w in zip(sorted(zeros), want))


# ---------------------------------------------------------------------------

WORKLOADS = {"census": census_ops, "morse": morse_ops, "oracle": oracle_ops,
             "cli": cli_ops}

# Operations that fail on every run because of a known fault in the
# program: census._count_over_box merges distinct zeros whose polished
# points lie within 1e-7*(1+|z|), so each reports one zero, exact, for two.
KNOWN_FAULTS = frozenset(f"close:{name}" for name, _, _ in CLOSE_ROOTS)

# Warm-up before the first timed operation, part of set-up: one whole pass
# for census (0.3 s), one call of each kind on a cheap input elsewhere.
WARMUP = {
    "census": None,
    "morse": ("components:pair", "gamma:22"),
    "oracle": ("oracle:cubic", "oracle-reduced:slog-level",
               "oracle-components:pair", "tube:512"),
    "cli": ("cli:eval",),
}

# Operations a traced run adds after its passes, so that every per-layer
# metric has spans to read even where the workload makes no call into
# that layer.
PROBE = ("census:circle-line", "census:slog-level", "reduced:slog-level",
         "components:pair", "gamma:22", "oracle:cubic", "cli:eval")
