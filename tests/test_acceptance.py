"""End-to-end gate: nine system-level properties, one verdict line each.

Every test prints a single [PASS]/[FAIL] line (bypassing capture) before
asserting, so a full run shows the gate status at a glance.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from slogcensus.census import (DeformationPath, SystemParams, build_system,
                               count_nonsingular_zeros, reduce_phi_complexity,
                               track_path)
from slogcensus.gridoracle import GridSpec, oracle_zero_count
from slogcensus.morse import (AffineSubspace, QFFormula, component_bound,
                              gamma_estimate)
from slogcensus.terms import parse_term

from conftest import CORPUS, ORACLE_RES, PHI_CORPUS

_CLI = [sys.executable, "-m", "slogcensus.cli"]


def _verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] gate {num}: {detail}")


def _sci(x):
    return "none" if x is None else f"{x:.4e}"


# ---------------------------------------------------------------------------
# 1: the functional equation itself

def test_gate_1_abel_equation(abel, capsys):
    t0 = time.monotonic()
    xs = np.linspace(-5.0, 5.0, 10_000)
    lhs = abel.eval_phi_array(np.exp(xs))
    rhs = abel.eval_phi_array(xs) + 1.0
    residual = float(np.max(np.abs(lhs - rhs)))
    elapsed = time.monotonic() - t0
    ok = residual <= 1e-8 and elapsed < 5.0
    _verdict(capsys, 1, ok,
             f"phi(e^x) = phi(x) + 1 residual {residual:.3e} "
             f"(limit 1e-08) in {elapsed:.2f}s")
    assert residual <= 1e-8
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2: structural properties of the super-logarithm

def test_gate_2_structure_suite(abel, capsys):
    t0 = time.monotonic()

    xs = np.linspace(-3.0, 3.0, 2_001)
    chain = max(
        abs(abel.eval_dphi(x) - abel.eval_dphi(math.exp(x)) * math.exp(x))
        / (1.0 + abs(abel.eval_dphi(x))) for x in xs)

    # gaps at least 0.05 keep increments above float resolution even on
    # the far-left tail, where the slope is about 1e-13
    rng = np.random.default_rng(0)
    lo = rng.uniform(-30.0, 100.0, 10_000)
    hi = lo + rng.uniform(0.05, 30.0, 10_000)
    increasing = bool(np.all(
        abel.eval_phi_array(lo) < abel.eval_phi_array(hi)))

    # strictness above -2 is float-representable down to about -33;
    # sampling stops at -30 so the strict bound can be witnessed
    left = abel.eval_phi_array(np.linspace(-30.0, 0.0, 10_000))
    banded = bool(np.all(left > -2.0) and np.all(left <= -1.0))

    d2, d4, d8 = (abel.eval_dphi(10.0 ** k) for k in (2, 4, 8))
    decaying = d2 > d4 > d8 > 0.0

    # phi(x) = phi(log log x) + 2, so |phi(x)| <= log log x exactly when
    # y - phi(y) >= 2 at y = log log x: the level-2 trans-exponential
    # onset y2 fixes the log log crossing at X2 = exp(exp(y2))
    y2 = brentq(lambda y: y - abel.eval_phi(y) - 2.0, 3.0, 3.3, xtol=1e-14)
    x2 = math.exp(math.exp(y2))
    x_hi = 1e12
    dom1 = abel.check_domination(1, math.e, 1e8)
    dom2 = abel.check_domination(2, math.e, x_hi)
    step = (x_hi / math.e) ** (1.0 / (dom2.samples - 1)) - 1.0
    pinned = dom2.found and x2 <= dom2.threshold <= x2 * (1.0 + step)
    # domination persists to the end of the double range
    dom2_far = abel.check_domination(2, math.e, 1e300)
    elapsed = time.monotonic() - t0

    ok = (chain <= 1e-7 and increasing and banded and decaying
          and dom1.found and pinned and dom2_far.found and elapsed < 30.0)
    _verdict(capsys, 2, ok,
             f"chain {chain:.2e}, increasing={increasing}, "
             f"left band={banded}, slope decay={decaying}, "
             f"log-dom n=1 from {_sci(dom1.threshold)}, "
             f"n=2 from {_sci(dom2.threshold)} (predicted {x2:.4e}, "
             f"step {step:.2%}) in {elapsed:.1f}s")
    assert chain <= 1e-7
    assert increasing
    assert banded
    assert decaying
    assert dom1.found and dom1.threshold == pytest.approx(math.e, rel=1e-9)
    assert elapsed < 30.0
    assert dom2.found, f"no log log domination threshold in [e, {x_hi:g}]"
    assert x2 <= dom2.threshold <= x2 * (1.0 + step), (
        f"log log threshold {dom2.threshold:.6e} is not within one sample "
        f"step above the predicted crossing {x2:.6e}")
    assert dom2_far.found


# ---------------------------------------------------------------------------
# 3: trans-exponential inverse

def test_gate_3_trans_exp(abel, capsys):
    t0 = time.monotonic()
    # onset points located once by scan, then fixed; sampling starts one
    # scan step above to stay clear of the located boundary
    onsets = {1: 1.000020, 2: 3.122748, 3: 4.387863}
    step = 2e-4
    trans_ok = True
    for i, x_i in onsets.items():
        xs = np.linspace(x_i + step, 50.0, 2_000)
        trans_ok &= all(abel.check_transexp(i, float(x)) for x in xs)

    grid = np.geomspace(0.1, 1e4, 2_001)
    inv = max(abs(abel.trans_exp(abel.eval_phi(float(x))) - x)
              / (1.0 + abs(x)) for x in grid)
    elapsed = time.monotonic() - t0

    ok = trans_ok and inv <= 1e-6
    _verdict(capsys, 3, ok,
             f"growth certificates hold past onsets {list(onsets.values())}, "
             f"inversion residual {inv:.2e} (limit 1e-06) in {elapsed:.1f}s")
    assert trans_ok
    assert inv <= 1e-6


# ---------------------------------------------------------------------------
# 4: certified census equals the grid oracle on the corpus

def test_gate_4_census_corpus(abel, capsys):
    t0 = time.monotonic()
    mismatches = []
    for name, eqs, radius, expected in CORPUS:
        sys_ = build_system(eqs, abel=abel)
        rep = count_nonsingular_zeros(sys_, radius)
        grid = GridSpec.square(radius, sys_.n, ORACLE_RES[sys_.n])
        oracle, _ = oracle_zero_count(sys_, grid)
        if not (rep.exact and rep.certified_count == oracle == expected
                and rep.unknown_boxes == []):
            mismatches.append((name, rep.certified_count, oracle, expected))
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed < 120.0
    _verdict(capsys, 4, ok,
             f"{len(CORPUS)} systems (dims 1-3, {len(PHI_CORPUS)} with "
             f"slog nodes) certified = oracle in {elapsed:.1f}s")
    assert not mismatches, mismatches
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 5: deformation tracking

def test_gate_5_path_tracking(abel, capsys):
    circle = build_system(["x1*x1 + x2*x2 - 1", "x1 - x2"], abel=abel)
    eye2, z2 = np.eye(2), (0.0, 0.0)
    rep = track_path(circle, DeformationPath((0.0, 1.0), (eye2, eye2), (z2, z2)),
                     steps=100, radius=2.0)
    const_ok = (rep.verdict == "constant" and rep.counts == [2] * 101
                and all(rep.certified))

    # x^2 = t - 1/2 has a double zero exactly at t = 1/2
    sing = build_system(["x1*x1 - delta"], params=SystemParams.zeros(1),
                        abel=abel)
    eye = np.eye(1)
    z = (0.0,)
    ramp = DeformationPath(
        (0.0, 1.0), (eye, eye), (z, z),
        params=(SystemParams((0.0,), (0.0,), -0.5),
                SystemParams((0.0,), (0.0,), 0.5)))
    srep = track_path(sing, ramp, steps=100, radius=2.0)
    flagged_at = srep.first_issue_step
    sing_ok = (srep.verdict != "constant" and flagged_at is not None
               and abs(flagged_at / 100.0 - 0.5) <= 0.01)

    ok = const_ok and sing_ok
    _verdict(capsys, 5, ok,
             f"constant family stays at 2 over 100 certified steps; "
             f"singular crossing flagged at step {flagged_at} (t=0.5)")
    assert const_ok
    assert sing_ok
    assert (51, 0, 2) in srep.transitions


# ---------------------------------------------------------------------------
# 6: component bounds from critical point counts

def test_gate_6_component_bounds(abel, capsys):
    circle = QFFormula((((parse_term("x1*x1 + x2*x2 - 1"), "="),),), 2)
    c = component_bound(circle, AffineSubspace.full(), 2.0, abel=abel)

    pair = QFFormula((((parse_term("x1*x1 - 1"), "="),),), 1)
    p = component_bound(pair, AffineSubspace.full(), 2.0, abel=abel)

    empty = QFFormula((((parse_term("x1*x1 + 1"), "="),),), 1)
    e = component_bound(empty, AffineSubspace.full(), 2.0, abel=abel)

    ok = (c.critical_count == 4 and c.component_bound == 2
          and c.oracle_components == 1
          and p.component_bound == 2 and p.oracle_components == 2
          and e.critical_count == 0 and e.component_bound == 0
          and e.oracle_components == 0)
    _verdict(capsys, 6, ok,
             f"circle: 4 critical -> bound 2 >= 1 component; point pair: "
             f"bound {p.component_bound} = count {p.oracle_components} "
             f"(tight); empty set: 0")
    assert c.critical_count == 4
    assert c.component_bound == 2 >= c.oracle_components == 1
    assert p.component_bound == 2 == p.oracle_components
    assert e.critical_count == e.component_bound == e.oracle_components == 0


# ---------------------------------------------------------------------------
# 7: sampled slice-component estimate

def test_gate_7_gamma_estimate(abel, capsys):
    circle = QFFormula((((parse_term("x1*x1 + x2*x2 - 1"), "="),),), 2)
    rep = gamma_estimate(circle, n=2, trials=50, radius=2.0, seed=7,
                         abel=abel)
    within = all(t["components"] <= t["bound"] for t in rep.trials)

    plane = QFFormula((((parse_term("x1 - x1"), "="),),), 2)
    prep = gamma_estimate(plane, n=2, trials=5, radius=2.0, seed=1,
                          abel=abel)

    ok = rep.estimate == 2 and prep.estimate == 1 and within
    _verdict(capsys, 7, ok,
             f"circle gamma {rep.estimate} over 50 seeded trials, full "
             f"plane {prep.estimate}, estimate <= bound on every trial")
    assert rep.estimate == 2
    assert prep.estimate == 1
    assert within


# ---------------------------------------------------------------------------
# 8: slog-elimination preserves certified counts

def test_gate_8_reduction_equivalence(abel, capsys):
    rows = []
    for name, eqs, radius, expected in PHI_CORPUS:
        sys_ = build_system(eqs, abel=abel)
        red = reduce_phi_complexity(sys_, radius)
        rep = count_nonsingular_zeros(red, radius)
        rows.append((name, rep.exact and rep.certified_count == expected))
    ok = all(good for _, good in rows)
    _verdict(capsys, 8, ok,
             f"exact restriction of phi keeps exact counts on "
             f"{len(rows)} slog systems: "
             + ", ".join(name for name, _ in rows))
    assert all(good for _, good in rows), rows


# ---------------------------------------------------------------------------
# 9: CLI determinism

def _run_cli(*args):
    return subprocess.run(_CLI + list(args), capture_output=True, text=True)


def test_gate_9_cli_determinism(tmp_path, capsys):
    system = tmp_path / "system.json"
    system.write_text(json.dumps({
        "vars": ["x1", "x2"],
        "equations": ["x1*x1 + x2*x2 - 1", "x1 - x2"],
        "radius": 2.0}))
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"breakpoints": [0.0, 1.0], "steps": 4}))
    formula = tmp_path / "formula.json"
    formula.write_text(json.dumps({
        "vars": 2,
        "dnf": [[{"term": "x1*x1 + x2*x2 - 1", "rel": "="}]],
        "radius": 2.0}))

    commands = [
        ("slog-check", "--out", str(tmp_path / "c{run}.json")),
        ("eval", "phi(x1)*x2", "--at", "2.5,3", "--grad", "--seed", "5"),
        ("zeros", str(system), "--seed", "5"),
        ("track", str(system), str(path), "--seed", "5"),
        ("components", str(formula), "--seed", "5"),
        ("gamma", str(formula), "--trials", "2", "--seed", "5"),
    ]
    diffs = []
    for cmd in commands:
        outs = []
        for run in (1, 2):
            argv = [a.format(run=run) for a in cmd]
            r = _run_cli(*argv)
            body = r.stdout
            if "--out" in cmd:
                body = (tmp_path / f"c{run}.json").read_bytes().decode()
            outs.append((r.returncode, body))
        if outs[0] != outs[1]:
            diffs.append(cmd[0])
    ok = not diffs
    _verdict(capsys, 9, ok,
             f"all {len(commands)} subcommands byte-identical across "
             f"repeated seeded runs")
    assert not diffs, diffs
