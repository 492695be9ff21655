"""Certified zero census: counting, radii, deformation, reduction."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from slogcensus.census import (DEFAULT_DEPTH, CensusReport, DeformationPath,
                               SystemParams, _determinant, _polish,
                               build_system, count_nonsingular_zeros,
                               count_over_box, reduce_phi_complexity,
                               search_radius, system_from_dict, track_path)
from slogcensus.errors import BuildError, DomainError, PathError
from slogcensus import census, intervals
from slogcensus.gridoracle import GridSpec, oracle_zero_count
from slogcensus.intervals import Box
from slogcensus.morse import (CENSUS_DEPTH, _haar_rotation, critical_system,
                              schedule_for_ball)
from slogcensus.terms import RAPrimitive, fcpx, parse_term

from conftest import CORPUS, ORACLE_RES, PHI_CORPUS
from krawczyk_reference import krawczyk_by_helpers


# ---------------------------------------------------------------------------
# corpus: certified counts against frozen values and the grid oracle

@pytest.mark.parametrize("name,eqs,radius,expected",
                         CORPUS, ids=[row[0] for row in CORPUS])
def test_corpus_certified_counts(abel, name, eqs, radius, expected):
    sys_ = build_system(eqs, abel=abel)
    rep = count_nonsingular_zeros(sys_, radius)
    assert rep.exact, f"{name}: unknown boxes remain"
    assert rep.certified_count == expected
    grid = GridSpec.square(radius, sys_.n, ORACLE_RES[sys_.n])
    count, _ = oracle_zero_count(sys_, grid)
    assert count == expected


def test_known_zero_locations(abel):
    rep = count_nonsingular_zeros(
        build_system(["phi(x1) - 0.5"], abel=abel), 4.0)
    assert rep.zeros[0][0] == pytest.approx(1.646292558082848, rel=1e-10)
    rep = count_nonsingular_zeros(
        build_system(["dphi(x1) - 0.5"], abel=abel), 8.0)
    assert [z[0] for z in rep.zeros] == pytest.approx(
        [-0.739261611, 2.032338983], abs=1e-7)


@pytest.mark.parametrize("eq,roots", [
    ("(x1 - 0.00000001)*(x1 + 0.00000001)", (-1e-8, 1e-8)),
    ("(x1-0.3)*(x1-0.30000005)", (0.3, 0.30000005)),
])
def test_close_roots_are_counted_apart(abel, eq, roots):
    rep = count_nonsingular_zeros(build_system([eq], abel=abel), 2.0)
    assert rep.exact
    assert rep.certified_count == 2
    assert [z[0] for z in rep.zeros] == pytest.approx(roots, rel=0, abs=1e-15)


def test_close_roots_in_two_dimensions_are_never_merged(abel):
    # the depth cap may stop short of separating them, but an exact
    # report must count both
    rep = count_nonsingular_zeros(
        build_system(["(x1-0.3)*(x1-0.30000005)", "x2"], abel=abel), 2.0)
    assert rep.certified_count <= 2
    if rep.exact:
        assert rep.certified_count == 2


def test_flat_cubic_never_exact_with_a_wrong_count(abel):
    # one real zero near 1.0001; a float f(m) in Krawczyk once made this
    # an exact count of 5
    sys_ = build_system(["x1*x1*x1 - 3*x1*x1 + 3*x1 - 1.000000000001"],
                        abel=abel)
    rep = count_over_box(sys_, Box.from_bounds([(0.5, 1.5)]), max_depth=28)
    assert not rep.exact or rep.certified_count == 1


def test_zero_past_exp_overflow_is_never_exact(abel):
    # the zero ln(2e308) ~ 709.889 lies where exp(x1) overflows; an exp
    # enclosure of [inf, inf] once excluded it and reported 0, exact. No
    # box of this census is ever decided, so a small depth keeps it short
    sys_ = build_system(["0.5*exp(x1) - 1e308"], abel=abel)
    rep = count_over_box(sys_, Box.from_bounds([(709.85, 709.95)]),
                         max_depth=6)
    assert not rep.exact
    assert rep.certified_count == 0


def test_census_rejects_a_negative_depth(abel):
    # depth -1 once split nothing and reported the root box as unknown
    sys_ = build_system(["x1*x1 - 1"], abel=abel)
    with pytest.raises(DomainError, match="depth"):
        count_nonsingular_zeros(sys_, 2.0, max_depth=-1)
    with pytest.raises(DomainError, match="depth"):
        count_over_box(sys_, Box.cube(2.0, 1), max_depth=-1)
    assert count_nonsingular_zeros(sys_, 2.0, max_depth=0).depth_used == 0


def test_census_near_the_end_of_the_double_range(abel):
    # the midpoint of [9e307, 1e308] used to overflow to inf
    rep = count_over_box(build_system(["x1 - 1.5e308"], abel=abel),
                         Box.from_bounds([(1e308, 1.7e308)]))
    assert rep.certified_count == 1 and rep.exact
    assert rep.zeros == [[1.5e308]]
    rep = count_nonsingular_zeros(
        build_system(["x1 - 1e308", "x2"], abel=abel), 1.7e308)
    assert rep.certified_count == 1 and rep.exact
    assert rep.zeros == [[1e308, 0.0]]


def test_polish_stays_finite(abel):
    # x^3 overflows at the midpoint, so Newton has no finite step
    enc = Box.from_bounds([(1e200, 1.7e308)])
    (z,) = _polish(build_system(["x1*x1*x1"], abel=abel), enc)
    assert math.isfinite(z) and enc.contains([z])


def test_census_report_shape(abel):
    rep = count_nonsingular_zeros(
        build_system(["x1*x1 - 1"], abel=abel), 2.0)
    assert isinstance(rep, CensusReport)
    d = rep.to_dict()
    assert d["certified_count"] == 2
    assert d["unknown_boxes"] == []
    assert rep.exact


def test_singular_zero_stays_unknown(abel):
    rep = count_nonsingular_zeros(build_system(["x1*x1"], abel=abel), 1.0)
    assert not rep.exact
    assert rep.certified_count == 0
    assert rep.unknown_boxes


def test_count_over_explicit_box(abel):
    sys_ = build_system(["x1*x1 - 1"], abel=abel)
    rep = count_over_box(sys_, Box.from_bounds([(0.0, 2.0)]))
    assert rep.certified_count == 1 and rep.exact


def test_build_system_rejects_bad_input(abel):
    from slogcensus.errors import TermSyntaxError
    from slogcensus.terms import var
    with pytest.raises(BuildError):
        build_system([], abel=abel)
    with pytest.raises(TermSyntaxError):
        build_system(["x1 - x3"], abel=abel)  # one equation, so only x1 exists
    with pytest.raises(BuildError):
        build_system([var(3)], abel=abel)  # index out of range for n = 1


# ---------------------------------------------------------------------------
# search radius

def test_search_radius_heuristic_for_low_growth(abel):
    sys_ = build_system(["x1*x1 - 1"], abel=abel)
    rep = search_radius(sys_)
    assert rep.heuristic
    assert rep.radius == 8.0


def test_search_radius_phi_cutoff(abel):
    sys_ = build_system(["phi(x1) - 0.5", "x2"], abel=abel)
    rep = search_radius(sys_)
    assert not rep.heuristic
    assert 4.0 < rep.radius < 20.0
    # the certified window really contains the zero
    got = count_nonsingular_zeros(sys_, rep.radius)
    assert got.certified_count == 1


def test_search_radius_unbounded_growth(abel):
    # doubly exponential argument growth pushes the cutoff past floats
    sys_ = build_system(["phi(exp(exp(x1))) - 3", "x2"], abel=abel)
    rep = search_radius(sys_)
    assert math.isinf(rep.radius)
    with pytest.raises(DomainError):
        count_nonsingular_zeros(sys_, rep.radius)


# ---------------------------------------------------------------------------
# shifts and tilts

def test_shifted_moves_zeros(abel):
    sys_ = build_system(["x1*x1 - 1"], abel=abel)
    rep = count_nonsingular_zeros(sys_.shifted([3.0]), 3.0)
    assert rep.certified_count == 2
    assert sorted(z[0] for z in rep.zeros) == pytest.approx([-2.0, 2.0])


def test_tilted_preserves_counts(abel):
    sys_ = build_system(["x1*x1 + x2*x2 - 1", "x1 - x2"], abel=abel)
    a = [[1.03, -0.02], [0.04, 0.98]]
    rep = count_nonsingular_zeros(sys_.tilted(a), 2.0)
    assert rep.certified_count == 2 and rep.exact


# ---------------------------------------------------------------------------
# deformation paths

def test_path_validation():
    eye = np.eye(2)
    z = (0.0, 0.0)
    with pytest.raises(PathError):
        DeformationPath((0.0, 0.5), (eye, eye), (z, z))
    with pytest.raises(PathError):
        DeformationPath((0.0, 1.0), (eye, np.zeros((2, 2))), (z, z))
    with pytest.raises(PathError):
        DeformationPath((0.0, 1.0), (eye,), (z, z))


def test_path_rejects_ragged_shapes(abel):
    eye = np.eye(1)
    with pytest.raises(PathError, match="targets of length 1"):
        DeformationPath((0.0, 1.0), (eye, eye), ((0.0,), (0.5, 1.0)))
    with pytest.raises(PathError, match="1 x 1"):
        DeformationPath((0.0, 1.0), (eye, np.eye(2)), ((0.0,), (0.0,)))
    eye2, z2 = np.eye(2), (0.0, 0.0)
    with pytest.raises(BuildError, match="does not match n=1"):
        track_path(build_system(["x1 - 0.5"], abel=abel),
                   DeformationPath((0.0, 1.0), (eye2, eye2), (z2, z2)), 2, 2.0)


def test_path_interpolation():
    eye = np.eye(2)
    p = DeformationPath((0.0, 1.0), (eye, eye), ((0.0, 0.0), (1.0, -1.0)))
    a, eta, params = p.at(0.5)
    assert np.allclose(a, np.eye(2))
    assert eta == pytest.approx([0.5, -0.5])
    assert params is None
    with pytest.raises(PathError):
        p.at(1.5)


_entry = st.floats(-10.0, 10.0)


@st.composite
def _paths(draw):
    # 1- to 3-dimensional paths; diagonals past the other entries' row sums
    # keep each breakpoint's matrix regular
    n = draw(st.integers(1, 3))
    inner = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True,
                                    exclude_max=True),
                          max_size=3, unique=True))
    ts = (0.0, *sorted(inner), 1.0)
    mats, tgts = [], []
    for _ in ts:
        m = [[draw(_entry) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            m[i][i] = math.copysign(21.0 + abs(m[i][i]), m[i][i])
        mats.append(m)
        tgts.append([draw(_entry) for _ in range(n)])
    return DeformationPath(ts, tuple(mats), tuple(tgts))


@given(_paths(), st.floats(0.0, 1.0))
def test_path_entries_equal_numpys_interpolation(path, t):
    a, eta, _ = path.at(t)
    ts = path.breakpoints
    j = max(0, min(len(ts) - 2, int(np.searchsorted(ts, t, "right")) - 1))
    w = (t - ts[j]) / (ts[j + 1] - ts[j])
    want_a = ((1.0 - w) * np.asarray(path.matrices[j])
              + w * np.asarray(path.matrices[j + 1]))
    want_eta = ((1.0 - w) * np.asarray(path.targets[j])
                + w * np.asarray(path.targets[j + 1]))
    assert [[v.hex() for v in r] for r in a] == \
        [[float(v).hex() for v in r] for r in want_a]
    assert [v.hex() for v in eta] == [float(v).hex() for v in want_eta]


@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(_entry, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_determinant_agrees_with_numpy(m):
    # to 1e-12 relatively where the rows are far from dependent, and on
    # the singularity guard's side of 1e-9 away from that boundary
    with np.errstate(divide="ignore", invalid="ignore"):  # at zero pivots
        want = float(np.linalg.det(np.asarray(m)))
    d = _determinant(m)
    rows = math.prod(math.hypot(*r) for r in m)
    if abs(want) >= 1e-2 * rows:
        assert abs(d - want) <= 1e-12 * abs(want)
    if not 0.5e-9 <= abs(want) <= 2e-9:
        assert (abs(d) < 1e-9) == (abs(want) < 1e-9)


def test_track_constant_circle_line(abel):
    sys_ = build_system(["x1*x1 + x2*x2 - 1", "x1 - x2"], abel=abel)
    eye, z = np.eye(2), (0.0, 0.0)
    rep = track_path(sys_, DeformationPath((0.0, 1.0), (eye, eye), (z, z)),
                     steps=10, radius=2.0)
    assert rep.verdict == "constant"
    assert rep.counts == [2] * 11
    assert all(rep.certified)
    assert rep.first_issue_step is None and rep.transitions == []


def test_track_flags_singular_crossing(abel):
    # x^2 = t - 1/2 crosses a double zero at t = 1/2
    sys_ = build_system(["x1*x1 - delta"], params=SystemParams.zeros(1),
                        abel=abel)
    eye = np.eye(1)
    z = (0.0,)
    ramp = DeformationPath(
        (0.0, 1.0), (eye, eye), (z, z),
        params=(SystemParams((0.0,), (0.0,), -0.5),
                SystemParams((0.0,), (0.0,), 0.5)))
    rep = track_path(sys_, ramp, steps=10, radius=2.0)
    assert rep.verdict == "uncertified"
    assert rep.first_issue_step == 5
    assert rep.transitions == [(6, 0, 2)]
    assert rep.counts == [0] * 6 + [2] * 5


def test_track_params_need_sources(abel):
    from slogcensus.terms import parse_term
    sys_ = build_system([parse_term("x1")], abel=abel)
    eye = np.eye(1)
    z = (0.0,)
    path = DeformationPath(
        (0.0, 1.0), (eye, eye), (z, z),
        params=(SystemParams.zeros(1), SystemParams.zeros(1)))
    with pytest.raises(PathError):
        track_path(sys_, path, steps=2, radius=1.0)


def test_track_rejects_too_few_steps(abel):
    sys_ = build_system(["x1"], abel=abel)
    with pytest.raises(PathError):
        track_path(sys_, DeformationPath((0.0, 1.0), ([[1.0]], [[1.0]]),
                                         ((0.0,), (0.0,))),
                   steps=1, radius=1.0)


def test_reports_are_byte_identical_cold_and_hot(abel, fresh_shapes):
    # the corpus, and the circle's last-stage critical system with the
    # first rotation of seed 0
    eps, delta = schedule_for_ball(2.0).pairs[-1]
    q = _haar_rotation(2, np.random.default_rng(0))
    circle = parse_term("x1*x1 + x2*x2 - 1")
    cases = [(lambda e=eqs: build_system(e, abel=abel), radius, DEFAULT_DEPTH)
             for _, eqs, radius, _ in CORPUS]
    cases.append((lambda: critical_system(circle, eps, delta, q, abel),
                  delta / math.sqrt(eps) * 1.01 + 1e-9, CENSUS_DEPTH))

    def report(system, radius, depth):
        return json.dumps(
            count_nonsingular_zeros(system, radius, depth).to_dict())

    for build, radius, depth in cases:
        intervals._shape.cache_clear()
        # cold: every Krawczyk test by the walker and the interval helpers
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(census, "krawczyk_test", krawczyk_by_helpers)
            system = build()
            want = report(system, radius, depth)
        key = ("krawczyk", len(system.compiled.roots))
        assert key not in intervals._instance(system.compiled)[0].passes
        # hot: by generated code, which the first census makes and the
        # second runs on
        system = build()
        assert [report(system, radius, depth) for _ in range(2)] == \
            [want, want], system.equations
        assert key in intervals._instance(system.compiled)[0].passes
    assert json.loads(want)["certified_count"] == 4


# ---------------------------------------------------------------------------
# complexity reduction

@pytest.mark.parametrize("name,eqs,radius,expected",
                         PHI_CORPUS, ids=[row[0] for row in PHI_CORPUS])
def test_reduction_preserves_counts(abel, name, eqs, radius, expected):
    sys_ = build_system(eqs, abel=abel)
    red = reduce_phi_complexity(sys_, radius)
    assert max(fcpx(t) for t in red.equations) == 0
    prims = {op[3].name for op in red.compiled.ops
             if isinstance(op[3], RAPrimitive)}
    assert prims and all(p.startswith("slog_patch") for p in prims)
    rep = count_nonsingular_zeros(red, radius)
    assert rep.exact
    assert rep.certified_count == expected
    # the patches are phi itself restricted to the ball, so the census
    # sees the same values and enclosures as on the original system
    assert rep.to_dict() == count_nonsingular_zeros(sys_, radius).to_dict()


def test_import_leaves_scipy_interpolate_and_ndimage_unloaded():
    code = ("import sys, slogcensus, slogcensus.cli; "
            "print([m in sys.modules for m in "
            "('scipy.interpolate', 'scipy.ndimage')])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[False, False]"


def test_reduction_makes_one_primitive_per_argument_and_kind(abel):
    # phi(x1) occurs three times as separately parsed nodes; dphi(x1) and
    # the outer phi get primitives of their own, numbered innermost first
    sys_ = build_system(["phi(x1)*phi(x1) + dphi(x1) + phi(phi(x1))"],
                        abel=abel)
    red = reduce_phi_complexity(sys_, 2.0)
    names = [op[3].name for op in red.compiled.ops
             if isinstance(op[3], RAPrimitive)]
    assert names == ["slog_patch1", "slog_patch2_d", "slog_patch3"]


def test_reduction_identity_without_phi(abel):
    sys_ = build_system(["x1*x1 - 1"], abel=abel)
    assert reduce_phi_complexity(sys_, 2.0) is sys_


def test_reduction_zeros_match_positions(abel):
    sys_ = build_system(["phi(x1) - 0.5"], abel=abel)
    red = reduce_phi_complexity(sys_, 4.0)
    a = count_nonsingular_zeros(sys_, 4.0).zeros[0][0]
    b = count_nonsingular_zeros(red, 4.0).zeros[0][0]
    assert b == pytest.approx(a, abs=1e-6)


# ---------------------------------------------------------------------------
# file formats

def test_system_from_dict_variants(abel):
    doc = {"vars": 2, "equations": ["x1 - x2", "x1 + x2 - 1"]}
    sys_, radius = system_from_dict(doc, abel=abel)
    assert sys_.n == 2 and radius is None
    doc2 = {"vars": ["u", "v"], "equations": ["u - v", "u + v - 1"],
            "radius": 3.0}
    sys2, radius2 = system_from_dict(doc2, abel=abel)
    assert radius2 == 3.0
    rep = count_nonsingular_zeros(sys2, radius2)
    assert rep.certified_count == 1


def test_system_from_dict_rejects_garbage(abel):
    with pytest.raises((BuildError, KeyError)):
        system_from_dict({"equations": []}, abel=abel)
    for doc in ([], {"vars": 1.5, "equations": ["x1"]},
                {"vars": 1, "equations": "x1"},
                {"vars": 1, "equations": [["x1"]]},
                {"vars": 1, "equations": ["x1"], "radius": [2.0]},
                {"vars": 1, "equations": ["x1"], "params": [0.0]},
                {"vars": 1, "equations": ["x1"], "params": {"delta": "a"}}):
        with pytest.raises(BuildError):
            system_from_dict(doc, abel=abel)
