"""Component bounds: formulas, tube construction, critical counts, gamma."""

import json
import math

import numpy as np
import pytest

from slogcensus.errors import BuildError, CertificationError, DomainError
from slogcensus.intervals import Box
from slogcensus.morse import (AffineSubspace, ComponentReport, GammaReport,
                              MilnorSchedule, QFFormula, affine_restrict,
                              atom, certify_schedule, component_bound,
                              critical_system, default_schedule,
                              formula_from_dict, gamma_estimate,
                              load_formula_file, milnor_tube, normalize,
                              oracle_components, prove_empty,
                              schedule_for_ball, wilkie_reduce)
from slogcensus.terms import eval_term, fcpx, free_variables, parse_term

_CIRCLE = "x1*x1 + x2*x2 - 1"


def _formula(*conjs, n=2):
    return QFFormula(tuple(tuple((parse_term(s), rel) for s, rel in conj)
                           for conj in conjs), n)


# ---------------------------------------------------------------------------
# formula normalization

def test_qfformula_rejects_raw_relations():
    with pytest.raises(BuildError):
        _formula([("x1", "<")], n=1)


def test_normalize_passthrough():
    f = _formula([(_CIRCLE, "=")])
    assert normalize(f, 2) is f


def test_normalize_less_than():
    f = normalize(atom(parse_term("x1"), "<"), 1)
    assert len(f.dnf) == 1
    (term, rel), = f.dnf[0]
    assert rel == ">"
    assert eval_term(term, [-2.0]) == 2.0


def test_normalize_not_equal():
    f = normalize(("not", atom(parse_term("x1"), "=")), 1)
    assert len(f.dnf) == 2
    assert {rel for conj in f.dnf for _, rel in conj} == {">"}


def test_normalize_weak_inequality():
    f = normalize(atom(parse_term("x1"), "<="), 1)
    rels = sorted(rel for conj in f.dnf for _, rel in conj)
    assert rels == ["=", ">"]


def test_normalize_distributes():
    tree = ("and",
            ("or", atom(parse_term("x1"), "="), atom(parse_term("x2"), "=")),
            atom(parse_term("x1 + x2"), ">"))
    f = normalize(tree, 2)
    assert len(f.dnf) == 2
    assert all(len(conj) == 2 for conj in f.dnf)


# ---------------------------------------------------------------------------
# single-equation reduction

def test_wilkie_equality_squares():
    f = _formula([("x1", "=")], n=1)
    term, aux = wilkie_reduce(f)
    assert aux == 0
    assert eval_term(term, [3.0]) == 9.0
    assert eval_term(term, [0.0]) == 0.0


def test_wilkie_union_multiplies():
    f = _formula([("x1", "=")], [("x2", "=")], n=2)
    term, aux = wilkie_reduce(f)
    assert aux == 0
    assert eval_term(term, [0.0, 5.0]) == 0.0
    assert eval_term(term, [5.0, 0.0]) == 0.0
    assert eval_term(term, [1.0, 2.0]) != 0.0


def test_wilkie_strict_atom_gets_witness_var():
    f = _formula([("x1", ">")], n=1)
    term, aux = wilkie_reduce(f)
    assert aux == 1
    assert free_variables(term) == {0, 1}
    # x > 0 has a witness u with x*u^2 = 1; x <= 0 has none
    u = 1.0 / math.sqrt(0.5)
    assert eval_term(term, [0.5, u]) == pytest.approx(0.0, abs=1e-12)
    for x in [-1.0, 0.0]:
        vals = [eval_term(term, [x, uu]) for uu in np.linspace(-3, 3, 61)]
        assert min(vals) > 0.0


def test_affine_restrict_adds_squared_constraints():
    f = parse_term(_CIRCLE)
    sub = AffineSubspace(((0.0, 1.0, 0.5),))
    g = affine_restrict(f, sub, 2)
    assert eval_term(g, [math.sqrt(0.75), 0.5]) == pytest.approx(0.0, abs=1e-12)
    assert eval_term(g, [1.0, 0.0]) == pytest.approx(0.25)
    assert affine_restrict(f, AffineSubspace.full(), 2) is f


def test_affine_subspace_entry_range():
    with pytest.raises(BuildError):
        AffineSubspace(((2.0, 0.0, 0.0),))


# ---------------------------------------------------------------------------
# tube and critical systems

def test_milnor_tube_values(abel):
    f = parse_term(_CIRCLE)
    t = milnor_tube(f, 0.01, 0.1)
    x = [1.0, 0.0]
    want = 0.0 + 0.01 * 1.0 - 0.01
    assert eval_term(t, x, abel) == pytest.approx(want)
    with pytest.raises(DomainError):
        milnor_tube(f, 0.0, 0.1)
    with pytest.raises(DomainError):
        milnor_tube(f, 0.01, 1.5)


def test_critical_system_shape(abel):
    f = parse_term(_CIRCLE)
    sys_ = critical_system(f, 0.0025, 0.1, np.eye(2), abel=abel)
    assert sys_.n == 2
    with pytest.raises(BuildError):
        critical_system(f, 0.0025, 0.1, np.array([[1.0, 1.0], [0.0, 1.0]]),
                        abel=abel)


def test_critical_system_one_var_is_level_only(abel):
    f = parse_term("x1*x1 - 1")
    sys_ = critical_system(f, 0.0025, 0.2, np.eye(1), abel=abel)
    assert sys_.n == 1


def test_prove_empty(abel):
    yes = prove_empty([parse_term("x1*x1 + 1")], Box.cube(2.0, 1), abel)
    assert yes
    no = prove_empty([parse_term("x1*x1 - 1")], Box.cube(2.0, 1), abel,
                     max_depth=8)
    assert not no


# ---------------------------------------------------------------------------
# schedules

def test_default_schedule_halving():
    s = default_schedule()
    assert s.pairs == ((0.01, 0.1), (0.0025, 0.05), (0.000625, 0.025))
    assert not s.certified


def test_schedule_for_ball_couples_radius():
    s = schedule_for_ball(2.0)
    for eps, delta in s.pairs:
        assert delta / math.sqrt(eps) == pytest.approx(2.0, rel=1e-12)
    unit = schedule_for_ball(1.0).pairs
    for (ea, da), (eb, db) in zip(unit, default_schedule().pairs):
        assert ea == pytest.approx(eb, rel=1e-15)
        assert da == db
    with pytest.raises(DomainError):
        schedule_for_ball(0.0)


def test_schedule_invariants():
    with pytest.raises(BuildError):
        MilnorSchedule(((0.01, 0.1), (0.02, 0.05)))
    with pytest.raises(BuildError):
        MilnorSchedule(((1.5, 0.1),))


def test_certify_schedule_circle(abel):
    f, _ = wilkie_reduce(_formula([(_CIRCLE, "=")]))
    out = certify_schedule(f, schedule_for_ball(2.0), abel, nvars=2)
    assert out.certified
    assert len(out.pairs) == 3
    assert certify_schedule(f, out, abel, nvars=2) is out


# ---------------------------------------------------------------------------
# component bounds

def test_component_bound_circle(abel):
    rep = component_bound(_formula([(_CIRCLE, "=")]), AffineSubspace.full(),
                          radius=2.0, abel=abel)
    assert isinstance(rep, ComponentReport)
    assert rep.critical_count == 4
    assert rep.component_bound == 2
    assert rep.oracle_components == 1
    assert rep.component_bound >= rep.oracle_components
    assert rep.stage_counts == [4, 4, 4]
    assert rep.limit_transfer_assumed
    d = rep.to_dict()
    assert d["component_bound"] == 2 and len(d["schedule"]) == 3


def test_component_bound_two_points(abel):
    # {x^2 = 1}: two points, and the bound is tight
    rep = component_bound(_formula([("x1*x1 - 1", "=")], n=1),
                          AffineSubspace.full(), radius=2.0, abel=abel)
    assert rep.critical_count == 4
    assert rep.component_bound == 2
    assert rep.oracle_components == 2


def test_component_bound_empty_set(abel):
    rep = component_bound(_formula([("x1*x1 + 1", "=")], n=1),
                          AffineSubspace.full(), radius=2.0, abel=abel)
    assert rep.critical_count == 0
    assert rep.component_bound == 0
    assert rep.oracle_components == 0


def test_component_bound_full_plane(abel):
    rep = component_bound(_formula([("x1 - x1", "=")], n=2),
                          AffineSubspace.full(), radius=2.0, abel=abel)
    assert rep.critical_count == 2
    assert rep.component_bound == 1
    assert rep.oracle_components == 1


def test_component_bound_slog_level_set(abel):
    rep = component_bound(_formula([("phi(x1)", "=")], n=1),
                          AffineSubspace.full(), radius=2.0, abel=abel)
    assert rep.critical_count == 2
    assert rep.component_bound == 1
    assert rep.oracle_components == 1


def test_component_bound_strict_atom(abel):
    # open half line: the witness variable doubles the ambient dimension
    rep = component_bound(_formula([("x1", ">")], n=1),
                          AffineSubspace.full(), radius=2.0, abel=abel)
    assert rep.critical_count == 6
    assert rep.component_bound == 3
    assert rep.oracle_components == 1
    assert rep.component_bound >= rep.oracle_components


def test_oracle_components_affine_slice(abel):
    f = _formula([(_CIRCLE, "=")])
    full = oracle_components(f, AffineSubspace.full(), 2.0, abel)
    assert full == 1
    sliced = oracle_components(f, AffineSubspace(((0.0, 1.0, 0.0),)), 2.0,
                               abel)
    assert sliced == 2


# ---------------------------------------------------------------------------
# gamma estimate

def test_gamma_circle_small(abel):
    f = _formula([(_CIRCLE, "=")])
    rep = gamma_estimate(f, n=2, trials=5, radius=2.0, seed=7, abel=abel)
    assert isinstance(rep, GammaReport)
    assert rep.estimate == 2
    assert rep.bound == 2
    assert len(rep.trials) == 5
    assert [t["components"] for t in rep.trials] == [0, 2, 0, 1, 0]
    for t in rep.trials:
        assert 0 <= t["k"] <= 2
        assert t["components"] <= t["bound"]
        assert t["oracle_stable"]


def test_gamma_deterministic(abel):
    f = _formula([(_CIRCLE, "=")])
    a = gamma_estimate(f, n=2, trials=2, radius=2.0, seed=3, abel=abel)
    b = gamma_estimate(f, n=2, trials=2, radius=2.0, seed=3, abel=abel)
    assert a.to_dict() == b.to_dict()
    assert a.estimate == 1


# ---------------------------------------------------------------------------
# formula files

def test_formula_from_dict():
    doc = {"vars": 2,
           "dnf": [[{"term": _CIRCLE, "rel": "="}],
                   [{"term": "x1", "rel": ">"}]]}
    f, radius = formula_from_dict(doc)
    assert f.n == 2
    assert len(f.dnf) == 2
    assert radius is None
    doc["radius"] = 3.0
    _, radius = formula_from_dict(doc)
    assert radius == 3.0


def test_formula_from_dict_named_vars():
    doc = {"vars": ["u", "v"], "dnf": [[{"term": "u*u + v*v - 1"}]]}
    f, _ = formula_from_dict(doc)
    assert f.n == 2


def test_formula_from_dict_rejects_bad_relation():
    doc = {"vars": 1, "dnf": [[{"term": "x1", "rel": "~"}]]}
    with pytest.raises(BuildError):
        formula_from_dict(doc)


def test_formula_from_dict_rejects_malformed_documents():
    for doc in ([], {"vars": "x1", "dnf": []}, {"vars": 1, "dnf": {}},
                {"vars": 1, "dnf": [{"term": "x1"}]},
                {"vars": 1, "dnf": [[{"term": 5}]]},
                {"vars": 1, "dnf": [["x1"]]},
                {"vars": 1, "dnf": [[{"term": "x1"}]], "radius": "abc"}):
        with pytest.raises(BuildError):
            formula_from_dict(doc)


def test_load_formula_file(tmp_path, abel):
    doc = {"vars": 1, "dnf": [[{"term": "x1*x1 - 1", "rel": "="}]],
           "radius": 2.0}
    path = tmp_path / "formula.json"
    path.write_text(json.dumps(doc))
    f, radius = load_formula_file(str(path))
    assert f.n == 1 and radius == 2.0
