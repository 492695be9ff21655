"""Component bounds: formulas, tube construction, critical counts, gamma."""

import json
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slogcensus import intervals
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
from slogcensus.terms import (add_all, const, eval_term, fcpx,
                              free_variables, mul, parse_term, substitute,
                              var)

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


# each relation of t to 0 and the DNF of its negation, with the number of
# strict atoms (witness variables) that DNF costs
_NEGATIONS = [("=", [[("x1", ">")], [("-x1", ">")]], 2),
              (">", [[("-x1", ">")], [("x1", "=")]], 1),
              ("<", [[("x1", ">")], [("x1", "=")]], 1),
              ("<=", [[("x1", ">")]], 1),
              (">=", [[("-x1", ">")]], 1),
              ("!=", [[("x1", "=")]], 0)]


@pytest.mark.parametrize("rel, dnf, aux", _NEGATIONS)
def test_normalize_negation_is_the_complement_relation(rel, dnf, aux):
    f = normalize(("not", atom(parse_term("x1"), rel)), 1)
    assert f.dnf == tuple(tuple((parse_term(t), r) for t, r in conj)
                          for conj in dnf)
    assert wilkie_reduce(f)[1] == aux


_HOLDS = {"=": operator.eq, ">": operator.gt, "<": operator.lt,
          "<=": operator.le, ">=": operator.ge, "!=": operator.ne}
_TREE_TERMS = [parse_term(s) for s in ("x1", "x2", "x1 - x2", "x1*x1 - 1")]
# every term above is zero somewhere on this grid, and exact on all of it
_TREE_POINTS = [(a, b) for a in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
                for b in (-1.0, 0.0, 0.5, 1.0)]


def _trees(depth):
    atoms = st.builds(atom, st.sampled_from(_TREE_TERMS),
                      st.sampled_from(sorted(_HOLDS)))
    if depth == 0:
        return atoms
    inner = _trees(depth - 1)
    return st.one_of(
        atoms, st.tuples(st.just("not"), inner),
        st.builds(lambda kind, children: (kind,) + tuple(children),
                  st.sampled_from(("and", "or")),
                  st.lists(inner, min_size=1, max_size=2)))


def _holds(node, x):
    kind = node[0]
    if kind == "atom":
        return _HOLDS[node[2]](eval_term(node[1], list(x)), 0.0)
    if kind == "not":
        return not _holds(node[1], x)
    held = [_holds(c, x) for c in node[1:]]
    return all(held) if kind == "and" else any(held)


@settings(max_examples=150, deadline=None)
@given(_trees(3))
def test_normalize_keeps_the_set_of_every_tree(tree):
    f = normalize(tree, 2)
    terms = {t for conj in f.dnf for t, _ in conj}
    for x in _TREE_POINTS:
        at = {t: eval_term(t, list(x)) for t in terms}
        in_dnf = any(all(_HOLDS[rel](at[t], 0.0) for t, rel in conj)
                     for conj in f.dnf)
        assert in_dnf == _holds(tree, x), x


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


@pytest.mark.parametrize("seed", [None, 0, 3])
def test_critical_system_ends_with_the_tube_of_the_rotated_term(abel, seed):
    f = parse_term(_CIRCLE)
    q = np.eye(2) if seed is None else \
        np.linalg.qr(np.random.default_rng(seed).normal(size=(2, 2)))[0]
    # x_i = sum_j Q[j][i] y_j over the nonzero entries of Q
    rotated = substitute(f, {
        i: add_all([mul(const(float(q[j, i])), var(j))
                    for j in range(2) if q[j, i] != 0.0])
        for i in range(2)})
    sys_ = critical_system(f, 0.0025, 0.1, q, abel=abel)
    assert sys_.equations[-1] == milnor_tube(rotated, 0.0025, 0.1, 2)


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
    assert len(out.pairs) == 3
    # re-certifying keeps the pairs
    assert certify_schedule(f, out, abel, nvars=2).pairs == out.pairs


def test_certify_schedule_checks_the_formula_it_is_given(abel):
    # a schedule certified for x^2 - 0.5 is no certificate for x^2 - 0.95,
    # whose critical value delta^2 = 0.95 the stage sits on
    first = certify_schedule(parse_term("x1*x1 - 0.5"),
                             MilnorSchedule(((0.5, 0.95),)), abel, nvars=1)
    assert first.pairs == ((0.5, 0.95),)
    again = certify_schedule(parse_term("x1*x1 - 0.95"), first, abel, nvars=1)
    assert again.pairs == ((0.5, 0.9760227205910762),)


def test_certify_schedule_counts_a_delta_outside_the_unit_interval_as_a_failed_try(abel):
    # delta^2 = 0.95 is the critical value at x = 0, so each seed resamples;
    # the first draws of seeds 4 and 5 are above 1, a later one is not
    f = parse_term("x1*x1 - 0.95")
    schedule = MilnorSchedule(((0.5, 0.95),))
    deltas = [certify_schedule(f, schedule, abel, nvars=1, seed=s).pairs[0][1]
              for s in range(6)]
    assert deltas[:4] == [0.9760227205910762, 0.9522461086930487,
                          0.9047063055073701, 0.8712733417572887]
    assert all(0.9 < d < 1.0 for d in deltas[4:])


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


def test_component_bound_generates_each_pass_of_a_shape_once(
        abel, monkeypatch, fresh_shapes):
    made = []
    generate = intervals._generate

    def counted(shape, n, grad):
        made.append((shape, grad, n))
        return generate(shape, n, grad)

    monkeypatch.setattr(intervals, "_generate", counted)

    def bound():
        return component_bound(_formula([(_CIRCLE, "=")]),
                               AffineSubspace.full(), radius=2.0, abel=abel,
                               include_oracle=False).to_dict()

    first = bound()
    # six tapes in three shapes: the prove_empty tapes of the schedule
    # share one, and so do the critical systems of stages 2 and 3
    shapes = {id(shape) for shape, _, _ in made}
    assert len(shapes) == 3
    assert len(set(made)) == len(made) <= 2 * len(shapes)
    made.clear()
    assert bound() == first
    assert made == []


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


@pytest.mark.parametrize("rel, same, critical, bound", [
    ("!=", "=", 4, 2), ("<=", ">", 12, 6)])
def test_component_bound_of_a_negated_relation(abel, rel, same, critical,
                                               bound):
    # not(t != 0) is t = 0 and not(t <= 0) is t > 0, atom for atom
    t = parse_term("x1*x1 - 1")
    reps = [component_bound(tree, AffineSubspace.full(), 2.0, abel=abel, n=1)
            for tree in (("not", atom(t, rel)), atom(t, same))]
    assert reps[0].to_dict() == reps[1].to_dict()
    assert (reps[0].critical_count, reps[0].component_bound,
            reps[0].oracle_components) == (critical, bound, 2)


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


def test_formula_from_dict_takes_every_relation_of_the_tree_api():
    doc = {"vars": 2, "dnf": [[{"term": "x1", "rel": "<="},
                               {"term": "x2", "rel": "!="}]]}
    f, _ = formula_from_dict(doc)
    x1, x2 = parse_term("x1"), parse_term("x2")
    assert f == normalize(("and", atom(x1, "<="), atom(x2, "!=")), 2)
    assert len(f.dnf) == 4


def test_formula_from_dict_rejects_bad_relation():
    for rel in ("~", 5):
        doc = {"vars": 1, "dnf": [[{"term": "x1", "rel": rel}]]}
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
