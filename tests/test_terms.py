"""Term language: parsing, printing, evaluation, differentiation, analysis."""

import copy
import math
import pickle
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from slogcensus.errors import (DifferentiationError, DomainError,
                               GrowthAnalysisError, TermSyntaxError)
from slogcensus import census, terms
from slogcensus.abel import get_default_abel
from slogcensus.census import (build_system, count_nonsingular_zeros,
                               reduce_phi_complexity)
from slogcensus.terms import (CONST, MUL, SQR, TermNode, add, add_all,
                              collect_phi_monomials, compile_terms, const,
                              default_catalog, dphi, differentiate, eval_term,
                              exp, fcpx, free_variables, gradient,
                              growth_exponent, log, mul, neg, parse_term, phi,
                              postorder, ra, rebuild, sub, substitute, to_text,
                              var)

from conftest import CORPUS, PHI_CORPUS
from krawczyk_reference import krawczyk_by_helpers


# ---------------------------------------------------------------------------
# parsing and printing

def test_parse_precedence():
    t = parse_term("x1 + x2*x3")
    assert eval_term(t, [1.0, 2.0, 3.0]) == 7.0
    t = parse_term("(x1 + x2)*x3")
    assert eval_term(t, [1.0, 2.0, 3.0]) == 9.0


def test_parse_unary_minus():
    assert eval_term(parse_term("-x1*x1"), [3.0]) == -9.0
    assert eval_term(parse_term("-(x1*x1)"), [3.0]) == -9.0
    assert eval_term(parse_term("2.0 - -x1"), [3.0]) == 5.0


def test_parse_functions(abel):
    assert eval_term(parse_term("exp(0.0)"), []) == 1.0
    assert eval_term(parse_term("log(exp(x1))"), [2.5]) == pytest.approx(2.5)
    assert eval_term(parse_term("phi(1.0)"), [], abel) == 0.0
    assert eval_term(parse_term("sin(0.0)"), []) == 0.0


def test_parse_syntax_errors():
    for text in ["x1 +", "(x1", "x1 x2", "frob(x1)", "", "1..2"]:
        with pytest.raises(TermSyntaxError):
            parse_term(text)
    with pytest.raises(TermSyntaxError) as exc:
        parse_term("x1 + *x2")
    assert exc.value.column == 6


def test_parse_caps_nesting_depth():
    cap = terms._MAX_NESTING
    for opener, closer in (("(", ")"), ("exp(", ")"), ("-", "")):
        assert parse_term(opener * cap + "x1" + closer * cap) is not None
        with pytest.raises(TermSyntaxError, match="nested too deeply"):
            parse_term(opener * (cap + 1) + "x1" + closer * (cap + 1))
    with pytest.raises(TermSyntaxError, match="nested too deeply") as exc:
        parse_term("(" * 3000 + "x1" + ")" * 3000)
    assert exc.value.column == cap + 1


def test_parse_custom_var_names():
    t = parse_term("a*b - 1", var_names=["a", "b"])
    assert eval_term(t, [2.0, 3.0]) == 5.0
    assert to_text(t, var_names=["a", "b"]) == "a*b - 1.0"


def test_to_text_fixed_cases():
    cases = [
        "x1 + x2*x3",
        "(x1 + x2)*x3",
        "-(x1 + 2.0)*exp(x2)",
        "phi(exp(x1)) - dphi(x2)",
        "x1*x1 - 1.0",
    ]
    for s in cases:
        t = parse_term(s)
        assert parse_term(to_text(t)) == t


_leaf = st.one_of(
    st.integers(0, 2).map(var),
    st.floats(0.0, 4.0, allow_nan=False).map(const))


def _trees(depth):
    if depth == 0:
        return _leaf
    inner = _trees(depth - 1)
    return st.one_of(
        _leaf,
        st.tuples(inner, inner).map(lambda p: add(*p)),
        st.tuples(inner, inner).map(lambda p: mul(*p)),
        st.tuples(inner, inner).map(lambda p: sub(*p)),
        inner.map(neg),
        inner.map(exp),
        inner.map(phi),
        inner.map(dphi))


@settings(max_examples=150, deadline=None)
@given(st.lists(_trees(3), min_size=1, max_size=3))
def test_compile_keeps_the_recursive_slot_order_on_trees(roots):
    _same_tape(roots)


@settings(max_examples=150, deadline=None)
@given(_trees(3))
def test_print_parse_roundtrip(t):
    # textual form is a fixed point of print/parse, and evaluation agrees
    s = to_text(t)
    t2 = parse_term(s)
    assert to_text(t2) == s
    point = [0.3, -0.7, 1.1]
    try:
        a = eval_term(t, point)
        b = eval_term(t2, point)
    except DomainError:
        return
    assert a == b


# ---------------------------------------------------------------------------
# evaluation

def test_eval_matches_math(abel):
    t = parse_term("exp(x1)*x2 - log(x2) + sin(x1)")
    for x, y in [(0.5, 2.0), (-1.0, 0.25), (2.0, 5.0)]:
        want = math.exp(x) * y - math.log(y) + math.sin(x)
        assert eval_term(t, [x, y], abel) == pytest.approx(want, rel=1e-14)


def test_eval_log_domain_error():
    with pytest.raises(DomainError):
        eval_term(parse_term("log(x1)"), [-1.0])


def test_eval_restricted_primitive_window():
    cat = default_catalog(restriction=2.0)
    t = ra(cat["sin"], var(0))
    assert eval_term(t, [1.0]) == pytest.approx(math.sin(1.0))
    with pytest.raises(DomainError):
        eval_term(t, [3.0])


def test_gradient_matches_finite_differences(abel):
    t = parse_term("exp(x1)*x2 + phi(x1*x2) - x2*x2")
    point = [0.4, 1.3]
    g = gradient(t, point, abel)
    h = 1e-6
    for i in range(2):
        lo = list(point)
        hi = list(point)
        lo[i] -= h
        hi[i] += h
        fd = (eval_term(t, hi, abel) - eval_term(t, lo, abel)) / (2 * h)
        assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)


# ---------------------------------------------------------------------------
# compilation

def test_compile_shares_subterms_and_squares():
    prog = compile_terms([parse_term("(x1*x1 + 1.0)*(x1*x1 + 1.0) + x1*x1")])
    # x1*x1 occupies one slot, the sum is squared once: 6 ops total
    assert len(prog.ops) == 6
    codes = [op[0] for op in prog.ops]
    assert codes.count(SQR) == 2
    assert MUL not in codes


def _compile_recursively(roots):
    # the recursive compiler that postorder replaced, kept as the reference
    # for the slot order of every tape
    slot, ops, n_vars = {}, [], 0

    def visit(node):
        nonlocal n_vars
        got = slot.get(node)
        if got is not None:
            return got
        code = terms._CODE[node.kind]
        a = b = -1
        payload = None
        if node.kind == "var":
            n_vars = max(n_vars, node.index + 1)
            payload = node.index
        elif node.kind == "const":
            payload = node.value
        elif node.kind == "ra":
            payload = node.prim
            a = visit(node.children[0])
        elif node.kind in ("phi", "dphi"):
            payload = terms.abel_primitives(get_default_abel())[node.kind]
            a = visit(node.children[0])
        elif node.kind == "mul" and node.children[0] == node.children[1]:
            code = SQR
            a = visit(node.children[0])
        elif len(node.children) == 2:
            a = visit(node.children[0])
            b = visit(node.children[1])
        else:
            a = visit(node.children[0])
        ops.append((code, a, b, payload))
        slot[node] = len(ops) - 1
        return slot[node]

    return ops, [visit(r) for r in roots], n_vars


def _same_tape(roots):
    ct = compile_terms(roots)
    assert (ct.ops, ct.roots, ct.n_vars) == _compile_recursively(roots)


@pytest.mark.parametrize("eqs,radius", [row[1:3] for row in CORPUS],
                         ids=[row[0] for row in CORPUS])
def test_compile_keeps_the_recursive_slot_order(abel, eqs, radius):
    _same_tape(list(build_system(eqs, abel=abel).equations))


@pytest.mark.parametrize("eqs,radius", [row[1:3] for row in PHI_CORPUS],
                         ids=[row[0] for row in PHI_CORPUS])
def test_compile_keeps_the_recursive_slot_order_reduced(abel, eqs, radius):
    reduced = reduce_phi_complexity(build_system(eqs, abel=abel), radius)
    _same_tape(list(reduced.equations))


def test_compile_tracks_var_count():
    prog = compile_terms([parse_term("x3 + 1.0")])
    assert prog.n_vars == 3
    assert prog.ops[-1][0] != CONST


def test_variables_are_one_node_per_index():
    t = parse_term("x1*x2 + x1")
    x1, x2 = t.children[0].children
    assert x1 is var(0) and x2 is var(1) and t.children[1] is var(0)
    assert parse_term("u - v", ["u", "v"]).children[1].children[0] is var(1)
    with pytest.raises(ValueError):
        var(-1)


# ---------------------------------------------------------------------------
# differentiation and substitution

def test_differentiate_product_rule():
    t = parse_term("x1*x1*x2")
    d = differentiate(t, 0)
    for x, y in [(1.0, 2.0), (0.5, -3.0)]:
        assert eval_term(d, [x, y]) == pytest.approx(2 * x * y)


def test_differentiate_phi_chain(abel):
    t = phi(mul(var(0), var(0)))
    d = differentiate(t, 0)
    x = 1.2
    want = abel.eval_dphi(x * x) * 2 * x
    assert eval_term(d, [x], abel) == pytest.approx(want, rel=1e-12)


def test_differentiate_log_uses_exp_inverse():
    d = differentiate(log(var(0)), 0)
    assert eval_term(d, [4.0]) == pytest.approx(0.25)


def test_differentiate_dphi_rejected():
    with pytest.raises(DifferentiationError):
        differentiate(dphi(var(0)), 0)


def test_substitute():
    t = parse_term("x1*x1 + x2")
    s = substitute(t, {0: parse_term("x2 + 1.0")})
    assert eval_term(s, [0.0, 2.0]) == 11.0


def test_free_variables():
    assert free_variables(parse_term("x1*x3 + exp(x1)")) == {0, 2}
    assert free_variables(const(1.0)) == set()


# ---------------------------------------------------------------------------
# structural analysis

def test_fcpx_fixed_cases():
    cases = [("x1", 0), ("phi(x1)", 1), ("dphi(x1)", 1),
             ("phi(exp(phi(x1)))", 2), ("phi(x1) + phi(x2)", 1)]
    for text, want in cases:
        assert fcpx(parse_term(text)) == want


def test_collect_phi_monomials_dedupes():
    t = parse_term("phi(x1)*phi(x1) + dphi(x2)")
    monos = collect_phi_monomials([t])
    assert len(monos) == 2


def test_growth_exponent_fixed_cases():
    cases = [("x1", 0), ("0.0", 0), ("1.0", 1), ("3.0", 3),
             ("x1 + x1", 1), ("x1*x1", 1), ("exp(x1)", 1),
             ("exp(exp(x1))", 2), ("phi(x1)", 1), ("phi(exp(x1))", 1),
             ("dphi(x1)", 2), ("log(3.0)", 2), ("sin(x1)", 1),
             ("phi(x1)*exp(x1) + x2", 3)]
    for text, want in cases:
        assert growth_exponent(parse_term(text)).s == want, text


def test_growth_exponent_rejects_open_log():
    with pytest.raises(GrowthAnalysisError):
        growth_exponent(parse_term("log(x1)"))


@settings(max_examples=100, deadline=None)
@given(_trees(3), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_growth_bound_holds(t, x, y):
    # |t(x)| <= exp_s(||x||_inf) whenever both sides evaluate
    try:
        s = growth_exponent(t).s
    except GrowthAnalysisError:
        return
    point = [x, y, 0.0]
    try:
        v = abs(eval_term(t, point))
        bound = max(abs(x), abs(y))
        for _ in range(s):
            bound = math.exp(bound)
    except (DomainError, OverflowError):
        return
    assert v <= bound + 1e-9


# ---------------------------------------------------------------------------
# terms far deeper than Python's recursion limit

def _wide_sum():
    # sum_{i<5000} x1/(i+1) - 1, left-nested 5 001 deep
    return add_all([mul(const(1.0 / (i + 1)), var(0)) for i in range(5000)]
                   + [const(-1.0)])


def _deep_chain():
    # exp(-exp(-...exp(-phi(x1))...)), 3 000 levels above phi(x1)
    t = phi(var(0))
    for i in range(3000):
        t = exp(t) if i % 2 else neg(t)
    return t


def _census(t, abel):
    # radius-2 census with every Krawczyk test by the walker and the
    # interval helpers, then by generated code
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(census, "krawczyk_test", krawczyk_by_helpers)
        want = count_nonsingular_zeros(build_system([t], abel=abel), 2.0)
    got = count_nonsingular_zeros(build_system([t], abel=abel), 2.0)
    assert got.to_dict() == want.to_dict()
    return got


def test_postorder_finishes_children_first_and_dedupes():
    t = parse_term("exp(x1)*x2 + exp(x1)")
    order = list(postorder([t, parse_term("x2")]))
    assert [to_text(n) for n in order] == [
        "x1", "exp(x1)", "x2", "exp(x1)*x2", "exp(x1)*x2 + exp(x1)"]


def test_wide_sum_runs_through_every_analysis(abel, fresh_shapes):
    t = _wide_sum()
    assert _wide_sum() == t and hash(_wide_sum()) == hash(t)
    assert t != add(t.children[0], const(-2.0))
    text = to_text(t)
    assert text.startswith("1.0*x1 + 0.5*x1 + ")
    assert text.endswith(" + 0.0002*x1 + -1.0")
    assert text.count(" + ") == 5000
    assert fcpx(t) == 0
    assert growth_exponent(t).s == 5002
    assert free_variables(t) == {0}
    assert collect_phi_monomials([t]) == ((), ())
    h = math.fsum(1.0 / (i + 1) for i in range(5000))
    d = differentiate(t, 0)
    assert d.kind == "const" and d.value == pytest.approx(h, rel=1e-12)
    s = substitute(t, {0: const(2.0)})
    assert free_variables(s) == set()
    assert eval_term(s, []) == pytest.approx(2.0 * h - 1.0, rel=1e-12)
    rep = _census(t, abel)
    assert rep.exact and rep.certified_count == 1
    assert rep.zeros[0][0] == pytest.approx(1.0 / h, rel=1e-9)


def test_deep_chain_runs_through_every_analysis(abel, fresh_shapes):
    t = _deep_chain()
    assert _deep_chain() == t and hash(_deep_chain()) == hash(t)
    assert t != substitute(t, {0: const(0.0)})
    text = to_text(t)
    assert text.count("exp(-") == 1500 and "phi(x1)" in text
    assert fcpx(t) == 1
    assert growth_exponent(t).s == 3001
    assert free_variables(t) == {0}
    assert collect_phi_monomials([t]) == ((var(0),), ())
    d = differentiate(t, 0)
    assert eval_term(d, [0.3], abel) == pytest.approx(
        gradient(t, [0.3], abel)[0], rel=1e-9, abs=1e-300)
    shifted = substitute(t, {0: add(var(0), const(1.0))})
    assert eval_term(shifted, [0.3], abel) == eval_term(t, [1.3], abel)
    # exp(-u) iterated converges to the omega constant, so t - x1 has one
    # zero there
    rep = _census(sub(t, var(0)), abel)
    assert rep.exact and rep.certified_count == 1
    assert rep.zeros[0][0] == pytest.approx(0.5671432904097838, rel=1e-12)


# ---------------------------------------------------------------------------
# hash-consing: equal terms are one object

def test_equal_terms_are_one_node():
    assert parse_term("x1*x1 + exp(x2)") is parse_term("x1*x1 + exp(x2)")
    assert parse_term("x1*x1 + exp(x2)") is not parse_term("x1*x1 + exp(x1)")
    assert const(-0.0) is const(0.0)
    assert math.copysign(1.0, const(-0.0).value) == 1.0


def test_the_constructor_returns_the_interned_node_unchanged():
    x1, zero = var(0), const(0.0)
    assert TermNode("add", (x1, zero)) is add(x1, zero)
    assert TermNode("var", index=0) is x1
    assert TermNode("const", value=-0.0) is zero
    assert math.copysign(1.0, zero.value) == 1.0
    with pytest.raises(AttributeError):
        zero.value = 1.0
    with pytest.raises(AttributeError):
        add(x1, zero).children = ()
    assert zero.value == 0.0 and add(x1, zero).children == (x1, zero)
    t = parse_term("x1*x1 + exp(x2)")
    assert copy.deepcopy(t) is t and pickle.loads(pickle.dumps(t)) is t


def test_rebuild_with_identity_returns_its_roots():
    roots = [parse_term("x1*x1 + exp(x2)"), _deep_chain(), var(3)]
    assert all(a is b for a, b in zip(rebuild(roots, lambda n: n), roots))


def test_the_table_keeps_no_dropped_term_alive():
    t = _deep_chain()
    refs = [weakref.ref(n) for n in postorder([t])]
    size = len(terms._TABLE)
    del t
    # x1 and phi(x1) may live on in other terms; the 3 000 levels above
    # phi(x1) were only this chain's
    assert len(refs) == 3002 and all(r() is None for r in refs[2:])
    assert len(terms._TABLE) <= size - 3000


def test_a_deep_chain_is_released_without_recursion(monkeypatch):
    # a fault inside a deallocation reaches sys.unraisablehook, not the
    # caller
    faults = []
    monkeypatch.setattr(sys, "unraisablehook", faults.append)
    size = len(terms._TABLE)
    t = var(0)
    for i in range(200_000):
        t = exp(t) if i % 2 else neg(t)
    top = weakref.ref(t)
    del t
    assert top() is None and not faults
    assert len(terms._TABLE) <= size
