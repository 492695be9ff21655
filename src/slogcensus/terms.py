"""Term language over exp, log, restricted-analytic primitives, and the
super-logarithm.

Terms are immutable trees, hash-consed so that equal terms are one
object.  The module provides a parser and printer for the concrete grammar

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := NUMBER | IDENT | '(' expr ')' | '-' factor | FUNC '(' expr ')'

where FUNC is one of exp, log, phi, dphi or a restricted-analytic catalog
name, and IDENT is a variable (x1, x2, ... by convention).  On top of the
tree it implements point evaluation, forward-mode gradients, symbolic
differentiation, the phi-nesting complexity measure, and the structural
iterated-exponential growth analysis.
"""

from __future__ import annotations

import functools
import math
import operator
import re
import sys
import weakref
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import (
    DifferentiationError,
    DomainError,
    GrowthAnalysisError,
    TermSyntaxError,
)

__all__ = [
    "RAPrimitive",
    "TermNode",
    "GrowthExponent",
    "default_catalog",
    "exp_sat",
    "exp_n",
    "log_n",
    "var",
    "const",
    "add",
    "sub",
    "mul",
    "neg",
    "exp",
    "log",
    "phi",
    "dphi",
    "ra",
    "add_all",
    "mul_all",
    "postorder",
    "rebuild",
    "parse_term",
    "to_text",
    "derivative_chain",
    "abel_or_default",
    "abel_primitives",
    "compile_terms",
    "run_tape",
    "eval_compiled",
    "gradient_compiled",
    "eval_term",
    "gradient",
    "fcpx",
    "growth_exponent",
    "differentiate",
    "substitute",
    "collect_phi_monomials",
    "free_variables",
]


# ---------------------------------------------------------------------------
# saturating and iterated exp and log

# the largest double whose exp is finite; exp of the next double overflows
EXP_MAX = math.log(sys.float_info.max)


def exp_sat(x: float) -> float:
    """exp(x), saturated to +inf where it overflows (and for NaN)."""
    return math.exp(x) if x <= EXP_MAX else math.inf


def exp_n(x: float, n: int) -> float:
    """n-fold exponential; saturates to +inf on overflow."""
    for _ in range(n):
        x = exp_sat(x)
    return x


def log_n(x: float, n: int) -> float:
    """n-fold logarithm; requires every intermediate value positive."""
    for _ in range(n):
        if x <= 0.0:
            raise DomainError(f"iterated log needs positive intermediate, got {x}")
        x = math.log(x)
    return x


# ---------------------------------------------------------------------------
# restricted-analytic primitives


@dataclass(frozen=True, eq=False)
class RAPrimitive:
    """A smooth function restricted to an interval [lo, hi].

    ``fn`` evaluates pointwise (scalars or numpy arrays). ``range_fn(a, b)``
    is the whole enclosure of the range over [a, b], of float ends a <= b,
    its ends rounded outward by the primitive itself; a box and each grid
    cell call it alike. ``deriv`` is the derivative as
    another primitive (``derivative_chain``), and ``sup_abs`` bounds |fn|
    over the domain. The catalog's primitives live on compact intervals;
    phi, phi' and phi'' of an AbelFunction are primitives over the whole
    line (``abel_primitives``), and the phi elimination restricts them.
    """

    name: str
    lo: float
    hi: float
    fn: Callable
    range_fn: Callable
    sup_abs: float
    deriv: Optional["RAPrimitive"] = None

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"RAPrimitive({self.name!r}, [{self.lo}, {self.hi}])"

    @property
    def growth_level(self) -> int:
        return _level_for_bound(self.sup_abs)

    def derivative(self) -> "RAPrimitive":
        if self.deriv is None:
            raise DifferentiationError(f"primitive {self.name!r} has no derivative")
        return self.deriv


# exp composed s times at 0: exp_0(0)=0, exp_1(0)=1, exp_2(0)=e, ...
_EXP_AT_ZERO = (0.0, 1.0, math.e, math.exp(math.e), math.exp(math.exp(math.e)))


def _level_for_bound(m: float) -> int:
    for s, v in enumerate(_EXP_AT_ZERO):
        if m <= v:
            return s
    return len(_EXP_AT_ZERO)  # exp_5(0) overflows any double


_TWO_PI = 2.0 * math.pi
# slack when testing whether a trig extremum lies inside an interval; only
# ever widens the reported range, never narrows it
_PHASE_SLACK = 1e-9


def _contains_phase(a: float, b: float, offset: float) -> bool:
    # is offset + 2*pi*k in [a, b] for some integer k?
    k_lo = math.ceil((a - offset - _PHASE_SLACK) / _TWO_PI)
    k_hi = math.floor((b - offset + _PHASE_SLACK) / _TWO_PI)
    return k_lo <= k_hi


def _rounded(range_fn):
    # the range of a float formula, two ulps outward at each end so that
    # it encloses the exact range
    def rng(a: float, b: float):
        lo, hi = range_fn(a, b)
        dn, up = -math.inf, math.inf
        return (math.nextafter(math.nextafter(lo, dn), dn),
                math.nextafter(math.nextafter(hi, up), up))

    return rng


def _trig_range(fn, peak: float, trough: float):
    # enclosure of fn, sin or cos or their negation: 1 or -1 where [a, b]
    # holds a phase of its peak or trough, else the larger or smaller end
    def rng(a: float, b: float):
        if b - a >= _TWO_PI:
            return -1.0, 1.0
        hi = 1.0 if _contains_phase(a, b, peak) else max(fn(a), fn(b))
        lo = -1.0 if _contains_phase(a, b, trough) else min(fn(a), fn(b))
        return lo, hi

    return _rounded(rng)


def _datan(x):
    return 1.0 / (1.0 + x * x)


def _d2atan(x):
    t = 1.0 + x * x
    return -2.0 * x / (t * t)


def _d3atan(x):
    t = 1.0 + x * x
    return (6.0 * x * x - 2.0) / (t * t * t)


# Float error bounds of the two formulas above, from the standard model
# |fl(a op b) - a op b| <= u |a op b| with u = 2^-53 (Higham 2002, ch. 3).
# d2atan errs by under 6.1u relatively. d3atan's numerator 6x^2 - 2
# cancels, so its bound is absolute: under u (72x^2 + 20) / t^3. Both
# constants leave room for the rounding of the bound itself, and d2atan's
# float critical points, an ulp from the true ones, move its extremum by
# far less than the bound.
_U = 2.0 ** -53


def _d2atan_err(x):
    return 8.0 * _U * abs(_d2atan(x))


def _d3atan_err(x):
    t = 1.0 + x * x
    return 16.0 * _U * (6.0 * x * x + 2.0) / (t * t * t)


def _critical_point_range(fn, crits, err=lambda x: 0.0):
    # enclosure of fn over [a, b], monotone between consecutive crits; a
    # formula whose float error passes two ulps widens each value by err
    def rng(a: float, b: float):
        vals = [(fn(p), err(p))
                for p in (a, b, *(c for c in crits if a <= c <= b))]
        return min(v - e for v, e in vals), max(v + e for v, e in vals)

    return _rounded(rng)


def derivative_chain(names: Sequence[str], lo: float, hi: float,
                     links: Sequence[tuple],
                     cycle: bool = False) -> list[RAPrimitive]:
    """Primitives on [lo, hi], ``names[k]`` built from ``links[k]`` =
    (fn, range_fn, sup_abs), each the derivative of the one before. The
    last has no derivative or, with ``cycle``, the first."""
    chain, deriv = [], None
    for name, (fn, range_fn, sup_abs) in reversed(list(zip(names, links))):
        deriv = RAPrimitive(name, lo, hi, fn, range_fn, sup_abs, deriv)
        chain.insert(0, deriv)
    if cycle:
        object.__setattr__(chain[-1], "deriv", chain[0])
    return chain


def _numpy_fn(name: str, negate: bool = False):
    # numpy's function ``name``, or its negation, for scalars and arrays;
    # numpy is imported at the first call, so a catalog builds without it
    fn = None

    def call(x):
        nonlocal fn
        if fn is None:
            import numpy
            fn = getattr(numpy, name)
        return -fn(x) if negate else fn(x)

    return call


def default_catalog(restriction: float = 100.0) -> dict[str, RAPrimitive]:
    """Catalog of restricted-analytic primitives on [-restriction, restriction].

    Contains sin, cos, atan and enough derivative levels for symbolic
    differentiation followed by interval Jacobians.
    """
    c = float(restriction)
    if not (c > 0.0 and math.isfinite(c)):
        raise ValueError("restriction must be positive and finite")

    # sin/cos family closes under differentiation, so each chain is a cycle
    pi, half = math.pi, 0.5 * math.pi
    sin_links = [
        (_numpy_fn("sin"), _trig_range(math.sin, half, -half), 1.0),
        (_numpy_fn("cos"), _trig_range(math.cos, 0.0, pi), 1.0),
        (_numpy_fn("sin", True), _trig_range(lambda x: -math.sin(x), -half, half), 1.0),
        (_numpy_fn("cos", True), _trig_range(lambda x: -math.cos(x), pi, 0.0), 1.0)]
    cos_links = sin_links[1:] + sin_links[:1]
    inv_sqrt3 = 1.0 / math.sqrt(3.0)
    atan_links = [
        (_numpy_fn("arctan"), _critical_point_range(math.atan, ()), math.atan(c)),
        (_datan, _critical_point_range(_datan, (0.0,)), 1.0),
        (_d2atan, _critical_point_range(_d2atan, (-inv_sqrt3, inv_sqrt3),
                                        _d2atan_err), _d2atan(-inv_sqrt3)),
        (_d3atan, _critical_point_range(_d3atan, (-1.0, 0.0, 1.0),
                                        _d3atan_err), 2.0)]
    prims = [*derivative_chain(("sin", "dsin", "d2sin", "d3sin"), -c, c,
                               sin_links, cycle=True),
             *derivative_chain(("cos", "dcos", "d2cos", "d3cos"), -c, c,
                               cos_links, cycle=True),
             *derivative_chain(("atan", "datan", "d2atan", "d3atan"), -c, c,
                               atan_links)]
    return {p.name: p for p in prims}


_DEFAULT_CATALOG: dict[str, RAPrimitive] | None = None


def _catalog() -> dict[str, RAPrimitive]:
    global _DEFAULT_CATALOG
    if _DEFAULT_CATALOG is None:
        _DEFAULT_CATALOG = default_catalog()
    return _DEFAULT_CATALOG


def abel_or_default(abel):
    """``abel``, or the default super-logarithm, built at its first use,
    when ``abel`` is None."""
    if abel is not None:
        return abel
    from .abel import get_default_abel
    return get_default_abel()


# a process holds one abel, or a few; one evicted from the cache gets new
# primitives at its next compile, which evaluate and enclose alike
@functools.lru_cache(maxsize=8)
def abel_primitives(abel) -> dict[str, RAPrimitive]:
    """phi and phi' of an AbelFunction as primitives over (-inf, inf),
    keyed by the term kinds that compile to them. phi's derivative is the
    phi' primitive, whose own is a phi'' primitive. Their sup_abs is inf:
    the growth analysis reads phi nodes, not these, and a restriction
    recomputes it.
    """
    inf = math.inf
    phi_p, dphi_p, _ = derivative_chain(
        ("phi", "dphi", "d2phi"), -inf, inf,
        [(abel.eval_phi_array, abel.interval_phi, inf),
         (abel.eval_dphi_array, abel.interval_dphi, inf),
         (abel.eval_d2phi_array, abel.interval_d2phi, inf)])
    return {"phi": phi_p, "dphi": dphi_p}


# ---------------------------------------------------------------------------
# term nodes

_KINDS = ("var", "const", "add", "mul", "neg", "exp", "log", "ra", "phi", "dphi")
_ARITY = {"var": 0, "const": 0, "add": 2, "mul": 2, "neg": 1, "exp": 1,
          "log": 1, "ra": 1, "phi": 1, "dphi": 1}


class TermNode:
    """Immutable term tree node, hash-consed: equal terms are one object.

    The constructor looks its (kind, children, index, value, prim) up in
    one table of weak references and returns the live node with that key
    if there is one. Children and primitives are compared by identity,
    so two nodes are equal terms exactly when they are the same object,
    and nodes compare and hash by identity. A value of -0.0 is stored as
    0.0. The table never keeps a node alive.
    """

    __slots__ = ("kind", "children", "index", "value", "prim", "__weakref__")

    def __new__(cls, kind: str, children: tuple = (), index: int = -1,
                value: float = 0.0, prim: RAPrimitive | None = None):
        key = (kind, children, index, value + 0.0, prim)   # -0.0 + 0.0 is 0.0
        node = _TABLE.get(key)
        if node is None:
            if kind not in _KINDS:
                raise ValueError(f"unknown node kind {kind!r}")
            if len(children) != _ARITY[kind]:
                raise ValueError(f"{kind} node takes {_ARITY[kind]} children")
            node = object.__new__(cls)
            for name, v in zip(cls.__slots__, key):
                object.__setattr__(node, name, v)
            _TABLE[key] = node
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: terms are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: terms are immutable")

    def __reduce__(self):   # copies and pickles intern like any construction
        return TermNode, (self.kind, self.children, self.index, self.value,
                          self.prim)

    def __repr__(self):
        return f"<term {to_text(self)}>"


_TABLE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def var(i: int) -> TermNode:
    if i < 0:
        raise ValueError("variable index must be >= 0")
    return TermNode("var", index=i)


def const(v: float) -> TermNode:
    v = float(v)
    if not math.isfinite(v):
        raise DomainError(f"constants must be finite, not {v}")
    return TermNode("const", value=v)


def add(a: TermNode, b: TermNode) -> TermNode:
    return TermNode("add", (a, b))


def mul(a: TermNode, b: TermNode) -> TermNode:
    return TermNode("mul", (a, b))


def neg(a: TermNode) -> TermNode:
    return TermNode("neg", (a,))


def sub(a: TermNode, b: TermNode) -> TermNode:
    return add(a, neg(b))


def exp(a: TermNode) -> TermNode:
    return TermNode("exp", (a,))


def log(a: TermNode) -> TermNode:
    return TermNode("log", (a,))


def phi(a: TermNode) -> TermNode:
    return TermNode("phi", (a,))


def dphi(a: TermNode) -> TermNode:
    return TermNode("dphi", (a,))


def ra(prim: RAPrimitive, a: TermNode) -> TermNode:
    return TermNode("ra", (a,), prim=prim)


def add_all(ts: Sequence[TermNode]) -> TermNode:
    if not ts:
        return const(0.0)
    out = ts[0]
    for t in ts[1:]:
        out = add(out, t)
    return out


def mul_all(ts: Sequence[TermNode]) -> TermNode:
    if not ts:
        return const(1.0)
    out = ts[0]
    for t in ts[1:]:
        out = mul(out, t)
    return out


# ---------------------------------------------------------------------------
# the one walk over the term DAG


def postorder(roots: Iterable[TermNode]):
    """Each distinct subterm of ``roots`` once, after its
    children, in the order a left-to-right recursive walk finishes them.

    Every analysis of the DAG is a loop over this walk that keeps its
    per-node results in a dict, so terms of any depth are handled without
    recursion.
    """
    # marking a subterm when it is expanded equals marking it when it is
    # finished: in a DAG nothing reaches it again in between
    seen: set = set()
    stack = list(tuple(roots)[::-1])
    while stack:
        node = stack.pop()
        if node.__class__ is tuple:     # (node,): its children are done
            yield node[0]
            continue
        if node in seen:
            continue
        seen.add(node)
        if node.children:
            stack.append((node,))
            stack.extend(node.children[::-1])
        else:
            yield node


def rebuild(roots: Sequence[TermNode], visit: Callable) -> list:
    """Bottom-up copy of the DAG under ``roots``: ``visit`` maps each node,
    with its children already replaced by their images, to its image. A
    node whose children are their own images is itself again, for equal
    terms are one object."""
    image: dict = {}
    for node in postorder(roots):
        kids = tuple(image[c] for c in node.children)
        image[node] = visit(TermNode(node.kind, kids, node.index, node.value,
                                     node.prim))
    return [image[r] for r in roots]


# ---------------------------------------------------------------------------
# parser

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<sym>[-+*()])"
)

_FUNC_BUILTINS = {"exp": exp, "log": log, "phi": phi, "dphi": dphi}
_VAR_RE = re.compile(r"^x([0-9]+)$")
# nested parentheses, function calls and unary minus signs; the parser
# recurses once per level, so the cap keeps it far from Python's stack limit
_MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str, var_names, catalog, extra):
        self.text = text
        self.var_names = list(var_names) if var_names is not None else None
        self.catalog = catalog if catalog is not None else _catalog()
        self.extra = dict(extra) if extra else {}
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise TermSyntaxError(f"unexpected character {text[pos]!r}", pos + 1)
            pos = m.end()
            if m.lastgroup != "ws":
                self.tokens.append((m.lastgroup, m.group(), m.start() + 1))
        self.i = 0
        self.depth = 0

    def _peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return ("eof", "", len(self.text) + 1)

    def _next(self):
        tok = self._peek()
        self.i += 1
        return tok

    def _expect_sym(self, s: str):
        kind, val, col = self._next()
        if kind != "sym" or val != s:
            raise TermSyntaxError(f"expected {s!r}", col)

    def _nested(self, parse, col: int) -> TermNode:
        if self.depth == _MAX_NESTING:
            raise TermSyntaxError("expression nested too deeply", col)
        self.depth += 1
        t = parse()
        self.depth -= 1
        return t

    def parse(self) -> TermNode:
        t = self.expr()
        kind, val, col = self._peek()
        if kind != "eof":
            raise TermSyntaxError(f"unexpected token {val!r}", col)
        return t

    def expr(self) -> TermNode:
        t = self.term()
        while True:
            kind, val, _ = self._peek()
            if kind == "sym" and val in "+-":
                self._next()
                rhs = self.term()
                t = add(t, rhs) if val == "+" else add(t, neg(rhs))
            else:
                return t

    def term(self) -> TermNode:
        t = self.factor()
        while True:
            kind, val, _ = self._peek()
            if kind == "sym" and val == "*":
                self._next()
                t = mul(t, self.factor())
            else:
                return t

    def factor(self) -> TermNode:
        kind, val, col = self._next()
        if kind == "num":
            return const(float(val))
        if kind == "sym" and val == "-":
            return neg(self._nested(self.factor, col))
        if kind == "sym" and val == "(":
            t = self._nested(self.expr, col)
            self._expect_sym(")")
            return t
        if kind == "ident":
            nkind, nval, _ = self._peek()
            if nkind == "sym" and nval == "(":
                ctor = _FUNC_BUILTINS.get(val)
                prim = self.catalog.get(val)
                if ctor is None and prim is None:
                    raise TermSyntaxError(f"unknown function {val!r}", col)
                self._next()
                arg = self._nested(self.expr, col)
                self._expect_sym(")")
                return ctor(arg) if ctor is not None else ra(prim, arg)
            return self._ident(val, col)
        raise TermSyntaxError(f"unexpected token {val!r}", col)

    def _ident(self, name: str, col: int) -> TermNode:
        if name in self.extra:
            return self.extra[name]
        if self.var_names is not None:
            if name in self.var_names:
                return var(self.var_names.index(name))
            raise TermSyntaxError(f"unknown identifier {name!r}", col)
        m = _VAR_RE.match(name)
        if m:
            k = int(m.group(1))
            if k >= 1:
                return var(k - 1)
        raise TermSyntaxError(f"unknown identifier {name!r}", col)


def parse_term(text: str, var_names: Sequence[str] | None = None,
               catalog: Mapping[str, RAPrimitive] | None = None,
               extra: Mapping[str, TermNode] | None = None) -> TermNode:
    """Parse source text into a term.

    ``var_names`` fixes the surface names and their indices; without it,
    identifiers must match x<k> with k >= 1 and map to index k-1.  ``extra``
    maps additional identifiers (parameter placeholders) to ready-made nodes.
    """
    return _Parser(text, var_names, catalog, extra).parse()


# ---------------------------------------------------------------------------
# printer

def _var_name(i: int, var_names) -> str:
    if var_names is not None and i < len(var_names):
        return var_names[i]
    return f"x{i + 1}"


def to_text(t: TermNode, var_names: Sequence[str] | None = None) -> str:
    """Render a term; parse_term(to_text(t)) is t for parser-producible
    trees."""
    # each node's text is a tuple of strings and of its children's tuples,
    # flattened once at the end, so that deep terms cost linear memory
    text: dict = {}   # node -> (pieces, level: 0 expr, 1 term, 2 factor)

    def arg(node: TermNode, level: int):
        pieces, mine = text[node]
        return ("(", pieces, ")") if mine < level else pieces

    for node in postorder([t]):
        k = node.kind
        if k == "var":
            s, mine = _var_name(node.index, var_names), 2
        elif k == "const":
            s, mine = repr(node.value), 2
        elif k == "add":
            a, b = node.children
            if b.kind == "neg":
                s = (arg(a, 0), " - ", arg(b.children[0], 1))
            else:
                s = (arg(a, 0), " + ", arg(b, 1))
            mine = 0
        elif k == "mul":
            a, b = node.children
            s, mine = (arg(a, 1), "*", arg(b, 2)), 1
        elif k == "neg":
            s, mine = ("-", arg(node.children[0], 2)), 2
        else:
            name = node.prim.name if k == "ra" else k
            s, mine = (name, "(", arg(node.children[0], 0), ")"), 2
        text[node] = (s, mine)
    out: list = []
    stack = [text[t][0]]
    while stack:
        s = stack.pop()
        if isinstance(s, str):
            out.append(s)
        else:
            stack.extend(reversed(s))
    return "".join(out)


# ---------------------------------------------------------------------------
# tape compilation: postorder over the term DAG with shared subterms
# evaluated once

VAR, CONST, ADD, MUL, SQR, NEG, EXP, LOG, RA = range(9)

# phi and dphi are RA ops whose primitive is the abel's own
_CODE = {"var": VAR, "const": CONST, "add": ADD, "mul": MUL, "neg": NEG,
         "exp": EXP, "log": LOG, "ra": RA, "phi": RA, "dphi": RA}


@dataclass
class CompiledTerms:
    ops: list          # (code, a, b, payload) per slot
    roots: list        # slot index per root term
    n_vars: int
    # state an arithmetic keeps per tape: intervals keeps the tape's shape
    # and the values its prologues computed from the tape's constants here
    cache: dict = field(default_factory=dict, compare=False, repr=False)


def compile_terms(roots: Sequence[TermNode], abel=None) -> CompiledTerms:
    """Flatten terms into a shared evaluation tape.

    Equal subterms land in one slot; mul nodes with equal
    children compile to a dedicated square op so downstream interval
    evaluation avoids the dependency loss of [a,b]*[a,b]. phi and dphi
    nodes compile to RA ops over ``abel_primitives(abel)`` (the default
    abel when ``abel`` is None), so every arithmetic evaluates the tape
    without knowing the abel, and a tape whose phi nodes were replaced by
    restrictions of those primitives has the same shape.
    """
    slot: dict[TermNode, int] = {}
    ops: list = []
    n_vars = 0
    lowered = None
    for node in postorder(roots):
        k = node.kind
        code = _CODE[k]
        a = b = -1
        payload = None
        if k == "var":
            n_vars = max(n_vars, node.index + 1)
            payload = node.index
        elif k == "const":
            payload = node.value
        else:
            kids = node.children
            a = slot[kids[0]]
            if k == "ra":
                payload = node.prim
            elif code == RA:    # phi or dphi
                if lowered is None:
                    lowered = abel_primitives(abel_or_default(abel))
                payload = lowered[k]
            elif len(kids) == 2:
                b = slot[kids[1]]
                if k == "mul" and a == b:   # equal children share a slot
                    code, b = SQR, -1
        slot[node] = len(ops)
        ops.append((code, a, b, payload))
    return CompiledTerms(ops, [slot[r] for r in roots], n_vars)


def tape_values(ct: CompiledTerms, inputs: Sequence, arith) -> list:
    """The value of every slot of a tape in the number kind of ``arith``.

    ``arith`` supplies const/add/mul/sqr/neg, exp/log(x) and ra(prim, x),
    each of which returns a value.
    """
    const, add, mul, sqr, neg = arith.const, arith.add, arith.mul, arith.sqr, arith.neg
    vals: list = [None] * len(ct.ops)
    for i, (code, a, b, payload) in enumerate(ct.ops):
        if code == VAR:
            v = inputs[payload]
        elif code == CONST:
            v = const(payload)
        elif code == ADD:
            v = add(vals[a], vals[b])
        elif code == MUL:
            v = mul(vals[a], vals[b])
        elif code == SQR:
            v = sqr(vals[a])
        elif code == NEG:
            v = neg(vals[a])
        elif code == EXP:
            v = arith.exp(vals[a])
        elif code == LOG:
            v = arith.log(vals[a])
        else:  # RA
            v = arith.ra(payload, vals[a])
        vals[i] = v
    return vals


def tape_gradients(ct: CompiledTerms, vals: list, n: int, arith) -> list:
    """Forward-mode gradients of every root over n inputs, from the slot
    values of tape_values.

    Besides const/add/mul/neg, ``arith`` supplies the derivative factors
    log_factor(x) and ra_factor(prim, x) at the argument x; that of exp is
    its value and that of sqr is x + x.
    """
    const, add, mul, neg = arith.const, arith.add, arith.mul, arith.neg
    zero, one = [const(0.0)] * n, const(1.0)
    grads: list = [None] * len(ct.ops)
    for i, (code, a, b, payload) in enumerate(ct.ops):
        if code == VAR:
            g = list(zero)
            g[payload] = one
        elif code == CONST:
            g = zero
        elif code == ADD:
            g = [add(p, q) for p, q in zip(grads[a], grads[b])]
        elif code == MUL:
            va, vb = vals[a], vals[b]
            g = [add(mul(va, q), mul(vb, p)) for p, q in zip(grads[a], grads[b])]
        elif code == NEG:
            g = [neg(p) for p in grads[a]]
        else:  # one-argument ops scale by their derivative factor
            x = vals[a]
            if code == SQR:
                f = add(x, x)  # 2x, exactly 2.0 * x
            elif code == EXP:
                f = vals[i]
            elif code == LOG:
                f = arith.log_factor(x)
            else:  # RA
                f = arith.ra_factor(payload, x)
            g = [mul(f, p) for p in grads[a]]
        grads[i] = g
    return [grads[r] for r in ct.roots]


def run_tape(ct: CompiledTerms, inputs: Sequence, arith, grad: bool = False):
    """Values of every root of a tape in the number kind of ``arith``, and
    with ``grad`` their forward-mode gradients, one entry per input.

    tape_values and tape_gradients are the one interpreter of the opcodes
    and of the chain rule, for every number kind; ``intervals._generate``
    writes code by running them over an arithmetic that emits lines. Every
    value is computed before any derivative factor, so where both fail
    the value's exception is raised. Returns the root values, or (values,
    gradients).
    """
    vals = tape_values(ct, inputs, arith)
    roots = [vals[r] for r in ct.roots]
    return (roots, tape_gradients(ct, vals, len(inputs), arith)) if grad else roots


class FloatArith:
    """Plain floats for run_tape: evaluation at one point."""

    const = staticmethod(float)
    add = staticmethod(operator.add)
    mul = staticmethod(operator.mul)
    sqr = staticmethod(lambda x: x * x)
    neg = staticmethod(operator.neg)
    exp = staticmethod(exp_sat)

    def log(self, x):
        if x <= 0.0:
            raise DomainError(f"log of non-positive value {x}")
        return math.log(x)

    def ra(self, prim, x):
        if not (prim.lo <= x <= prim.hi):
            raise DomainError(
                f"{prim.name} evaluated at {x} outside [{prim.lo}, {prim.hi}]")
        return float(prim.fn(x))

    def log_factor(self, x):
        return 1.0 / x

    def ra_factor(self, prim, x):
        return float(prim.derivative().fn(x))


def check_arity(ct: CompiledTerms, n: int, what: str) -> None:
    """DomainError unless n coordinates reach every variable of the tape."""
    if n < ct.n_vars:
        raise DomainError(f"{what} dimension {n} below term arity {ct.n_vars}")


def eval_compiled(ct: CompiledTerms, point: Sequence[float]) -> list[float]:
    check_arity(ct, len(point), "point")
    return run_tape(ct, [float(v) for v in point], FloatArith())


def gradient_compiled(ct: CompiledTerms, point: Sequence[float]):
    """Forward-mode values and gradients for every root term.

    Returns (values, gradients) with gradients[r][j] = d root_r / d x_j
    for the tape's variables.
    """
    check_arity(ct, len(point), "point")
    return run_tape(ct, [float(point[j]) for j in range(ct.n_vars)],
                    FloatArith(), grad=True)


def eval_term(t: TermNode, point: Sequence[float], abel=None) -> float:
    """Evaluate a term at a point (tuple/list of coordinates)."""
    return eval_compiled(compile_terms([t], abel), point)[0]


def gradient(t: TermNode, point: Sequence[float], abel=None) -> list[float]:
    """Forward-mode gradient of a term at an interior point of its domain."""
    _, grads = gradient_compiled(compile_terms([t], abel), point)
    return grads[0]


# ---------------------------------------------------------------------------
# static analyses


def fcpx(t: TermNode) -> int:
    """Nesting depth of phi/dphi applications: 0 for phi-free terms,
    composite nodes take the max over arguments, each phi/dphi adds 1."""
    depth: dict[TermNode, int] = {}
    for node in postorder([t]):
        v = max((depth[c] for c in node.children), default=0)
        depth[node] = v + 1 if node.kind in ("phi", "dphi") else v
    return depth[t]


@dataclass(frozen=True)
class GrowthExponent:
    """Certified growth level: |eval(t, x)| <= exp_s(||x||) wherever the
    right-hand side is representable."""

    s: int


def growth_exponent(t: TermNode) -> GrowthExponent:
    """Structural iterated-exponential growth bound.

    Raises GrowthAnalysisError when no bound of the exp_s form can be
    certified (log applied to anything but a positive constant).
    """
    level: dict[TermNode, int] = {}
    for node in postorder([t]):
        # every argument is analyzed before its node, ra arguments included
        k = node.kind
        if k == "var":
            v = 0
        elif k == "const":
            v = 0 if node.value == 0.0 else max(1, _level_for_bound(abs(node.value)))
        elif k in ("add", "mul", "neg"):
            v = max(level[c] for c in node.children) + 1
        elif k == "exp":
            v = level[node.children[0]] + 1
        elif k == "log":
            c = node.children[0]
            if c.kind == "const" and c.value > 0.0:
                lv = abs(math.log(c.value))
                v = 0 if lv == 0.0 else max(1, _level_for_bound(lv))
            else:
                raise GrowthAnalysisError(
                    "unbounded pathway: log argument may approach the domain boundary")
        elif k == "ra":
            v = node.prim.growth_level
        elif k == "phi":
            child = node.children[0]
            c = level[child]
            if child.kind == "exp":
                # e^g is positive, and on t > 0 we have -1 <= phi(t) <= t,
                # so |phi(e^g)| <= max(1, exp_c(u)) = exp_c(u) for c >= 1
                v = c
            elif c == 0:
                # |t| <= u: right of 0 use -1 <= phi(t) <= t, left of 0 use
                # |phi(t)| <= 1 + u since phi' < 1 there (asserted at build);
                # both sides stay under e^u
                v = 1
            else:
                # phi approaches -2 far left, so the level must satisfy
                # exp_v(0) >= 2
                v = max(c, 2)
        else:  # dphi: |phi'| is globally bounded by a constant slightly
            # above 1, so level 2 covers it at every norm
            v = 2
        level[node] = v
    return GrowthExponent(level[t])


# ---------------------------------------------------------------------------
# symbolic differentiation and substitution


def _is_const(t: TermNode, v: float | None = None) -> bool:
    return t.kind == "const" and (v is None or t.value == v)


def _fadd(a: TermNode, b: TermNode) -> TermNode:
    if _is_const(a) and _is_const(b):
        return const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return add(a, b)


def _fmul(a: TermNode, b: TermNode) -> TermNode:
    if _is_const(a) and _is_const(b):
        return const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return mul(a, b)


def _fneg(a: TermNode) -> TermNode:
    if _is_const(a):
        return const(-a.value)
    if a.kind == "neg":
        return a.children[0]
    return neg(a)


def differentiate(t: TermNode, i: int) -> TermNode:
    """Symbolic partial derivative with respect to variable i.

    Stays inside the term language: d(log g) uses 1/g = exp(-log g) (valid on
    log's domain), d(phi g) introduces dphi, and RA primitives chain to their
    derivative primitives.  dphi nodes are rejected: their derivative would
    need phi'', which the language does not have.
    """
    d: dict[TermNode, TermNode] = {}
    for node in postorder([t]):
        k = node.kind
        if k == "var":
            v = const(1.0 if node.index == i else 0.0)
        elif k == "const":
            v = const(0.0)
        elif k == "dphi":
            raise DifferentiationError(
                "derivative of dphi is outside the term language")
        else:
            a = node.children[0]
            if k == "add":
                v = _fadd(d[a], d[node.children[1]])
            elif k == "neg":
                v = _fneg(d[a])
            elif k == "mul":
                b = node.children[1]
                v = _fadd(_fmul(d[a], b), _fmul(a, d[b]))
            elif k == "exp":
                v = _fmul(d[a], node)
            elif k == "log":
                v = _fmul(d[a], exp(neg(node)))
            elif k == "ra":
                v = _fmul(d[a], ra(node.prim.derivative(), a))
            else:  # phi
                v = _fmul(d[a], dphi(a))
        d[node] = v
    return d[t]


def substitute(t: TermNode, mapping: Mapping[int, TermNode]) -> TermNode:
    """Replace variables by terms (simultaneously)."""
    return rebuild([t], lambda node: mapping.get(node.index, node)
                   if node.kind == "var" else node)[0]


def collect_phi_monomials(ts: Iterable[TermNode]):
    """Unique phi and dphi argument subterms, each in the order postorder
    finishes their first phi or dphi node: an argument comes after every
    argument of a phi or dphi nested inside it (innermost first)."""
    args: dict = {"phi": {}, "dphi": {}}
    for node in postorder(ts):
        if node.kind in args:
            args[node.kind].setdefault(node.children[0])
    return tuple(args["phi"]), tuple(args["dphi"])


def free_variables(t: TermNode) -> set[int]:
    return {node.index for node in postorder([t]) if node.kind == "var"}
