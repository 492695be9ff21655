"""Shared exception types, and the one reader of every input document."""

from __future__ import annotations

import json
import sys


class SlogcensusError(Exception):
    """Base class for all package errors."""


class TermSyntaxError(SlogcensusError, ValueError):
    """Raised by the term parser; carries a 1-based column position."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


class DomainError(SlogcensusError, ValueError):
    """A partial primitive (log, restricted-analytic function) was evaluated
    outside its domain, or an argument range left the representable range."""


class GrowthAnalysisError(SlogcensusError, ValueError):
    """Structural growth analysis failed: no iterated-exponential bound of the
    required form exists along some pathway of the term."""


class DifferentiationError(SlogcensusError, ValueError):
    """A derivative is not available: a restricted-analytic primitive has
    none, or the symbolic derivative of a node is not expressible in the
    term language (dphi, whose derivative would need phi'')."""


class BuildError(SlogcensusError, RuntimeError):
    """A malformed input document, a seed that misses its tolerance or
    monotonicity, or a system or formula that breaks its own rules."""


class CertificationError(SlogcensusError, RuntimeError):
    """A certification step (a regular tube level, a Morse rotation, the
    growth radius) ran out of tries, or an oracle count passed its bound."""


class PathError(SlogcensusError, ValueError):
    """A deformation path violated an invariant (singular matrix at a
    breakpoint or evaluated step)."""


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not standard JSON")


def parse_json(text: str | bytes, what: str):
    """The standard JSON document (no NaN or Infinity) in ``text``;
    BuildError "malformed <what>" for any other text."""
    try:
        return json.loads(text, parse_constant=_refuse_constant)
    except (ValueError, RecursionError) as exc:
        raise BuildError(f"malformed {what}: {exc}") from None


def numbers(v, what: str, depth: int = 0):
    """``v`` as a float if it is a JSON number (not a boolean) that a float
    holds; with ``depth`` d > 0, arrays d deep of those, as tuples."""
    if depth:
        if isinstance(v, list):
            return tuple(numbers(e, what, depth - 1) for e in v)
    elif (isinstance(v, (int, float)) and not isinstance(v, bool)
          and abs(v) <= sys.float_info.max):
        return float(v)
    raise BuildError(f"malformed {what}: expected "
                     f"{'an array' if depth else 'a finite number'}")


def count(v, what: str, least: int) -> int:
    """``v`` if it is a JSON integer (not a boolean) of at least ``least``."""
    if isinstance(v, int) and not isinstance(v, bool) and v >= least:
        return v
    raise BuildError(f"malformed {what}: expected an integer >= {least}")
