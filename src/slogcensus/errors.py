"""Shared exception types."""

from __future__ import annotations


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
    """Seed construction failed to meet its tolerance or monotonicity
    requirements within the iteration budget."""


class CertificationError(SlogcensusError, RuntimeError):
    """A certification step (regular value sampling, tilt sampling, Morse
    usability) exhausted its retry budget."""


class PathError(SlogcensusError, ValueError):
    """A deformation path violated an invariant (singular matrix at a
    breakpoint or evaluated step)."""
