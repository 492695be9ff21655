"""Shared fixtures and the zero-count corpus used across the suite."""

import functools
import os
from pathlib import Path

import pytest

from slogcensus import intervals
from slogcensus.abel import get_default_abel

# pytest puts src/ on sys.path (pyproject.toml); the CLI tests' subprocesses
# need it too, so the suite runs from a checkout without an install
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def abel():
    return get_default_abel()


@pytest.fixture
def fresh_shapes(monkeypatch):
    """An empty cache of tape shapes for one test, so that generated code
    starts from nothing; the shared cache comes back after."""
    monkeypatch.setattr(intervals, "_shape", functools.lru_cache(
        maxsize=intervals.SHAPE_CACHE)(intervals._Shape))


# Square systems over dimensions 1 to 3 with known nonsingular zero counts.
# Counts were fixed against the cell-grid oracle at the resolutions in
# ORACLE_RES before being frozen here; the census tests recompute both
# sides rather than trusting the numbers below.
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

PHI_CORPUS = [row for row in CORPUS if any("phi" in eq for eq in row[1])]

# one oracle resolution per dimension, chosen so neighbouring zeros in the
# corpus land in separate cell clusters
ORACLE_RES = {1: 4097, 2: 769, 3: 97}
