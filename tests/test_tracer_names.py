"""The benchmark's traced runs wrap package functions by name (``TRACED`` in
``perfbench/tracer.py``); a rename or deletion must fail here, before a
traced run does."""

import importlib
import importlib.util
from pathlib import Path

from slogcensus.abel import AbelFunction

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(owner, attr) for entries in tracer.TRACED.values()
            for owner, attr, _, _ in entries]


def test_every_traced_name_resolves():
    names = _traced_names()
    assert len(names) >= 31
    missing = [(owner, attr) for owner, attr in names if not callable(getattr(
        AbelFunction if owner == "AbelFunction"
        else importlib.import_module(owner), attr, None))]
    assert not missing
