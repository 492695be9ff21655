"""Self-test of the benchmark's output checks.

    PYTHONPATH=src python3 perfbench/selftest.py

For each workload, runs an operation once, shows that its check accepts the
program's output, then feeds the check wrong answers and shows that each
makes the operation count as failed. Exits 1 if any check misses one.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import sys
import tempfile

import slogcensus.abel
from slogcensus.intervals import Box

import workloads
from worker import _check


def _case(op, out, label, results):
    failures = {}
    bad = _check([(op, out)], failures)
    results.append((op.name, label, bad, failures.get(op.name, "")))


def _moved_zero(rep):
    rep = copy.deepcopy(rep)
    rep.zeros[0][0] += 1e-3
    return rep


def _moved_boxes(rep):
    moved = [Box.from_bounds([(lo + 1e-3, hi + 1e-3) for lo, hi in b.bounds()])
             for b in rep.unknown_boxes]
    return dataclasses.replace(rep, unknown_boxes=moved)


def _changed_byte(out):
    code, stdout, body = out
    # the last digit of the first zero coordinate: still valid JSON and
    # within the semantic tolerance, so only the byte comparison sees it
    i = stdout.index(b"0.7071067811865475") + len(b"0.7071067811865475") - 1
    changed = stdout[:i] + (b"6" if stdout[i:i + 1] != b"6" else b"4") + \
        stdout[i + 1:]
    return code, changed, body


def main():
    abel = slogcensus.abel.get_default_abel()
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        ctx = {"workdir": tmp, "seed": 5, "env": dict(os.environ)}
        ops = {op.name: op for build in workloads.WORKLOADS.values()
               for op in build(abel, ctx)}

        def run(name, *wrong):
            op = ops[name]
            out = op.run()
            _case(op, out, "program output", results)
            for label, fn in wrong:
                _case(op, fn(out), label, results)

        run("census:circle-line",
            ("count off by one", lambda r: dataclasses.replace(
                r, certified_count=r.certified_count + 1)),
            ("zero moved by 1e-3", _moved_zero))
        run("reduced:slog-nested",
            ("zero moved by 1e-3", _moved_zero))
        run("singular:singular-cone",
            ("count off by one", lambda r: dataclasses.replace(
                r, certified_count=1)),
            ("unknown boxes moved by 1e-3", _moved_boxes))
        run("components:circle",
            ("bound below the true count", lambda r: dataclasses.replace(
                r, component_bound=0, critical_count=0)),
            ("critical count off by two", lambda r: dataclasses.replace(
                r, critical_count=2)))
        run("gamma:9",
            ("count above the trial bound", lambda r: dataclasses.replace(
                r, trials=[dict(r.trials[0], components=5)], estimate=5)))
        run("oracle:cubic",
            ("count off by one", lambda r: (r[0] + 1, r[1])))
        run("oracle-components:pair",
            ("count off by one", lambda r: r - 1))
        run("cli:zeros", ("one changed byte", _changed_byte),
            ("report cut short", lambda r: (r[0], r[1][:-10], r[2])))
        run("cli:eval", ("exit code 3", lambda r: (3,) + r[1:]))
    missed = 0
    for name, label, bad, reason in results:
        want = 0 if label == "program output" else 1
        ok = bad == want
        missed += not ok
        print(f"{'ok  ' if ok else 'MISS'} {name:26s} {label:28s} "
              f"failed={bad} {reason}")
    sys.exit(1 if missed else 0)


if __name__ == "__main__":
    main()
