"""Print one sha256 digest per benchmark operation's output.

Two checkouts whose digests match produce the same reports, byte for
byte, on every operation of the benchmark, so a refactor can show that
it changed no output by diffing this script's output against its base's.
Digested: census and morse reports as ``json.dumps(to_dict(),
sort_keys=True)`` (with the radius report's fields beside the growth
census), oracle counts (with each cluster centre of a zero count, its
coordinates as ``float.hex``, so that a moved zero cell shows even where
the count holds), and each CLI command's (exit code, stdout, ``--out``
bytes).

Beside each census and morse digest it prints the counts that a change of
report bytes must not move: ``certified_count``, ``exact``, the number of
unknown boxes, ``critical_count``, ``component_bound`` and
``stage_counts``, and for a gamma trial its ``bound`` and ``components``.
So where a change moves digests on purpose (a new rounding of the
polished zeros, say), a diff of this script's output shows whether any
count moved with them.

    python3 tools/report_digests.py [--seed N]
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, ROOT]

from perfbench import workloads  # noqa: E402
from slogcensus.abel import get_default_abel  # noqa: E402


def _report(out):
    if isinstance(out, tuple):
        return [_report(part) for part in out]
    if hasattr(out, "to_dict"):
        return out.to_dict()
    return dataclasses.asdict(out)


# the fields of a report that are counts, in the order they are printed;
# unknown_boxes is printed as its length
_COUNTS = ("certified_count", "exact", "unknown_boxes", "critical_count",
           "component_bound", "stage_counts", "estimate", "bound",
           "components")


def _counts(report, path: str = "") -> list[str]:
    """path=value for every count field of a report, depth first; a field
    of a nested report is prefixed with the keys that lead to it."""
    if isinstance(report, list):
        return [c for part in report for c in _counts(part, path)]
    if not isinstance(report, dict):
        return []
    out = []
    for key in _COUNTS:
        if key in report:
            value = report[key]
            if key == "unknown_boxes":
                key, value = "unknown", len(value)
            out.append(f"{path}{key}={json.dumps(value)}")
    for key in sorted(report):
        if key not in _COUNTS:
            out += _counts(report[key], f"{path}{key}.")
    return out


def _bytes(workload: str, out) -> bytes:
    if workload == "oracle":
        if isinstance(out, tuple):  # a zero count and its cluster centres
            count, centers = out
            return json.dumps([int(count), [[float.hex(v) for v in c]
                                            for c in centers]]).encode()
        return str(int(out)).encode()
    if workload == "cli":
        return repr(out).encode()
    return json.dumps(_report(out), sort_keys=True).encode()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    abel = get_default_abel()
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as tmp:
        ctx = {"workdir": os.path.join(tmp, "cli"), "seed": args.seed,
               "env": env}
        for workload, build in workloads.WORKLOADS.items():
            for op in build(abel, ctx):
                out = op.run()
                digest = hashlib.sha256(_bytes(workload, out)).hexdigest()
                counts = ("  " + " ".join(_counts(_report(out)))
                          if workload in ("census", "morse") else "")
                print(f"{digest}  {op.name}{counts}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
