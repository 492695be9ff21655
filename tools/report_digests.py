"""Print one sha256 digest per benchmark operation's output.

Two checkouts whose digests match produce the same reports, byte for
byte, on every operation of the benchmark, so a refactor can show that
it changed no output by diffing this script's output against its base's.
Digested: census and morse reports as ``json.dumps(to_dict(),
sort_keys=True)`` (with the radius report's fields beside the growth
census), oracle counts, and each CLI command's (exit code, stdout,
``--out`` bytes).

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


def _bytes(workload: str, out) -> bytes:
    if workload == "oracle":
        count = out[0] if isinstance(out, tuple) else out
        return str(int(count)).encode()
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
                digest = hashlib.sha256(_bytes(workload, op.run()))
                print(f"{digest.hexdigest()}  {op.name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
