"""Benchmark launcher: one workload, end to end or traced.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a slogcensus checkout. The launcher byte-compiles
``src/``, then starts the workload in fresh processes with numpy's
BLAS/OpenMP pools pinned to one thread: SETUP_SAMPLES - 1 processes that
stop after set-up, and one that also runs the timed passes. It prints a
summary and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# the keys of workloads.WORKLOADS, named here so that the launcher never
# imports slogcensus itself
WORKLOADS = ("census", "morse", "oracle", "cli")
SETUP_SAMPLES = 3
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "peak_rss_mb": "MB"}
_PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
           "NUMEXPR_NUM_THREADS")
_WORKER_TIMEOUT = 170.0


def _args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def _env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update(dict.fromkeys(_PINNED, "1"))
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, root, out, env, setup_only, deadline):
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--root", root, "--out", out]
    if setup_only:
        argv.append("--setup-only")
    proc = subprocess.run(argv, stdout=subprocess.PIPE, env=env, cwd=root,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.exit(f"workload process exited with {proc.returncode}")
    lines = proc.stdout.decode().strip().splitlines()
    return json.loads(lines[-1])


def main():
    args = _args()
    deadline = time.monotonic() + _WORKER_TIMEOUT
    root = os.getcwd()
    package = os.path.join(root, "src", "slogcensus", "__init__.py")
    if not os.path.isfile(package):
        sys.exit(f"no slogcensus source at {package}: run from the root of "
                 f"a checkout")
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    env = _env(root)
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(root, "src")], check=True, env=env,
                   stdout=subprocess.DEVNULL)

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_worker(args, root, out, env, True,
                                  deadline)["setup_s"])
    res = _worker(args, root, out, env, False, deadline)
    setups.append(res["setup_s"])

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{res['passes']} passes x {res['ops_per_pass']} operations")
    print(f"attempted {res['attempted']}  failed {res['failed']}")
    for name, reason in sorted(res["failures"].items()):
        print(f"  failed: {name}: {reason}")
    for name, reason in sorted(res.get("probe_failures", {}).items()):
        print(f"  probe failed: {name}: {reason}")
    correct = not res["unexpected"] and not res.get("probe_failures")
    if args.trace:
        metrics = res["layers"]
        print(f"traced ops_per_s {res['ops_per_s']:.4f} 1/s, "
              f"{res['spans']} spans in {res['trace_file']}")
        for name, m in metrics.items():
            print(f"  {name:30s} {m['value']:14.4f} {m['unit']:6s} "
                  f"({res['layer_sources'][name]})")
    else:
        res["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": res[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        for name, m in metrics.items():
            print(f"  {name:14s} {m['value']:12.4f} {m['unit']}")
        print(f"  setup samples: "
              + ", ".join(f"{s:.4f}" for s in setups))
        if "op_tail_ms" in res:
            print(f"  op_tail_ms     {res['op_tail_ms']:12.4f} ms "
                  f"(p{res['op_tail_pct']}, {res['op_tail_beyond']} of "
                  f"{res['attempted']} operations beyond)")
    summary = {"correct": correct, "attempted": res["attempted"],
               "failed": res["failed"], "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
        json.dump(dict(res, summary=summary), fh, indent=1)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
