"""One workload process: set-up, warm-up, timed whole passes, checks.

Started by run.py, once per set-up sample and once for the measured run.
Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import numpy as np
import slogcensus
import slogcensus.abel

import workloads

# Percentile reported as op_tail_ms: the highest one that keeps at least ten
# samples beyond it in a run of default length (census 1 250 to 1 800
# operations, oracle 160 to 210). Morse and cli runs hold fewer than 40
# operations, where a percentile would be no tail.
TAIL_PERCENTILE = {"census": 99, "oracle": 90}
# Decile of an operation's CPU times that stands for its time in a run.
# This machine has fast stretches, seconds long and up to 1.7 times quicker,
# and rarer stalls. The share of fast time moves a short operation's median
# by up to 30 % from run to run, while its 90th percentile stays in the
# machine's usual state. A cli operation is a whole process of about 1.2 s,
# in which fast stretches average out; what remains are single slow
# invocations, which its median rejects and a 90th percentile of four or
# five samples picks up.
TIME_DECILE = {"census": 9, "morse": 9, "oracle": 9, "cli": 5}
# At least three samples of every operation, so that its 90th percentile
# is not simply the slower of two (morse passes take about 10 s); cli needs
# two invocations of each command to compare their bytes.
MIN_PASSES = 3


def _args():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--root", required=True)
    ap.add_argument("--out", required=True)
    return ap.parse_args()


def _stderr_of(argv, env):
    return subprocess.run(argv, capture_output=True, env=env,
                          check=True).stderr


def _import_times(stderr: bytes):
    """(total, scipy) cumulative import time in ms from -X importtime
    output: the ``slogcensus`` line, and the sum over outermost scipy
    modules imported under it."""
    rows = []
    for line in stderr.decode().splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        try:
            cum = int(cumulative)
        except ValueError:
            continue
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), cum))
    total = next(cum for _, name, cum in rows if name == "slogcensus")
    # a child line precedes its parent; a scipy module is outermost when the
    # next shallower line that completes after it is not scipy
    scipy = 0
    for i, (depth, name, cum) in enumerate(rows):
        if not name.startswith("scipy"):
            continue
        parent = next((n for d, n, _ in rows[i + 1:] if d < depth), "")
        if not parent.startswith("scipy"):
            scipy += cum
    return total / 1e3, scipy / 1e3


# Runs one CLI command and reports, on its last stderr line, the seconds
# spent importing slogcensus.cli and the seconds spent in main().
_CLI_TIMED = """import sys, time
t0 = time.perf_counter()
import slogcensus.cli as cli
t1 = time.perf_counter()
code = cli.main(sys.argv[1:])
sys.stderr.write("\\n%r %r\\n" % (t1 - t0, time.perf_counter() - t1))
sys.exit(code)
"""


def _cli_metrics(ctx):
    """cli.* metrics: import cost from -X importtime (median of three), and
    the mean time in main() of the four cli commands, timed inside each
    child process so that process start and import drop out."""
    env = ctx["env"]
    argv = [sys.executable, "-X", "importtime", "-c", "import slogcensus"]
    imports = [_import_times(_stderr_of(argv, env)) for _ in range(3)]
    commands, _ = workloads.cli_commands(ctx)
    runs = [float(_stderr_of([sys.executable, "-c", _CLI_TIMED] + cmd,
                             env).split()[-1]) for cmd in commands.values()]
    return {"cli.import_ms": (statistics.median(i[0] for i in imports), "ms"),
            "cli.scipy_import_ms": (statistics.median(i[1] for i in imports),
                                    "ms"),
            "cli.run_ms": (statistics.mean(runs) * 1e3, "ms")}


def _children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _run_checked(op, outputs, clock=time.perf_counter):
    t = clock()
    try:
        out = op.run()
    except Exception as exc:  # a raising operation is a failed one
        out = exc
    dt = clock() - t
    outputs.append((op, out))
    return dt


def _check(outputs, failures):
    bad = 0
    for op, out in outputs:
        if isinstance(out, Exception):
            reason = f"raised {type(out).__name__}: {out}"
        else:
            try:
                reason = op.check(out)
            except Exception as exc:  # an unreadable output fails its check
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            bad += 1
            failures.setdefault(op.name, reason)
    return bad


def _traced(tracer, abel, ctx, args, passes, order):
    """Run the probe, compute the per-layer metrics, write the spans."""
    from tracer import PROBE_OP, SETUP_OP, layer_metrics

    probe_ctx = dict(ctx, workdir=ctx["workdir"] + "-probe")
    probe_ops = {op.name: op for build in workloads.WORKLOADS.values()
                 for op in build(abel, probe_ctx)
                 if op.name in workloads.PROBE}
    outputs = []
    tracer.op = PROBE_OP
    for name in workloads.PROBE:
        _run_checked(probe_ops[name], outputs)
    tracer.op = SETUP_OP
    probe_failures = {}
    _check(outputs, probe_failures)

    arrays = tracer.arrays()
    layers, sources = layer_metrics(arrays, passes)
    layers.update(_cli_metrics(probe_ctx))
    sources.update(dict.fromkeys(
        ("cli.import_ms", "cli.scipy_import_ms", "cli.run_ms"), "probe"))
    trace_path = os.path.join(args.out,
                              f"trace-{args.workload}-seed{args.seed}.npz")
    np.savez_compressed(trace_path, op_names=[op.name for op in order],
                        **arrays)
    return {"probe_failures": probe_failures,
            "layers": {k: {"value": v, "unit": u}
                       for k, (v, u) in layers.items()},
            "layer_sources": sources, "spans": len(arrays["start"]),
            "trace_file": os.path.relpath(trace_path, args.root)}


def main():
    args = _args()
    src = os.path.join(args.root, "src")
    if not os.path.abspath(slogcensus.__file__).startswith(src + os.sep):
        sys.exit(f"slogcensus imported from {slogcensus.__file__}, "
                 f"not from {src}")
    tracer = None
    if args.trace:
        from tracer import SETUP_OP, Tracer

        tracer = Tracer()
        tracer.install()
    abel = slogcensus.abel.get_default_abel()
    ctx = {"workdir": os.path.join(args.out, f"cli-{args.workload}"),
           "seed": args.seed, "env": dict(os.environ)}
    ops = workloads.WORKLOADS[args.workload](abel, ctx)
    by_name = {op.name: op for op in ops}
    order = list(ops)
    random.Random(args.seed).shuffle(order)

    warm = workloads.WARMUP[args.workload]
    for op in (order if warm is None else [by_name[n] for n in warm]):
        op.run()
    # set-up in CPU seconds since the process started, like the operations
    setup_s = time.process_time()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    # Operations are timed in CPU seconds: the process's own for in-process
    # work, the child's for a cli invocation. The hypervisor of this machine
    # takes 3 to 16 % of a virtual CPU's time in stretches (steal in
    # /proc/stat), and CPU time leaves that out. A single-threaded
    # operation that waits on nothing takes its CPU time in wall time on a
    # machine of its own.
    clock = _children_cpu if args.workload == "cli" else time.process_time
    durations, walls, failures = [], [], {}
    attempted = failed = passes = 0
    while True:
        outputs = []
        t = time.perf_counter()
        for i, op in enumerate(order):
            if tracer is not None:
                tracer.op = passes * len(order) + i
            durations.append(_run_checked(op, outputs, clock))
        walls.append(time.perf_counter() - t)
        if tracer is not None:
            tracer.op = SETUP_OP
        passes += 1
        attempted += len(outputs)
        failed += _check(outputs, failures)
        if passes >= MIN_PASSES and sum(walls) >= args.seconds:
            break

    # An operation's time is a decile of its CPU times over the passes
    # (README, "Why CPU time, and why the 90th percentile").
    k = len(order)
    decile = TIME_DECILE[args.workload]
    times = [statistics.quantiles(durations[i::k], n=10,
                                  method="inclusive")[decile - 1]
             for i in range(k)]
    unexpected = sorted(set(failures) - workloads.KNOWN_FAULTS)
    result = {
        "workload": args.workload, "seed": args.seed, "passes": passes,
        "ops_per_pass": k, "attempted": attempted,
        "failed": failed, "failures": failures, "unexpected": unexpected,
        "setup_s": setup_s,
        "ops_per_s": k / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_names": [op.name for op in order],
        "durations": durations, "walls": walls,
    }
    pct = TAIL_PERCENTILE.get(args.workload)
    if pct is not None:
        cuts = statistics.quantiles(durations, n=100)
        result["op_tail_ms"] = cuts[pct - 1] * 1e3
        result["op_tail_pct"] = pct
        result["op_tail_beyond"] = sum(d > cuts[pct - 1] for d in durations)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" \
        else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0

    if tracer is not None:
        result.update(_traced(tracer, abel, ctx, args, passes, order))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
