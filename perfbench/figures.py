"""Reference figures from trace files, per operation.

    python3 perfbench/figures.py perfbench/out/trace-census-seed1.npz ...

For each trace written by a traced run, prints Krawczyk microseconds per
box and tape length, and eval_cells nanoseconds per cell, for every
operation that made such calls. The README quotes these figures.
"""

from __future__ import annotations

import sys

import numpy as np


def main(paths):
    for path in paths:
        tr = np.load(path)
        names = list(tr["names"])
        op_names = list(tr["op_names"])
        dur = tr["end"] - tr["start"]
        op_of = tr["op_of"]
        print(path)
        for label, unit, scale in (("krawczyk_test", "us/box", 1e6),
                                   ("eval_cells", "ns/cell", 1e9)):
            mask = tr["name"] == names.index(label)
            rows = {}
            for op in np.unique(op_of[mask & (op_of >= 0)]):
                sel = mask & (op_of == op)
                key = op_names[op % len(op_names)]
                total, work, calls, runs = rows.get(key, (0.0, 0.0, 0, 0))
                rows[key] = (total + dur[sel].sum(),
                             work + tr["work"][sel].sum(),
                             calls + int(sel.sum()), runs + 1)
            for key, (total, work, calls, runs) in sorted(rows.items()):
                if label == "krawczyk_test":
                    print(f"  {key:34s} {total / calls * scale:10.1f} {unit}"
                          f"  tape {work / calls:5.1f} ops"
                          f"  {calls / runs:7.0f} boxes per operation")
                else:
                    print(f"  {key:34s} {total / work * scale:10.1f} {unit}"
                          f"  {work / runs:9.0f} cells per operation")


if __name__ == "__main__":
    main(sys.argv[1:])
