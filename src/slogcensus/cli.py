"""Command-line harness: seed checks, term evaluation, zero censuses,
deformation tracking, and component bounds, all as deterministic JSON
reports. Exit codes: 0 success, 1 failed property check, 2 unreadable
input, 3 incomplete certification."""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .census import (DEFAULT_DEPTH, DeformationPath, SystemParams,
                     count_nonsingular_zeros, load_system_file,
                     search_radius, track_path)
from .errors import (BuildError, CertificationError, DomainError,
                     PathError, SlogcensusError, count, numbers, parse_json)
from .terms import eval_term, gradient, parse_term

# numpy, the default seed, morse and the grid oracle are imported where a
# command needs them: zeros, track and eval of phi-free terms load none

_EXIT_OK = 0
_EXIT_CHECK_FAILED = 1
_EXIT_BAD_INPUT = 2
_EXIT_UNCERTIFIED = 3


def _emit(report: dict, out_path: str | None, quiet: bool = False) -> None:
    text = json.dumps(report, sort_keys=True, indent=2)
    if not quiet:
        print(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")


def _load_abel(path: str | None, validate: bool = True):
    # None stands for the default seed, built where something reads it
    if path is None:
        return None
    from .abel import AbelFunction
    return AbelFunction.load(path, validate=validate)


def _envelope(args, radius: float, source: str, report: dict,
              **extra) -> dict:
    """Report of a search subcommand: the set seed and depth, the radius
    and where it came from, any fields of the command's own, and the
    result."""
    config = {k: getattr(args, k) for k in ("seed", "depth")
              if getattr(args, k) is not None}
    return {"version": __version__, "command": args.command,
            "config": config, "radius": radius, "radius_source": source,
            "report": report, **extra}


# ---------------------------------------------------------------------------
# slog-check

def _check_rows(abel, tol: float):
    """Property checks as (name, residual, threshold) rows; a residual at
    or under its threshold passes. Thresholds scale with the build tol."""
    import numpy as np

    from .abel import distinct_sorted

    rows = []

    jumps = abel.junction_jumps()
    rows.append(("junction-smoothness",
                 max(abs(j) for j in jumps[:abel.order + 1]), tol))
    anchor = max(abs(abel.eval_phi(0.0) + 1.0), abs(abel.eval_phi(1.0)),
                 abs(abel.eval_phi(math.e) - 1.0))
    rows.append(("anchor-values", anchor, tol))
    rows.append(("abel-residual",
                 abel.abel_residual(abel.residual_grid()), tol))

    # strict growth: float increments vanish below about -32 and the grid
    # must stay coarse enough that increments clear one ulp, so the strict
    # window starts at -30 with ~0.01 spacing; the far tail only needs
    # monotone. Strict checks use a tiny negative threshold so an exact
    # tie counts as failure.
    strict = -1e-18
    xs = distinct_sorted(np.linspace(-30.0, 5.0, 3_000),
                         np.geomspace(5.0, 1e8, 3_000))
    vals = abel.eval_phi_array(xs)
    rows.append(("strictly-increasing", -float(np.min(np.diff(vals))), strict))
    tail = abel.eval_phi_array(np.linspace(-50.0, -30.0, 2_001))
    rows.append(("nondecreasing-far-left", -float(np.min(np.diff(tail))), 0.0))

    ds = abel.eval_dphi_array(np.geomspace(1e-6, 1e6, 10_001))
    rows.append(("derivative-positive", -float(ds.min()), strict))
    rows.append(("left-contraction", abel.sup_dphi_nonpos - 1.0, strict))

    # inverse round trip over the representable range of phi
    grid = np.linspace(-20.0, 50.0, 2_001)
    back = abel.trans_exp(abel.eval_phi_array(grid))
    rows.append(("inverse-roundtrip",
                 float(np.max(np.abs(back - grid))), 100.0 * tol))

    dom = abel.check_domination(1, math.e, 1e6)
    rows.append(("log-domination",
                 (dom.threshold - math.e) if dom.found else math.inf, tol))
    return rows


def cmd_slog_check(args) -> int:
    from .abel import DEFAULT_ORDER, DEFAULT_TOL, AbelFunction, build_abel

    if args.abel is None:
        abel = build_abel(DEFAULT_ORDER if args.order is None else args.order,
                          DEFAULT_TOL if args.tol is None else args.tol)
    elif args.order is not None:
        raise BuildError("--order sets the order of a built seed; a seed "
                         "file (--abel) has its own")
    else:
        abel = _load_abel(args.abel, validate=False)
        if args.tol is not None:  # the thresholds scale with a checked tol
            abel = AbelFunction(abel.coeffs, abel.order, args.tol, validate=False)
    tol = abel.tol
    checks = []
    all_pass = True
    for name, residual, threshold in _check_rows(abel, tol):
        ok = residual <= threshold
        all_pass &= ok
        checks.append({"name": name, "passed": bool(ok),
                       "residual": float(residual),
                       "threshold": float(threshold)})
        print(f"{'PASS' if ok else 'FAIL'} {name}: residual={residual:.3e} "
              f"threshold={threshold:.3e}")
    report = {
        "version": __version__,
        "command": "slog-check",
        "order": abel.order,
        "tol": tol,
        "checks": checks,
        "passed": bool(all_pass),
    }
    _emit(report, args.out, quiet=True)
    return _EXIT_OK if all_pass else _EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# eval

def cmd_eval(args) -> int:
    abel = _load_abel(args.abel)
    try:
        point = [float(v) for v in args.at.split(",")] if args.at else []
    except ValueError:
        raise DomainError(
            f"--at takes comma-separated numbers, not {args.at!r}") from None
    if not all(map(math.isfinite, point)):
        raise DomainError(f"--at takes finite numbers, not {args.at!r}")
    names = [f"x{i + 1}" for i in range(len(point))]
    term = parse_term(args.term, names if names else None)
    report = {
        "version": __version__,
        "command": "eval",
        "term": args.term,
        "point": point,
        "value": eval_term(term, point, abel),
    }
    if args.grad:
        report["gradient"] = gradient(term, point, abel)
    _emit(report, args.out)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# zeros

def _pick_radius(args, file_radius, system=None):
    if args.radius is not None:
        return args.radius, "flag"
    if file_radius is not None:
        return file_radius, "file"
    if system is not None:
        rep = search_radius(system)
        label = "growth-heuristic" if rep.heuristic else "growth"
        if not math.isfinite(rep.radius):
            raise DomainError(
                "growth analysis produced an unbounded search radius; "
                "pass --radius explicitly")
        return rep.radius, label
    raise DomainError("no radius: pass --radius or put one in the file")


def cmd_zeros(args) -> int:
    abel = _load_abel(args.abel)
    system, file_radius = load_system_file(args.system_file, abel)
    radius, source = _pick_radius(args, file_radius, system)
    depth = args.depth if args.depth is not None else DEFAULT_DEPTH
    census = count_nonsingular_zeros(system, radius, depth)
    _emit(_envelope(args, radius, source, census.to_dict()), args.out)
    return _EXIT_OK if census.exact else _EXIT_UNCERTIFIED


# ---------------------------------------------------------------------------
# track

def _path_from_dict(doc: dict, n: int):
    """(path, steps) of a path file; a SlogcensusError when malformed."""
    if not isinstance(doc, dict):
        raise PathError("path file must hold a JSON object")
    bps = numbers(doc.get("breakpoints"), "path file breakpoints", 1)
    eye = [[float(i == j) for j in range(n)] for i in range(n)]
    mats = numbers(doc.get("matrices", [eye] * len(bps)),
                   "path file matrices", 3)
    tgts = numbers(doc.get("targets", [[0.0] * n] * len(bps)),
                   "path file targets", 2)
    params = doc.get("params")
    if not (params is None or isinstance(params, list)):
        raise PathError("path file params must be an array of objects")
    ps = None if params is None else tuple(
        SystemParams.from_dict(p, n) for p in params)
    steps = count(doc.get("steps", 50), "path file steps", 0)
    return DeformationPath(bps, mats, tgts, ps), steps


def cmd_track(args) -> int:
    abel = _load_abel(args.abel)
    system, file_radius = load_system_file(args.system_file, abel)
    with open(args.path_file, "rb") as fh:
        doc = parse_json(fh.read(), "path file")
    path, file_steps = _path_from_dict(doc, system.n)
    steps = args.steps if args.steps is not None else file_steps
    radius, source = _pick_radius(args, file_radius, system)
    depth = args.depth if args.depth is not None else DEFAULT_DEPTH
    track = track_path(system, path, steps, radius, depth)
    _emit(_envelope(args, radius, source, track.to_dict(), steps=steps),
          args.out)
    return _EXIT_OK if track.verdict != "uncertified" else _EXIT_UNCERTIFIED


# ---------------------------------------------------------------------------
# components and gamma

def cmd_components(args) -> int:
    from .morse import (CENSUS_DEPTH, AffineSubspace, component_bound,
                        load_formula_file)

    abel = _load_abel(args.abel)
    formula, file_radius = load_formula_file(args.formula_file)
    radius, source = _pick_radius(args, file_radius)
    depth = args.depth if args.depth is not None else CENSUS_DEPTH
    rep = component_bound(formula, AffineSubspace.full(), radius,
                          seed=args.seed, abel=abel, census_depth=depth)
    _emit(_envelope(args, radius, source, rep.to_dict()), args.out)
    return _EXIT_OK


def cmd_gamma(args) -> int:
    from .morse import CENSUS_DEPTH, gamma_estimate, load_formula_file

    abel = _load_abel(args.abel)
    formula, file_radius = load_formula_file(args.formula_file)
    radius, source = _pick_radius(args, file_radius)
    depth = args.depth if args.depth is not None else CENSUS_DEPTH
    rep = gamma_estimate(formula, formula.n, args.trials, radius,
                         args.seed, abel=abel, census_depth=depth)
    _emit(_envelope(args, radius, source, rep.to_dict(), trials=args.trials),
          args.out)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing

def _build_parser() -> argparse.ArgumentParser:
    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--abel", default=None, metavar="FILE",
                       help="saved super-logarithm seed to use")
    files.add_argument("--out", default=None, metavar="FILE",
                       help="also write the JSON report here")
    search = argparse.ArgumentParser(add_help=False, parents=[files])
    search.add_argument("--seed", type=int, default=0)
    search.add_argument("--radius", type=float, default=None)
    search.add_argument("--depth", type=int, default=None)

    p = argparse.ArgumentParser(
        prog="slogcensus",
        description="certified zero counting over an exp-log term language")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sc = sub.add_parser("slog-check", parents=[files],
                        help="run the super-logarithm property suite")
    sc.add_argument("--order", type=int, default=None)
    sc.add_argument("--tol", type=float, default=None)
    sc.set_defaults(func=cmd_slog_check)

    ev = sub.add_parser("eval", parents=[files],
                        help="evaluate a term at a point")
    ev.add_argument("term")
    ev.add_argument("--at", default="", metavar="X1,X2,...")
    ev.add_argument("--grad", action="store_true")
    ev.add_argument("--seed", type=int, default=0,
                    help="accepted and ignored: eval draws nothing at random")
    ev.set_defaults(func=cmd_eval)

    ze = sub.add_parser("zeros", parents=[search],
                        help="certified zero census of a system file")
    ze.add_argument("system_file")
    ze.set_defaults(func=cmd_zeros)

    tr = sub.add_parser("track", parents=[search],
                        help="zero counts along a deformation path")
    tr.add_argument("system_file")
    tr.add_argument("path_file")
    tr.add_argument("--steps", type=int, default=None)
    tr.set_defaults(func=cmd_track)

    co = sub.add_parser("components", parents=[search],
                        help="certified component bound of a formula file")
    co.add_argument("formula_file")
    co.set_defaults(func=cmd_components)

    ga = sub.add_parser("gamma", parents=[search],
                        help="sampled worst-slice component estimate")
    ga.add_argument("formula_file")
    ga.add_argument("--trials", type=int, default=20)
    ga.set_defaults(func=cmd_gamma)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CertificationError as exc:
        print(f"certification incomplete: {exc}", file=sys.stderr)
        return _EXIT_UNCERTIFIED
    except (SlogcensusError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
