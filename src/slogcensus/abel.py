"""Super-logarithm: the strictly increasing solution phi of phi(e^x) = phi(x) + 1.

The function is represented by a polynomial seed on the fundamental domain
[1, e], normalized so phi(1) = 0 and phi(e) = 1, and extended everywhere by
the functional equation: phi(x) = phi(log x) + 1 above e, phi(x) = phi(e^x) - 1
below 1.  The seed has degree 2k+1 and satisfies C^k matching at the domain
junctions; the remaining degrees of freedom minimize the weighted jumps of
orders k+1 .. 2k+1, so the junction is numerically much smoother than the
certified order.

Derivatives follow the chain identities
    phi'(x)  = phi'(log x) / x                     (x > e)
    phi'(x)  = phi'(e^x) * e^x                     (x < 1)
    phi''(x) = (phi''(y) - phi'(y)) / x^2,  y = log x
    phi''(x) = phi''(y) * y^2 + phi'(y) * y, y = e^x
and the inverse (a trans-exponential function) is obtained by monotone
inversion of the seed plus integer exp/log steps.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import (BuildError, CertificationError, DomainError, count,
                     numbers, parse_json)
from .terms import EXP_MAX, exp_n

__all__ = [
    "AbelFunction",
    "DominationReport",
    "build_abel",
    "get_default_abel",
]

_E = math.e
_EPS = 2.0 ** -53

# default construction parameters
DEFAULT_ORDER = 3
DEFAULT_TOL = 1e-8

# evaluation-error allowances folded into every interval enclosure; they
# dominate the accumulated rounding of the short log/exp recursion because
# |phi'| < 1 makes the recursion contractive in its argument
_PHI_SLACK_FLOOR = 1e-13
_DPHI_SLACK = 1e-11
_D2PHI_SLACK = 1e-10


def _log_series_coeffs(deg: int) -> np.ndarray:
    # log(e + h) = 1 + sum_{i>=1} t_i h^i with t_i = (-1)^(i+1) / (i e^i)
    t = np.zeros(deg + 1)
    for i in range(1, deg + 1):
        t[i] = (-1.0) ** (i + 1) / (i * _E ** i)
    return t


def _jet_matrices(deg: int) -> tuple[np.ndarray, np.ndarray]:
    """Matrices B, P with rows indexed by Taylor order j at y = e.

    For seed p(y) = sum_m a_m (y-1)^m:
      B[j] @ a = j-th Taylor coefficient of p at e,
      P[j] @ a = j-th Taylor coefficient of p(log y) at e.
    """
    em1 = _E - 1.0
    B = np.zeros((deg + 1, deg))
    for j in range(deg + 1):
        for m in range(1, deg + 1):
            if m >= j:
                B[j, m - 1] = math.comb(m, j) * em1 ** (m - j)
    t = _log_series_coeffs(deg)
    P = np.zeros((deg + 1, deg))
    upow = np.zeros(deg + 1)
    upow[0] = 1.0
    for m in range(1, deg + 1):
        full = np.convolve(upow, t)
        upow = full[: deg + 1]
        P[:, m - 1] = upow
    return B, P


def _poly_real_roots(coeffs_desc: Sequence[float], lo: float, hi: float) -> list[float]:
    c = np.trim_zeros(np.asarray(coeffs_desc, dtype=float), "f")
    if c.size <= 1:
        return []
    roots = np.roots(c)
    out = []
    for r in roots:
        if abs(r.imag) < 1e-9 and lo - 1e-12 <= r.real <= hi + 1e-12:
            out.append(min(max(float(r.real), lo), hi))
    return sorted(out)


def _horner(desc, u):
    # numpy.polyval's float operations in its order, for floats and arrays
    acc = 0.0
    for c in desc:
        acc = acc * u + c
    return acc


def _band_range(desc, crits, lo: float, hi: float) -> tuple[float, float]:
    """(min, max) over [lo, hi] inside [1, e] of the polynomial ``desc`` in
    u = y - 1, from the ends and the critical points ``crits`` between."""
    vals = [_horner(desc, y - 1.0)
            for y in (lo, hi, *(r for r in crits if lo <= r <= hi))]
    return min(vals), max(vals)


def distinct_sorted(*parts) -> np.ndarray:
    """The values of ``parts`` in ascending order, each once: the first of
    each run of equal values in a sort of their concatenation."""
    v = np.sort(np.concatenate(parts))
    first = np.ones(v.shape, dtype=bool)
    first[1:] = v[1:] != v[:-1]
    return v[first]


class AbelFunction:
    """Immutable super-logarithm with seed polynomial on [1, e].

    All evaluation methods are reentrant; the object holds only read-only
    state after construction.
    """

    def __init__(self, coeffs: Sequence[float], order: int, tol: float,
                 validate: bool = True):
        if order not in (1, 2, 3):
            raise BuildError(f"order must be 1, 2 or 3, got {order}")
        if not 0.0 < tol < math.inf:
            raise BuildError(f"tol must be finite and positive, got {tol}")
        self.coeffs = tuple(float(c) for c in coeffs)
        if len(self.coeffs) != 2 * order + 1:
            raise BuildError(
                f"seed of order {order} needs {2 * order + 1} coefficients")
        self.order = order
        self.tol = float(tol)

        # powers-of-(y-1) coefficient tuples, descending for _horner
        d1 = [c * m for m, c in enumerate(self.coeffs, 1)]
        d2 = [c * m for m, c in enumerate(d1[1:], 1)]
        if not all(map(math.isfinite, d1 + d2)):
            raise BuildError("seed coefficients overflow their derivatives")
        self._p_desc = (*reversed(self.coeffs), 0.0)
        self._dp_desc = tuple(reversed(d1))
        self._d2p_desc = tuple(reversed(d2))

        # critical-point tables on [1, e]: where p' and p'' change direction
        self._dp_crit = self._roots_in_band(self._d2p_desc)
        self._d2p_crit = self._roots_in_band(np.polyder(self._d2p_desc))

        # certified uniform bound on the float Horner error of the seed
        deg = len(self.coeffs)
        gam = 2 * deg * _EPS / (1.0 - 2 * deg * _EPS)
        mag = sum(abs(c) * (_E - 1.0) ** (m + 1) for m, c in enumerate(self.coeffs))
        self.seed_error = gam * mag + _PHI_SLACK_FLOOR

        # published derivative bounds
        self.inf_dphi_fundamental, self.sup_dphi_fundamental = _band_range(
            self._dp_desc, self._dp_crit, 1.0, _E)
        self.sup_dphi_global = self._sup_dphi_global()
        self.sup_dphi_nonpos = self._sup_dphi_nonpos()

        self._phi_top = None  # filled lazily: phi at the largest double

        if validate:
            self.validate()

    # -- seed polynomial helpers ------------------------------------------

    def _roots_in_band(self, desc) -> list[float]:
        # roots are of polynomials in u = y-1, so band is u in [0, e-1]
        return [r + 1.0 for r in _poly_real_roots(desc, 0.0, _E - 1.0)]

    def _sup_dphi_global(self) -> float:
        # the global sup of |phi'| is sup over [1,e] of y*p'(y): on (0,1) the
        # chain gives phi'(x) = p'(e^x) e^x, deeper bands contract by e^x < 1,
        # and above e the chain divides by x > e; note this sup always
        # exceeds 1 because phi' averages to 1 over [0,1]
        yd = np.polymul(self._dp_desc, [1.0, 1.0])  # p'(y) * (u + 1) = y p'(y)
        crits = self._roots_in_band(np.polyder(yd))
        return _band_range(yd.tolist(), crits, 1.0, _E)[1]

    def _sup_dphi_nonpos(self) -> float:
        # sup of phi' over (-inf, 0]: there phi'(x) = p'(w) * w * log(w) with
        # w = exp(exp(x)) ranging over (1, e]; dense scan of that band
        ws = np.linspace(1.0, _E, 32769)
        h = _horner(self._dp_desc, ws - 1.0) * ws * np.log(ws)
        i = int(np.argmax(h))
        lo = ws[max(i - 1, 0)]
        hi = ws[min(i + 1, len(ws) - 1)]
        fine = np.linspace(lo, hi, 4097)
        hf = _horner(self._dp_desc, fine - 1.0) * fine * np.log(fine)
        return float(max(h[i], hf.max()))

    def seed(self, y: float) -> float:
        return _horner(self._p_desc, y - 1.0)

    # -- the band walk: x to y in [1, e] by log/exp steps --------------------

    def _walk(self, x: float, order: int):
        """(y, shift, d1, c2, c1) with y in [1, e] and
        phi(x) = p(y) + shift, phi'(x) = d1 p'(y) and
        phi''(x) = c2 p''(y) + c1 p'(y), updating only what derivative
        ``order`` reads: shift for 0, d1 for 1, c2 and c1 for 2."""
        x = float(x)
        if not math.isfinite(x):
            raise DomainError(f"phi argument must be finite, got {x}")
        shift, d1, c2, c1 = 0, 1.0, 1.0, 0.0
        while x > _E:
            # phi'(x) = phi'(y)/x, phi''(x) = (phi''(y) - phi'(y))/x^2
            if order == 0:
                shift += 1
            elif order == 1:
                d1 /= x
            else:
                inv = 1.0 / x
                c1 = (c1 - c2 * inv) * inv
                c2 = c2 * inv * inv
            x = math.log(x)
        while x < 1.0:
            # phi'(x) = phi'(y) y, phi''(x) = phi''(y) y^2 + phi'(y) y
            x = math.exp(x)
            if order == 0:
                shift -= 1
            elif order == 1:
                d1 *= x
            else:
                c1 = c2 * x + c1 * x
                c2 = c2 * x * x
        return x, shift, d1, c2, c1

    def _walk_array(self, x, order: int):
        """_walk over an array."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return self._walk(x, order)
        if not np.all(np.isfinite(x)):
            raise DomainError("phi argument must be finite")
        y = x.copy()
        shift = np.zeros(x.shape) if order == 0 else None
        d1 = np.ones(x.shape) if order == 1 else None
        c2, c1 = (np.ones(x.shape), np.zeros(x.shape)) if order == 2 else (None, None)
        # finite entries reach [1, e] in at most 3 log or 2 exp steps
        while (m := y > _E).any():
            v = y[m]
            if order == 0:
                shift[m] += 1.0
            elif order == 1:
                d1[m] /= v
            else:
                inv = 1.0 / v
                c1[m] = (c1[m] - c2[m] * inv) * inv
                c2[m] = c2[m] * inv * inv
            y[m] = np.log(v)
        while (m := y < 1.0).any():
            v = np.exp(y[m])
            y[m] = v
            if order == 0:
                shift[m] -= 1.0
            elif order == 1:
                d1[m] *= v
            else:
                c1[m] = c2[m] * v + c1[m] * v
                c2[m] = c2[m] * v * v
        return y, shift, d1, c2, c1

    # -- point evaluation: scalar, and array (oracle/scan hot path) ----------

    def eval_phi(self, x: float) -> float:
        y, shift, _, _, _ = self._walk(x, 0)
        return _horner(self._p_desc, y - 1.0) + shift

    def eval_dphi(self, x: float) -> float:
        y, _, d1, _, _ = self._walk(x, 1)
        return d1 * _horner(self._dp_desc, y - 1.0)

    def eval_d2phi(self, x: float) -> float:
        y, _, _, c2, c1 = self._walk(x, 2)
        u = y - 1.0
        return c2 * _horner(self._d2p_desc, u) + c1 * _horner(self._dp_desc, u)

    def eval_phi_array(self, x: np.ndarray) -> np.ndarray:
        y, shift, _, _, _ = self._walk_array(x, 0)
        return _horner(self._p_desc, y - 1.0) + shift

    def eval_dphi_array(self, x: np.ndarray) -> np.ndarray:
        y, _, d1, _, _ = self._walk_array(x, 1)
        return d1 * _horner(self._dp_desc, y - 1.0)

    def eval_d2phi_array(self, x: np.ndarray) -> np.ndarray:
        y, _, _, c2, c1 = self._walk_array(x, 2)
        u = y - 1.0
        return c2 * _horner(self._d2p_desc, u) + c1 * _horner(self._dp_desc, u)

    # -- interval enclosures -------------------------------------------------

    def interval_phi(self, lo: float, hi: float) -> tuple[float, float]:
        """Enclosure of {phi(x) : x in [lo, hi]}; phi is increasing."""
        w = self.seed_error
        if lo > hi:
            raise DomainError("empty interval")
        return (math.nextafter(self.eval_phi(lo) - w, -math.inf),
                math.nextafter(self.eval_phi(hi) + w, math.inf))

    def interval_dphi(self, lo: float, hi: float) -> tuple[float, float]:
        """Enclosure of {phi'(x) : x in [lo, hi]} by band splitting."""
        return self._jet_enclosure(lo, hi, 1, _DPHI_SLACK)

    def interval_d2phi(self, lo: float, hi: float) -> tuple[float, float]:
        """Enclosure of {phi''(x) : x in [lo, hi]} by band splitting."""
        return self._jet_enclosure(lo, hi, 2, _D2PHI_SLACK)

    def _jet_enclosure(self, lo, hi, order: int, slack: float):
        # a finite double reaches [1, e] in at most 3 log or 2 exp steps,
        # so the band splitting ends; log(inf) = inf and NaN never would
        if not -math.inf < lo <= hi < math.inf:
            raise DomainError(f"phi' and phi'' enclosures need finite ends "
                              f"in order, got [{lo}, {hi}]")
        a, b = self._interval_jet(lo, hi, order)[-1]
        return (math.nextafter(a - slack, -math.inf),
                math.nextafter(b + slack, math.inf))

    def _interval_jet(self, lo, hi, order: int):
        """[(min, max) of phi'] over [lo, hi], followed by that of phi'' when
        order is 2; unrounded, the public enclosures add the slack."""
        if lo >= 1.0 and hi <= _E:
            bands = ((self._dp_desc, self._dp_crit), (self._d2p_desc, self._d2p_crit))
            return [_band_range(desc, crits, lo, hi) for desc, crits in bands[:order]]
        if lo > _E:
            jet = self._interval_jet(math.log(lo), math.log(hi), order)
            # phi'(y)/x with x in [lo, hi]; phi' >= 0
            ra, rb = jet[0]
            q1 = [ra / lo, ra / hi, rb / lo, rb / hi]
            out = [(min(q1), max(q1))]
            if order == 2:
                na, nb = jet[1][0] - rb, jet[1][1] - ra  # phi''(y) - phi'(y)
                # times 1/x^2 with x in [lo, hi], positive factor
                fa, fb = 1.0 / (hi * hi), 1.0 / (lo * lo)
                q2 = [na * fa, na * fb, nb * fa, nb * fb]
                out.append((min(q2), max(q2)))
            return out
        if hi < 1.0:
            ya, yb = math.exp(lo), math.exp(hi)
            jet = self._interval_jet(ya, yb, order)
            # phi'(y) y and phi''(y) y^2 + phi'(y) y with y in [ya, yb] > 0
            ra, rb = jet[0]
            q1 = [ra * ya, ra * yb, rb * ya, rb * yb]
            out = [(min(q1), max(q1))]
            if order == 2:
                d2a, d2b = jet[1]
                q2 = [d2a * ya * ya, d2a * yb * yb, d2b * ya * ya, d2b * yb * yb]
                out.append((min(q2) + min(q1), max(q2) + max(q1)))
            return out
        # straddles a junction: split
        if lo < 1.0:
            left = self._interval_jet(lo, math.nextafter(1.0, 0.0), order)
            right = self._interval_jet(1.0, hi, order)
        else:
            left = self._interval_jet(lo, _E, order)
            right = self._interval_jet(math.nextafter(_E, math.inf), hi, order)
        return [(min(a1, a2), max(b1, b2)) for (a1, b1), (a2, b2) in zip(left, right)]

    # -- inverse ---------------------------------------------------------------

    @property
    def phi_top(self) -> float:
        if self._phi_top is None:
            self._phi_top = self.eval_phi(sys.float_info.max)
        return self._phi_top

    def trans_exp(self, y):
        """Monotone inverse of phi, defined on (-2, phi_top]: of a float, or
        entry by entry of an array, returned in its shape. An array raises
        the DomainError of its first entry, in C order, on which a float
        call raises."""
        ys = np.asarray(y, dtype=float)
        flat = ys.ravel()
        ok = np.isfinite(flat) & (flat > -2.0) & (flat <= self.phi_top)
        safe = np.where(ok, flat, 0.0)
        m = np.floor(safe)
        f = safe - m
        # solve p(x) = f on [1, e], p increasing with p(1)=0 and p(e)=1: all
        # entries bisect in lockstep until each bracket holds two adjacent
        # doubles, then take the nearer end; f <= 0 starts at [1, 1] and
        # f >= 1 at [e, e]
        lo = np.where(f < 1.0, 1.0, _E)
        hi = np.where(f > 0.0, _E, 1.0)
        while (go := (lo < (mid := 0.5 * (lo + hi))) & (mid < hi)).any():
            below = self.seed(mid) < f
            lo = np.where(go & below, mid, lo)
            hi = np.where(go & ~below, mid, hi)
        near = np.abs(self.seed(lo) - f) <= np.abs(self.seed(hi) - f)
        xs = np.where(near, lo, hi).tolist()
        # the integer tower steps take math.exp and math.log, one entry at a
        # time: numpy's exp and log may differ from them in the last bit
        for i in np.flatnonzero(~ok | (m != 0)).tolist():
            if not ok[i]:
                v = float(flat[i])
                if not math.isfinite(v):
                    raise DomainError(f"inverse argument must be finite, got {v}")
                if v <= -2.0:
                    raise DomainError("phi never reaches values <= -2")
                raise DomainError("inverse exceeds double range")
            x, k = xs[i], int(m[i])
            for _ in range(k):
                if x > EXP_MAX:
                    raise DomainError("inverse exceeds double range")
                x = math.exp(x)
            for _ in range(-k):
                if x <= 0.0:
                    raise DomainError("inverse undefined: log of non-positive")
                x = math.log(x)
            xs[i] = x
        return xs[0] if ys.ndim == 0 else np.array(xs).reshape(ys.shape)

    def check_transexp(self, i: int, x: float) -> bool:
        """True iff the inverse exceeds the i-fold exponential at x, tested in
        log domain as x - phi(x) > i (equivalent by monotonicity of phi)."""
        if i < 0:
            raise DomainError("tower height must be >= 0")
        return x - self.eval_phi(x) > float(i)

    # -- scans and checks --------------------------------------------------------

    def abel_residual(self, xs) -> float:
        xs = np.asarray(xs, dtype=float)
        lhs = self.eval_phi_array(np.exp(xs))
        rhs = self.eval_phi_array(xs) + 1.0
        return float(np.max(np.abs(lhs - rhs)))

    def residual_grid(self, lo: float = -5.0, hi: float = 5.0,
                      count: int = 10_000) -> np.ndarray:
        # junction points 0 and 1 are the only places value-level corruption
        # of the seed can show, so they are always included
        g = np.linspace(lo, hi, count)
        extra = [x for x in (0.0, 1.0) if lo <= x <= hi]
        return distinct_sorted(g, extra)

    def check_domination(self, n: int, x_lo: float, x_hi: float,
                         samples: int = 4096) -> "DominationReport":
        """Least sampled X with |phi(x)| <= log_n(x) for all sampled x >= X.

        The scan samples ``samples`` geometrically spaced points of
        [x_lo, x_hi].  When |phi| - log_n changes sign once in the window,
        the threshold is the first sample at or past that crossing, so it
        lies at most one geometric step, a factor
        (x_hi/x_lo)**(1/(samples-1)), above the true crossing.
        When x_hi lies before the crossing, no threshold exists and
        ``found`` is False.  For n = 2, phi(x) = phi(log log x) + 2 turns
        |phi(x)| <= log log x into y - phi(y) >= 2 at y = log log x, so the
        crossing is exp(exp(y2)), where y2 is the level-2 trans-exponential
        onset of ``check_transexp`` (about 3.1227, giving about 7.28e9).
        """
        if n not in (1, 2):
            raise DomainError("domination scan supports n in {1, 2}")
        # log_n must stay finite and nonnegative over the sampled range
        if not (exp_n(1.0, n - 1) <= x_lo < x_hi):
            raise DomainError("need exp_{n-1}(1) <= x_lo < x_hi")
        xs = np.geomspace(x_lo, x_hi, samples)
        ln = xs.copy()
        for _ in range(n):
            ln = np.log(ln)
        ok = np.abs(self.eval_phi_array(xs)) <= ln
        threshold: Optional[float] = None
        if ok[-1]:
            bad = np.nonzero(~ok)[0]
            idx = 0 if bad.size == 0 else int(bad[-1]) + 1
            threshold = float(xs[idx])
        return DominationReport(n=n, x_lo=float(x_lo), x_hi=float(x_hi),
                                samples=samples, threshold=threshold)

    def chain_cutoff(self, k: int, s: int) -> float:
        """Least sampled d with k*|phi(z) + 2s| < z/2 for all z >= d.

        phi(exp_2s(z)) = phi(z) + 2s by the functional equation, and phi is
        bounded by its value at the largest float, so the condition is
        automatic past 2*k*(phi_top + 2s). The scan certifies gaps between
        samples: phi + 2s is increasing, so |phi + 2s| on a gap is maximized
        at one of its endpoints, while z/2 is minimized at the left one.
        """
        bound = 2.0 * k * (self.phi_top + 2.0 * s) + 1.0
        zs = np.linspace(1e-6, bound, 20001)
        lhs = k * np.abs(self.eval_phi_array(zs) + 2.0 * s)
        ok = np.empty(len(zs), dtype=bool)
        ok[:-1] = np.maximum(lhs[:-1], lhs[1:]) < zs[:-1] / 2.0
        ok[-1] = lhs[-1] < zs[-1] / 2.0
        bad = np.nonzero(~ok)[0]
        if bad.size == 0:
            return float(zs[0])
        if bad[-1] == len(zs) - 1:
            raise CertificationError("chain inequality did not settle in range")
        return float(zs[bad[-1] + 1])

    # -- validation ------------------------------------------------------------

    def junction_jumps(self) -> list[float]:
        """Taylor-coefficient mismatches at y = e for orders 0 .. 2k+1."""
        deg = 2 * self.order + 1
        B, P = _jet_matrices(deg)
        a = np.array(self.coeffs)
        jumps = (B - P) @ a
        jumps[0] -= 1.0  # value matching is p(e) = p(1) + 1 = 1
        return [float(j) for j in jumps]

    def validate(self) -> None:
        """Raise BuildError unless the seed defines a usable super-logarithm."""
        jumps = self.junction_jumps()
        for j in range(self.order + 1):
            if abs(jumps[j]) > self.tol:
                raise BuildError(
                    f"junction mismatch at order {j}: {jumps[j]:.3e} > {self.tol:.1e}")
        if self.inf_dphi_fundamental <= 0.0:
            raise BuildError(
                f"seed not strictly increasing: min p' = {self.inf_dphi_fundamental:.3e}")
        if abs(self.seed(1.0)) > self.tol or abs(self.seed(_E) - 1.0) > self.tol:
            raise BuildError("seed normalization violated")
        if not self.sup_dphi_nonpos < 1.0:
            # the growth-exponent rule for phi over level-0 arguments relies
            # on |phi(-u)| <= 1 + u; that needs phi' <= 1 left of the origin
            raise BuildError(
                f"sup of phi' on (-inf, 0] is {self.sup_dphi_nonpos:.6f}, "
                "not < 1; growth certification would be unsound")
        res = self.abel_residual(self.residual_grid())
        if res > self.tol:
            raise BuildError(
                f"Abel residual {res:.3e} exceeds tolerance {self.tol:.1e}")

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "format_version": 1,
            "kind": "abel-seed",
            "order": self.order,
            "tol": self.tol,
            "coeffs": list(self.coeffs),
        }, sort_keys=True, indent=2)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def from_json(cls, text, validate: bool = True) -> "AbelFunction":
        data = parse_json(text, "seed file")
        if not isinstance(data, dict):
            raise BuildError("seed file must hold a JSON object")
        if count(data.get("format_version"), "seed file version", 1) != 1:
            raise BuildError("unsupported seed file version")
        return cls(numbers(data.get("coeffs"), "seed file coeffs", 1),
                   count(data.get("order"), "seed file order", 0),
                   numbers(data.get("tol"), "seed file tol"),
                   validate=validate)

    @classmethod
    def load(cls, path: str, validate: bool = True) -> "AbelFunction":
        with open(path, "rb") as fh:
            return cls.from_json(fh.read(), validate=validate)


def build_abel(order: int = DEFAULT_ORDER, tol: float = DEFAULT_TOL) -> AbelFunction:
    """Construct the seed polynomial and wrap it as an AbelFunction.

    The degree-(2k+1) seed satisfies the k+1 junction constraints exactly
    (value plus C^k matching of p(log y) + 1 at y = e) and uses the k
    remaining degrees of freedom to minimize the weighted Taylor-coefficient
    jumps at orders k+1 .. 2k+1.
    """
    if order not in (1, 2, 3):
        raise BuildError(f"order must be 1, 2 or 3, got {order}")
    k = order
    deg = 2 * k + 1
    B, P = _jet_matrices(deg)
    D = B - P

    cons = D[: k + 1]
    rhs = np.zeros(k + 1)
    rhs[0] = 1.0

    a_part, *_ = np.linalg.lstsq(cons, rhs, rcond=None)
    _, sv, vt = np.linalg.svd(cons)
    rank = int(np.sum(sv > 1e-12 * sv[0]))
    null = vt[rank:].T  # deg x (deg - rank)

    w = (_E - 1.0) ** np.arange(k + 1, deg + 1)
    obj = D[k + 1:] * w[:, None]
    z, *_ = np.linalg.lstsq(obj @ null, -obj @ a_part, rcond=None)
    a = a_part + null @ z
    return AbelFunction(a, order, tol)


@lru_cache(maxsize=None)
def _default_abel_cached() -> AbelFunction:
    return build_abel(DEFAULT_ORDER, DEFAULT_TOL)


def get_default_abel() -> AbelFunction:
    """Process-wide default super-logarithm (order 3, tol 1e-8)."""
    return _default_abel_cached()


@dataclass(frozen=True)
class DominationReport:
    """Result of a log_n-domination threshold scan."""

    n: int
    x_lo: float
    x_hi: float
    samples: int
    threshold: Optional[float]

    @property
    def found(self) -> bool:
        return self.threshold is not None
