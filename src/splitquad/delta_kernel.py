"""The finite delta identity on integers and its two-variable kernel h(x, y).

The kernel is built from the compactly supported bump w0 via the shifted
unit-mass weight omega(x) = (4/c0) w0(4x - 3), supported on (1/2, 1):

    h(x, y) = h1(x) - h2(x, y)
    h1(x)   = sum_j (xj)^{-1} omega(xj)            over xj in (1/2, 1)
    h2(x,y) = sum_j (xj)^{-1} omega(|y|/(xj))      over |y|/(xj) in (1/2, 1)

Both sums have finite support windows of j.  With the kernel in hand,
delta(n) on integers equals

    c_Q * Q^{-2} * sum_q c_q(n) h(q/Q, n/Q^2),

where c_q is the Ramanujan sum; c_Q is calibrated so the identity is
exact at n = 0 and is then validated at every other n.

One delta sum is one numpy pass: c_q(n) for all q comes from the phi and
mu sieves, the windows of every q are laid end to end and go through one
omega call for h1 and one for h2, and each window is summed by math.fsum,
as is the final sum over q.  fsum is correctly rounded, so every value
equals the literal per-q loop over ramanujan and h bit for bit.  h1 and
h2 are the one-element case of the same pass.  The windows plus the q
terms are capped at MAX_TERMS before anything is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from .errors import AccuracyError, ArgumentError, CapabilityError
# nothing here calls ramanujan; the binding is kept because perfbench/tracing.py
# patches delta_kernel.ramanujan and delta_kernel.h by name
from .exp_sums import ramanujan, ramanujan_sums  # noqa: F401
from .weights import bump_w0

MIN_X = 1e-6      # caps the h1 term count at ~5e5
MAX_TERMS = 2 * 10 ** 6   # caps qmax plus the window lengths of one delta sum

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _compute_c0() -> float:
    # tanh-sinh handles the flat endpoints; cross-checked against
    # adaptive Gauss-Kronrod to 1e-12
    with mpmath.workdps(30):
        val = float(mpmath.quad(lambda x: mpmath.exp(1 / (x * x - 1)), [-1, 0, 1]))
    gk, _ = quad(lambda x: bump_w0(x), -1.0, 1.0, epsabs=1e-13, limit=200)
    if abs(val - gk) > 1e-12:
        raise AccuracyError(f"c0 quadrature mismatch {val} vs {gk}")
    return val


_C0 = _compute_c0()


def w0(x) -> float:
    """exp(1/(x^2-1)) inside (-1, 1), zero outside."""
    return bump_w0(x)


def omega(x):
    """Unit-mass bump (4/c0) w0(4x - 3), supported on (1/2, 1)."""
    return 4.0 / _C0 * bump_w0(4.0 * np.asarray(x, dtype=float) - 3.0)


def _check_x(x: float):
    if x <= 0:
        raise ArgumentError("h requires x > 0")
    if x < MIN_X:
        raise CapabilityError(f"x = {x} below minimum {MIN_X} (term count cap)")


def _h1_windows(x: np.ndarray):
    """First j and length of each h1 window, as floats."""
    first, last = np.maximum(1.0, np.floor(1.0 / (2 * x))), np.floor(1.0 / x)
    return first, np.maximum(0.0, last - first + 1)


def _h2_windows(x: np.ndarray, ay: float):
    """First j and length of each h2 window at |y| = ay, as floats."""
    first, last = np.maximum(1.0, np.floor(ay / x)), np.floor(2 * ay / x)
    return first, np.maximum(0.0, last - first + 1)


def _window_sums(x: np.ndarray, windows, term) -> list:
    """fsum over j in window i of term(x_i, j), one sum per x_i, in one pass.

    The windows are laid end to end (np.repeat); term sees the flat arrays
    and returns zero outside its open support interval.
    """
    first, counts = (w.astype(np.int64) for w in windows)
    ends = np.cumsum(counts)
    j = np.arange(int(ends[-1]), dtype=np.int64) + np.repeat(first - (ends - counts), counts)
    vals = term(np.repeat(x, counts), j).tolist()
    bounds = [0] + ends.tolist()
    return [fsum(vals[a:b]) for a, b in zip(bounds, bounds[1:])]


def _h1_term(x: np.ndarray, j: np.ndarray) -> np.ndarray:
    v = x * j
    return np.where((v > 0.5) & (v < 1.0), omega(v) / v, 0.0)


def _h2_term(ay: float):
    def term(x: np.ndarray, j: np.ndarray) -> np.ndarray:
        xj = x * j
        u = ay / xj
        return np.where((u > 0.5) & (u < 1.0), omega(u) / xj, 0.0)
    return term


def h1(x: float) -> float:
    _check_x(x)
    xs = np.array([x], dtype=float)
    return _window_sums(xs, _h1_windows(xs), _h1_term)[0]


def h2(x: float, y: float) -> float:
    _check_x(x)
    xs, ay = np.array([x], dtype=float), abs(y)
    return _window_sums(xs, _h2_windows(xs, ay), _h2_term(ay))[0]


def h(x: float, y: float) -> float:
    """The kernel h1(x) - h2(x, y); vanishes for x > max(1, 2|y|)."""
    return h1(x) - h2(x, y)


@dataclass
class DeltaKernelConfig:
    """Holds Q, the bump mass c0 and the calibrated constant c_Q."""

    Q: float
    cQ: float | None = None

    def __post_init__(self):
        if not self.Q > 1:
            raise ArgumentError("Q must be > 1")
        if not 0.44 < _C0 < 0.45:
            raise AccuracyError(f"c0 = {_C0} outside sanity bracket (0.44, 0.45)")

    @property
    def c0(self) -> float:
        return _C0


def _raw_delta_sum(n: int, Q: float) -> float:
    """Q^2 / c_Q times delta_sum: the sum over q <= qmax in one numpy pass."""
    qmax = math.floor(Q * max(1.0, 2.0 * abs(n) / Q ** 2))
    _check_x(1 / Q)
    if qmax > MAX_TERMS:
        raise CapabilityError(f"n = {n} needs {qmax} q terms, beyond the cap {MAX_TERMS}")
    x = np.arange(1, qmax + 1) / Q
    ay = abs(n / Q ** 2)
    w1, w2 = _h1_windows(x), _h2_windows(x, ay)
    terms = qmax + float(np.sum(w1[1]) + np.sum(w2[1]))
    if terms > MAX_TERMS:
        raise CapabilityError(
            f"n = {n}, Q = {Q:g} needs {terms:.3g} kernel terms, beyond the cap {MAX_TERMS}")
    hq = (np.array(_window_sums(x, w1, _h1_term))
          - np.array(_window_sums(x, w2, _h2_term(ay))))
    cq = ramanujan_sums(qmax, n).astype(float)    # exact: |c_q(n)| <= q < 2^53
    return fsum((cq * hq).tolist()) / Q ** 2


def calibrate_cQ(cfg: DeltaKernelConfig) -> float:
    """Fix c_Q so the identity is exact at n = 0; store it on the config."""
    r0 = _raw_delta_sum(0, cfg.Q)
    if r0 <= 0:
        raise AccuracyError(f"calibration sum R(0) = {r0} is not positive")
    cfg.cQ = 1.0 / r0
    if cfg.Q >= 4 and abs(cfg.cQ - 1.0) > 0.5:
        raise AccuracyError(f"c_Q = {cfg.cQ} outside the loose envelope |c_Q-1| <= 0.5")
    return cfg.cQ


def delta_sum(n: int, cfg: DeltaKernelConfig) -> float:
    """c_Q Q^{-2} sum_q c_q(n) h(q/Q, n/Q^2); equals delta(n) up to rounding."""
    if cfg.cQ is None:
        calibrate_cQ(cfg)
    return cfg.cQ * _raw_delta_sum(int(n), cfg.Q)


def smear(y_grid: np.ndarray, f_values: np.ndarray, x: float) -> float:
    """Integral of f(y) h(x, y) dy over the grid span.

    f is given by samples on a (sorted, uniform-ish) grid; a cubic spline
    interpolant supplies values inside the omega-shells of h2, each shell
    integrated by Gauss-Legendre panels.  Requires at least 8 grid nodes
    per shell of width x/2.
    """
    y_grid = np.asarray(y_grid, dtype=float)
    f_values = np.asarray(f_values, dtype=float)
    if y_grid.ndim != 1 or y_grid.shape != f_values.shape or y_grid.size < 4:
        raise ArgumentError("grid and samples must be matching 1-d arrays")
    if x <= MIN_X:
        raise CapabilityError(f"x = {x} below minimum {MIN_X}")
    dy = float(np.max(np.diff(y_grid)))
    if dy > (x / 2.0) / 8.0:
        raise AccuracyError(
            f"grid spacing {dy:.3e} too coarse for x = {x} (need <= {x / 16:.3e})")
    lo, hi = float(y_grid[0]), float(y_grid[-1])
    spline = CubicSpline(y_grid, f_values)

    total = [h1(x) * float(spline.integrate(lo, hi))]
    jmax = math.floor(2.0 * max(abs(lo), abs(hi)) / x) + 1
    for j in range(1, jmax + 1):
        xj = x * j
        for a, b in ((xj / 2.0, xj), (-xj, -xj / 2.0)):
            a, b = max(a, lo), min(b, hi)
            if a >= b:
                continue
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            ys = mid + half * _GL_NODES
            vals = spline(ys) * omega(np.abs(ys) / xj) / xj
            total.append(-half * float(_GL_WEIGHTS @ vals))
    return fsum(total)

