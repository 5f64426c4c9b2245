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

h1, h2 and h take a scalar x, or an array x with a scalar y: the windows
of every x are laid end to end and go through one omega call, and each
non-empty window is summed by math.fsum.  A scalar x gives a float.  The
windows of one call are capped at MAX_TERMS in total before anything is
allocated.

A DeltaKernelConfig holds Q, the calibrated c_Q and the half of a delta sum
that does not depend on n: the grid x = q/Q, the row h1(x) and the phi and
mu sieves, for q up to the largest qmax asked for so far.  A call with a
larger qmax, or after Q has changed, rebuilds them; a smaller qmax takes a
prefix, since each entry depends only on its own q.  A delta sum is then
the h2 windows, which are non-empty only on the prefix q <= 2|n|/Q, one gcd
pass for the Ramanujan sums c_q(n) and one fsum over q.  qmax plus every
window of a delta sum is capped at MAX_TERMS before the tables grow, so the
memory a config keeps is that of the tables for the largest qmax asked for,
which is at most the cap.  fsum is correctly rounded, so every value equals
the literal per-q loop over ramanujan and h bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import fsum

import numpy as np

from .errors import AccuracyError, ArgumentError, CapabilityError
from .exp_sums import _mu_sieve, _phi_sieve
# nothing here calls ramanujan; the binding is kept because perfbench/tracing.py
# patches delta_kernel.ramanujan and delta_kernel.h by name
from .exp_sums import ramanujan  # noqa: F401
from .weights import bump_w0

MIN_X = 1e-6      # caps the h1 window of one x at ~5e5 terms
MAX_TERMS = 2 * 10 ** 6   # caps the windows of one h call, or qmax plus the windows of one delta sum

# The bump mass c0 = int_{-1}^{1} exp(1/(x^2-1)) dx: 30-digit mpmath tanh-sinh,
# rounded to float; tests/test_delta_kernel.py recomputes it with scipy quad.
_C0 = 0.4439938161680794


def omega(x):
    """Unit-mass bump (4/c0) w0(4x - 3), supported on (1/2, 1)."""
    return 4.0 / _C0 * bump_w0(4.0 * np.asarray(x, dtype=float) - 3.0)


def _check_x(x: float):
    if x <= 0:
        raise ArgumentError("h requires x > 0")
    if x < MIN_X:
        raise CapabilityError(f"x = {x} below minimum {MIN_X} (term count cap)")


def _flat_x(x) -> np.ndarray:
    """x as a flat float array, every element checked by _check_x."""
    xs = np.asarray(x, dtype=float).ravel()
    if xs.size:
        _check_x(float(xs.min()))
    return xs


def _shaped(x, row: np.ndarray):
    """row in the shape of x; a float when x is a scalar."""
    return float(row[0]) if np.ndim(x) == 0 else row.reshape(np.shape(x))


def _h1_windows(x: np.ndarray):
    """First j and length of each h1 window, as floats."""
    first, last = np.maximum(1.0, np.floor(1.0 / (2 * x))), np.floor(1.0 / x)
    return first, np.maximum(0.0, last - first + 1)


def _h2_windows(x: np.ndarray, ay: float):
    """First j and length of each h2 window at |y| = ay, as floats."""
    first, last = np.maximum(1.0, np.floor(ay / x)), np.floor(2 * ay / x)
    return first, np.maximum(0.0, last - first + 1)


def _cap_windows(what: str, *windows):
    """Refuse a call whose windows hold more than MAX_TERMS terms in all."""
    total = sum(float(np.sum(w[1])) for w in windows)
    if not total <= MAX_TERMS:     # also refuses a nan length
        raise CapabilityError(
            f"{what} needs {total:.3g} window terms, beyond the cap {MAX_TERMS}")


def _window_sums(x: np.ndarray, windows, term) -> np.ndarray:
    """fsum over j in window i of term(x_i, j), one sum per x_i, in one pass.

    The windows are laid end to end (np.repeat); term sees the flat arrays
    and returns zero outside its open support interval.
    """
    first, counts = (w.astype(np.int64) for w in windows)
    ends = np.cumsum(counts)
    starts = ends - counts
    j = np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(first - starts, counts)
    vals = term(np.repeat(x, counts), j).tolist()
    sums = np.zeros(x.size)         # an empty window sums to 0.0, as fsum([]) does
    nz = np.flatnonzero(counts)
    for i, a, b in zip(nz.tolist(), starts[nz].tolist(), ends[nz].tolist()):
        sums[i] = fsum(vals[a:b])
    return sums


def _h1_term(x: np.ndarray, j: np.ndarray) -> np.ndarray:
    v = x * j
    return np.where((v > 0.5) & (v < 1.0), omega(v) / v, 0.0)


def _h2_term(ay: float):
    def term(x: np.ndarray, j: np.ndarray) -> np.ndarray:
        xj = x * j
        u = ay / xj
        return np.where((u > 0.5) & (u < 1.0), omega(u) / xj, 0.0)
    return term


def h1(x):
    """h1 at each x; a float for a scalar x."""
    xs = _flat_x(x)
    w1 = _h1_windows(xs)
    _cap_windows(f"h1 at {xs.size} x", w1)
    return _shaped(x, _window_sums(xs, w1, _h1_term))


def h2(x, y):
    """h2 at each x and the scalar y; a float for a scalar x."""
    xs, ay = _flat_x(x), abs(float(y))
    w2 = _h2_windows(xs, ay)
    _cap_windows(f"h2 at {xs.size} x, |y| = {ay:g}", w2)
    return _shaped(x, _window_sums(xs, w2, _h2_term(ay)))


def h(x, y):
    """The kernel h1(x) - h2(x, y) at each x and the scalar y; a float for a
    scalar x.  Vanishes for x > max(1, 2|y|)."""
    xs, ay = _flat_x(x), abs(float(y))
    w1, w2 = _h1_windows(xs), _h2_windows(xs, ay)
    _cap_windows(f"h at {xs.size} x, |y| = {ay:g}", w1, w2)
    return _shaped(x, _window_sums(xs, w1, _h1_term) - _window_sums(xs, w2, _h2_term(ay)))


def _ramanujan_from_sieves(phi: np.ndarray, mu: np.ndarray, t: int) -> np.ndarray:
    """c_q(t) for q = 1..X as exact integers, given the phi and mu sieves on
    0..X: one gcd pass.  It beats the divisor row of exp_sums._ramanujan_row
    over a 401-level delta sweep at q <= 60 (about 3 ms against 7 ms, best of
    9, 2-core VM), which wins at X = 1e5, t = 36 or 100 (0.25-0.35 ms against
    5.5-6.2 ms)."""
    t = abs(int(t))
    q = np.arange(1, len(phi), dtype=np.int64)
    # g = gcd(q, t); a t past int64 is first reduced mod each q
    tq = t if t < 2 ** 63 else np.array([t % int(v) for v in q], dtype=np.int64)
    k = q // np.gcd(q, tq)
    return mu[k] * phi[q] // phi[k]        # c_q(t) = mu(q/g) phi(q) / phi(q/g)


@dataclass
class _KernelTables:
    """The n-independent half of a delta sum for q = 1..qmax at one Q."""

    Q: float
    x: np.ndarray       # q / Q
    h1: np.ndarray      # h1(q / Q)
    h1_terms: float     # window terms of h1; all lie at q <= Q, so any qmax gives the same
    phi: np.ndarray     # Euler phi on 0..qmax
    mu: np.ndarray      # Moebius mu on 0..qmax


@dataclass
class DeltaKernelConfig:
    """Holds Q, the calibrated constant c_Q and the n-independent tables of
    a delta sum.

    c_Q is calibrated by the first delta sum, and again once Q changes.
    """

    Q: float
    cQ: float | None = field(default=None, init=False)
    tables: _KernelTables | None = field(default=None, init=False, repr=False, compare=False)
    cQ_at: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.Q > 1 and math.isfinite(self.Q)):
            raise ArgumentError(f"Q must be finite and > 1, got {self.Q}")


def _raw_delta_sum(n: int, cfg: DeltaKernelConfig) -> float:
    """Q^2 / c_Q times delta_sum: fsum over q <= qmax of c_q(n) h(q/Q, n/Q^2).

    The grid, the h1 row and the sieves come from cfg.tables, which are
    rebuilt for this qmax when they are shorter or were built for another Q,
    and only after the cap has passed.
    """
    Q = cfg.Q
    qmax = math.floor(Q * max(1.0, 2.0 * abs(n) / Q ** 2))
    _check_x(1 / Q)
    if qmax > MAX_TERMS:
        raise CapabilityError(f"n = {n} needs {qmax} q terms, beyond the cap {MAX_TERMS}")
    tab = cfg.tables
    rebuild = tab is None or tab.Q != Q or tab.x.size < qmax
    if rebuild:
        x = np.arange(1, qmax + 1) / Q
        w1 = _h1_windows(x)
        h1_terms = float(np.sum(w1[1]))
    else:
        x, h1_terms = tab.x[:qmax], tab.h1_terms
    ay = abs(n / Q ** 2)
    w2 = _h2_windows(x, ay)
    terms = qmax + h1_terms + float(np.sum(w2[1]))
    if terms > MAX_TERMS:
        raise CapabilityError(
            f"n = {n}, Q = {Q:g} needs {terms:.3g} kernel terms, beyond the cap {MAX_TERMS}")
    if rebuild:
        tab = cfg.tables = _KernelTables(Q, x, _window_sums(x, w1, _h1_term), h1_terms,
                                         _phi_sieve(qmax), _mu_sieve(qmax))
    # h = h1 - h2.  The h2 window of x is non-empty iff fl(2|y| / x) >= 1, and
    # float division is monotone, so those windows are a prefix of q; the h2
    # pass runs over that prefix only, and not at all when |n| < Q/2
    hq = tab.h1[:qmax]
    k = int(np.count_nonzero(w2[1]))
    if k:
        hq = hq.copy()
        hq[:k] -= _window_sums(x[:k], (w2[0][:k], w2[1][:k]), _h2_term(ay))
    # exact: |c_q(n)| <= q < 2^53
    cq = _ramanujan_from_sieves(tab.phi[:qmax + 1], tab.mu[:qmax + 1], n).astype(float)
    return fsum((cq * hq).tolist()) / Q ** 2


def calibrate_cQ(cfg: DeltaKernelConfig) -> float:
    """Fix c_Q so the identity is exact at n = 0; store it on the config."""
    r0 = _raw_delta_sum(0, cfg)
    if r0 <= 0:
        raise AccuracyError(f"calibration sum R(0) = {r0} is not positive")
    cfg.cQ, cfg.cQ_at = 1.0 / r0, cfg.Q
    if cfg.Q >= 4 and abs(cfg.cQ - 1.0) > 0.5:
        raise AccuracyError(f"c_Q = {cfg.cQ} outside the loose envelope |c_Q-1| <= 0.5")
    return cfg.cQ


def delta_sum(n: int, cfg: DeltaKernelConfig) -> float:
    """c_Q Q^{-2} sum_q c_q(n) h(q/Q, n/Q^2); equals delta(n) up to rounding.

    n is an integer: a Python or numpy int, or an integral float.
    """
    if not isinstance(n, (int, np.integer)) and not float(n).is_integer():
        raise ArgumentError(f"delta_sum needs an integer n, not {n!r}")
    if cfg.cQ_at != cfg.Q:
        calibrate_cQ(cfg)
    return cfg.cQ * _raw_delta_sum(int(n), cfg)


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
    _check_x(x)
    dy = float(np.max(np.diff(y_grid)))
    if dy > (x / 2.0) / 8.0:
        raise AccuracyError(
            f"grid spacing {dy:.3e} too coarse for x = {x} (need <= {x / 16:.3e})")
    from scipy.interpolate import CubicSpline   # scipy loads only when needed

    lo, hi = float(y_grid[0]), float(y_grid[-1])
    spline = CubicSpline(y_grid, f_values)
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(16)

    total = [h1(x) * float(spline.integrate(lo, hi))]
    jmax = math.floor(2.0 * max(abs(lo), abs(hi)) / x) + 1
    for j in range(1, jmax + 1):
        xj = x * j
        for a, b in ((xj / 2.0, xj), (-xj, -xj / 2.0)):
            a, b = max(a, lo), min(b, hi)
            if a >= b:
                continue
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            ys = mid + half * gl_nodes
            vals = spline(ys) * omega(np.abs(ys) / xj) / xj
            total.append(-half * float(gl_weights @ vals))
    return fsum(total)

