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

h1, h2 and h take a scalar x, or an array x with a scalar y.  A scalar x
gives a float.  The windows of one call are capped at MAX_TERMS in total
before any term is walked.  One routine, _window_sums, sums the windows of
every caller (h1, h2, h, the h1 row of the tables and the h2 windows of a
delta sum): it walks each window in Python floats, whose + - * / and
comparisons round as numpy's elementwise ops do, passes the exp arguments
of all the terms of the call to one np.exp call and sums each window by
math.fsum.  A call sums a few dozen terms on the delta sum's paths, where
numpy's fixed cost per op would outweigh its speed per term.

A DeltaKernelConfig holds Q, the calibrated c_Q and the half of a delta sum
that does not depend on n: the grid q and x = q/Q, the row h1(x) and the
phi and mu sieves, for q up to the largest qmax asked for so far.  A call
with a larger qmax, or after Q has changed, rebuilds them; a smaller qmax
takes a prefix, since each entry depends only on its own q.  A delta sum is
then the h2 windows, which are non-empty only on the prefix q <= 2|n|/Q and
are found in scalars over that prefix alone, one gcd pass for the Ramanujan
sums c_q(n) and one fsum over q.  qmax plus every window of a delta sum is
capped at MAX_TERMS before the tables grow, and an n or Q so large that the
cap is certain is refused before it is converted or squared, so the memory
a config keeps is that of the tables for the largest qmax asked for, which
is at most the cap.  fsum is correctly rounded, so every value equals the
literal per-q loop over ramanujan and h bit for bit.
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
_OMEGA_SCALE = 4.0 / _C0


def omega(x):
    """Unit-mass bump (4/c0) w0(4x - 3), supported on (1/2, 1)."""
    return _OMEGA_SCALE * bump_w0(4.0 * np.asarray(x, dtype=float) - 3.0)


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


def _shaped(x, row):
    """row (a list or array) in the shape of x; a float when x is a scalar."""
    if np.ndim(x) == 0:
        return float(row[0])
    return np.asarray(row, dtype=float).reshape(np.shape(x))


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


def _listed(x: np.ndarray, windows, ay=None) -> list:
    """The windows of each x as (x, ay, first, count) for _window_sums."""
    first, count = (w.astype(np.int64).tolist() for w in windows)
    return list(zip(x.tolist(), [ay] * len(first), first, count))


def _window_sums(windows) -> list:
    """fsum over j of each window's terms, one float per window.

    A window (x, ay, first, count) holds j = first .. first + count - 1 of
    the h1 terms omega(xj)/(xj) at x when ay is None, else of the h2 terms
    omega(ay/(xj))/(xj).  The walk runs in Python floats, whose + - * / and
    comparisons round as numpy's elementwise ops do; the exp arguments of
    every term in the support go through one np.exp call, since math.exp may
    differ from it in the last bit.  A term outside the support is 0.0 and
    changes no fsum, so it is left out.
    """
    args, divs, ends = [], [], []
    for x, ay, first, count in windows:
        for j in range(first, first + count):
            s = x * j
            u = s if ay is None else ay / s
            if 0.5 < u < 1.0:
                z = 4.0 * u - 3.0      # exact on (1/2, 1), so |z| < 1: w0(z) = exp(1/(z^2 - 1))
                args.append(1.0 / (z * z - 1.0))
                divs.append(s)
        ends.append(len(args))
    terms = [_OMEGA_SCALE * w / s for w, s in zip(np.exp(args).tolist(), divs)]
    sums, a = [], 0
    for b in ends:
        sums.append(fsum(terms[a:b]))
        a = b
    return sums


def h1(x):
    """h1 at each x; a float for a scalar x."""
    xs = _flat_x(x)
    w1 = _h1_windows(xs)
    _cap_windows(f"h1 at {xs.size} x", w1)
    return _shaped(x, _window_sums(_listed(xs, w1)))


def h2(x, y):
    """h2 at each x and the scalar y; a float for a scalar x."""
    xs, ay = _flat_x(x), abs(float(y))
    w2 = _h2_windows(xs, ay)
    _cap_windows(f"h2 at {xs.size} x, |y| = {ay:g}", w2)
    return _shaped(x, _window_sums(_listed(xs, w2, ay)))


def h(x, y):
    """The kernel h1(x) - h2(x, y) at each x and the scalar y; a float for a
    scalar x.  Vanishes for x > max(1, 2|y|)."""
    xs, ay = _flat_x(x), abs(float(y))
    w1, w2 = _h1_windows(xs), _h2_windows(xs, ay)
    _cap_windows(f"h at {xs.size} x, |y| = {ay:g}", w1, w2)
    sums = _window_sums(_listed(xs, w1) + _listed(xs, w2, ay))
    return _shaped(x, np.subtract(sums[:xs.size], sums[xs.size:]))


def _ramanujan_from_sieves(q: np.ndarray, phi: np.ndarray, mu: np.ndarray, t: int) -> np.ndarray:
    """c_q(t) at each q of the int64 array q as exact floats (|c_q| <= q <
    2^53), given the phi and mu sieves on 0..max(q): one gcd pass.  It beats
    the divisor row of exp_sums._ramanujan_row over a 401-level delta sweep
    at q <= 60 (2.1-2.2 ms against 4.7-5.1 ms, best of 25 in each of three
    runs, 2-core VM), which wins at X = 1e5, t = 36 or 100 (0.13-0.26 ms
    against 3.7-4.7 ms)."""
    t = abs(int(t))
    # g = gcd(q, t); a t past int64 is first reduced mod each q
    tq = t if t < 2 ** 63 else np.array([t % v for v in q.tolist()], dtype=np.int64)
    k = q // np.gcd(q, tq)
    # c_q(t) = mu(q/g) phi(q) / phi(q/g), an integer, so the float division is exact
    return mu[k] * phi[q] / phi[k]


@dataclass
class _KernelTables:
    """The n-independent half of a delta sum for q = 1..qmax at one Q."""

    Q: float
    q: np.ndarray       # 1..qmax as int64
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
    _check_x(1 / Q)            # refuses Q > 1/MIN_X before Q ** 2 can overflow
    # an exact int-float comparison, so no n is converted to float before it
    # passes: past MAX_TERMS Q, qmax would be about 2|n|/Q > 2 MAX_TERMS
    if abs(n) > MAX_TERMS * Q:
        raise CapabilityError(f"|n| > {MAX_TERMS} Q = {MAX_TERMS * Q:g} needs more q terms "
                              f"than the cap {MAX_TERMS}")
    qmax = math.floor(Q * max(1.0, 2.0 * abs(n) / Q ** 2))
    if qmax > MAX_TERMS:
        raise CapabilityError(f"n = {n} needs {qmax} q terms, beyond the cap {MAX_TERMS}")
    tab = cfg.tables
    rebuild = tab is None or tab.Q != Q or tab.x.size < qmax
    if rebuild:
        grid = np.arange(1, qmax + 1, dtype=np.int64)
        xs = grid / Q
        w1 = _h1_windows(xs)
        h1_terms = float(np.sum(w1[1]))
    else:
        h1_terms = tab.h1_terms
    # h = h1 - h2.  The h2 window of x is non-empty iff fl(2|y| / x) >= 1, and
    # float division is monotone, so those windows are a prefix of q; they are
    # found in scalars; the scan stops at the first empty one, or once qmax,
    # the h1 windows and the h2 windows so far pass the cap
    ay = abs(n / Q ** 2)
    windows, nterms = [], qmax + h1_terms
    for q in range(1, qmax + 1):
        x = q / Q
        last = math.floor(2 * ay / x)
        if last < 1 or nterms > MAX_TERMS:
            break
        first = max(1, math.floor(ay / x))
        windows.append((x, ay, first, last - first + 1))
        nterms += last - first + 1
    if nterms > MAX_TERMS:
        raise CapabilityError(
            f"n = {n}, Q = {Q:g} needs more kernel terms than the cap {MAX_TERMS}")
    if rebuild:
        tab = cfg.tables = _KernelTables(Q, grid, xs, np.array(_window_sums(_listed(xs, w1))),
                                         h1_terms, _phi_sieve(qmax), _mu_sieve(qmax))
    hq = tab.h1[:qmax]
    if windows:
        hq = hq.copy()
        hq[:len(windows)] -= _window_sums(windows)
    cq = _ramanujan_from_sieves(tab.q[:qmax], tab.phi, tab.mu, n)
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

