"""Exact enumeration of the weighted lattice count N_L(w; F0, m).

N_L sums w(z) over z in the scaled lattice (1/L) Z^d lying on the
quadric x.y = m.  The counter works in integer coordinates u = L z,
where the constraint reads u_x . u_y = t with t = m L^2 (an integer by
the LatticeSpec contract).  Truncation uses R = decay_radius(w, eps', d-2)
with eps' = eps / L^(d-2).  There are two paths:

* Pair convolution, for weights that factor over the pairs (x_i, y_i)
  (Gaussians, shifted or not, and ProductBump).  On the box |u_j| <= B
  with B = ceil(R L) (the support box for ProductBump) the count is
  coefficient t of P_1 * ... * P_d1, where P_i[r] is the weighted divisor
  sum over x_i y_i = r.  Each P_i is one bincount; the product is direct
  convolution.  tail_estimate is the weight's certified bound on the
  lattice mass outside the box.
* Fibres, for the other weights with a bounded support (AppendixExample),
  where R is the support radius and nothing is truncated.  A weight's
  block_support (rx, ry) says that w(x, y) = 0 unless |x| <= rx and
  |y| <= ry; the fibres then run over u_x with |u_x| <= Rx = min(R, rx) L,
  and u_y is confined to |u_y| <= Ry = min(R, ry) L (Rx = Ry = R L for a
  weight with no block_support).  Each admissible u_x is solved for its
  pivot coordinate k = argmax |x_k|: the other d1 - 1 coordinates of u_y
  run over the ball of radius Ry, y_k = (t - sum_{j != k} x_j y_j) / x_k is
  kept when the division is exact, |u_y| <= Ry and |u_x|^2 + |u_y|^2 <=
  (R L)^2.  The u_x = 0 stratum (t = 0 only) is the u_y ball of radius Ry.
  The u_x are grouped by pivot and processed in blocks of about BLOCK
  candidates, all in int64.  tail_estimate bounds the rounding of the sum.
  A weight with neither pair_factors nor a bounded support is refused.

Both paths count their work in operations, worked out from the inputs
before the counting starts: a multiply-add of the convolution (or a weight
product of the pair grid) is one, and a fibre candidate is d1 (its d1 - 1
multiply-adds and one division).  That count is checked against the
budget and reported as lattice_points_visited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from math import fsum

import numpy as np

from .errors import ArgumentError, CapabilityError
from .forms import LatticeSpec
from .weights import PairFactors, WeightFunction

DEFAULT_BUDGET = 6 * 10 ** 10      # operations (see the module docstring)
BLOCK = 1 << 16                    # fibre candidates per block


@dataclass
class CountResult:
    value: float
    lattice_points_visited: int     # work in operations, the unit of the budget
    truncation_radius: float        # in z-units
    tail_estimate: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ArgumentError("count value must be finite")
        if self.tail_estimate < 0:
            raise ArgumentError("tail_estimate must be >= 0")


@dataclass
class HyperplaneLatticeSolution:
    """Integer solutions of x . y = t: particular + Z-span of basis."""

    particular: np.ndarray          # int64
    basis: list                     # int64 rows


def _column_reduce(x: np.ndarray):
    """Unimodular U with x @ U = (g, 0, ..., 0), g = gcd(x) > 0."""
    d = len(x)
    U = np.eye(d, dtype=object)
    v = [int(c) for c in x]
    for i in range(1, d):
        if v[i] == 0:
            continue
        g, a, b = _extgcd(v[0], v[i])
        q0, qi = v[0] // g, v[i] // g
        c0 = a * U[:, 0] + b * U[:, i]
        ci = -qi * U[:, 0] + q0 * U[:, i]
        U[:, 0], U[:, i] = c0, ci
        v[0], v[i] = g, 0
    if v[0] < 0:
        U[:, 0] = -U[:, 0]
        v[0] = -v[0]
    return U, v[0]


def _extgcd(a: int, b: int):
    """(g, s, t) with s a + t b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _reduce_basis(basis: np.ndarray) -> np.ndarray:
    """Pairwise Lagrange-style length reduction (no full LLL machinery)."""
    B = np.array(basis, dtype=np.int64)
    k = len(B)
    for _ in range(8):
        changed = False
        order = np.argsort([int(b @ b) for b in B])
        B = B[order]
        for i in range(k):
            for j in range(k):
                if i == j or not B[j] @ B[j]:
                    continue
                q = int(round(int(B[i] @ B[j]) / int(B[j] @ B[j])))
                if q:
                    B[i] -= q * B[j]
                    changed = True
        if not changed:
            break
    return B


def solve_hyperplane_lattice(x, t: int) -> HyperplaneLatticeSolution | None:
    """Solve x . y = t over Z^{d1}; None when gcd(x) does not divide t."""
    x = np.asarray(x, dtype=np.int64)
    if x.ndim != 1 or not np.any(x):
        raise ArgumentError("x must be a nonzero integer vector")
    t = int(t)
    U, g = _column_reduce(x)
    if t % g:
        return None
    particular = np.array([int(c) * (t // g) for c in U[:, 0]], dtype=np.int64)
    if len(x) == 1:
        return HyperplaneLatticeSolution(particular, [])
    return HyperplaneLatticeSolution(particular, list(_reduce_basis(U[:, 1:].T)))


def _ball_points(d: int, radius: float) -> np.ndarray:
    """All integer vectors of length d >= 0 with |v| <= radius, lexicographic."""
    n = int(math.floor(radius))
    side = 2 * n + 1
    grid = np.indices((side,) * d).reshape(d, side ** d).T - n
    return grid[np.sum(grid * grid, axis=1) <= radius * radius]


def _square_sum_counts(d: int, radius: float) -> list:
    """[r_0, ..., r_d], r_k[s] = #{v in Z^k : |v|^2 = s} for s = 0..floor(radius^2).

    Each r_k is r_{k-1} convolved with the 1-d square counts over
    |v_i| <= floor(radius), so that sum(r_k) == len(_ball_points(k, radius)).
    """
    N = math.floor(radius * radius)
    r = np.zeros(N + 1, dtype=np.int64)
    r[0] = 1
    levels = [r]
    for _ in range(d):
        nxt = r.copy()
        for k in range(1, math.floor(radius) + 1):
            nxt[k * k:] += 2 * r[:N + 1 - k * k]
        r = nxt
        levels.append(r)
    return levels


def _fibre_work(d1: int, t: int, rx: float, ry: float) -> int:
    """The operations _count_fibres charges, counted without building a ball.

    u_x runs over the ball of radius rx and the free coordinates of u_y over
    the (d1 - 1)-ball of radius ry.  With B(s) the number of vectors in
    Z^{d1} with |v|^2 <= s, the nonzero u_x whose gcd is exactly g number
    E(g) = B(N // g^2) - 1 - sum_{k >= 2} E(k g) (Moebius inversion, from the
    largest g down); u_x is admissible when g | t.  When t = 0 the u_x = 0
    stratum adds the d1-ball of radius ry.
    """
    ball = np.cumsum(_square_sum_counts(d1, rx)[d1])   # ball[s] = B(s)
    y_levels = _square_sum_counts(d1, ry)
    free = int(np.sum(y_levels[d1 - 1]))
    N = len(ball) - 1
    if t == 0:
        admissible = int(ball[N]) - 1
    else:
        n = math.floor(rx)
        exact = [0] * (n + 1)                          # exact[g] = E(g)
        for g in range(n, 0, -1):
            exact[g] = int(ball[N // (g * g)]) - 1 - sum(exact[2 * g::g])
        admissible = sum(exact[g] for g in range(1, n + 1) if t % g == 0)
    return d1 * (admissible * free + (int(np.sum(y_levels[d1])) if t == 0 else 0))


def _over_budget(work: int, budget: int, L: float, growth: float) -> CapabilityError:
    """The budget error, with the L at which work (growing as L^growth) would fit."""
    frac = max(1e-9, budget / work)
    l_max = max(1, int(L * frac ** (1.0 / growth)))
    return CapabilityError(f"work budget {budget} exceeded; largest feasible L about {l_max}")


def enumerate_N_L(w: WeightFunction, spec: LatticeSpec, eps: float,
                  budget: int = DEFAULT_BUDGET) -> CountResult:
    """Sum w(u/L) over integer solutions of u_x . u_y = t, truncated at radius R L.

    Weights with a ``pair_factors`` method take the pair-convolution path;
    the others need a bounded support and are enumerated fibre by fibre.
    """
    if not eps > 0:
        raise ArgumentError("eps must be positive")
    if budget < 1:
        raise ArgumentError(f"budget {budget} must be >= 1")
    d = w.dim
    L = float(spec.L)
    R = w.decay_radius(eps / max(1.0, L ** (d - 2)), d - 2)
    if hasattr(w, "pair_factors"):
        return _count_pair_convolution(w.pair_factors(L, R), spec.t, L, R, budget)
    if w.support_radius is None:
        raise CapabilityError(f"{type(w).__name__} has neither pair factors nor a "
                              "bounded support, so no counter path bounds its tail")
    return _count_fibres(w, spec.t, L, R, budget)


def _count_pair_convolution(f: PairFactors, t: int, L: float, R: float,
                            budget: int) -> CountResult:
    """Coefficient t of P_1 * ... * P_d1, P_i[r] = sum_{x y = r} g_i(x) h_i(y).

    The work count is the pair-grid weight products plus the multiply-adds
    of the convolutions and of the final dot product.
    """
    d1, n = f.g.shape
    B = f.B
    m = 2 * B * B + 1                                  # P_i covers r = -B^2..B^2
    visited = d1 * n * n + sum(1 + k * (m - 1) for k in range(d1 - 1)) * m + m
    if visited > budget:
        # a convolution of two length-m arrays, m ~ L^2, costs L^4
        raise _over_budget(visited, budget, L, 4 if d1 > 2 else 2)
    u = np.arange(-B, B + 1, dtype=np.int64)
    r_index = (np.outer(u, u) + B * B).ravel()
    P = [np.bincount(r_index, weights=np.outer(gi, hi).ravel(), minlength=m)
         for gi, hi in zip(f.g, f.h)]
    # convolve all factors but the last, then take coefficient t against it:
    # A[j] is the coefficient of r = j - offset, and P[-1][::-1][k] that of B^2 - k
    A, offset = np.ones(1), 0
    for Pi in P[:-1]:
        A, offset = np.convolve(A, Pi), offset + B * B
    s = offset + t - B * B
    lo, hi = max(0, s), min(len(A), s + m)
    value = fsum(A[lo:hi] * P[-1][::-1][lo - s:hi - s]) if lo < hi else 0.0
    return CountResult(value, visited, R, f.tail)


def _count_fibres(w: WeightFunction, t: int, L: float, R: float,
                  budget: int) -> CountResult:
    """Sum w(u/L) over the solutions the pivot solve finds in the ball |u| <= R L.

    R is w's support radius.  u_x runs over |u_x| <= Rx and u_y over
    |u_y| <= Ry, the ball radius cut down to the weight's block support.
    The budget counts d1 operations per candidate; it is checked from
    lattice-point counts before any ball is enumerated.
    """
    d1 = w.dim // 2
    Ru = R * L
    rx, ry = w.block_support or (R, R)
    Rx, Ry = min(R, rx) * L, min(R, ry) * L
    visited = _fibre_work(d1, t, Rx, Ry)
    if visited > budget:
        raise _over_budget(visited, budget, L, w.dim - 1)
    UX = _ball_points(d1, Rx)
    UX = UX[np.any(UX, axis=1)]
    UX = UX[t % np.gcd.reduce(UX, axis=1) == 0]       # the admissible u_x
    blocks = _pivot_solutions(UX, _ball_points(d1 - 1, Ry), t, Ru * Ru, Ry * Ry)
    if t == 0:                                         # the u_x = 0 stratum: w(0, u_y/L)
        Y = _ball_points(d1, Ry)
        blocks = chain([np.concatenate([np.zeros_like(Y), Y], axis=1)], blocks)
    totals, points = [], 0
    for U in blocks:
        totals.append(np.sum(w.eval_array(U / L)))
        points += len(U)
    value = fsum(totals)
    # the block sums and their fsum add n = points terms w >= 0, so the rounding
    # is at most gamma_n sum w <= n u value / (1 - 2 n u), u = 2^-53 (Higham ch. 4)
    nu = points * 2.0 ** -53
    return CountResult(value, visited, R, nu * value / (1 - 2 * nu))


def _pivot_solutions(UX: np.ndarray, F: np.ndarray, t: int, radius2: float,
                     y_radius2: float):
    """Yield blocks of the solutions u of u_x . u_y = t with |u|^2 <= radius2
    and |u_y|^2 <= y_radius2.

    Each u_x is solved for y_k, k = argmax |x_k|, with the other coordinates
    of u_y running over the rows of F; about BLOCK candidates per block.
    """
    d1 = UX.shape[1]
    sF = np.sum(F * F, axis=1)
    pivot = np.argmax(np.abs(UX), axis=1)
    rows = max(1, BLOCK // len(F))
    for k in range(d1):
        free = np.arange(d1) != k
        UXk = UX[pivot == k]
        for s in range(0, len(UXk), rows):
            X = UXk[s:s + rows]
            S = t - X[:, free] @ F.T                   # x_k y_k for each candidate
            idx = np.flatnonzero(S % X[:, k:k + 1] == 0)
            i, j = np.divmod(idx, len(F))
            yk = S.ravel()[idx] // X[i, k]
            y2 = sF[j] + yk * yk
            keep = (np.sum(X * X, axis=1)[i] + y2 <= radius2) & (y2 <= y_radius2)
            i, j, yk = i[keep], j[keep], yk[keep]
            U = np.empty((len(i), 2 * d1), dtype=np.int64)
            U[:, :d1] = X[i]
            U[:, d1:][:, free] = F[j]
            U[:, d1 + k] = yk
            yield U


def brute_force_N_L(w: WeightFunction, spec: LatticeSpec, box_radius: int) -> float:
    """Literal scan over the |u|_inf <= box_radius box (test oracle): every
    u_x against every u_y, in blocks of u_x, the weight summed by fsum."""
    d1 = w.dim // 2
    B = int(box_radius)
    side = 2 * B + 1
    if side ** d1 * side ** d1 > 10 ** 9:
        raise CapabilityError("brute-force box too large")
    t, L = spec.t, float(spec.L)
    axes = [np.arange(-B, B + 1, dtype=float)] * d1    # |u_x . u_y| <= d1 B^2 < 2^53: exact
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d1)
    rows = max(1, (1 << 22) // len(grid))             # 2^22 (u_x, u_y) pairs a block
    vals = []
    for s in range(0, len(grid), rows):
        ix, iy = np.divmod(np.flatnonzero(grid[s:s + rows] @ grid.T == t), len(grid))
        Z = np.concatenate([grid[s + ix], grid[iy]], axis=1) / L
        vals.extend(w.eval_array(Z).tolist())
    return fsum(vals)
