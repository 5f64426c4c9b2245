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
* Fibres, for the other weights with a bounded support that are biradial
  (AppendixExample), where R is the support radius and nothing is
  truncated.  With a block_support (rx, ry), w(x, y) = 0 unless |x| <= rx
  and |y| <= ry, u_x runs over |u_x| <= Rx = rx L and u_y over
  |u_y| <= Ry = ry L (else both radii are R L); a solution outside the
  support adds its weight there, exactly 0.  A level |t| > Rx Ry has no
  solution and counts 0 before anything else.  A biradial weight depends
  on u only through |u_x| and |u_y|, and a signed permutation applied to
  u_x and u_y together keeps both norms and u_x . u_y.  So the fibre of
  u_x has the same weight sum as that of any u_x in its orbit, and one
  admissible u_x per orbit, 0 <= x_1 <= ... <= x_d1, is solved for its
  last coordinate, its largest and positive: y_1 .. y_{d1-1} run over the
  ball of radius Ry, and y_d1 = (t - sum_{j < d1} x_j y_j) / x_d1 is kept
  when it is an integer and |u_y| <= Ry, and counted orbit-size times.
  The u_x = 0 stratum (t = 0 only) is the u_y ball of radius Ry, taken
  over the orbits of u_y likewise.  The solve runs in float64, in blocks
  of about BLOCK candidates, exact while (Rx^2 + 1)(Ry^2 + 1) < 2^53 and
  refused past it.  The weight is evaluated once per distinct
  (|u_x|^2, |u_y|^2) of a block, times its count.  tail_estimate bounds
  the rounding of the sum.  A weight with no pair_factors is refused
  unless it has a bounded support and is biradial (is_biradial with
  eval_biradial).

Both paths count their work in operations: a multiply-add of the
convolution (or a weight product of the pair grid) is one, and a fibre
candidate is d1 (its d1 - 1 multiply-adds and one division), the u_x = 0
stratum d1 per point of its whole ball.  That count is checked against the
budget before the counting starts, and reported as lattice_points_visited.
The convolution's is worked out from the inputs.  The fibre path first
checks a lower bound from ball volumes over the largest orbit size, then
the exact count read off the orbit rows once they are built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum

import numpy as np

from .errors import ArgumentError, CapabilityError
from .forms import LatticeSpec
from .weights import PairFactors, WeightFunction

DEFAULT_BUDGET = 6 * 10 ** 10      # operations (see the module docstring)
BLOCK = 1 << 16                    # fibre candidates per block
FLOAT_EXACT = 2.0 ** 53            # the integers of the fibre solve stay below this


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


def _ball_volume(n: int, r: float) -> float:
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1) * max(0.0, r) ** n


def _fibre_work_floor(d1: int, t: int, rx: float, ry: float) -> float:
    """A lower bound in O(1) on d1 (#u_x #F + #stratum): the admissible u_x
    of the rx-ball against the free (d1 - 1)-ball F of radius ry, plus the
    d1-ball of radius ry when t = 0.  The unit cubes about the points of
    Z^n with |v| <= r cover the ball of radius r - c and lie in that of
    radius r + c, c = sqrt(n)/2, so V(r - c) <= B(r) <= V(r + c).
    When t != 0 only the primitive u_x count: the g v with g >= 2 and
    0 < |v| <= rx/g, at most V(rx/g + c) for each g, are subtracted, summed
    to g = 16 and past it bounded by the integral of that decreasing term."""
    c = math.sqrt(d1) / 2
    admissible = _ball_volume(d1, rx - c) - 1
    if t and rx >= 2:
        G = min(math.floor(rx), 16)
        admissible -= sum(_ball_volume(d1, rx / g + c) for g in range(2, G + 1))
        U = rx / G                                     # rx int_1^U V(u + c) u^-2 du
        admissible -= rx * _ball_volume(d1, 1) * sum(
            math.comb(d1, k) * c ** (d1 - k) *
            (math.log(U) if k == 1 else (U ** (k - 1) - 1) / (k - 1)) for k in range(d1 + 1))
    free = _ball_volume(d1 - 1, ry - math.sqrt(d1 - 1) / 2)
    stratum = _ball_volume(d1, ry - c) if t == 0 else 0.0
    return (1 - 1e-9) * d1 * (max(0.0, admissible) * free + stratum)   # less their rounding


def _over_budget(work: float, budget: int, L: float, growth: float,
                 lower_bound: bool = False) -> CapabilityError:
    """The budget error, with the L at which work (growing as L^growth) would
    fit.  When work is only a lower bound (lower_bound), that L is an upper bound."""
    l_max = max(1, int(L * (budget / work) ** (1.0 / growth)))
    return CapabilityError(f"work budget {budget} exceeded; largest feasible L "
                           f"{'below about' if lower_bound else 'about'} {l_max}")


def enumerate_N_L(w: WeightFunction, spec: LatticeSpec, eps: float,
                  budget: int = DEFAULT_BUDGET) -> CountResult:
    """Sum w(u/L) over integer solutions of u_x . u_y = t, truncated at radius R L.

    Weights with a ``pair_factors`` method take the pair-convolution path;
    the others need a bounded support and a biradial form, and are
    enumerated fibre by fibre.
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
    if not (w.is_biradial and hasattr(w, "eval_biradial")):
        raise CapabilityError(f"{type(w).__name__} has neither pair factors nor a "
                              "biradial form (is_biradial with eval_biradial), so no "
                              "counter path takes it")
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
    """Sum w(u/L) over the solutions of _fibre_solutions, w biradial with
    support radius R: one u_x per signed-permutation orbit, each solution
    counted orbit-size times.  The budget (d1 operations per candidate) is
    checked against a lower bound before any ball is built, and exactly
    before any fibre is solved."""
    d1 = w.dim // 2
    rx, ry = w.block_support or (R, R)
    Rx, Ry = rx * L, ry * L
    if abs(t) > Rx * Ry:                               # |u_x . u_y| <= Rx Ry: no solution
        return CountResult(0.0, 0, R, 0.0)
    # an orbit has at most 2^d1 d1! members, so the floor over that bounds the orbit work
    floor = _fibre_work_floor(d1, t, Rx, Ry) / (2 ** d1 * math.factorial(d1))
    if floor > budget:
        raise _over_budget(floor, budget, L, w.dim - 1, lower_bound=True)
    # bounds each integer of the float solve (|S| <= 2 Rx Ry) and tally key
    if (Rx * Rx + 1) * (Ry * Ry + 1) >= FLOAT_EXACT:
        raise CapabilityError(f"L = {L:g} takes the fibre solve past 2^53, where "
                              "float64 no longer holds its integers exactly")
    visited, rows = _fibre_rows(d1, t, Rx, Ry)
    if visited > budget:
        raise _over_budget(visited, budget, L, w.dim - 1)
    ny = math.floor(Ry * Ry) + 1                       # |u_y|^2 < ny
    terms, points = [], 0
    for a, b, n in _fibre_solutions(t, *rows, Ry):
        points += int(np.sum(n))
        a, b, count = _tally(a, b, n, ny)              # w once per distinct (|u_x|^2, |u_y|^2)
        terms.append(fsum((count * w.eval_biradial(np.sqrt(a) / L, np.sqrt(b) / L)).tolist()))
    value = fsum(terms)
    # the sum adds n = points terms w >= 0, rounding at most n - 1 times, so the
    # error is at most gamma_n sum w <= n u value / (1 - 2 n u), u = 2^-53 (Higham ch. 4)
    nu = points * 2.0 ** -53
    return CountResult(value, visited, R, nu * value / (1 - 2 * nu))


def _fibre_rows(d1: int, t: int, Rx: float, Ry: float):
    """The work of the fibre solve and its inputs (UX, mult, F, stratum).

    UX holds the admissible orbit rows u_x (nonzero, gcd dividing t) of
    radius Rx and mult their orbit sizes, F the free coordinates of u_y (the
    whole (d1 - 1)-ball of radius Ry) and stratum the orbit rows of u_y of
    radius Ry with their sizes when t = 0, else None.  The work is d1
    operations per candidate (a row of UX against a row of F) and per point
    of the whole stratum.
    """
    UX, mult = _orbit_rows(d1, Rx)
    UX, mult = UX[1:], mult[1:]                        # the zero row comes first
    keep = t % np.gcd.reduce(UX, axis=1) == 0
    F = _ball_points(d1 - 1, Ry)
    stratum = _orbit_rows(d1, Ry) if t == 0 else None
    work = d1 * (int(np.sum(keep)) * len(F) + (int(np.sum(stratum[1])) if t == 0 else 0))
    return work, (UX[keep], mult[keep], F, stratum)


def _orbit_rows(d: int, radius: float):
    """One vector per orbit of the signed permutations of Z^d in the ball
    |v| <= radius, with the orbit's size.

    The rows are 0 <= v_1 <= ... <= v_d in lexicographic order (the zero row
    first), built coordinate by coordinate: v_j runs from v_{j-1} to the
    largest x with |v_1..v_{j-1}|^2 + (d - j + 1) x^2 <= radius^2, so every
    prefix completes.  The orbit of v has 2^(#nonzero) d! / prod(m!) members,
    m the multiplicities of its distinct values.
    """
    N = math.floor(radius * radius)
    V = np.zeros((1, 0), dtype=np.int64)
    s = np.zeros(1, dtype=np.int64)                    # |v|^2 of each prefix
    lo = np.zeros(1, dtype=np.int64)                   # its last coordinate
    for j in range(d):
        hi = _isqrt((N - s) // (d - j))
        n = hi - lo + 1                                # >= 1: x = lo fits
        parent = np.repeat(np.arange(len(V)), n)
        lo = lo[parent] + np.arange(len(parent)) - np.repeat(np.cumsum(n) - n, n)
        V = np.concatenate([V[parent], lo[:, None]], axis=1)
        s = s[parent] + lo * lo
    run = np.ones(len(V), dtype=np.int64)              # place of v_j in its run of equals
    den = np.ones(len(V), dtype=np.int64)              # prod(m!) = prod of those places
    for j in range(1, d):
        run = np.where(V[:, j] == V[:, j - 1], run + 1, 1)
        den *= run
    size = (2 ** np.count_nonzero(V, axis=1)) * math.factorial(d) // den
    return V, size.astype(float)


def _isqrt(n: np.ndarray) -> np.ndarray:
    """floor(sqrt(n)) for an int64 array n >= 0 below 2^52."""
    r = np.floor(np.sqrt(n)).astype(np.int64)
    r -= r * r > n
    return r + ((r + 1) * (r + 1) <= n)


def _tally(a: np.ndarray, b: np.ndarray, n: np.ndarray, ny: int):
    """The distinct pairs (a, b), 0 <= b < ny, and the summed multiplicity n of each."""
    key, inverse = np.unique(a * ny + b, return_inverse=True)
    return *np.divmod(key, ny), np.bincount(inverse, weights=n, minlength=len(key))


def _fibre_solutions(t: int, UX: np.ndarray, mult: np.ndarray, F: np.ndarray, stratum,
                     Ry: float):
    """Yield blocks (|u_x|^2, |u_y|^2, m) of the solutions u of u_x . u_y = t
    with u_x a row of UX, the d1 - 1 free coordinates of u_y a row of F (the
    ball of radius Ry) and |u_y| <= Ry; m holds the multiplicity (mult) of
    each solution's u_x row.  The u_x = 0 stratum (rows, mult) of u_y, None
    unless t = 0, comes first, with the stratum's multiplicities.

    Each u_x is an orbit row 0 <= x_1 <= ... <= x_d1, nonzero, so its last
    coordinate is its largest and positive, and u_x is solved for y_d1: the
    free coordinates are y_1 .. y_{d1-1}.  S and the squared norms are
    integers below 2^53 (the caller's guard), so exact in float64.
    y_d1 = S / x_d1 is exact when x_d1 | S; else it lies 1/x_d1 or more from
    an integer, beyond its rounding error |S| 2^-53 / x_d1.
    """
    if stratum is not None:
        uy = stratum[0].astype(float)
        yield np.zeros(len(uy)), np.sum(uy * uy, axis=1), stratum[1]
    UX = UX.astype(float)
    F = F.astype(float)
    FA = np.concatenate([-F.T, np.full((1, len(F)), float(t))])   # S = [x_free, 1] @ FA
    sF = np.sum(F * F, axis=1)
    y_room = Ry * Ry - sF                              # y_d1^2 <= y_room
    XA = UX.copy()
    XA[:, -1] = 1.0                                    # [x_1 .. x_{d1-1}, 1]
    sX = np.sum(UX * UX, axis=1)
    rows = max(1, min(len(UX), BLOCK // len(F)))
    Y, Z = np.empty((2, rows, len(F)))                 # block buffers, reused
    ok, fits = np.empty((2, rows, len(F)), dtype=bool)
    for s in range(0, len(UX), rows):
        n = min(rows, len(UX) - s)
        y, z, o = Y[:n], Z[:n], ok[:n]
        np.matmul(XA[s:s + n], FA, out=y)
        y /= UX[s:s + n, -1:]
        np.equal(np.floor(y, out=z), y, out=o)
        z *= z
        o &= np.less_equal(z, y_room, out=fits[:n])
        i, j = np.divmod(np.flatnonzero(o), len(F))
        yk = y[i, j]
        yield sX[s + i], sF[j] + yk * yk, mult[s + i]


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
