"""Weight function families: evaluation, decay radii and the pieces the
counter and the singular-integral quadrature read.

Four closed families are supported (no arbitrary callables):

* ``GaussianWeight(a)``         w(z) = exp(-a*pi*|z|^2)
* ``GaussianWeight(a, shift)``  the same translated by ``shift``
* ``ProductBump(scale)``        product of 1-d bumps w0(z_i/scale), compact support
* ``AppendixExample``           F(|x|^2) g(|y|^2) with smooth bumps F, g and
                                0 not in supp g

Each family evaluates itself on (N, dim) arrays (``eval_array``; the
biradial AppendixExample also on radius pairs, ``eval_biradial``) and gives
a decay radius: the support radius for the bump families, and a bisection
on the Gaussian envelope otherwise.  ``parse_weight`` builds a weight from
its CLI spec string.  The bump families are built from ``bump_w0``, the 1-d
bump w0: ProductBump through w0(z_i / scale), and AppendixExample through
the profiles s -> w0(a s + b) that ``_profile`` builds.  The family
parameters must be finite.

The Gaussians and ProductBump factor over the coordinate pairs (x_i, y_i);
their ``pair_factors`` method samples the 1-d factors on an integer box for
the counter's pair-convolution path, and ``pair_transform`` gives the
Fourier transforms Psi_i(theta) of the pair factors for the theta side of
the singular integral (the Gaussians in closed form, the bump as the
cosine transform of its pair density).  The Gaussians also integrate
themselves in closed form over the affine fibres of the singular-integral
quadrature (``fiber_integral``).  AppendixExample declares a
``block_support`` (rx, ry), outside of which it vanishes, so that the
counter's fibre path enumerates only that block.  ``support_box`` gives the
bump families' per-coordinate box of support, on which coarea_check's
tensor rule runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ArgumentError


def bump_w0(x):
    """The C0-infinity bump w0(x) = exp(1/(x^2-1)) on (-1, 1), 0 outside."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    out[inside] = np.exp(1.0 / (xi * xi - 1.0))
    return out if out.ndim else float(out)


def _profile(a: float, b: float):
    """The profile s -> w0(a s + b)."""
    def f(s):
        return bump_w0(a * np.asarray(s, float) + b)
    return f


def pair_model(theta, c: float) -> np.ndarray:
    """(c^2 + theta^2)^{-1/2} on complex theta (principal branch): the pair
    transform of exp(-c pi (x^2 + y^2)), and the per-pair factor of the
    large-theta model w(0) (c^2 + theta^2)^{-d1/2} of a pair-factor weight."""
    theta = np.asarray(theta, dtype=complex)
    return 1.0 / np.sqrt(c * c + theta * theta)    # a quarter of the cost of ** -0.5


class WeightFunction:
    """Base class; subclasses implement the family-specific pieces."""

    dim: int
    # w depends on (|x|, |y|) only; such a weight has fiber_integral or
    # eval_biradial(rx, ry) for the singular-integral quadrature
    is_biradial = False
    support_radius: float | None = None   # None = unbounded support
    # (rx, ry) with w(x, y) = 0 unless |x| <= rx and |y| <= ry; None = no such block
    block_support: tuple | None = None
    # a weight that factors over the pairs (x_i, y_i) may give the Fourier
    # transforms Psi_i(theta) = int int w_i(x, y) e(theta x y) dx dy of its
    # pair factors (``pair_transform``) and the scale c of the model
    # w(0) (c^2 + theta^2)^{-d1/2} of their product at large |theta|
    transform_scale: float | None = None

    # -- evaluation ---------------------------------------------------------

    def eval_array(self, Z: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an (N, dim) array."""
        raise NotImplementedError

    def support_box(self) -> list | None:
        """Half-widths h_j with w(z) = 0 unless |z_j| <= h_j for every j, from
        the block_support; None if the weight declares no such box."""
        if self.block_support is None:
            return None
        rx, ry = self.block_support
        return [rx] * (self.dim // 2) + [ry] * (self.dim // 2)

    # -- decay --------------------------------------------------------------

    def decay_radius(self, eps: float, n: int = 0) -> float:
        """R with sup_{|z| >= R} |w(z)| |z|^n <= eps."""
        if not eps > 0:
            raise ArgumentError("eps must be positive")
        if self.support_radius is not None:
            return self.support_radius
        return self._decay_radius_unbounded(float(eps), int(n))

    def _decay_radius_unbounded(self, eps: float, n: int) -> float:
        raise NotImplementedError


@dataclass
class PairFactors:
    """A weight that factors over the pairs (x_i, y_i), sampled on a box.

    For integer u = (x, y) with |u|_inf <= B,
    w(u/L) = prod_i g[i, x_i + B] * h[i, y_i + B].
    """

    g: np.ndarray      # (d1, 2B+1): factor of x_i at x_i = -B..B
    h: np.ndarray      # (d1, 2B+1): factor of y_i at y_i = -B..B
    tail: float        # upper bound on sum of w(u/L) over u in Z^d outside the box

    @property
    def B(self) -> int:
        return (self.g.shape[1] - 1) // 2


@dataclass
class GaussianWeight(WeightFunction):
    """exp(-a*pi*|z - shift|^2); isotropic when shift = 0."""

    a: float
    dim: int
    shift: np.ndarray | None = None

    def __post_init__(self):
        if not 0 < self.a < math.inf:
            raise ArgumentError("Gaussian scale a must be finite and > 0")
        if self.shift is not None:
            self.shift = np.asarray(self.shift, dtype=float)
            if self.shift.shape != (self.dim,):
                raise ArgumentError("shift length != dim")
            if not np.all(np.isfinite(self.shift)):
                raise ArgumentError("shift must be finite")
            if not np.any(self.shift):
                self.shift = None

    @property
    def is_biradial(self):
        return self.shift is None

    @property
    def _c(self) -> float:
        return 0.0 if self.shift is None else float(np.linalg.norm(self.shift))

    def eval_array(self, Z):
        U = Z if self.shift is None else Z - self.shift
        return np.exp(-self.a * math.pi * np.sum(U * U, axis=-1))

    def _decay_radius_unbounded(self, eps, n):
        a, c = self.a, self._c
        # envelope in u = |z - shift|: e^{-a pi u^2} (u + c)^n, monotone past its peak
        def env(u):
            return math.exp(-a * math.pi * u * u) * (u + c) ** n
        peak = math.sqrt(n / (2 * a * math.pi)) if n else 0.0
        hi = max(peak, 1.0)
        while env(hi) > eps:
            hi *= 2.0
        lo = peak
        # once the bracket stops moving every further halving repeats the
        # same step, so stopping there returns what 200 halvings return
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            bracket = (mid, hi) if env(mid) > eps else (lo, mid)
            if bracket == (lo, hi):
                break
            lo, hi = bracket
        return hi + c

    def pair_factors(self, L: float, R: float) -> PairFactors:
        """Per-coordinate factors of w(u/L) on the box |u_j| <= ceil(R L).

        The tail sums the full-lattice mass with one coordinate past the
        box and the others unrestricted (a union bound that ignores the
        quadric).  Past the box each 1-d factor decreases, because
        B/L >= R >= |shift_j|, so its sum is at most the erfc integral;
        over all of Z it is at most 1 + L/sqrt(a).
        """
        s = np.zeros(self.dim) if self.shift is None else self.shift
        if R < self._c:
            raise ArgumentError(f"box radius {R} < |shift| = {self._c}")
        B = math.ceil(R * L)
        u = np.arange(-B, B + 1) / L
        F = np.exp(-self.a * math.pi * (u[None, :] - s[:, None]) ** 2)
        k, half = math.sqrt(self.a * math.pi), L / (2.0 * math.sqrt(self.a))
        outside = math.fsum(half * (math.erfc(k * (B / L - sj)) + math.erfc(k * (B / L + sj)))
                            for sj in s)
        theta = 1.0 + L / math.sqrt(self.a)
        d1 = self.dim // 2
        return PairFactors(F[:d1], F[d1:], outside * theta ** (self.dim - 1))

    @property
    def transform_scale(self) -> float:
        return self.a

    def pair_transform(self, theta) -> np.ndarray:
        """Psi_i(theta) for each pair i, shape (d1, len(theta)), in closed form:

            (a^2 + theta^2)^{-1/2}
              exp(pi a^2 (a |s_i|^2 + 2 i theta s_xi s_yi) / (a^2 + theta^2) - pi a |s_i|^2)

        with s_i = (s_xi, s_yi) the shift of pair i.  It continues
        analytically to complex theta off the points +-ia.  Without a shift
        every row is ``pair_model(theta, a)`` itself, so the product is the
        large-theta model exactly.
        """
        d1 = self.dim // 2
        theta = np.asarray(theta, dtype=complex)
        m = pair_model(theta, self.a)
        if self.shift is None:
            return np.broadcast_to(m, (d1,) + m.shape)
        sx, sy = self.shift[:d1, None], self.shift[d1:, None]
        n2 = sx * sx + sy * sy
        a = self.a
        return m * np.exp(math.pi * a * a * (a * n2 + 2j * theta * sx * sy)
                          / (a * a + theta * theta) - math.pi * a * n2)

    def remainder_bound(self, Y: float) -> float:
        """B with |prod_i Psi_i(theta) - w(0) (a^2 + theta^2)^{-d1/2}|
        <= B |theta|^{-d1-1} for every complex theta with |theta| >= Y >= 2a.

        With q = a^2 + theta^2 the difference is w(0) q^{-d1/2} (e^X - 1),
        X = pi a^2 (a |s|^2 + 2 i theta s_x.s_y) / q.  For |theta| >= Y >= 2a,
        |q| >= 3 |theta|^2 / 4, so |X| <= K / |theta| with
        K = (4/3) pi a^2 (a |s|^2 / Y + 2 |s_x.s_y|), and |e^X - 1| <= |X| e^|X|.
        """
        a, d1 = self.a, self.dim // 2
        if not Y >= 2 * a:
            raise ArgumentError(f"remainder bound needs Y >= 2a, got Y = {Y}")
        s = np.zeros(self.dim) if self.shift is None else self.shift
        n2, sig = float(s @ s), abs(float(s[:d1] @ s[d1:]))
        K = 4.0 / 3.0 * math.pi * a * a * (a * n2 / Y + 2.0 * sig)
        return math.exp(-math.pi * a * n2) * (4.0 / 3.0) ** (d1 / 2.0) * K * math.exp(K / Y)

    def fiber_integral(self, r, thetas, t: float, swap: bool) -> np.ndarray:
        """Exact integral of w over the fibres of the projection quadrature.

        Entry (i, j) integrates w(r_i theta_j, v) (swap: w(v, r_i theta_j))
        over v in the affine plane theta_j^perp + (t / r_i) theta_j.  The
        Gaussian factors over the plane: its in-plane part integrates to
        a^{-(d1-1)/2}, leaving

            exp(-a pi (|r theta - s_near|^2 + (t/r - theta . s_far)^2)),

        where s_near and s_far are the shift blocks of the projected and
        the fibre coordinates.
        """
        d1 = self.dim // 2
        r = np.asarray(r, dtype=float)
        thetas = np.asarray(thetas, dtype=float)
        s = np.zeros(self.dim) if self.shift is None else self.shift
        s_near, s_far = (s[d1:], s[:d1]) if swap else (s[:d1], s[d1:])
        near = r[:, None, None] * thetas[None, :, :] - s_near
        along = (t / r)[:, None] - (thetas @ s_far)[None, :]
        exponent = np.sum(near * near, axis=-1) + along * along
        return np.exp(-self.a * math.pi * exponent) * self.a ** (-(d1 - 1) / 2.0)


@dataclass
class ProductBump(WeightFunction):
    """Product of 1-d bumps: w(z) = prod_i w0(z_i / scale); support |z_i| < scale."""

    scale: float
    dim: int

    def __post_init__(self):
        if not 0 < self.scale < math.inf:
            raise ArgumentError("scale must be finite and > 0")
        self.support_radius = self.scale * math.sqrt(self.dim)

    def eval_array(self, Z):
        return np.prod(bump_w0(np.asarray(Z, float) / self.scale), axis=-1)

    def support_box(self):
        return [self.scale] * self.dim

    def pair_factors(self, L: float, R: float) -> PairFactors:
        """Per-coordinate factors of w(u/L) on the box |u_j| <= ceil(scale L).

        The box holds the whole support, so nothing is dropped: the tail
        is 0 and the truncation radius R is not needed.
        """
        B = math.ceil(self.scale * L)
        f = bump_w0(np.arange(-B, B + 1) / L / self.scale)
        F = np.broadcast_to(f, (self.dim // 2, f.size))
        return PairFactors(F, F, 0.0)

    @property
    def transform_scale(self) -> float:
        # the pair transform's large-theta expansion in odd powers of 1/theta
        # agrees with that of exp(-2) (c^2 + theta^2)^{-1/2} through theta^-9
        # (w0's even Taylor coefficients 1, -1, -1/2, -1/6, 1/24 square to
        # 1/k!^2), so the model leaves a remainder below 2e-11 at
        # scale^2 theta = 16, checked against a 2-d rule in the tests
        return 1.0 / (math.pi * self.scale ** 2)

    @property
    def transform_reach(self) -> float:
        """The |theta| up to which pair_transform is resolved; past it the
        pair transform differs from the model's pair factor by less than
        2e-15 (measured)."""
        return _BUMP_REACH / self.scale ** 2

    def pair_transform(self, theta) -> np.ndarray:
        """Psi(theta), the same for every pair, shape (d1, len(theta)), for
        real |theta| <= transform_reach: scale^2 Psi_1(scale^2 theta), with
        Psi_1 the cosine transform 2 int_0^1 g(s) cos(2 pi theta s) ds of the
        pair density g(s) = 2 int_s^1 w0(x) w0(s/x) dx/x of x y (g is even,
        supported in [-1, 1] and log-singular at 0)."""
        s, wg = _bump_pair_density()
        u = np.asarray(theta, dtype=float) * self.scale ** 2
        psi = 2.0 * self.scale ** 2 * (np.cos(2.0 * math.pi * np.outer(u, s)) @ wg)
        return np.broadcast_to(psi, (self.dim // 2,) + psi.shape)


_BUMP_REACH = 32.0


@lru_cache(maxsize=1)
def _bump_pair_density():
    """Nodes s on (0, 1) and weights times g(s) for Psi_1 up to _BUMP_REACH.

    The s panels are geometric toward the log singularity at 0 (down to
    s ~ 1e-21, below which g contributes under 1e-19), then narrow enough
    for cos(2 pi _BUMP_REACH s), graded toward the flat end at 1.  Each
    g(s) is 2 int_{-L}^0 w0(e^u) w0(s e^-u) du, L = -log s, on 16-point
    Gauss-Legendre panels in u graded geometrically toward both ends, where
    the factors flatten out, with at most unit panels in between; the s
    nodes with the same number of panels are done at once.
    """
    from numpy.polynomial.legendre import leggauss   # loaded only when needed
    x, wt = leggauss(16)

    def panels(edges):          # nodes and weights on each row of edges
        lo, hi = edges[..., :-1], edges[..., 1:]
        return 0.5 * (hi + lo)[..., None] + 0.5 * (hi - lo)[..., None] * x, \
            0.5 * (hi - lo)[..., None] * wt

    s1 = 1.0 / _BUMP_REACH
    uni = np.linspace(s1, 1.0, math.ceil((1.0 - s1) * _BUMP_REACH) + 1)
    s, ws = (a.ravel() for a in panels(np.concatenate([
        s1 * 4.0 ** -np.arange(32, 0, -1), uni[:-1],
        1.0 - (1.0 - uni[-2]) * 2.0 ** -np.arange(1, 7), [1.0]])))
    L = -np.log(s)
    inner = np.maximum(1, np.ceil(L - 2.0)).astype(int)
    grade = 2.0 ** -np.arange(7)                 # 1 .. 1/64
    g = np.empty_like(s)
    for k in sorted(set(inner.tolist())):
        i = inner == k
        Lk = L[i, None]
        h = np.minimum(1.0, 0.5 * Lk)
        edges = np.concatenate([-Lk, h * grade[::-1] - Lk,
                                h - Lk + (Lk - 2 * h) * np.linspace(0, 1, k + 1)[1:-1],
                                -h * grade, np.zeros_like(Lk)], axis=1)
        u, wu = panels(edges)
        f = bump_w0(np.exp(u)) * bump_w0(s[i, None, None] * np.exp(-u))
        g[i] = 2.0 * np.sum(wu * f, axis=(1, 2))
    return s, ws * g


# radial-x profile in s = |x|^2, supported on (-1/2, 1/2)
_F = _profile(2.0, 0.0)
# radial-y profile in s = |y|^2, supported on (1/4, 1/2): 0 not in supp g
_G = _profile(8.0, -3.0)


@dataclass
class AppendixExample(WeightFunction):
    """F(|x|^2) g(|y|^2) with F, g smooth bumps supported in [-1/2, 1/2].

    The default profile keeps 0 out of supp g; the fiber integral of g'
    then telescopes to -pi g(0) = 0 at the apex and the level-set
    integral I(t) stays smooth through t = 0.  The ``generic`` variant
    takes g = F (so g(0) > 0), the cancellation is lost, and the
    (d1-1)-st derivative of I picks up a log(1/|t|) singularity at 0.
    """

    dim: int
    generic: bool = False
    is_biradial = True
    # F(|x|^2) and g(|y|^2) vanish unless |x|^2 < 1/2 and |y|^2 < 1/2
    block_support = (math.sqrt(0.5), math.sqrt(0.5))

    def __post_init__(self):
        if self.dim % 2:
            raise ArgumentError("dim must be even")
        self.support_radius = 1.0
        self._g = _F if self.generic else _G

    @property
    def d1(self):
        return self.dim // 2

    def eval_array(self, Z):
        Z = np.asarray(Z, float)
        x, y = Z[..., : self.d1], Z[..., self.d1 :]
        return _F(np.sum(x * x, axis=-1)) * self._g(np.sum(y * y, axis=-1))

    def eval_biradial(self, rx, ry):
        rx, ry = np.asarray(rx, float), np.asarray(ry, float)
        return _F(rx * rx) * self._g(ry * ry)


def parse_weight(spec: str, dim: int) -> WeightFunction:
    """Parse the CLI weight grammar.

    ``gaussian:a=<float>``, ``gaussian:a=<float>:shift=<v1,...,vd>``,
    ``bump:scale=<float>``, ``appendix-example[:variant=paper|generic]``.
    """
    if dim < 2 or dim % 2:
        raise ArgumentError(f"dimension {dim} must be even and >= 2")
    parts = spec.strip().split(":")
    head = parts[0]
    kv = {}
    for p in parts[1:]:
        if "=" not in p:
            raise ArgumentError(f"bad weight spec fragment {p!r}")
        k, v = p.split("=", 1)
        kv[k] = v
    try:
        if head == "gaussian":
            a = float(kv.pop("a"))
            shift = None
            if "shift" in kv:
                shift = np.array([float(s) for s in kv.pop("shift").split(",")])
            if kv:
                raise ArgumentError(f"unknown keys {sorted(kv)} in weight spec")
            return GaussianWeight(a, dim, shift)
        if head == "bump":
            scale = float(kv.pop("scale"))
            if kv:
                raise ArgumentError(f"unknown keys {sorted(kv)} in weight spec")
            return ProductBump(scale, dim)
        if head == "appendix-example":
            variant = kv.pop("variant", "paper")
            if kv:
                raise ArgumentError(f"unknown keys {sorted(kv)} in weight spec")
            if variant not in ("paper", "generic"):
                raise ArgumentError(f"unknown appendix-example variant {variant!r}")
            return AppendixExample(dim, generic=(variant == "generic"))
    except KeyError as e:
        raise ArgumentError(f"weight spec {spec!r} missing key {e}") from None
    raise ArgumentError(f"unknown weight family {head!r}")
