"""Quadrature of the level-set integral I(t; w) over the quadric x.y = t.

One route, _level_value, gives I(t) to sigma_infty, build_i_grid,
i_derivative_fd and coarea_check.  A weight with a bounded support has
I(t) = 0 exactly once |t| >= support_radius^2 / 2, since
|x.y| <= |z|^2 / 2; that comes before any quadrature.  Otherwise:

* a weight that factors over the pairs (x_i, y_i) and gives their Fourier
  transforms Psi_i (``pair_transform``: the Gaussians, ProductBump) takes
  the theta side (i_theta),

      I(t; w) = int prod_i Psi_i(theta) e(-theta t) dtheta,

  with the large-theta model w(0) (c^2 + theta^2)^{-d1/2} integrated in
  closed form and the remainder on a fixed Gauss-Legendre rule, for any
  d1 >= 2.  For the Gaussians the tail past the rule has a certified
  bound; for ProductBump it is estimated;
* any other weight (AppendixExample) takes the x-projection below on the
  weight's default rule.

The projections serve that one family and stay the independent oracle of
the theta side.  The measure |z|^{-1} d(surface) on the quadric
disintegrates through the projection (x, y) -> x into affine fibers
x^perp + t x/|x|^2 with plain Lebesgue fiber measure, giving

    I(t; w) = int_{R^{d1}} |x|^{-1} dx int_{x^perp} w(x, u + t x/|x|^2) du
            = int r^{d1-2} dr int_{sphere} dtheta int_{theta^perp} w(...) du.

Every weight takes the one product rule of _i_projection,

    I(t; w) ~ sum_ij wr_i r_i^{d1-2} F[i, j] wtheta_j,

with Gauss-Legendre radial panels (r_i, wr_i) on (0, r_max), sphere nodes
(theta_j, wtheta_j) and F[i, j] the integral of w over the fibre at
r_i theta_j.  A biradial weight, one that depends only on (|x|, |y|), has
the same fibre integral in every direction: it takes a denser radial rule
and the single direction e1 weighted by the sphere's area, so it needs no
sphere rule and serves every d1.  F has two sources:

* closed form: a weight with a ``fiber_integral`` method (the Gaussians)
  returns the exact fibre integrals;
* quadrature (_fibre_rule): a biradial weight (AppendixExample) takes a
  rule over the fibre radius rho in (0, r_max).

A weight with neither is refused with a CapabilityError.  The mirror
disintegration through (x, y) -> y gives an independent evaluation of the
same number.

sigma_infty(w, m) is I(m; w): for the split form the measure density
|A z|^{-1} equals |z|^{-1}, so the leading-term integral and I coincide.
QuadratureConfig tunes only the projections that i_x_projection and
i_y_projection are asked for; the route takes each weight's default rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from math import fsum

import numpy as np

from . import delta_kernel
from .errors import AccuracyError, ArgumentError, CapabilityError
from .weights import WeightFunction, pair_model


@dataclass(frozen=True)
class QuadratureConfig:
    radial_panels: int = 8
    radial_order: int = 20
    angular_order: int = 12    # polar nodes; azimuth uses 2x
    plane_order: int = 32      # fibre-radius nodes per panel
    r_min: float = 1e-6        # the apex panel [0, r_min] comes first
    r_max: float = 4.0         # radial and fibre rules on (0, r_max)

    def __post_init__(self):
        if not (self.r_min > 0 and self.r_max > self.r_min):
            raise ArgumentError("need 0 < r_min < r_max")
        if min(self.radial_order, self.angular_order, self.plane_order) < 4:
            raise ArgumentError("all quadrature orders must be >= 4")

    def refined(self) -> "QuadratureConfig":
        return replace(self, radial_panels=self.radial_panels + 2,
                       radial_order=int(self.radial_order * 1.5),
                       angular_order=int(self.angular_order * 1.5),
                       plane_order=int(self.plane_order * 1.5))


def default_config(w: WeightFunction) -> QuadratureConfig:
    R = w.decay_radius(1e-12, 0) + 0.5
    return QuadratureConfig(r_max=max(2.0, R), r_min=1e-6 * max(2.0, R))


@dataclass
class IFunctionGrid:
    """Sampled values of t -> I(t; w) on a sorted grid."""

    t_values: np.ndarray
    I_values: np.ndarray

    def __post_init__(self):
        self.t_values = np.asarray(self.t_values, dtype=float)
        self.I_values = np.asarray(self.I_values, dtype=float)
        if self.t_values.shape != self.I_values.shape or self.t_values.ndim != 1:
            raise ArgumentError("t and I grids must be matching 1-d arrays")
        if not np.all(np.isfinite(self.I_values)):
            raise ArgumentError("I grid contains non-finite values")
        if np.any(np.diff(self.t_values) <= 0):
            raise ArgumentError("t grid must be strictly increasing")


@lru_cache(maxsize=None)
def _gl(order: int):
    # cached: leggauss solves an eigenproblem on every call; callers never
    # write into the arrays
    return np.polynomial.legendre.leggauss(order)


def _panel_nodes(edges: np.ndarray, order: int):
    """Gauss-Legendre nodes and weights of the given order on each panel
    between consecutive edges, panel after panel."""
    x, wt = _gl(order)
    e = np.asarray(edges, dtype=float)
    mid, half = 0.5 * (e[:-1] + e[1:]), 0.5 * (e[1:] - e[:-1])
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * wt).ravel()


def _radial_nodes(cfg: QuadratureConfig, dense: bool = False):
    # one panel [0, r_min] at the apex, geometric panels on to 0.05 r_max,
    # linear panels over the bulk
    split = 0.05 * cfg.r_max
    geom = np.geomspace(cfg.r_min, split, 21 if dense else 5)
    lin = np.linspace(split, cfg.r_max,
                      (6 * cfg.radial_panels if dense else cfg.radial_panels) + 1)
    return _panel_nodes(np.concatenate([[0.0], geom, lin[1:]]), cfg.radial_order)


def _sphere_nodes(d1: int, cfg: QuadratureConfig):
    if d1 == 2:
        n = 4 * cfg.angular_order
        phi = 2.0 * math.pi * (np.arange(n) + 0.5) / n
        thetas = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        return thetas, np.full(n, 2.0 * math.pi / n)
    if d1 == 3:
        mu, wmu = _gl(cfg.angular_order)
        nphi = 2 * cfg.angular_order
        phi = 2.0 * math.pi * (np.arange(nphi) + 0.5) / nphi
        smu = np.sqrt(1.0 - mu ** 2)
        thetas = np.stack([
            np.repeat(mu, nphi),
            np.repeat(smu, nphi) * np.tile(np.cos(phi), len(mu)),
            np.repeat(smu, nphi) * np.tile(np.sin(phi), len(mu)),
        ], axis=1)
        weights = np.repeat(wmu, nphi) * (2.0 * math.pi / nphi)
        return thetas, weights
    raise CapabilityError(f"angular rules implemented for d1 in {{2, 3}}, got {d1}")


def _sphere_area(n: int) -> float:
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _fibre_rule(w: WeightFunction, cfg: QuadratureConfig, r: np.ndarray,
                thetas: np.ndarray, t: float, swap: bool) -> np.ndarray:
    """Fibre integrals of a biradial weight by a rule over the fibre radius
    rho, the same in every direction, laid out as ``fiber_integral``'s."""
    d1 = w.dim // 2
    rho, wrho = _panel_nodes(np.linspace(0.0, cfg.r_max, 33), cfg.plane_order)
    RR, PP = np.meshgrid(r, rho, indexing="ij")
    r_far = np.sqrt(PP ** 2 + (t / RR) ** 2)     # radius in the fibre block
    vals = w.eval_biradial(r_far, RR) if swap else w.eval_biradial(RR, r_far)
    inner = _sphere_area(d1 - 1) * (vals * PP ** (d1 - 2)) @ wrho
    return np.broadcast_to(inner[:, None], (len(r), len(thetas)))


def _level(w: WeightFunction, t: float) -> float:
    """t as a float, or an ArgumentError unless d1 >= 2 and t is finite."""
    if w.dim < 4:
        raise ArgumentError(f"I(t) needs d1 >= 2, got d1 = {w.dim // 2}")
    t = float(t)
    if not math.isfinite(t):
        raise ArgumentError(f"level t must be finite, got {t}")
    return t


def _i_projection(w: WeightFunction, t: float, cfg: QuadratureConfig | None,
                  swap: bool) -> float:
    """I(t; w) through the x-projection (swap: the y-projection)."""
    t = _level(w, t)
    closed = hasattr(w, "fiber_integral")
    if not (closed or (w.is_biradial and hasattr(w, "eval_biradial"))):
        raise CapabilityError(f"{type(w).__name__} has neither closed-form fibre integrals "
                              "(fiber_integral) nor a biradial form (is_biradial with "
                              "eval_biradial), so no projection rule takes it")
    cfg = cfg or default_config(w)
    d1 = w.dim // 2
    if w.is_biradial:
        # the fibre integral is the same in every direction: one direction
        # carries the whole sphere, so every d1 is served
        r, wr = _radial_nodes(cfg, dense=True)
        thetas, wth = np.eye(d1)[:1], np.array([_sphere_area(d1)])
    else:
        r, wr = _radial_nodes(cfg)
        thetas, wth = _sphere_nodes(d1, cfg)
    if closed:
        F = w.fiber_integral(r, thetas, t, swap)             # (nr, n_theta)
    else:
        F = _fibre_rule(w, cfg, r, thetas, t, swap)
    return float((wr * r ** (d1 - 2)) @ F @ wth)


def i_x_projection(w: WeightFunction, t: float, cfg: QuadratureConfig | None = None) -> float:
    """I(t; w) through the x-projection disintegration."""
    return _i_projection(w, t, cfg, swap=False)


def i_y_projection(w: WeightFunction, t: float, cfg: QuadratureConfig | None = None) -> float:
    """I(t; w) through the mirror y-projection disintegration."""
    return _i_projection(w, t, cfg, swap=True)


def _model_transform(d1: int, c: float, t: float) -> tuple[float, float]:
    """int (c^2 + theta^2)^{-d1/2} e(-theta t) dtheta in closed form, and a
    bound on its rounding error.

    Basset's integral gives 2 sqrt(pi) / Gamma(d1/2) (pi |t| / c)^nu
    K_nu(2 pi c |t|) with nu = (d1 - 1)/2, that is
    2 sqrt(pi) / Gamma(d1/2) (2 c^2)^{-nu} x^nu K_nu(x) at x = 2 pi c |t|,
    and its limit sqrt(pi) Gamma(nu) / Gamma(d1/2) c^{1-d1} at t = 0.
    e^x x^nu K_nu(x) = int_0^inf exp(-2x sinh^2(u/2)) x^nu cosh(nu u) du
    comes from the trapezoid rule, which converges geometrically for this
    integrand (analytic in a strip); the step resolves the peak's width
    1/sqrt(x), and the sum stops where the integrand underflows.  Its
    rounding grows with the exponents, x and nu |log x|.
    """
    nu = 0.5 * (d1 - 1)
    if t == 0:
        value = math.sqrt(math.pi) * math.gamma(nu) / math.gamma(0.5 * d1) * c ** (1 - d1)
        return value, 2.0 ** -52 * 8.0 * value
    x = 2.0 * math.pi * c * abs(t)
    h = min(0.125, 0.5 / math.sqrt(x))
    # acosh(1 + 745/x), which overflows for x below about 1e-306
    U = math.log(1490.0 / x) if x < 1e-3 else math.acosh(1.0 + 745.0 / x)
    u = np.arange(0.0, U + h, h)
    # x^nu cosh(nu u) in the exponent, so that neither factor overflows
    f = np.exp(-2.0 * x * np.sinh(0.5 * u) ** 2 + nu * (u + math.log(x))
               + np.log1p(np.exp(-2.0 * nu * u)) - math.log(2.0))
    k = h * (float(np.sum(f)) - 0.5 * float(f[0]))
    value = 2.0 * math.sqrt(math.pi) / math.gamma(0.5 * d1) * (2.0 * c * c) ** -nu \
        * k * math.exp(-x)
    return value, 2.0 ** -52 * (8.0 + x + nu * abs(math.log(x))) * value


def i_theta(w: WeightFunction, t: float, refined: bool = False) -> tuple[float, float]:
    """I(t; w) as the Fourier integral int prod_i Psi_i(theta) e(-theta t)
    dtheta of a pair-factor weight, and a bound on the error.

    The product is w(0) |theta|^{-d1} (1 + o(1)) at large |theta|.  The
    model M = w(0) (c^2 + theta^2)^{-d1/2}, c = ``w.transform_scale``,
    carries that tail: its integral is _model_transform, in closed form.
    The remainder R = prod_i Psi_i - M goes on a fixed rule of 16-point
    Gauss-Legendre panels (24 points and halved panels when refined), as
    2 Re int_0^inf R e(-theta t) dtheta:

    * on [0, T] along the real axis, in panels no wider than half a
      period of e(-theta t), T = c for the Gaussians and
      ``w.transform_reach`` for ProductBump;
    * for the Gaussians, whose transforms continue analytically off
      +-ic, past T on the ray T - i sgn(t) y, y in [0, Y], where
      e(-theta t) decays like e^{-2 pi |t| y}; panels double in width
      from min(c, 1/(2 pi |t|))/8.  Past Y, |R| <= B |theta|^{-d1-1}
      (``w.remainder_bound``), so the tail is at most 2 B Y^{-d1} / d1;
      Y is chosen to bring that under 2^-52 w(0) c^{1-d1}.

    For ProductBump the remainder past T is estimated, not bounded, as 2T
    times the largest |R| on the last panel (there |Psi - model| is below
    2e-15).  The bound returned adds that tail to a rounding bound on the
    sum.
    """
    if w.transform_scale is None:
        raise ArgumentError("the theta integral needs a weight with pair transforms")
    t = _level(w, t)
    d1 = w.dim // 2
    order = 24 if refined else 16
    c = w.transform_scale
    w0 = float(w.eval_array(np.zeros((1, w.dim)))[0])
    omega = 2.0 * math.pi * t

    def rule(edges):
        if refined:             # every panel halved
            edges = np.sort(np.concatenate([edges, 0.5 * (edges[1:] + edges[:-1])]))
        return _panel_nodes(edges, order)

    def remainder(theta):
        psi = w.pair_transform(theta)
        # the model is multiplied out as the transforms are, so that a
        # weight whose transforms are the model's leaves R = 0 exactly
        model = w0 * np.prod(np.broadcast_to(pair_model(theta, c), psi.shape), axis=0)
        return np.prod(psi, axis=0) - model, np.abs(model)

    analytic = hasattr(w, "remainder_bound")
    T = c if analytic else w.transform_reach
    width = min(math.pi * c, 0.5 / abs(t)) if t else math.pi * c
    # np.union1d would load numpy.ma
    edges = np.sort(np.concatenate([[0.25 * c, 0.5 * c, c],
                                    np.linspace(0.0, T, math.ceil(T / width) + 1)]))
    edges = edges[(edges <= T) & (np.diff(edges, prepend=-1.0) > 0)]
    th, wt = rule(edges)
    R, M = remainder(th)
    acc = complex(np.sum(wt * R * np.exp(-1j * omega * th)))
    size = float(np.sum(wt * (np.abs(R) + 2.0 * M)))
    if analytic:
        B = w.remainder_bound(2.0 * c)
        tol = 2.0 ** -52 * w0 * c ** (1 - d1)
        Y = max(2.0 * c, (2.0 * B / (d1 * tol)) ** (1.0 / d1))
        y0 = min(c, 1.0 / abs(omega) if t else c) / 8.0
        y_edges = np.concatenate([[0.0], y0 * 2.0 ** np.arange(math.ceil(math.log2(Y / y0)) + 1)])
        y, wy = rule(y_edges)
        sgn = 1.0 if t >= 0 else -1.0
        R, M = remainder(T - 1j * sgn * y)
        decay = np.exp(-abs(omega) * y)
        acc += -1j * sgn * np.exp(-1j * omega * T) * complex(np.sum(wy * R * decay))
        size += float(np.sum(wy * (np.abs(R) + 2.0 * M) * decay))
        tail = 2.0 * B * y_edges[-1] ** -d1 / d1
    else:
        tail = 2.0 * T * float(np.max(np.abs(R[-order:])))
    model, model_err = _model_transform(d1, c, t)
    value = w0 * model + 2.0 * acc.real
    rounding = 2.0 ** -52 * (d1 + 4) * 2.0 * size + w0 * model_err
    return value, tail + rounding


def _level_value(w: WeightFunction, t: float, refined: bool) -> float:
    """I(t; w): 0 where the quadric misses a bounded support, else the theta
    integral for a weight with pair transforms, else the x-projection on the
    weight's default rule.  refined takes the refined theta rule or
    QuadratureConfig.refined()."""
    t = _level(w, t)
    if w.support_radius is not None and abs(t) >= 0.5 * w.support_radius ** 2:
        return 0.0              # |x.y| <= |z|^2 / 2 on the whole support
    if w.transform_scale is not None:
        return i_theta(w, t, refined)[0]
    cfg = default_config(w)
    return i_x_projection(w, t, cfg.refined() if refined else cfg)


def sigma_infty(w: WeightFunction, m: float, check: bool = False) -> float:
    """The archimedean factor: I(m; w) for the split form, by _level_value.

    With check=True the refined rule (theta rule or configuration) is run
    as well and an AccuracyError is raised when the two differ by more
    than 1e-6 |ref|.
    """
    val = _level_value(w, m, refined=False)
    if check:
        ref = _level_value(w, m, refined=True)
        if abs(val - ref) > 1e-6 * abs(ref):
            raise AccuracyError(
                f"quadrature not converged: {val} vs refined {ref}")
        return ref
    return val


_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
}


def i_derivative_fd(w: WeightFunction, t: float, k: int, step: float) -> float:
    """Central finite difference of order k <= 3 of t -> I(t; w)."""
    if k not in _STENCILS:
        raise ArgumentError("k must be 1, 2 or 3")
    if t == 0:
        raise ArgumentError("finite differences of I need t != 0")
    if not 0 < step <= abs(t) / 4.0:
        raise ArgumentError(f"step {step} must be in (0, |t|/4]")
    acc = [coeff * _level_value(w, t + off * step, refined=False)
           for off, coeff in _STENCILS[k]]
    return fsum(acc) / step ** k


def build_i_grid(w: WeightFunction, t_lo: float, t_hi: float, n: int) -> IFunctionGrid:
    if n < 0:
        raise ArgumentError(f"grid size n must be >= 0, got {n}")
    ts = np.linspace(t_lo, t_hi, n)
    return IFunctionGrid(ts, np.array([_level_value(w, t, refined=False) for t in ts]))


def smeared_sigma(w: WeightFunction, m: float, x: float,
                  grid: IFunctionGrid) -> float:
    """Windowed, mass-normalized smear of I against the kernel h(x, .):

        int_{|t| <= X} I(m + t) h(x, t) dt  /  int_{|t| <= X} h(x, t) dt

    with X = min(1, x^0.95).  The window mass is 1 + O(X x^{N-1}) for
    every N, so the normalization is asymptotically neutral; at finite x
    it cancels the kernel's slowly decaying pedestal (whose nominal
    O(x^N) bound carries large constants) and the quotient converges to
    I(m) = sigma_infty(w, m) as x -> 0.
    """
    X_req = min(1.0, x ** 0.95)
    if grid.t_values[0] > m - X_req or grid.t_values[-1] < m + X_req:
        raise ArgumentError(
            f"I-grid spans [{grid.t_values[0]}, {grid.t_values[-1]}], "
            f"needs [{m - X_req}, {m + X_req}]")
    keep = np.abs(grid.t_values - m) <= X_req
    t_win = grid.t_values[keep] - m
    num = delta_kernel.smear(t_win, grid.I_values[keep], x)
    mass = delta_kernel.smear(t_win, np.ones_like(t_win), x)
    return num / mass


def coarea_check(w: WeightFunction, phi_grid: np.ndarray, phi_values: np.ndarray):
    """Both sides of the coarea identity
    int w(z) phi(F0(z)) dz = int phi(t) I(t; w) dt, for d = 4 only.

    phi is given by samples of a smooth compactly supported function;
    the left side is a 24-point Gauss-Legendre tensor quadrature over the
    weight's support_box, or where it declares none over the box
    [-r_max, r_max]^4 of its default rule (a Gaussian's decay makes that
    box act as the ball), the right side a Gauss-Legendre sum of
    phi(t) I(t) (by _level_value) over phi's support.  Any other d raises
    CapabilityError.
    """
    if w.dim != 4:
        raise CapabilityError(f"coarea_check supports d = 4, got {w.dim}")
    box = w.support_box()
    if box is None:
        box = [default_config(w).r_max] * 4
    phi_grid = np.asarray(phi_grid, dtype=float)
    phi_values = np.asarray(phi_values, dtype=float)
    if phi_grid.shape != phi_values.shape or phi_grid.ndim != 1:
        raise ArgumentError("phi grid and samples must be matching 1-d arrays")
    from scipy.interpolate import CubicSpline   # scipy loads only when needed

    phi = CubicSpline(phi_grid, phi_values)
    lo, hi = float(phi_grid[0]), float(phi_grid[-1])

    x1, wt1 = _gl(24)
    xs = [x1 * h for h in box]
    wt = [wt1 * h for h in box]
    pts = np.stack([g.ravel() for g in np.meshgrid(*xs, indexing="ij")], axis=1)
    f0 = pts[:, 0] * pts[:, 2] + pts[:, 1] * pts[:, 3]
    mask = (f0 > lo) & (f0 < hi)
    lhs = 0.0
    if np.any(mask):
        wts = (wt[0][:, None, None, None] * wt[1][:, None, None] * wt[2][:, None] * wt[3]).ravel()
        lhs = float(wts[mask] @ (w.eval_array(pts[mask]) * phi(f0[mask])))

    if lo < 0.0 < hi:
        # I(t) loses smoothness at t = 0; refine the panels toward it
        s = 1e-4 * (hi - lo)
        edges = np.concatenate([-np.geomspace(-lo, s, 7), np.geomspace(s, hi, 7)])
    else:
        edges = np.linspace(lo, hi, 4)
    t_nodes, t_wts = _panel_nodes(edges, 16)
    rhs = fsum(float(wt * phi(t) * _level_value(w, t, refined=False))
               for t, wt in zip(t_nodes, t_wts))
    return lhs, rhs
