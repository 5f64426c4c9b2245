import math

import numpy as np
import pytest

from splitquad.errors import ArgumentError
from splitquad.weights import (AppendixExample, GaussianWeight, ProductBump, pair_model,
                               parse_weight)

RNG = np.random.default_rng(20240817)


def test_gaussian_eval_values():
    w = GaussianWeight(1.0, 6)
    assert w.eval_array(np.zeros((1, 6)))[0] == 1.0
    e1 = np.zeros((1, 6))
    e1[0, 0] = 1.0
    assert w.eval_array(e1)[0] == pytest.approx(math.exp(-math.pi), rel=1e-12)


def test_product_bump_outside_support():
    w = ProductBump(1.5, 4)
    z = np.full((1, 4), 1.6)
    assert w.eval_array(z)[0] == 0.0
    assert w.support_radius == pytest.approx(1.5 * 2.0)


def test_decay_radius_gaussian_closed_form():
    w = GaussianWeight(1.0, 6)
    R = w.decay_radius(1e-12, 0)
    assert R == pytest.approx(math.sqrt(math.log(1e12) / math.pi), rel=1e-6)
    assert w.decay_radius(1e-13, 0) >= R
    assert w.decay_radius(1e-12, 4) >= R


def test_decay_radius_bump_is_support():
    w = ProductBump(1.25, 4)
    assert w.decay_radius(1e-3) == w.support_radius
    assert w.decay_radius(1e-9) == w.support_radius


def test_appendix_zero_below_g_support():
    w = AppendixExample(6)
    z = np.array([[0.1, 0.0, 0.0, 0.3, 0.2, 0.0]])   # |y|^2 = 0.13
    assert np.dot(z[0, 3:], z[0, 3:]) < 0.25        # the default g(s) = 0 for s <= 1/4
    assert w.eval_array(z)[0] == 0.0
    # the generic variant has mass at y = 0 instead
    wg = AppendixExample(6, generic=True)
    assert wg.eval_array(z)[0] > 0.0
    assert wg.eval_array(np.zeros((1, 6)))[0] > 0.0


@pytest.mark.parametrize("generic", [False, True])
@pytest.mark.parametrize("dim", [4, 6])
def test_appendix_zero_outside_block_support(dim, generic):
    # the counter enumerates only |x| <= rx, |y| <= ry; outside that block w = 0
    w = AppendixExample(dim, generic=generic)
    rx, ry = w.block_support
    d1 = dim // 2

    def scaled(V, radius):
        return V * (radius / np.linalg.norm(V, axis=1))[:, None]

    Z = RNG.uniform(-1.0, 1.0, size=(4000, dim))
    nx, ny = np.linalg.norm(Z[:, :d1], axis=1), np.linalg.norm(Z[:, d1:], axis=1)
    outside = (nx > rx) | (ny > ry)
    assert 100 < np.sum(outside) < len(Z)
    assert np.all(w.eval_array(Z[outside]) == 0.0)
    # points with |x| = rx or |y| = ry exactly (to rounding), and just past it
    V = RNG.normal(size=(500, dim))
    for fx, fy in ((1.0, 0.99), (0.99, 1.0), (1.0, 1.0), (1 + 1e-12, 0.5), (0.5, 1 + 1e-12)):
        B = np.concatenate([scaled(V[:, :d1], fx * rx), scaled(V[:, d1:], fy * ry)], axis=1)
        assert np.all(w.eval_array(B) == 0.0), (fx, fy)
    assert np.any(w.eval_array(Z[~outside]) > 0.0)


def test_parse_weight_builds_each_family():
    Z = RNG.uniform(-1, 1, size=(64, 4))
    for spec, built in (("gaussian:a=1.5", GaussianWeight(1.5, 4)),
                        ("gaussian:a=0.5:shift=1.0,0.0,0.0,2.0",
                         GaussianWeight(0.5, 4, np.array([1.0, 0.0, 0.0, 2.0]))),
                        ("bump:scale=2.0", ProductBump(2.0, 4)),
                        ("appendix-example", AppendixExample(4)),
                        ("appendix-example:variant=generic", AppendixExample(4, generic=True))):
        w = parse_weight(spec, 4)
        assert type(w) is type(built), spec
        assert np.array_equal(w.eval_array(Z), built.eval_array(Z)), spec


def test_parse_weight_errors():
    for bad in ("gauss:a=1", "gaussian", "gaussian:a=1:b=2",
                "bump", "appendix-example:variant=unknown"):
        with pytest.raises(ArgumentError):
            parse_weight(bad, 4)
    for dim in (0, -2, 3):
        with pytest.raises(ArgumentError, match="even and >= 2"):
            parse_weight("gaussian:a=1.0", dim)


def _decay_radius_200_halvings(w, eps, n):
    """The bisection as it was: always 200 halvings of the bracket."""
    a, c = w.a, w._c

    def env(u):
        return math.exp(-a * math.pi * u * u) * (u + c) ** n
    peak = math.sqrt(n / (2 * a * math.pi)) if n else 0.0
    hi = max(peak, 1.0)
    while env(hi) > eps:
        hi *= 2.0
    lo = peak
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if env(mid) > eps:
            lo = mid
        else:
            hi = mid
    return hi + c


@pytest.mark.parametrize("a", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("shifted", [False, True])
def test_decay_radius_stops_where_200_halvings_end(a, shifted):
    # the bracket stops moving after about 60 halvings, so the early stop
    # returns the same float
    shift = RNG.uniform(-0.3, 0.3, 6) if shifted else None
    w = GaussianWeight(a, 6, shift)
    for eps in (0.5, 1e-3, 1e-8, 1e-12, 1e-16):
        for n in (0, 4, 6):
            assert w.decay_radius(eps, n) == _decay_radius_200_halvings(w, eps, n), (eps, n)


def _pair_transform_2d(f, theta, R, panels=24, order=24):
    """int int f(x, y) e(theta x y) dx dy on a Gauss-Legendre tensor rule
    over [-R, R]^2."""
    from numpy.polynomial.legendre import leggauss
    x, wt = leggauss(order)
    edges = np.linspace(-R, R, panels + 1)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    u = (mid[:, None] + half[:, None] * x).ravel()
    wu = (half[:, None] * wt).ravel()
    X, Y = np.meshgrid(u, u, indexing="ij")
    return np.sum(np.outer(wu, wu) * f(X, Y) * np.exp(2j * math.pi * theta * X * Y))


@pytest.mark.parametrize("theta", [0.0, 0.7, 3.0])
def test_gaussian_pair_transform_closed_form(theta):
    a, shift = 1.5, np.array([0.2, -0.1, 0.05, 0.15, 0.1, -0.25])
    w = GaussianWeight(a, 6, shift)
    psi = w.pair_transform(np.array([theta]))[:, 0]
    for i in range(3):
        sx, sy = shift[i], shift[3 + i]
        ref = _pair_transform_2d(
            lambda X, Y: np.exp(-a * math.pi * ((X - sx) ** 2 + (Y - sy) ** 2)), theta, 4.0)
        assert abs(psi[i] - ref) <= 1e-13


def test_gaussian_pair_transform_isotropic_is_the_model():
    theta = np.array([0.0, 0.3, 2.0, 1.0 - 5.0j])
    w = GaussianWeight(2.0, 8)
    assert np.array_equal(w.pair_transform(theta), np.broadcast_to(pair_model(theta, 2.0), (4, 4)))


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_gaussian_remainder_bound_holds(a):
    # on the real axis and on the rays Re theta = a, for |theta| >= Y
    w = GaussianWeight(a, 6, np.array([0.3, -0.2, 0.25, 0.3, 0.1, -0.25]))
    Y = 2.0 * a
    B = w.remainder_bound(Y)
    y = Y * np.geomspace(1.0, 1e4, 200)
    for theta in (y, a - 1j * y, a + 1j * y, -y):
        R = np.prod(w.pair_transform(theta), axis=0) \
            - w.eval_array(np.zeros((1, 6)))[0] * (a * a + theta * theta) ** -1.5
        assert np.all(np.abs(R) <= B * np.abs(theta) ** -4)
    with pytest.raises(ArgumentError):
        w.remainder_bound(a)


def test_bump_pair_transform_matches_2d_rule():
    # the cosine transform of the pair density against the 2-d transform of
    # w0(x) w0(y), each on its own rule; and the scaling Psi_s(theta) =
    # s^2 Psi_1(s^2 theta)
    from splitquad.weights import bump_w0
    for scale in (1.0, 0.7):
        w = ProductBump(scale, 6)
        for theta in (0.0, 0.5, 4.0, 16.0 / scale ** 2, w.transform_reach):
            ref = _pair_transform_2d(lambda X, Y: bump_w0(X / scale) * bump_w0(Y / scale),
                                     theta, scale, panels=64)
            assert abs(w.pair_transform(np.array([theta]))[0, 0] - ref) <= 2e-15, (scale, theta)


def test_bump_model_agrees_past_the_first_terms():
    # Psi - e^-2 (c^2 + theta^2)^{-1/2} is below 2e-11 at theta = 16 and
    # below 2e-15 at the reach, 32
    w = ProductBump(1.0, 6)
    theta = np.array([16.0, 24.0, 32.0])
    diff = w.pair_transform(theta)[0] - math.exp(-2.0) * pair_model(theta, w.transform_scale).real
    assert np.all(np.abs(diff) <= [2e-11, 1e-13, 2e-15])


def test_support_box():
    # w vanishes outside the box: the bump's |z_j| < scale, the appendix
    # weight's block |x| <= rx, |y| <= ry; a Gaussian declares none
    assert GaussianWeight(1.0, 4).support_box() is None
    for w in (ProductBump(0.8, 6), AppendixExample(6)):
        box = np.array(w.support_box())
        Z = RNG.uniform(-1.5, 1.5, size=(4000, 6)) * box
        outside = np.any(np.abs(Z) > box, axis=1)
        assert np.all(w.eval_array(Z[outside]) == 0.0)
    assert ProductBump(0.8, 6).support_box() == [0.8] * 6
    assert AppendixExample(6).support_box() == [math.sqrt(0.5)] * 6
