import math
from itertools import product

import mpmath
import numpy as np
import pytest

from splitquad.errors import ArgumentError, CapabilityError
from splitquad.weights import (AppendixExample, GaussianWeight, ProductBump,
                               bracket, bump_w0, parse_weight)

RNG = np.random.default_rng(20240817)


def all_families(dim=6):
    return [
        GaussianWeight(1.0, dim),
        GaussianWeight(0.5, dim, shift=0.3 * np.arange(dim)),
        ProductBump(2.0, dim),
        AppendixExample(dim),
        AppendixExample(dim, generic=True),
    ]


def test_gaussian_eval_values():
    w = GaussianWeight(1.0, 6)
    assert w.eval(np.zeros(6)) == 1.0
    e1 = np.zeros(6)
    e1[0] = 1.0
    assert w.eval(e1) == pytest.approx(math.exp(-math.pi), rel=1e-12)


def test_product_bump_outside_support():
    w = ProductBump(1.5, 4)
    z = np.full(4, 1.6)
    assert w.eval(z) == 0.0
    assert w.support_radius == pytest.approx(1.5 * 2.0)


def test_gaussian_partial_examples():
    w = GaussianWeight(1.0, 6)
    alpha = [1, 0, 0, 0, 0, 0]
    assert w.eval_partial(np.zeros(6), alpha) == 0.0
    e1 = np.zeros(6)
    e1[0] = 1.0
    assert w.eval_partial(e1, alpha) == pytest.approx(
        -2 * math.pi * math.exp(-math.pi), rel=1e-12)


@pytest.mark.parametrize("w", all_families(), ids=lambda w: w.spec_string())
def test_partials_fd_vs_analytic(w):
    d = w.dim
    for _ in range(20):
        z = RNG.uniform(-0.7, 0.7, size=d)
        i, j = RNG.integers(0, d, size=2)
        for alpha in (np.eye(d, dtype=int)[i],
                      np.eye(d, dtype=int)[i] + np.eye(d, dtype=int)[j]):
            a = w.eval_partial(z, alpha)
            b = w.eval_partial_fd(z, alpha)
            assert a == pytest.approx(b, rel=1e-5, abs=2e-6)


def test_bump_derivatives_match_mpmath():
    with mpmath.workdps(30):
        for x in (-0.97, -0.5, 0.2, 0.6, 0.9):
            for k in (1, 2):
                want = mpmath.diff(lambda v: mpmath.exp(1 / (v * v - 1)), x, k)
                assert bump_w0(x, k) == pytest.approx(float(want), rel=1e-12), (x, k)


def test_partial_order_cap():
    w = GaussianWeight(1.0, 4)
    with pytest.raises(CapabilityError):
        w.eval_partial(np.zeros(4), [5, 0, 0, 0])
    # orders 3 and 4 fall back to finite differences without error
    w.eval_partial(0.1 * np.ones(4), [2, 1, 0, 0])
    w.eval_partial(0.1 * np.ones(4), [2, 2, 0, 0])


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


@pytest.mark.parametrize("w", all_families(), ids=lambda w: w.spec_string())
def test_norm_bound_dominates_samples(w):
    d = w.dim
    Z = RNG.uniform(-2.5, 2.5, size=(500, d))
    for n1, n2 in ((0, 0.0), (0, 3.0), (1, 2.0), (2, 0.0)):
        bound = w.norm_bound(n1, n2)
        for z in Z[:80]:
            br = bracket(z) ** n2
            assert abs(w.eval(z)) * br <= bound * (1 + 1e-9)
        assert w.norm_bound(0, 0) <= w.norm_bound(1, n2) + 1e-12


@pytest.mark.parametrize("w", all_families(4) + all_families(6),
                         ids=lambda w: f"d{w.dim}-{w.spec_string()}")
def test_norm_bound_dominates_derivative_samples(w):
    # max over |alpha| <= n1 of |d^alpha w(z)| <z>^n2 at points z = r theta,
    # theta uniform on the sphere and r uniform up to where w is negligible;
    # predict's error envelope uses the n1 = 2 bound
    alphas = [a for a in product(range(3), repeat=w.dim) if sum(a) <= 2]
    order = np.array([sum(a) for a in alphas])
    theta = RNG.normal(size=(400, w.dim))
    theta /= np.linalg.norm(theta, axis=1)[:, None]
    Z = theta * RNG.uniform(0.0, w.support_radius or w.decay_radius(1e-30), size=(400, 1))
    partials = np.array([[abs(w.eval_partial(z, a)) for a in alphas] for z in Z])
    br = np.array([bracket(z) for z in Z])
    for n1, n2 in ((1, 0.0), (1, 2.0), (2, 0.0), (2, 3.0), (1, 40.0), (2, 40.0)):
        sampled = np.max(partials[:, order <= n1].max(axis=1) * br ** n2)
        assert sampled <= w.norm_bound(n1, n2) * (1 + 1e-9), (n1, n2)


@pytest.mark.parametrize("w", all_families(), ids=lambda w: w.spec_string())
def test_regularity_decay_envelope(w):
    d, gamma = w.dim, w.gamma
    bound = w.norm_bound(0, d + gamma)
    Z = RNG.uniform(-4.0, 4.0, size=(200, d))
    for z in Z:
        assert abs(w.eval(z)) <= bound * bracket(z) ** (-d - gamma) * (1 + 1e-9)


def test_appendix_zero_below_g_support():
    w = AppendixExample(6)
    z = np.array([0.1, 0.0, 0.0, 0.3, 0.2, 0.0])   # |y|^2 = 0.13 < 1/4
    assert np.dot(z[3:], z[3:]) < w.G_SUPPORT_LOWER
    assert w.eval(z) == 0.0
    # the generic variant has mass at y = 0 instead
    wg = AppendixExample(6, generic=True)
    assert wg.eval(z) > 0.0
    assert wg.eval(np.zeros(6)) > 0.0


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


def test_rescaled_matches_composition():
    for w in (GaussianWeight(2.0, 4, shift=[1.0, 0, 0, 0]), ProductBump(1.0, 4)):
        wL = w.rescaled(3.0)
        for _ in range(10):
            z = RNG.uniform(-2, 2, size=4)
            assert wL.eval(z) == pytest.approx(w.eval(z / 3.0), abs=1e-14)


def test_parse_weight_round_trip():
    for spec in ("gaussian:a=1.5", "gaussian:a=0.5:shift=1.0,0.0,0.0,2.0",
                 "bump:scale=2.0", "appendix-example",
                 "appendix-example:variant=generic"):
        w = parse_weight(spec, 4)
        w2 = parse_weight(w.spec_string(), 4)
        z = RNG.uniform(-1, 1, size=4)
        assert w.eval(z) == w2.eval(z)


def test_parse_weight_errors():
    for bad in ("gauss:a=1", "gaussian", "gaussian:a=1:b=2",
                "bump", "appendix-example:variant=unknown"):
        with pytest.raises(ArgumentError):
            parse_weight(bad, 4)
    for dim in (0, -2, 3):
        with pytest.raises(ArgumentError, match="even and >= 2"):
            parse_weight("gaussian:a=1.0", dim)
