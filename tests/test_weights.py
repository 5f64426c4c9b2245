import math

import numpy as np
import pytest

from splitquad.errors import ArgumentError
from splitquad.weights import AppendixExample, GaussianWeight, ProductBump, parse_weight

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
