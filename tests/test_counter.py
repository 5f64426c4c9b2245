import math
from itertools import product

import numpy as np
import pytest

from splitquad import counter as ct
from splitquad.errors import ArgumentError, CapabilityError
from splitquad.exp_sums import remark5_sigma_p
from splitquad.forms import LatticeSpec
from splitquad.weights import AppendixExample, GaussianWeight, ProductBump, WeightFunction

RNG = np.random.default_rng(7)
# float64 rounding allowance (relative) when two paths sum in different orders
ROUNDING = 1e4 * np.finfo(float).eps


def test_solve_axis_vector():
    sol = ct.solve_hyperplane_lattice([2, 0, 0], 4)
    assert int(np.dot(sol.particular, [2, 0, 0])) == 4
    assert len(sol.basis) == 2
    for b in sol.basis:
        assert int(np.dot(b, [2, 0, 0])) == 0


def test_solve_obstruction():
    assert ct.solve_hyperplane_lattice([2, 0, 0], 3) is None
    assert ct.solve_hyperplane_lattice([6, 10], 7) is None
    assert ct.solve_hyperplane_lattice([6, 10], 8) is not None


def test_solve_argument_checks():
    with pytest.raises(ArgumentError):
        ct.solve_hyperplane_lattice([0, 0, 0], 1)


def test_solve_random_vectors():
    for _ in range(50):
        x = RNG.integers(-9, 10, size=3)
        if not np.any(x):
            continue
        t = int(RNG.integers(-20, 21))
        sol = ct.solve_hyperplane_lattice(x, t)
        g = math.gcd(math.gcd(int(x[0]), int(x[1])), int(x[2]))
        if t % g:
            assert sol is None
            continue
        assert int(np.dot(sol.particular, x)) == t
        for b in sol.basis:
            assert int(np.dot(b, x)) == 0


def test_solution_covers_all_points_in_box():
    # every integer solution of x . y = t in a box must lie in the coset
    x = np.array([1, 2, 2])
    t = 3
    sol = ct.solve_hyperplane_lattice(x, t)
    B = np.stack(sol.basis)
    Binv = np.linalg.pinv(B.astype(float))
    found = 0
    for y in product(range(-6, 7), repeat=3):
        y = np.array(y)
        if int(y @ x) != t:
            continue
        found += 1
        coeffs = (y - sol.particular).astype(float) @ Binv
        rounded = np.round(coeffs).astype(np.int64)
        assert np.array_equal(sol.particular + rounded @ B, y)
    assert found > 50


def test_kernel_covolume():
    # covolume of the kernel lattice of x . y = 0 is |x| / gcd(x)
    x = np.array([3, -5, 7])
    sol = ct.solve_hyperplane_lattice(x, 0)
    B = np.stack(sol.basis).astype(float)
    assert np.linalg.det(B @ B.T) == pytest.approx(float(x @ x), rel=1e-12)
    x2 = np.array([2, 4, 6])
    B2 = np.stack(ct.solve_hyperplane_lattice(x2, 0).basis).astype(float)
    assert np.linalg.det(B2 @ B2.T) == pytest.approx(float(x2 @ x2) / 4, rel=1e-12)


def test_theta_value_unit_lattice():
    # N_1 for the isotropic Gaussian at m = 0 against a literal grid sum;
    # terms beyond |z|_inf = 3 are below exp(-16 pi) and cannot matter
    w = GaussianWeight(1.0, 6)
    res = ct.enumerate_N_L(w, LatticeSpec(L=1, m=0), eps=1e-9)
    ax = np.arange(-3, 4)
    X = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    ex = np.exp(-math.pi * np.sum(X * X, axis=1))
    match = (X @ X.T) == 0
    oracle = float(ex @ match @ ex)
    assert res.value == pytest.approx(oracle, abs=1e-6)
    assert res.tail_estimate < 1e-4


def test_theta_value_d1_one():
    # d1 = 1: solutions of x * y = 0 in Z^2 are the two axes, so the count
    # is 2 * Theta - 1 with Theta = sum exp(-pi n^2)
    w = GaussianWeight(1.0, 2)
    res = ct.enumerate_N_L(w, LatticeSpec(L=1, m=0), eps=1e-9)
    theta = sum(math.exp(-math.pi * n * n) for n in range(-8, 9))
    assert res.value == pytest.approx(2 * theta - 1, abs=1e-6)
    assert res.value == pytest.approx(1.1728697, abs=1e-6)


def test_enumerate_matches_brute_force():
    cases = [
        (GaussianWeight(1.0, 6), LatticeSpec(L=2, m=0)),
        (GaussianWeight(1.0, 6), LatticeSpec(L=2, m=1)),
        (ProductBump(1.0, 4), LatticeSpec(L=3, m=0)),
    ]
    for w, spec in cases:
        res = ct.enumerate_N_L(w, spec, eps=1e-10)
        box = int(math.ceil(res.truncation_radius * spec.L)) + 1
        ref = ct.brute_force_N_L(w, spec, box)
        assert res.value == pytest.approx(ref, abs=1e-8 + res.tail_estimate)


def test_scaling_identity():
    # summing w(u/L) over u_x . u_y = m L^2 equals the unit-lattice count of
    # the rescaled weight at the integer level m L^2
    w = GaussianWeight(1.0, 6)
    a = ct.enumerate_N_L(w, LatticeSpec(L=2, m=1), eps=1e-10)
    b = ct.enumerate_N_L(w.rescaled(2.0), LatticeSpec(L=1, m=4), eps=1e-10)
    assert a.value == pytest.approx(b.value,
                                    abs=a.tail_estimate + b.tail_estimate + 1e-12)


def test_determinism():
    w = GaussianWeight(1.0, 6)
    r1 = ct.enumerate_N_L(w, LatticeSpec(L=2, m=0), eps=1e-8)
    r2 = ct.enumerate_N_L(w, LatticeSpec(L=2, m=0), eps=1e-8)
    assert r1.value == r2.value
    assert r1.lattice_points_visited == r2.lattice_points_visited
    assert r1.tail_estimate == r2.tail_estimate


def test_tail_shrinks_with_eps():
    w = GaussianWeight(1.0, 6)
    loose = ct.enumerate_N_L(w, LatticeSpec(L=2, m=0), eps=1e-4)
    tight = ct.enumerate_N_L(w, LatticeSpec(L=2, m=0), eps=1e-10)
    assert tight.truncation_radius >= loose.truncation_radius
    assert abs(tight.value - loose.value) <= loose.tail_estimate + 1e-12


def test_budget_capability():
    w = GaussianWeight(1.0, 6)
    with pytest.raises(CapabilityError) as exc:
        ct.enumerate_N_L(w, LatticeSpec(L=8, m=0), eps=1e-10, budget=10 ** 4)
    assert "feasible L" in str(exc.value)


@pytest.mark.parametrize("kind", ["gaussian", "appendix"])
def test_budget_equals_visited(kind):
    # both paths check the budget against the work they report as visited
    w = GaussianWeight(1.0, 6) if kind == "gaussian" else AppendixExample(6)
    spec = LatticeSpec(L=6, m=0.25)
    res = ct.enumerate_N_L(w, spec, eps=1e-8)
    need = res.lattice_points_visited
    assert ct.enumerate_N_L(w, spec, eps=1e-8, budget=need).value == res.value
    with pytest.raises(CapabilityError):
        ct.enumerate_N_L(w, spec, eps=1e-8, budget=need - 1)


def test_fibre_work_matches_balls():
    # the counted charge equals the one read off the enumerated balls, for
    # radii whose square is and is not an integer and levels with square factors
    for d1, radius in [(2, 6.0), (2, 9.3), (3, 3.7), (3, 7.0710678), (4, 4.5)]:
        ball = ct._ball_points(d1, radius)
        F = ct._ball_points(d1 - 1, radius)
        UX = ball[np.any(ball, axis=1)]
        g = np.gcd.reduce(UX, axis=1)
        for t in (0, 1, -2, 9, 12, 72, 144, 360, 1000003):
            admissible = int(np.sum(t % g == 0))
            want = d1 * (admissible * len(F) + (len(ball) if t == 0 else 0))
            assert ct._fibre_work(d1, t, radius) == want, (d1, radius, t)


def test_fibre_budget_refusal_builds_no_ball(monkeypatch):
    def no_ball(d, radius):
        raise AssertionError("a ball was enumerated before the budget check")
    monkeypatch.setattr(ct, "_ball_points", no_ball)
    with pytest.raises(CapabilityError, match="feasible L"):
        ct.enumerate_N_L(AppendixExample(6), LatticeSpec(L=80, m=0), 1e-8, budget=1)


def test_appendix_example_matches_brute_force():
    # the fibre path on a weight that does not factor; its support |z| <= 1
    # lies inside the box |u|_inf <= L
    w, spec = AppendixExample(6), LatticeSpec(L=6, m=0.25)
    res = ct.enumerate_N_L(w, spec, eps=1e-8)
    ref = ct.brute_force_N_L(w, spec, 6)
    assert res.value == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("block", [1, 1000])
def test_fibre_blocks_do_not_change_the_count(monkeypatch, block):
    # smaller blocks split each pivot group of u_x into many pieces
    w, spec = AppendixExample(6), LatticeSpec(L=6, m=0.25)
    whole = ct.enumerate_N_L(w, spec, eps=1e-8)
    monkeypatch.setattr(ct, "BLOCK", block)
    split = ct.enumerate_N_L(w, spec, eps=1e-8)
    assert split.value == pytest.approx(whole.value, rel=1e-14)
    assert split.tail_estimate == pytest.approx(whole.tail_estimate, rel=1e-12)


def test_eps_argument_check():
    w = GaussianWeight(1.0, 6)
    with pytest.raises(ArgumentError):
        ct.enumerate_N_L(w, LatticeSpec(L=2, m=0), eps=0.0)


@pytest.mark.parametrize("p,d1", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_residue_count_matches_density_product(p, d1):
    # |{z mod p : x . y = 0 mod p}| = p^(2 d1 - 1) * sigma_p closed form
    count = 0
    for z in product(range(p), repeat=2 * d1):
        if sum(z[i] * z[d1 + i] for i in range(d1)) % p == 0:
            count += 1
    expected = p ** (2 * d1 - 1) * remark5_sigma_p(p, d1)
    assert count == expected


class _FibreOnly(WeightFunction):
    """The same weight without pair_factors, so enumerate_N_L walks fibres."""

    def __init__(self, w):
        self.w, self.dim = w, w.dim

    def eval_array(self, Z):
        return self.w.eval_array(Z)

    def decay_radius(self, eps, n=0):
        return self.w.decay_radius(eps, n)


def _separable(kind, d1):
    if kind == "gaussian":
        return GaussianWeight(1.0, 2 * d1)
    if kind == "shifted":
        return GaussianWeight(1.0, 2 * d1, shift=0.25 * np.sin(np.arange(2 * d1) + 1.0))
    return ProductBump(1.5, 2 * d1)


@pytest.mark.parametrize("m", [0, 1, 0.25, -1])
@pytest.mark.parametrize("d1", [1, 2, 3])
@pytest.mark.parametrize("kind", ["gaussian", "shifted", "bump"])
def test_pair_convolution_matches_oracles(kind, d1, m):
    # L = 2 is even, so m = 1/4 gives the integer level t = 1
    w, spec = _separable(kind, d1), LatticeSpec(L=2, m=m)
    res = ct.enumerate_N_L(w, spec, eps=1e-10)
    fib = ct.enumerate_N_L(_FibreOnly(w), spec, eps=1e-10)
    box = int(math.ceil(res.truncation_radius * spec.L)) + 1
    ref = ct.brute_force_N_L(w, spec, box)
    assert abs(res.value - ref) <= res.tail_estimate + ROUNDING * abs(ref)
    assert abs(res.value - fib.value) <= \
        res.tail_estimate + fib.tail_estimate + ROUNDING * abs(ref)


@pytest.mark.parametrize("kind", ["gaussian", "shifted"])
@pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
def test_pair_convolution_tail_bounds_box_doubling(kind, R):
    # growing the box from B to about 2B adds lattice mass, never more than the
    # tail (ProductBump's box is its support whatever R, so it is left out)
    w, L, t = _separable(kind, 3), 2.0, 4
    small = ct._count_pair_convolution(w.pair_factors(L, R), t, L, R, 10 ** 9)
    large = ct._count_pair_convolution(w.pair_factors(L, 2 * R), t, L, 2 * R, 10 ** 9)
    assert large.value - small.value >= -ROUNDING * large.value
    assert large.value - small.value <= small.tail_estimate + ROUNDING * large.value
