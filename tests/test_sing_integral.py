import math
from dataclasses import replace
from math import fsum

import numpy as np
import pytest
from mpmath import besselk

from splitquad import sing_integral as si
from splitquad.errors import ArgumentError, CapabilityError
from splitquad.weights import (AppendixExample, GaussianWeight, ProductBump,
                               WeightFunction, bump_w0)


def K1_closed_form(t):
    """I(t) for GaussianIsotropic(1), d1 = 3: 4 pi |t| K1(2 pi |t|); 2 at t=0."""
    if t == 0:
        return 2.0
    return float(4 * math.pi * abs(t) * besselk(1, 2 * math.pi * abs(t)))


def test_gaussian_oracles():
    w = GaussianWeight(1.0, 6)
    assert si.sigma_infty(w, 0.0) == pytest.approx(2.0, abs=1e-6)
    assert si.sigma_infty(w, 1.0) == pytest.approx(K1_closed_form(1.0), abs=1e-6)
    assert si.sigma_infty(w, 0.4) == pytest.approx(K1_closed_form(0.4), abs=1e-6)


def test_sigma_infty_continuity_at_zero():
    w = GaussianWeight(1.0, 6)
    assert abs(si.sigma_infty(w, 1e-3) - si.sigma_infty(w, 0.0)) < 5e-3


def test_projection_symmetry_biradial():
    w = AppendixExample(6)
    for t in (0.05, 0.3, 1.0):
        assert si.i_x_projection(w, t) == pytest.approx(
            si.i_y_projection(w, t), abs=2e-6)


def test_projection_symmetry_gaussian():
    w = GaussianWeight(1.0, 6)
    for t in (0.0, 0.5, 1.0):
        assert si.i_x_projection(w, t) == pytest.approx(
            si.i_y_projection(w, t), abs=2e-6)


def test_sigma_infty_check_refinement():
    w = GaussianWeight(1.0, 6)
    assert si.sigma_infty(w, 0.0, check=True) == pytest.approx(2.0, abs=1e-6)


def test_decay_in_t():
    w = GaussianWeight(1.0, 6)
    assert abs(si.i_x_projection(w, 4.0)) <= abs(si.i_x_projection(w, 2.0))


def test_apex_cutoff_convergence():
    # I(0) = 2/a^2 for the isotropic Gaussian at d1 = 3.  The radial rule's
    # apex panel [0, 1e-6 r_max] brings the x-projection to within 1.3e-15
    # relative of it at a = 0.5, 1, 2; without that panel it read 3.5e-11
    # to 4.2e-11 low
    for a in (0.5, 1.0, 2.0):
        val = si.i_x_projection(GaussianWeight(a, 6), 0.0)
        assert abs(val * a * a / 2.0 - 1.0) <= 1e-13, a


def test_d1_capability():
    # a biradial weight takes one direction and serves every d1; any other
    # weight needs explicit sphere rules, built for d1 in {2, 3} only
    w = GaussianWeight(1.0, 8, shift=[0.1] + [0.0] * 7)
    with pytest.raises(CapabilityError):
        si.i_x_projection(w, 0.0)


def _hook_on_sphere_rule(w, t, cfg, swap):
    """The closed-form fibres on the radial and sphere rules of a weight
    that is not biradial, whichever direction rule w itself takes."""
    d1 = w.dim // 2
    r, wr = si._radial_nodes(cfg)
    thetas, wth = si._sphere_nodes(d1, cfg)
    return float((wr * r ** (d1 - 2)) @ w.fiber_integral(r, thetas, t, swap) @ wth)


@pytest.mark.parametrize("t", [0.3, 1.0])
@pytest.mark.parametrize("d1", [2, 3])
def test_fiber_hook_matches_tensor_rule(d1, t):
    # the projection of a weight with closed-form fibres is the product of
    # its radial and sphere rules with those fibres, bit for bit
    w = GaussianWeight(1.5, 2 * d1, shift=0.25 * np.sin(np.arange(2 * d1) + 1.0))
    cfg = replace(si.default_config(w), angular_order=4)
    assert si.i_x_projection(w, t, cfg) == _hook_on_sphere_rule(w, t, cfg, swap=False)
    assert si.i_y_projection(w, t, cfg) == _hook_on_sphere_rule(w, t, cfg, swap=True)


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("d1", [2, 3])
def test_fiber_integral_matches_plane_rule(d1, swap):
    # each entry against a 48-point Gauss-Legendre rule in each axis of its
    # own fibre plane, spanned by the rows of the SVD that annihilate theta
    shift = [0.2, -0.1, 0.05, 0.15, 0.1, -0.25] if d1 == 3 else [0.2, -0.1, 0.15, -0.25]
    w = GaussianWeight(1.5, 2 * d1, shift=shift)
    R = si.default_config(w).r_max
    x, wx = np.polynomial.legendre.leggauss(48)
    fib = np.stack([g.ravel() for g in np.meshgrid(*[R * x] * (d1 - 1), indexing="ij")], axis=1)
    wf = np.prod(np.meshgrid(*[R * wx] * (d1 - 1), indexing="ij"), axis=0).ravel()
    r = np.array([0.3, 0.8, 1.7])
    thetas = (np.array([[1.0, 0.0, 0.0], [0.6, -0.48, 0.64], [0.0, 0.6, -0.8]]) if d1 == 3
              else np.array([[1.0, 0.0], [0.6, -0.8], [0.0, 1.0]]))
    t = 0.4
    F = w.fiber_integral(r, thetas, t, swap)
    for i, ri in enumerate(r):
        for j, theta in enumerate(thetas):
            basis = np.linalg.svd(theta[None, :])[2][1:]      # (d1 - 1, d1)
            assert np.allclose(basis @ theta, 0.0, atol=1e-15)
            v = fib @ basis + (t / ri) * theta
            near = np.broadcast_to(ri * theta, v.shape)
            z = np.concatenate([v, near] if swap else [near, v], axis=1)
            assert F[i, j] == pytest.approx(float(w.eval_array(z) @ wf), rel=1e-12, abs=0)


@pytest.mark.parametrize("t", [0.4, 1.0, -0.7])
def test_fiber_hook_isotropic_closed_form(t):
    # the isotropic Gaussian takes one direction; put its hook on the sphere rule
    w = GaussianWeight(1.0, 6)
    for swap in (False, True):
        got = _hook_on_sphere_rule(w, t, si.default_config(w), swap)
        assert abs(got - K1_closed_form(t)) <= 1e-10


class _RhoGridGaussian(WeightFunction):
    """The isotropic Gaussian without fiber_integral: its fibre integrals
    come from the rule over the fibre radius rho."""

    is_biradial = True

    def __init__(self, a, dim):
        self.w, self.dim = GaussianWeight(a, dim), dim

    def eval_array(self, Z):
        return self.w.eval_array(Z)

    def eval_biradial(self, rx, ry):
        return np.exp(-self.w.a * math.pi * (rx * rx + ry * ry))

    def decay_radius(self, eps, n=0):
        return self.w.decay_radius(eps, n)


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("a", [1.0, 2.0])
@pytest.mark.parametrize("d1", [2, 3, 4])
def test_biradial_closed_form_fibre_matches_rho_grid(d1, a, swap):
    w = GaussianWeight(a, 2 * d1)
    oracle = _RhoGridGaussian(a, 2 * d1)
    cfg = si.default_config(w)
    assert si.default_config(oracle) == cfg
    for t in (0.0, 0.5, -0.5, 1.0, 2.0):
        got = si._i_projection(w, t, None, swap)
        ref = si._i_projection(oracle, t, cfg, swap)
        assert got == si._i_projection(w, t, cfg, swap)
        assert abs(got - ref) <= 1e-13 * abs(ref), t


class _MirroredAppendix(AppendixExample):
    """AppendixExample with x and y exchanged in eval_biradial, the only
    evaluator _fibre_rule calls on a biradial weight."""

    def eval_biradial(self, rx, ry):
        return super().eval_biradial(ry, rx)


@pytest.mark.parametrize("t", [0.25, -0.1])
def test_fibre_rule_swap_is_the_mirrored_weight(t):
    # the y-fibres of w are the x-fibres of its mirror, bit for bit; a swap
    # branch that evaluated w in the unswapped order would give w's own
    # x-fibres, which differ pointwise although they integrate alike
    w, mirror = AppendixExample(6), _MirroredAppendix(6)
    cfg = si.default_config(w)
    r, _ = si._radial_nodes(cfg, dense=True)
    thetas = np.eye(3)[:1]
    got = si._fibre_rule(w, cfg, r, thetas, t, swap=True)
    assert np.array_equal(got, si._fibre_rule(mirror, cfg, r, thetas, t, swap=False))
    assert not np.array_equal(got, si._fibre_rule(w, cfg, r, thetas, t, swap=False))


def test_derivative_fd_k1_oracle():
    w = GaussianWeight(1.0, 6)
    z = 2 * math.pi
    ref = float(4 * math.pi * (besselk(1, z) - z * (besselk(0, z) + besselk(2, z)) / 2))
    assert si.i_derivative_fd(w, 1.0, 1, 0.01) == pytest.approx(ref, abs=1e-4)


def test_derivative_fd_k1_bounded_band():
    w = GaussianWeight(1.0, 6)
    for t in (0.5, 0.75, 1.0):
        val = si.i_derivative_fd(w, t, 1, t / 8)
        assert abs(val) <= 10.0 * (1.0 + abs(t))


def test_derivative_fd_argument_checks():
    w = GaussianWeight(1.0, 6)
    with pytest.raises(ArgumentError):
        si.i_derivative_fd(w, 0.0, 1, 0.01)
    with pytest.raises(ArgumentError):
        si.i_derivative_fd(w, 0.1, 1, 0.5)
    with pytest.raises(ArgumentError):
        si.i_derivative_fd(w, 1.0, 4, 0.01)


def test_i_function_grid_validation():
    si.IFunctionGrid([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(ArgumentError):
        si.IFunctionGrid([1.0, 0.0], [1.0, 2.0])
    with pytest.raises(ArgumentError):
        si.IFunctionGrid([0.0, 1.0], [1.0, float("nan")])
    with pytest.raises(ArgumentError):
        si.IFunctionGrid([0.0, 1.0], [1.0])


def test_quadrature_config_validation():
    for bad in (dict(r_max=-1.0), dict(r_max=math.nan), dict(r_max=2.0, angular_order=2),
                dict(r_max=2.0, refinements=-1)):
        with pytest.raises(ArgumentError):
            si.QuadratureConfig(**bad)


# float.hex of the projections as the six-field QuadratureConfig gave them:
# (weight, t, refinements) -> value; the rule is now three fields and fixed
# radial and fibre orders, and must give the same bits
_PROJECTION_BITS = {
    ("appendix-4", 0.0, 0): "0x1.d2357691d452cp-4",
    ("appendix-4", 0.0, 1): "0x1.d23575aee7662p-4",
    ("appendix-4", 0.25, 0): "0x1.1faa9c77fdef2p-4",
    ("appendix-4", 0.25, 1): "0x1.1faa95baf0e17p-4",
    ("appendix-6", 0.0, 0): "0x1.f212dad2828d2p-4",
    ("appendix-6", 0.0, 1): "0x1.f212d9bb80c98p-4",
    ("appendix-6", 0.0, 2): "0x1.f212d9c078560p-4",
    ("appendix-6", 0.25, 0): "0x1.cb8592347e0b9p-5",
    ("appendix-6", 0.25, 1): "0x1.cb85921cb7598p-5",
    ("appendix-6", 0.25, 2): "0x1.cb85921cb8b3cp-5",
    ("appendix-8", 0.25, 0): "0x1.031afba0956fap-5",
    ("appendix-8", 0.25, 1): "0x1.031afba4f82a4p-5",
    ("gaussian", 0.0, 0): "0x1.fffffffffffffp+0",
    ("gaussian", 0.5, 0): "0x1.b465d10021cd6p-3",
    ("gaussian", 1.0, 0): "0x1.966b8e0a7f9d3p-7",
}


@pytest.mark.parametrize("key", sorted(_PROJECTION_BITS),
                         ids=lambda k: f"{k[0]}-t{k[1]}-refined{k[2]}")
def test_x_projection_bits_unchanged(key):
    name, t, refinements = key
    w = GaussianWeight(1.0, 6) if name == "gaussian" else AppendixExample(int(name[-1]))
    cfg = si.default_config(w)
    for _ in range(refinements):
        cfg = cfg.refined()
    assert si.i_x_projection(w, t, cfg).hex() == _PROJECTION_BITS[key]


def test_perfbench_mirror_oracle_bits_unchanged():
    # perfbench's predict_shifted oracle: the y-projection of the seed-1
    # shifted Gaussian at t = 0.5 with angular_order 8 (predict_quadrature.json)
    w = GaussianWeight(1.0, 6, _perfbench_shift(1))
    cfg = replace(si.default_config(w), angular_order=8)
    assert si.i_y_projection(w, 0.5, cfg).hex() == "0x1.24c3e0f7ab9cfp-2"


def test_coarea_trivial_zero():
    w = GaussianWeight(1.0, 4)
    tg = np.linspace(-1, 1, 51)
    lhs, rhs = si.coarea_check(w, tg, np.zeros_like(tg))
    assert lhs == 0.0 and rhs == 0.0


def test_coarea_d4():
    w = GaussianWeight(1.0, 4)
    tg = np.linspace(-1, 1, 201)
    lhs, rhs = si.coarea_check(w, tg, bump_w0(tg))
    assert abs(lhs - rhs) <= 1e-4 * (1 + abs(lhs))


def test_coarea_bump_integrates_over_its_support():
    # the left side's rule covers the support box [-0.8, 0.8]^4; on the
    # default rule's box [-2.1, 2.1]^4 it read 0.0055617, 3 % low.  32- and
    # 40-point rules on the support box agree on 0.0057309174
    w = ProductBump(0.8, 4)
    assert w.support_box() == [0.8] * 4
    tg = np.linspace(-1, 1, 201)
    lhs, rhs = si.coarea_check(w, tg, bump_w0(tg))
    assert lhs == pytest.approx(0.0057309174, rel=1e-5)
    assert rhs == pytest.approx(0.0057309174, rel=1e-5)


@pytest.mark.parametrize("d", [6, 8])
def test_coarea_other_d_is_a_capability_error(d):
    tg = np.linspace(-1, 1, 51)
    with pytest.raises(CapabilityError, match="d = 4"):
        si.coarea_check(GaussianWeight(1.0, d), tg, bump_w0(tg))


def test_smeared_sigma_coverage_error():
    w = GaussianWeight(1.0, 6)
    grid = si.build_i_grid(w, -0.01, 0.01, 33)
    with pytest.raises(ArgumentError):
        si.smeared_sigma(w, 0.0, 0.2, grid)


def _fourier_reference(a, shift, t):
    """I(t) = 2 Re int_0^inf prod_i Psi_i(theta) e(-theta t) dtheta in
    mpmath, with the closed-form Gaussian pair transforms; quadosc past the
    oscillation."""
    import mpmath
    mpmath.mp.dps = 15
    s = [mpmath.mpf(float(v)) for v in shift]
    d1 = len(s) // 2
    n2, sig = sum(v * v for v in s), sum(x * y for x, y in zip(s[:d1], s[d1:]))

    def f(th):
        q = a * a + th * th
        P = q ** (-mpmath.mpf(d1) / 2) * mpmath.exp(
            mpmath.pi * a * a * (a * n2 + 2j * th * sig) / q - mpmath.pi * a * n2)
        return 2 * mpmath.re(P * mpmath.expj(-2 * mpmath.pi * th * t))
    if t == 0:
        return float(mpmath.quad(f, [0, a, 10 * a, mpmath.inf]))
    return float(mpmath.quadosc(f, [0, mpmath.inf], omega=2 * mpmath.pi * abs(t)))


def _perfbench_shift(seed):
    import random
    rng = random.Random(f"predict_shifted:{seed}")
    return np.array([float(f"{rng.uniform(-0.3, 0.3):.6f}") for _ in range(6)])


@pytest.mark.parametrize("t", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("d1", [2, 3, 4])
@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_theta_integral_isotropic_vs_mpmath(a, d1, t):
    # the value is the closed-form model alone (its remainder is exactly 0);
    # the reference integrates the Fourier integral itself
    import mpmath
    w = GaussianWeight(a, 2 * d1)
    val, bound = si.i_theta(w, t)
    mpmath.mp.dps = 20

    def f(th):
        return 2 * mpmath.cos(2 * mpmath.pi * th * t) * (a * a + th * th) ** (-mpmath.mpf(d1) / 2)
    ref = float(mpmath.quad(f, [0, a, 10 * a, mpmath.inf]) if t == 0
                else mpmath.quadosc(f, [0, mpmath.inf], omega=2 * mpmath.pi * t))
    assert abs(val - ref) <= min(1e-11 * ref, bound)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_theta_integral_perfbench_shifts_vs_mpmath(seed):
    w = GaussianWeight(1.0, 6, _perfbench_shift(seed))
    val, bound = si.i_theta(w, 0.5)
    ref = _fourier_reference(1.0, w.shift, 0.5)
    assert abs(val - ref) <= min(1e-11 * ref, bound)


@pytest.mark.parametrize("seed", range(1, 11))
def test_theta_integral_matches_projection(seed):
    # perfbench holds predict's sigma_infty to 1e-8 of this y-projection
    w = GaussianWeight(1.0, 6, _perfbench_shift(seed))
    cfg = replace(si.default_config(w), angular_order=8)
    assert abs(si.sigma_infty(w, 0.5) - si.i_y_projection(w, 0.5, cfg)) <= 1e-11


@pytest.mark.parametrize("t", [0.0, 0.3, -0.3, 1.0])
def test_theta_integral_d1_2_vs_mpmath(t):
    # the projection agrees too; at t = 0 that needs its apex panel
    # [0, 1e-6 r_max], without which it came out 6.3e-6 low
    s = 0.25 * np.sin(np.arange(4) + 1.0)
    w = GaussianWeight(1.5, 4, s)
    val, bound = si.i_theta(w, t)
    ref = _fourier_reference(1.5, s, t)
    assert abs(val - ref) <= bound
    assert abs(val - ref) <= 1e-12 * ref
    assert abs(si.i_x_projection(w, t) / ref - 1) <= 1e-9


def test_theta_integral_bump_recorded_values():
    # I(0) and I(0.5) at d1 = 3 as ROADMAP item 8 records them (11 digits,
    # from an earlier model-subtracted computation); the tensor projection
    # rule gave I(0) 6.1e-4 high
    w = ProductBump(1.0, 6)
    for t, proto in ((0.0, 0.012769770028), (0.5, 0.0019532640529)):
        val, bound = si.i_theta(w, t)
        assert bound < 1e-15
        assert abs(val - proto) <= 5e-13 + bound
        refined, _ = si.i_theta(w, t, refined=True)
        assert abs(val - refined) <= 1e-16


@pytest.mark.parametrize("w", [GaussianWeight(1.0, 6, [0.1, -0.2, 0.05, 0.0, 0.15, -0.1]),
                               ProductBump(0.8, 6), GaussianWeight(1.0, 8, [0.1] * 8)])
def test_theta_integral_integrates_to_the_mass(w):
    # int I(t) dt = int w = prod_i Psi_i(0), the weight's mass; the bump's I
    # vanishes past |t| = d1 scale^2
    from numpy.polynomial.legendre import leggauss
    x, wt = leggauss(12)
    T = 1.92 if isinstance(w, ProductBump) else 4.0
    half_edges = T * 2.0 ** -np.arange(10.0)          # graded toward the kink at 0
    edges = np.concatenate([-half_edges, [0.0], half_edges[::-1]])
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    ts, wts = (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * wt).ravel()
    integral = fsum(wi * si.i_theta(w, ti)[0] for ti, wi in zip(ts, wts))
    mass = float(np.prod(w.pair_transform(np.array([0.0]))).real)
    assert integral == pytest.approx(mass, rel=1e-6)


def test_theta_integral_argument_checks():
    with pytest.raises(ArgumentError):
        si.i_theta(AppendixExample(6), 0.5)
    with pytest.raises(ArgumentError):
        si.i_theta(GaussianWeight(1.0, 2), 0.5)
    with pytest.raises(ArgumentError):
        si.i_theta(GaussianWeight(1.0, 6), math.inf)


def test_sigma_infty_takes_the_theta_integral():
    # pair-factor weights take the theta integral, other weights the
    # x-projection on their default rule
    w = GaussianWeight(1.0, 6, [0.1, -0.2, 0.05, 0.0, 0.15, -0.1])
    assert si.sigma_infty(w, 0.5) == si.i_theta(w, 0.5)[0]
    a = AppendixExample(6)
    assert si.sigma_infty(a, 0.25) == si.i_x_projection(a, 0.25, si.default_config(a))
    grid = si.build_i_grid(w, -1.0, 1.0, 3)
    assert list(grid.I_values) == [si.i_theta(w, t)[0] for t in (-1.0, 0.0, 1.0)]


def test_projection_refuses_a_weight_without_fibre_rule():
    # the bump has neither closed-form fibres nor a biradial form; its
    # I(t) is the theta integral
    with pytest.raises(CapabilityError, match="ProductBump has neither"):
        si.i_x_projection(ProductBump(1.0, 6), 0.5)


def test_derivative_fd_of_the_bump_is_its_stencil_over_sigma_infty():
    w, t, step = ProductBump(1.0, 6), 0.5, 0.05
    for k, stencil in si._STENCILS.items():
        ref = fsum(c * si.sigma_infty(w, t + off * step) for off, c in stencil) / step ** k
        assert si.i_derivative_fd(w, t, k, step) == ref


def test_i_is_exactly_zero_past_a_bounded_support():
    # |x.y| <= |z|^2 / 2: I(t) = 0 once |t| >= support_radius^2 / 2, that is
    # d1 scale^2 for the bump and 1/2 for appendix-example; just inside, the
    # theta integral runs as before
    w = ProductBump(1.0, 6)
    assert si.sigma_infty(w, 2.9) == si.i_theta(w, 2.9)[0]
    grid = si.build_i_grid(w, -4.0, 4.0, 33)
    past = np.abs(grid.t_values) >= 3.0
    assert past.sum() == 10 and np.all(grid.I_values[past] == 0.0)
    assert si.sigma_infty(ProductBump(0.5, 4), 0.5) == 0.0
    a = AppendixExample(6)
    for t in (0.5, -0.5, 2.0):
        assert si.sigma_infty(a, t) == 0.0 == si.i_x_projection(a, t)
    with pytest.raises(ArgumentError):
        si.sigma_infty(w, math.inf)


@pytest.mark.parametrize("d1", [2, 3])
def test_apex_panel_mirror_projections_agree_at_zero(d1):
    # at t = 0 the radial rule's apex panel [0, 1e-6 r_max] carries a share of
    # I(0) that the x- and y-projections weigh differently; without it they
    # differed by 3.7e-6 relative at d1 = 2
    a = AppendixExample(2 * d1)
    x, y = si.i_x_projection(a, 0.0), si.i_y_projection(a, 0.0)
    assert abs(x - y) <= 1e-7 * abs(y)


@pytest.mark.parametrize("d1", [2, 3, 4, 5])
def test_model_transform_vs_mpmath_besselk(d1):
    # Basset's integral by the trapezoid rule, from t = 1e-300 (where x^nu
    # and cosh(nu u) would overflow apart) to t = 10, within its bound
    import mpmath
    mpmath.mp.dps = 30
    nu = mpmath.mpf(d1 - 1) / 2
    for c in (0.5, 3.0):
        for t in (1e-300, 1e-12, 0.01, 0.5, 2.0, 10.0):
            val, err = si._model_transform(d1, c, t)
            x = 2 * mpmath.pi * c * t
            ref = float(2 * mpmath.sqrt(mpmath.pi) / mpmath.gamma(mpmath.mpf(d1) / 2)
                        * (mpmath.pi * t / c) ** nu * mpmath.besselk(nu, x))
            assert abs(val - ref) <= err, (c, t)
            assert err <= 1e-12 * ref
        val, err = si._model_transform(d1, c, 0.0)
        assert val == pytest.approx(float(mpmath.sqrt(mpmath.pi) * mpmath.gamma(nu)
                                          / mpmath.gamma(mpmath.mpf(d1) / 2)) * c ** (1 - d1),
                                    rel=1e-15)
