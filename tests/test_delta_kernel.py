import functools
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from splitquad import delta_kernel as dk
from splitquad.errors import AccuracyError, ArgumentError, CapabilityError
from splitquad.exp_sums import ramanujan


@functools.lru_cache(maxsize=None)     # h1(q/Q) does not depend on n
def _h1_literal(x):
    # one window, j ascending, as a scalar loop over numpy slices
    j = np.arange(max(1, math.floor(1.0 / (2 * x))), math.floor(1.0 / x) + 1)
    v = x * j
    mask = (v > 0.5) & (v < 1.0)
    return math.fsum(dk.omega(v[mask]) / v[mask])


def _h2_literal(x, y):
    ay = abs(y)
    if ay == 0.0:
        return 0.0
    j = np.arange(max(1, math.floor(ay / x)), math.floor(2 * ay / x) + 1)
    u = ay / (x * j)
    mask = (u > 0.5) & (u < 1.0)
    return math.fsum(dk.omega(u[mask]) / (x * j[mask]))


def _raw_delta_literal(n, Q):
    # the per-q loop: scalar ramanujan times the literal kernel windows
    qmax = math.floor(Q * max(1.0, 2.0 * abs(n) / Q ** 2))
    y = n / Q ** 2
    return math.fsum(ramanujan(q, n) * (_h1_literal(q / Q) - _h2_literal(q / Q, y))
                     for q in range(1, qmax + 1)) / Q ** 2


def test_c0_value():
    # the bump mass; independent adaptive quadrature
    val, err = quad(dk.w0, -1, 1, epsabs=1e-13)
    assert dk.DeltaKernelConfig(Q=10.0).c0 == pytest.approx(val, abs=1e-11)
    assert 0.44 < val < 0.45


def test_c0_literal_matches_quadratures():
    # the literal _C0 against 30-digit tanh-sinh and adaptive Gauss-Kronrod
    with mpmath.workdps(30):
        ts = float(mpmath.quad(lambda x: mpmath.exp(1 / (x * x - 1)), [-1, 0, 1]))
    gk, _ = quad(dk.w0, -1.0, 1.0, epsabs=1e-13, limit=200)
    assert abs(ts - gk) <= 1e-12
    assert abs(dk._C0 - ts) <= 1e-12 and abs(dk._C0 - gk) <= 1e-12


def test_omega_unit_mass_and_support():
    val, _ = quad(dk.omega, 0.5, 1.0, epsabs=1e-12, limit=200)
    assert val == pytest.approx(1.0, abs=1e-9)
    assert dk.omega(0.49) == 0.0
    assert dk.omega(1.01) == 0.0
    assert dk.omega(0.75) > 0.0


def test_h_vanishing_region():
    # h(x, y) = 0 whenever x > max(1, 2|y|)
    for x in (1.01, 1.5, 3.0):
        for y in (0.0, 0.1, x / 2 - 1e-9):
            assert dk.h(x, y) == 0.0
    assert math.isfinite(dk.h(2.0, 1.5))   # x <= 2|y| region stays defined


def test_h_equals_h1_near_zero_y():
    # |y| <= x/2 gives h = h1 (the h2 window is empty)
    for x in (0.05, 0.2, 0.7):
        assert dk.h(x, 0.3 * x) == dk.h1(x)
        assert dk.h2(x, 0.3 * x) == 0.0


def test_h1_h2_match_literal_windows():
    for x in (0.003, 0.05, 0.2, 1 / 7.5, 0.37, 0.7, 1.0, 1.3):
        assert dk.h1(x) == _h1_literal(x)
        for y in (0.0, 0.01, 0.3, -1.1, 7.0, 1e3):
            assert dk.h2(x, y) == _h2_literal(x, y)


def test_h_scale_bound():
    # |h(x, y)| <= C / x on a coarse grid
    xs = np.linspace(0.01, 1.0, 50)
    ys = np.linspace(-3, 3, 50)
    worst = max(x * abs(dk.h(x, y)) for x in xs for y in ys)
    assert worst < 4.0


def test_min_x_capability():
    with pytest.raises(CapabilityError):
        dk.h1(1e-8)
    with pytest.raises(ArgumentError):
        dk.h1(-0.5)


def test_delta_identity_sweep_small():
    cfg = dk.DeltaKernelConfig(Q=10.0)
    dk.calibrate_cQ(cfg)
    for n in range(-20, 21):
        target = 1.0 if n == 0 else 0.0
        assert dk.delta_sum(n, cfg) == pytest.approx(target, abs=1e-9)


@pytest.mark.parametrize("Q", [7.5, 10.0, 20.0, 60.0])
def test_delta_sum_matches_literal_sum(Q):
    # fsum is correctly rounded, so the batched pass equals the loop bit for bit
    for n in range(-300, 301):
        assert dk._raw_delta_sum(n, Q) == _raw_delta_literal(n, Q), n
    # qmax > Q (|n| > Q^2/2) and levels with square factors
    for n in (5000, -12345, 72, 144, 3600) + ((99991,) if Q == 60 else ()):
        assert dk._raw_delta_sum(n, Q) == _raw_delta_literal(n, Q), n
    assert dk.calibrate_cQ(dk.DeltaKernelConfig(Q=Q)) == 1.0 / _raw_delta_literal(0, Q)


def test_delta_term_cap():
    # qmax alone past the cap, and the h2 windows past it with qmax below
    cfg = dk.DeltaKernelConfig(Q=60.0)
    with pytest.raises(CapabilityError, match="q terms"):
        dk.delta_sum(1099511627779, cfg)
    with pytest.raises(CapabilityError, match="kernel terms"):
        dk.delta_sum(2 * 10 ** 6, dk.DeltaKernelConfig(Q=10.0))   # qmax 4e5


def test_h2_window_cap():
    # the h2 window has about |y|/x terms; past MAX_TERMS it is refused unallocated
    with pytest.raises(CapabilityError, match="window terms"):
        dk.h(0.01, 1e12)
    with pytest.raises(CapabilityError, match="window terms"):
        dk.h2(1e-3, 1e15)
    with pytest.raises(CapabilityError, match="window terms"):
        dk.h2(1.0, 2.5e6)           # 2.5e6 + 1 terms
    with pytest.raises(CapabilityError, match="window terms"):
        dk.h2(0.5, float("nan"))
    assert dk.h2(0.01, 1000.0) == _h2_literal(0.01, 1000.0)     # 1e5 + 1 terms


def test_cQ_approaches_one():
    cs = {}
    for Q in (10.0, 20.0, 40.0):
        cfg = dk.DeltaKernelConfig(Q=Q)
        cs[Q] = dk.calibrate_cQ(cfg)
    assert abs(cs[40.0] - 1.0) < abs(cs[10.0] - 1.0)


def test_smear_grid_contracts():
    y = np.linspace(-1, 1, 2001)
    f = np.exp(-y * y)
    v1 = dk.smear(y, f, 0.1)
    v2 = dk.smear(y, 2.0 * f, 0.1)
    assert v2 == pytest.approx(2.0 * v1, rel=1e-12)
    with pytest.raises(AccuracyError):
        dk.smear(np.linspace(-1, 1, 21), np.ones(21), 0.05)
    with pytest.raises(CapabilityError):
        dk.smear(y, f, 1e-8)
    with pytest.raises(ArgumentError):
        dk.smear(y[:10], f, 0.1)


def test_smear_window_mass_near_one():
    # Integral of h(x, .) over |y| <= x^0.95 is close to 1 for small x
    x = 0.05
    X = x ** 0.95
    y = np.linspace(-X, X, 801)
    mass = dk.smear(y, np.ones_like(y), x)
    assert mass == pytest.approx(1.0, abs=0.1)
