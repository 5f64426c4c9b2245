import functools
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from splitquad import delta_kernel as dk
from splitquad.errors import AccuracyError, ArgumentError, CapabilityError
from splitquad.exp_sums import ramanujan
from splitquad.weights import bump_w0


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


def test_c0_literal_matches_quadratures():
    # the literal _C0 against 30-digit tanh-sinh and adaptive Gauss-Kronrod
    with mpmath.workdps(30):
        ts = float(mpmath.quad(lambda x: mpmath.exp(1 / (x * x - 1)), [-1, 0, 1]))
    gk, _ = quad(bump_w0, -1.0, 1.0, epsabs=1e-13, limit=200)
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
    # |h(x, y)| <= C / x on a coarse grid, one row call per y
    xs = np.linspace(0.01, 1.0, 50)
    ys = np.linspace(-3, 3, 50)
    worst = max(float(np.max(xs * np.abs(dk.h(xs, y)))) for y in ys)
    assert worst < 4.0


def test_array_h_equals_scalar_h():
    # rows of criterion 2's two grids, the first and last y among them
    for n, step in ((200, 11), (400, 21)):
        xs = np.linspace(0.01, 1.0, n)
        for y in np.linspace(-3.0, 3.0, n)[::-step]:
            row = dk.h(xs, y)
            assert row.dtype == float and row.shape == xs.shape
            assert row.tolist() == [dk.h(x, y) for x in xs], y
    xs = np.array([0.003, 0.05, 1 / 7.5, 0.7, 1.0, 1.3, 2.0])
    for y in (0.0, 0.01, -1.1, 7.0):
        assert dk.h1(xs).tolist() == [_h1_literal(x) for x in xs]
        assert dk.h2(xs, y).tolist() == [_h2_literal(x, y) for x in xs]
    # the shape of x is kept, a scalar x gives a float, and no x gives no value
    grid = xs[:6].reshape(2, 3)
    assert dk.h(grid, 0.4).tolist() == dk.h(grid.ravel(), 0.4).reshape(2, 3).tolist()
    assert type(dk.h(0.2, 0.3)) is float and type(dk.h1(np.float64(0.2))) is float
    assert dk.h(np.array([]), 1.0).shape == (0,)


def test_array_h_checks_every_x():
    with pytest.raises(ArgumentError):
        dk.h(np.array([0.5, 0.0, 0.2]), 0.1)
    with pytest.raises(CapabilityError, match="below minimum"):
        dk.h1(np.array([0.5, 1e-8]))


def test_array_h_window_cap_before_allocation(monkeypatch):
    # one total over every window of a call, checked before any window is walked
    def refuse(*args, **kwargs):
        raise AssertionError("windows walked")
    xs = np.full(4, dk.MIN_X)              # 4 x 500001 h1 window terms
    with monkeypatch.context() as m:
        m.setattr(dk, "_window_sums", refuse)
        with pytest.raises(CapabilityError, match="window terms"):
            dk.h1(xs)
        with pytest.raises(CapabilityError, match="window terms"):
            dk.h(xs[:2], 0.5)              # about 1e6 h1 and 1e6 h2 terms: each under the cap
        with pytest.raises(CapabilityError, match="window terms"):
            dk.h2(np.ones(2), 1e6)         # 2 x (1e6 + 1) terms
        with pytest.raises(CapabilityError, match="window terms"):
            dk.h1(np.array([0.5, np.nan]))


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
    # fsum is correctly rounded, so the batched pass equals the loop bit for bit.
    # One config throughout: qmax > Q (|n| > Q^2/2) grows its tables, and the
    # small n after them take a prefix; some levels have square factors
    cfg = dk.DeltaKernelConfig(Q=Q)
    big = (5000, -12345, 3600, 72, 144) + ((99991,) if Q == 60 else ())
    for n in [*range(-300, 301), *big, *range(-40, 41)]:
        assert dk._raw_delta_sum(n, cfg) == _raw_delta_literal(n, Q), n
    assert cfg.tables.x.size == max(math.floor(Q * 2 * abs(n) / Q ** 2) for n in big)
    assert dk.calibrate_cQ(dk.DeltaKernelConfig(Q=Q)) == 1.0 / _raw_delta_literal(0, Q)


def test_delta_tables_follow_Q():
    # a config whose Q changes rebuilds its tables, even for a smaller qmax
    cfg = dk.DeltaKernelConfig(Q=20.0)
    assert dk._raw_delta_sum(5000, cfg) == _raw_delta_literal(5000, 20.0)
    cfg.Q = 10.0
    for n in (0, 7, -30):
        assert dk._raw_delta_sum(n, cfg) == _raw_delta_literal(n, 10.0), n
    assert cfg.tables.Q == 10.0 and cfg.tables.x.size == 10


def test_delta_sweep_builds_one_sieve(monkeypatch):
    # the n-independent tables are built once for a sweep whose qmax never grows
    calls = {"_phi_sieve": [], "_mu_sieve": []}
    for name in calls:
        def counted(X, sieve=getattr(dk, name), name=name):
            calls[name].append(X)
            return sieve(X)
        monkeypatch.setattr(dk, name, counted)
    cfg = dk.DeltaKernelConfig(Q=60.0)
    for n in range(-200, 201):
        dk.delta_sum(n, cfg)
    assert calls == {"_phi_sieve": [60], "_mu_sieve": [60]}


def test_delta_sum_makes_at_most_one_exp_call(monkeypatch):
    # once c_Q and the tables are set, the h2 terms of a delta sum go through
    # one np.exp call, and a sum with no h2 window (|n| < Q/2) makes none
    cfg = dk.DeltaKernelConfig(Q=60.0)
    dk.calibrate_cQ(cfg)
    exp, calls = np.exp, []

    def counted(a):
        calls.append(len(a))
        return exp(a)
    monkeypatch.setattr(np, "exp", counted)
    for n in (*range(-200, 201), 1799, -1799):      # qmax stays 60
        calls.clear()
        dk.delta_sum(n, cfg)
        assert len(calls) == (0 if abs(n) < 30 else 1), n


def test_cQ_recalibrated_when_Q_changes():
    cfg = dk.DeltaKernelConfig(Q=20.0)
    dk.delta_sum(0, cfg)
    cfg.Q = 10.0
    assert dk.delta_sum(0, cfg) == 1.0 == dk.delta_sum(0, dk.DeltaKernelConfig(Q=10.0))
    assert cfg.cQ == dk.calibrate_cQ(dk.DeltaKernelConfig(Q=10.0))


def test_delta_term_cap():
    # qmax alone past the cap, and the h2 windows past it with qmax below,
    # each on a fresh config and on one whose tables are built
    for built in (False, True):
        cfg, cfg10 = dk.DeltaKernelConfig(Q=60.0), dk.DeltaKernelConfig(Q=10.0)
        if built:
            dk.delta_sum(3, cfg)
            dk.delta_sum(-700, cfg10)      # qmax 140
        with pytest.raises(CapabilityError, match="q terms"):
            dk.delta_sum(1099511627779, cfg)
        with pytest.raises(CapabilityError, match="kernel terms"):
            dk.delta_sum(2 * 10 ** 6, cfg10)   # qmax 4e5
        # a refused call leaves the tables as calibration or the first call built them
        assert [c.tables.x.size for c in (cfg, cfg10)] == ([60, 140] if built else [60, 10])


def test_delta_term_cap_without_h2_windows(monkeypatch):
    # at n = 0 there is no h2 window, and qmax plus the h1 windows (about
    # 3e6 terms at Q = 5e5) is refused before the tables are built
    def refuse(*args, **kwargs):
        raise AssertionError("windows walked")
    monkeypatch.setattr(dk, "_window_sums", refuse)
    cfg = dk.DeltaKernelConfig(Q=5e5)
    with pytest.raises(CapabilityError, match="kernel terms"):
        dk.delta_sum(0, cfg)
    assert cfg.tables is None


def test_delta_sum_needs_integral_n():
    cfg = dk.DeltaKernelConfig(Q=10.0)
    for bad in (2.5, -0.5, np.float64(7.25), float("nan"), float("inf")):
        with pytest.raises(ArgumentError, match="integer n"):
            dk.delta_sum(bad, cfg)
    for n in (np.int64(7), np.int32(-3), 7.0, np.float64(-3.0)):
        assert dk.delta_sum(n, cfg) == dk.delta_sum(int(n), cfg)


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
    # x <= 0 is a usage error, as in h, and x = MIN_X is accepted, as in h1
    for x in (0.0, -0.1):
        with pytest.raises(ArgumentError, match="x > 0"):
            dk.smear(y, f, x)
    fine = np.linspace(-dk.MIN_X, dk.MIN_X, 41)       # spacing MIN_X / 20
    assert math.isfinite(dk.smear(fine, np.ones_like(fine), dk.MIN_X))


def test_smear_window_mass_near_one():
    # Integral of h(x, .) over |y| <= x^0.95 is close to 1 for small x
    x = 0.05
    X = x ** 0.95
    y = np.linspace(-X, X, 801)
    mass = dk.smear(y, np.ones_like(y), x)
    assert mass == pytest.approx(1.0, abs=0.1)
