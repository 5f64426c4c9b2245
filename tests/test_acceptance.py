"""End-to-end acceptance checks, one test per release criterion.

Each test prints a single PASS line with the measured quantity so the
verbose pytest log doubles as the acceptance report.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from mpmath import besselk

from splitquad import counter, delta_kernel, exp_sums, sing_integral
from splitquad.forms import LatticeSpec
from splitquad.weights import AppendixExample, GaussianWeight, ProductBump, bump_w0

RNG = np.random.default_rng(20260823)


def _report(name: str, detail: str):
    print(f"PASS {name}: {detail}")


def test_criterion_01_delta_identity():
    cfg = delta_kernel.DeltaKernelConfig(Q=20.0)
    delta_kernel.calibrate_cQ(cfg)
    worst = max(abs(delta_kernel.delta_sum(n, cfg) - (1.0 if n == 0 else 0.0))
                for n in range(-50, 51))
    assert worst <= 1e-9
    c10 = delta_kernel.calibrate_cQ(delta_kernel.DeltaKernelConfig(Q=10.0))
    c40 = delta_kernel.calibrate_cQ(delta_kernel.DeltaKernelConfig(Q=40.0))
    assert abs(c40 - 1.0) < abs(c10 - 1.0)
    _report("criterion 1 (delta identity)",
            f"max residual {worst:.3e} at Q=20; |c_40-1|={abs(c40-1):.3e} "
            f"< |c_10-1|={abs(c10-1):.3e}")


def _kernel_grid_max(nx: int, ny: int) -> float:
    xs = np.linspace(0.01, 1.0, nx)
    ys = np.linspace(-3.0, 3.0, ny)
    best = 0.0
    for y in ys:
        v = delta_kernel.h(xs, y)       # one row call per y
        assert np.all(v[xs > max(1.0, 2.0 * abs(y))] == 0.0)
        best = max(best, float(np.max(xs * np.abs(v))))
    return best


def test_criterion_02_kernel_bounds():
    C1 = _kernel_grid_max(200, 200)
    C2 = _kernel_grid_max(400, 400)
    assert abs(C2 - C1) <= 0.10 * C1
    _report("criterion 2 (kernel bounds)",
            f"vanishing region exact; fitted C={C1:.6f}, doubled-grid C={C2:.6f}")


def test_criterion_03_exponential_sum_oracles():
    d1 = 3
    cs = [tuple(int(v) for v in RNG.integers(-10, 11, size=6)) for _ in range(10)]
    worst = 0.0
    for q in range(1, 21):
        for t in (0, 1, -1, 6, -6):
            for c in cs:
                a = exp_sums.S_q_naive(d1, q, c, t).value
                b = exp_sums.S_q_factored(d1, q, c, t).value
                worst = max(worst, abs(a - b) / (1.0 + abs(b)))
    assert worst <= 1e-8
    for q in range(1, 51):
        for t in (0, 1, 6):
            assert exp_sums.S_q_factored(d1, q, [0] * 6, t).value_exact \
                == q ** 3 * exp_sums.ramanujan(q, t)
    pairs = 0
    q1 = 2
    while pairs < 50:
        q2 = int(RNG.integers(2, 40))
        if math.gcd(q1, q2) != 1:
            continue
        for t in (0, 6):
            lhs = exp_sums.S_q_factored(d1, q1 * q2, [0] * 6, t).value_exact
            rhs = (exp_sums.S_q_factored(d1, q1, [0] * 6, t).value_exact
                   * exp_sums.S_q_factored(d1, q2, [0] * 6, t).value_exact)
            assert lhs == rhs
        pairs += 1
        q1 = q1 % 37 + int(RNG.integers(1, 5))
        q1 = max(2, q1)
    _report("criterion 3 (exponential sums)",
            f"naive vs factored rel err {worst:.3e}; closed form exact q<=50; "
            f"{pairs} coprime multiplicativity pairs exact")


def _residue_count(p: int, k: int, t: int) -> int:
    """Count z in [0, p^k)^6 with z_x . z_y = t mod p^k by full enumeration."""
    pk = p ** k
    ax = np.arange(pk)
    X = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    X = X.astype(np.int64)
    total = 0
    for lo in range(0, len(X), 2000):
        chunk = X[lo:lo + 2000]
        dots = (chunk @ X.T) % pk
        total += int(np.count_nonzero(dots == t % pk))
    return total


def test_criterion_04_local_density_identity():
    for (p, k) in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)):
        for t in (0, 1):
            series = sum(Fraction(exp_sums.ramanujan(p ** l, t), p ** (3 * l))
                         for l in range(k + 1))
            exhaustive = Fraction(_residue_count(p, k, t), p ** (5 * k))
            assert series == exhaustive
            assert exp_sums.local_density(p, k, 3, t) == exhaustive
    _report("criterion 4 (local densities)",
            "partial sums equal exhaustive residue counts as exact rationals "
            "for (p,k) up to (5,2), t in {0,1}")


def test_criterion_05_singular_series_values():
    r3 = exp_sums.sigma_remark5_product(10 ** 4, 3)
    r4 = exp_sums.sigma_remark5_product(10 ** 4, 4)
    assert abs(r3.value - 1.305) <= 1e-3
    assert abs(r4.value - 1.100) <= 1e-3
    eu = exp_sums.sigma_euler(10 ** 4, 6, 0)
    di = exp_sums.sigma_dirichlet(10 ** 5, 6, 0)
    gap = abs(eu.value - di.value)
    tails = eu.tail_bound + di.tail_bound
    assert gap <= tails, f"definitional assemblies disagree: gap {gap} > {tails}"
    _report("criterion 5 (singular series)",
            f"closed-form sigma_3={r3.value:.4f}, sigma_4={r4.value:.4f}; "
            f"euler={eu.value:.9f} vs dirichlet={di.value:.9f}, "
            f"gap {gap:.2e} <= combined tails {tails:.2e}")


def test_criterion_06_singular_integral():
    w = GaussianWeight(1.0, 6)
    e0 = abs(sing_integral.sigma_infty(w, 0.0) - 2.0)
    ref1 = float(4 * math.pi * besselk(1, 2 * math.pi))
    e1 = abs(sing_integral.sigma_infty(w, 1.0) - ref1)
    assert e0 <= 1e-6 and e1 <= 1e-6
    weights = [GaussianWeight(1.0, 6), AppendixExample(6),
               GaussianWeight(1.0, 6, shift=[0.2, 0, 0, 0, 0.1, 0])]
    sym = 0.0
    for wt in weights:
        d = abs(sing_integral.i_x_projection(wt, 0.3)
                - sing_integral.i_y_projection(wt, 0.3))
        sym = max(sym, d)
    assert sym <= 2e-6
    w4 = GaussianWeight(1.0, 4)
    tg = np.linspace(-1, 1, 201)
    lhs, rhs = sing_integral.coarea_check(w4, tg, bump_w0(tg))
    rel = abs(lhs - rhs) / (1 + abs(lhs))
    assert rel <= 1e-4
    _report("criterion 6 (singular integral)",
            f"closed-form errors {e0:.2e}, {e1:.2e}; x-vs-y max {sym:.2e}; "
            f"coarea rel {rel:.2e}")


def test_criterion_07_second_derivative_log_singularity():
    w = AppendixExample(6, generic=True)
    ts = (1e-1, 1e-2, 1e-3)
    mags = [abs(sing_integral.i_derivative_fd(w, t, 2, t / 4)) for t in ts]
    X = np.array([math.log(1.0 / t) for t in ts])
    Y = np.array(mags)
    b, a = np.polyfit(X, Y, 1)
    fit = a + b * X
    ss_res = float(np.sum((Y - fit) ** 2))
    ss_tot = float(np.sum((Y - np.mean(Y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    assert b > 0
    assert r2 >= 0.9
    _report("criterion 7 (log singularity of I'')",
            f"|I''| fits a + b*log(1/t) with b={b:.3f} > 0, R^2={r2:.6f}")


def test_criterion_08_smeared_sigma_convergence():
    w = GaussianWeight(1.0, 6)
    grid = sing_integral.build_i_grid(w, -0.25, 0.25, 251)
    target = sing_integral.sigma_infty(w, 0.0)
    errs = [abs(sing_integral.smeared_sigma(w, 0.0, x, grid) - target)
            for x in (0.2, 0.1, 0.05)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 0.05
    _report("criterion 8 (smeared sigma)",
            "errors at x=0.2,0.1,0.05: " + ", ".join(f"{e:.4f}" for e in errs)
            + " (monotone, final <= 0.05)")


def test_criterion_09_counting_oracle_equivalence():
    configs = [(int(RNG.integers(2, 4)), int(RNG.integers(1, 4)),
                float(RNG.integers(0, 3))) for _ in range(5)]
    worst = 0.0
    for d1, L, m in configs:
        w = GaussianWeight(1.0, 2 * d1) if d1 == 3 else ProductBump(1.0, 2 * d1)
        spec = LatticeSpec(L=L, m=m)
        res = counter.enumerate_N_L(w, spec, eps=1e-11)
        box = int(math.ceil(res.truncation_radius * L)) + 1
        ref = counter.brute_force_N_L(w, spec, box)
        worst = max(worst, abs(res.value - ref))
    assert worst <= 1e-9
    w1 = GaussianWeight(1.0, 2)
    theta = counter.enumerate_N_L(w1, LatticeSpec(L=1, m=0), eps=1e-9).value
    assert abs(theta - 1.1728697) <= 1e-6
    _report("criterion 9 (counting oracle)",
            f"5 random configs agree within {worst:.2e}; "
            f"axis theta value {theta:.7f}")


def test_criterion_10_main_asymptotic():
    w = GaussianWeight(1.0, 6)
    sig_inf = sing_integral.sigma_infty(w, 0.0)
    sig_def = exp_sums.sigma_dirichlet(10 ** 5, 6, 0).value
    sig_r5 = exp_sums.sigma_remark5_product(10 ** 4, 3).value
    Ls = [2, 4, 6, 8]
    exact, err_def, err_r5 = {}, {}, {}
    for L in Ls:
        res = counter.enumerate_N_L(w, LatticeSpec(L=L, m=0), eps=1e-8)
        exact[L] = res.value
        scale = L ** 4
        err_def[L] = abs(res.value / (sig_inf * sig_def * scale) - 1.0)
        err_r5[L] = abs(res.value / (sig_inf * sig_r5 * scale) - 1.0)
    converging = []
    for name, err in (("definitional", err_def), ("remark5", err_r5)):
        if err[8] <= 0.15 and err[4] > err[6] > err[8]:
            converging.append(name)
    assert converging, f"no sigma variant converged: def {err_def}, r5 {err_r5}"

    def fit_exp(pred_sigma):
        pts = [(math.log(L), math.log(abs(exact[L] - sig_inf * pred_sigma * L ** 4)))
               for L in Ls]
        return float(np.polyfit([p[0] for p in pts], [p[1] for p in pts], 1)[0])

    exps = {"definitional": fit_exp(sig_def), "remark5": fit_exp(sig_r5)}
    assert any(exps[name] <= 4.0 for name in converging)
    _report("criterion 10 (main asymptotic)",
            f"|ratio-1| at L=8: def {err_def[8]:.4f}, r5 {err_r5[8]:.4f}; "
            f"converging variants {converging}; fitted error exponents "
            + ", ".join(f"{k}={v:.2f}" for k, v in exps.items()))
