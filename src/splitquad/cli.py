"""Command-line harness ``qc``: prediction, counting, verification, checks.

All numeric CSV output uses the fixed %.12e format with fixed row
orderings, so identical inputs give byte-identical output.  Exit codes:
0 success, 1 check failure, 2 usage error, 3 capability/accuracy error.

A JSON config file (--config) mirrors the flags; explicit flags win.
Schema keys: d1, m, L, L_list, weight, eps, cutoffs {primes, q, l},
quadrature {radial, angular, plane, r_min, r_max}, budget.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace

import click
import numpy as np

from . import counter, delta_kernel, exp_sums, sing_integral
from .errors import AccuracyError, ArgumentError, CapabilityError
from .forms import LatticeSpec, QuadraticFormF0
from .weights import parse_weight

FMT = "%.12e"
EPSILON = 0.5   # the epsilon of the error-term exponent d/2 + epsilon


def _f(x: float) -> str:
    return FMT % x


@dataclass
class PredictionReport:
    d: int
    m: float
    L: float
    sigma_infty: float
    sigma_remark5: float
    sigma_definitional: float
    main_term_r5: float
    main_term_def: float
    error_envelope: float
    epsilon: float
    error_constants: tuple

    @staticmethod
    def constants_for(d: int) -> tuple:
        n1 = 2 * d * d - 2 * d
        return (n1, 7 * (d + 1), n1 + 3 * d + 4)


@dataclass
class ConvergenceRow:
    L: float
    exact: float
    predicted_def: float
    predicted_r5: float
    ratio_def: float
    ratio_r5: float
    fitted_error_exponent: float | None = None


def _merge_config(config_path, flags: dict) -> dict:
    cfg = {}
    if config_path:
        with open(config_path) as fh:
            cfg = json.load(fh)
    for k, v in flags.items():
        if v is not None:
            cfg[k] = v
    return cfg


def _quad_config(w, cfg: dict):
    qc = sing_integral.default_config(w)
    q = cfg.get("quadrature") or {}
    fields = {"radial": "radial_panels", "angular": "angular_order",
              "plane": "plane_order", "r_min": "r_min", "r_max": "r_max"}
    kw = {fields[k]: v for k, v in q.items() if k in fields}
    return replace(qc, **kw) if kw else qc


def _q_cutoff(cfg: dict) -> int:
    """Cutoff X of the definitional (Dirichlet) singular series."""
    return int((cfg.get("cutoffs") or {}).get("q", 10 ** 5))


def _build_prediction(d1: int, m: float, L: float, weight_spec: str,
                      cfg: dict) -> PredictionReport:
    d = 2 * d1
    if d <= 4:
        raise ArgumentError("predict requires d = 2*d1 > 4")
    spec = LatticeSpec(L=L, m=m)
    w = parse_weight(weight_spec, d)
    cuts = cfg.get("cutoffs") or {}
    P = int(cuts.get("primes", 10 ** 4))
    sig_inf = sing_integral.sigma_infty(w, m, _quad_config(w, cfg))
    sig_def = exp_sums.sigma_dirichlet(_q_cutoff(cfg), d, spec.t).value
    sig_r5 = exp_sums.sigma_remark5_product(P, d1).value
    n1, n2, n3 = PredictionReport.constants_for(d)
    # the full error envelope needs weight norms of derivative order N1;
    # only the n1 <= 2 bounds are certified, so they stand in for both factors
    envelope = L ** (d / 2 + EPSILON) * (w.norm_bound(2, min(n2, 40))
                                         + w.norm_bound(0, min(n3, 40)))
    scale = L ** (d - 2)
    return PredictionReport(d, m, L, sig_inf, sig_r5, sig_def,
                            sig_inf * sig_r5 * scale, sig_inf * sig_def * scale,
                            envelope, EPSILON, (n1, n2, n3))


def _echo_prediction(rep: PredictionReport):
    click.echo("d,m,L,sigma_infty,sigma_remark5,sigma_definitional,"
               "main_term_r5,main_term_def,error_envelope,epsilon,N1,N2,N3")
    n1, n2, n3 = rep.error_constants
    click.echo(",".join([str(rep.d), _f(rep.m), _f(rep.L), _f(rep.sigma_infty),
                         _f(rep.sigma_remark5), _f(rep.sigma_definitional),
                         _f(rep.main_term_r5), _f(rep.main_term_def),
                         _f(rep.error_envelope), _f(rep.epsilon),
                         str(n1), str(n2), str(n3)]))


def _exit_mapped(fn):
    """Run fn(), translating library errors to the exit-code contract."""
    try:
        return fn()
    except ArgumentError as e:
        raise click.UsageError(str(e))           # exit 2
    except (CapabilityError, AccuracyError) as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(3)


@click.group()
def main():
    """Numerical circle-method toolkit for the split form x.y = m."""


@main.command()
@click.option("--d1", type=int, default=None)
@click.option("--L", "L", type=float, default=None)
@click.option("--m", type=float, default=None)
@click.option("--weight", type=str, default=None)
@click.option("--eps", type=float, default=None)
@click.option("--budget", type=int, default=None)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
def count(d1, L, m, weight, eps, budget, config_path):
    """Exact weighted lattice count N_L; CSV: L,m,value,tail_estimate,visited."""
    cfg = _merge_config(config_path, dict(d1=d1, L=L, m=m, weight=weight,
                                          eps=eps, budget=budget))

    def run():
        w = parse_weight(cfg["weight"], 2 * int(cfg["d1"]))
        spec = LatticeSpec(L=cfg["L"], m=cfg.get("m", 0.0))
        res = counter.enumerate_N_L(w, spec, float(cfg.get("eps", 1e-8)),
                                    int(cfg.get("budget", counter.DEFAULT_BUDGET)))
        click.echo("L,m,value,tail_estimate,visited")
        click.echo(",".join([_f(spec.L), _f(spec.m), _f(res.value),
                             _f(res.tail_estimate),
                             str(res.lattice_points_visited)]))
    _exit_mapped(run)


@main.command()
@click.option("--d1", type=int, default=None)
@click.option("--L", "L", type=float, default=None)
@click.option("--m", type=float, default=None)
@click.option("--weight", type=str, default=None)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
def predict(d1, L, m, weight, config_path):
    """Main-term prediction sigma_infty * sigma * L^{d-2} for both sigma variants."""
    cfg = _merge_config(config_path, dict(d1=d1, L=L, m=m, weight=weight))

    def run():
        rep = _build_prediction(int(cfg["d1"]), float(cfg.get("m", 0.0)),
                                float(cfg["L"]), cfg["weight"], cfg)
        _echo_prediction(rep)
    _exit_mapped(run)


def _fit_exponent(Ls, errs):
    pts = [(math.log(L), math.log(e)) for L, e in zip(Ls, errs) if e > 0]
    if len(pts) < 2:
        return None
    X = np.array([p[0] for p in pts])
    Y = np.array([p[1] for p in pts])
    return float(np.polyfit(X, Y, 1)[0])


@main.command()
@click.option("--d1", type=int, default=None)
@click.option("--m", type=float, default=None)
@click.option("--weight", type=str, default=None)
@click.option("--L-list", "L_list", type=str, default=None,
              help="comma-separated L values")
@click.option("--eps", type=float, default=None)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
def verify(d1, m, weight, L_list, eps, config_path):
    """Convergence table N_L vs prediction across L, with error-exponent fit."""
    flags = dict(d1=d1, m=m, weight=weight, eps=eps)
    if L_list is not None:
        flags["L_list"] = [float(s) for s in L_list.split(",")]
    cfg = _merge_config(config_path, flags)

    def run():
        d1v = int(cfg["d1"])
        mv = float(cfg.get("m", 0.0))
        ws = cfg["weight"]
        epsv = float(cfg.get("eps", 1e-8))
        Ls = sorted(float(L) for L in cfg["L_list"])
        base = _build_prediction(d1v, mv, Ls[0], ws, cfg)
        w = parse_weight(ws, 2 * d1v)
        # the definitional series depends on the level t = m L^2: one per distinct t
        sig_def = {LatticeSpec(L=Ls[0], m=mv).t: base.sigma_definitional}

        rows = []
        for L in Ls:
            spec = LatticeSpec(L=L, m=mv)
            if spec.t not in sig_def:
                sig_def[spec.t] = exp_sums.sigma_dirichlet(_q_cutoff(cfg), base.d,
                                                           spec.t).value
            res = counter.enumerate_N_L(w, spec, epsv,
                                        int(cfg.get("budget", counter.DEFAULT_BUDGET)))
            scale = L ** (base.d - 2)
            pd = base.sigma_infty * sig_def[spec.t] * scale
            pr = base.sigma_infty * base.sigma_remark5 * scale
            na = float("nan")
            rows.append(ConvergenceRow(L, res.value, pd, pr,
                                       res.value / pd if pd else na,
                                       res.value / pr if pr else na))

        exp_def = _fit_exponent(Ls, [abs(r.exact - r.predicted_def) for r in rows])
        exp_r5 = _fit_exponent(Ls, [abs(r.exact - r.predicted_r5) for r in rows])
        if len(rows) > 1:
            rows[-1].fitted_error_exponent = exp_def

        click.echo("L,exact,predicted_def,predicted_r5,ratio_def,ratio_r5,"
                   "fitted_error_exponent")
        for r in rows:
            tail = "NA" if r.fitted_error_exponent is None \
                else _f(r.fitted_error_exponent)
            ratios = ["NA" if math.isnan(v) else _f(v)
                      for v in (r.ratio_def, r.ratio_r5)]
            click.echo(",".join([_f(r.L), _f(r.exact), _f(r.predicted_def),
                                 _f(r.predicted_r5)] + ratios + [tail]))

        last = rows[-1]
        err_def = abs(last.ratio_def - 1.0)
        err_r5 = abs(last.ratio_r5 - 1.0)
        variant = "definitional" if err_def <= err_r5 else "remark5"
        click.echo(f"# verdict: sigma variant converging best = {variant} "
                   f"(|ratio-1| = {_f(min(err_def, err_r5))} at L = {last.L:g})")
        if exp_def is not None:
            click.echo(f"# fitted error exponent (definitional): {_f(exp_def)}")
        if exp_r5 is not None:
            click.echo(f"# fitted error exponent (remark5): {_f(exp_r5)}")
    _exit_mapped(run)


@main.command()
@click.option("--d", type=int, required=True)
@click.option("--t", type=int, default=0)
@click.option("--method", type=click.Choice(["euler", "dirichlet", "remark5"]),
              default="euler")
@click.option("--cutoff", type=int, default=10 ** 4)
def sigma(d, t, method, cutoff):
    """Singular series sigma(F0, m) by one of the three assemblies."""
    def run():
        if method == "euler":
            rep = exp_sums.sigma_euler(cutoff, d, t)
        elif method == "dirichlet":
            rep = exp_sums.sigma_dirichlet(cutoff, d, t)
        else:
            rep = exp_sums.sigma_remark5_product(cutoff, exp_sums.half_dim(d))
        click.echo("method,cutoff,value,tail_bound")
        click.echo(",".join([rep.method, str(rep.cutoff), _f(rep.value),
                             _f(rep.tail_bound)]))
    _exit_mapped(run)


@main.command(name="sigma-p")
@click.option("--p", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--t", type=int, default=0)
@click.option("--rel-tol", type=float, default=1e-12)
def sigma_p_cmd(p, d, t, rel_tol):
    """Local factor sigma_p as an exact rational partial sum."""
    def run():
        val, l_max, tail = exp_sums.sigma_p(p, d, t, rel_tol)
        r5 = exp_sums.remark5_sigma_p(p, d // 2)
        click.echo("p,value,value_rational,l_max,tail_bound,remark5_value")
        click.echo(",".join([str(p), _f(float(val)), f"{val}", str(l_max),
                             _f(tail), _f(float(r5))]))
    _exit_mapped(run)


@main.command(name="sigma-infty")
@click.option("--d1", type=int, required=True)
@click.option("--m", type=float, default=0.0)
@click.option("--weight", type=str, required=True)
@click.option("--check/--no-check", default=False,
              help="cross-check against a refined quadrature")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
def sigma_infty_cmd(d1, m, weight, check, config_path):
    """Singular integral sigma_infty = I(m; w)."""
    cfg = _merge_config(config_path, {})

    def run():
        w = parse_weight(weight, 2 * d1)
        val = sing_integral.sigma_infty(w, m, _quad_config(w, cfg), check=check)
        click.echo("m,sigma_infty")
        click.echo(",".join([_f(m), _f(val)]))
    _exit_mapped(run)


@main.command(name="i-grid")
@click.option("--d1", type=int, required=True)
@click.option("--weight", type=str, required=True)
@click.option("--t-min", type=float, required=True)
@click.option("--t-max", type=float, required=True)
@click.option("--n", type=int, default=33)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
def i_grid(d1, weight, t_min, t_max, n, config_path):
    """Sample the level-set integral I(t; w) on a uniform t grid (CSV t,I)."""
    cfg = _merge_config(config_path, {})

    def run():
        w = parse_weight(weight, 2 * d1)
        grid = sing_integral.build_i_grid(w, t_min, t_max, n, _quad_config(w, cfg))
        click.echo("t,I")
        for t, v in zip(grid.t_values, grid.I_values):
            click.echo(",".join([_f(t), _f(v)]))
    _exit_mapped(run)


@main.command(name="gauss-sum")
@click.option("--d1", type=int, required=True)
@click.option("--q", type=int, required=True)
@click.option("--t", type=int, default=0)
@click.option("--c", "c_str", type=str, default=None,
              help="comma-separated integer vector of length 2*d1")
def gauss_sum(d1, q, t, c_str):
    """Complete exponential sum S_q(c) for the split form."""
    def run():
        form = QuadraticFormF0(d1)
        c = [0] * form.d if c_str is None else [int(s) for s in c_str.split(",")]
        val = exp_sums.S_q_factored(form, q, c, t)
        exact = "" if val.value_exact is None else str(val.value_exact)
        click.echo("q,t,value,value_exact")
        click.echo(",".join([str(q), str(t), _f(val.value), exact]))
    _exit_mapped(run)


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--Q", "Q", type=float, required=True)
def delta(n, Q):
    """Finite delta identity: c_Q Q^{-2} sum_q c_q(n) h(q/Q, n/Q^2)."""
    def run():
        cfgk = delta_kernel.DeltaKernelConfig(Q=Q)
        val = delta_kernel.delta_sum(n, cfgk)
        target = 1.0 if n == 0 else 0.0
        click.echo("n,Q,delta,cQ,residual")
        click.echo(",".join([str(n), _f(Q), _f(val), _f(cfgk.cQ),
                             _f(abs(val - target))]))
    _exit_mapped(run)


def _check_kernel():
    cfgk = delta_kernel.DeltaKernelConfig(Q=20.0)
    worst = 0.0
    for n in range(-50, 51):
        target = 1.0 if n == 0 else 0.0
        worst = max(worst, abs(delta_kernel.delta_sum(n, cfgk) - target))
    yield ("delta sweep |n|<=50 at Q=20, max residual", worst, worst <= 1e-9)
    yield ("calibration constant |c_Q - 1| at Q=20", abs(cfgk.cQ - 1.0),
           abs(cfgk.cQ - 1.0) < 0.05)


def _check_sums():
    form = QuadraticFormF0(3)
    worst = 0.0
    for q in (2, 3, 4, 5, 6, 8, 9, 12):
        for t in (0, 1, 6):
            a = exp_sums.S_q_naive(form, q, [0] * 6, t).value
            b = exp_sums.S_q_factored(form, q, [0] * 6, t).value
            worst = max(worst, abs(a - b) / (1.0 + abs(b)))
    yield ("naive vs factored S_q, q<=12, rel error", worst, worst <= 1e-8)
    ok = True
    for (p, k) in ((2, 1), (2, 2), (3, 1), (5, 1)):
        truncated = sum(exp_sums.ramanujan(p ** l, 0)
                        / exp_sums.Fraction(p ** (3 * l)) for l in range(k + 1))
        ok = ok and exp_sums.local_density(p, k, 3, 0) == truncated
    yield ("local density equals truncated sigma_p series", 0.0, ok)


def _check_integral():
    from .weights import GaussianWeight
    w = GaussianWeight(1.0, 6)
    e0 = abs(sing_integral.sigma_infty(w, 0.0) - 2.0)
    yield ("Gaussian I(0) vs closed form 2", e0, e0 <= 1e-6)
    from mpmath import besselk
    ref = float(4 * math.pi * besselk(1, 2 * math.pi))
    e1 = abs(sing_integral.i_x_projection(w, 1.0) - ref)
    yield ("Gaussian I(1) vs 4*pi*K1(2*pi)", e1, e1 <= 1e-6)
    d = abs(sing_integral.i_x_projection(w, 0.5)
            - sing_integral.i_y_projection(w, 0.5))
    yield ("x vs y disintegration at t=0.5", d, d <= 2e-6)


_SUITES = {"kernel": _check_kernel, "sums": _check_sums, "integral": _check_integral}


@main.command()
@click.option("--suite", type=str, required=True)
def check(suite):
    """Run an invariant-check suite: kernel, sums, integral, or all."""
    names = list(_SUITES) if suite == "all" else [suite]
    if any(n not in _SUITES for n in names):
        raise click.UsageError(f"unknown suite {suite!r}; "
                               f"choose from {sorted(_SUITES)} or 'all'")

    def run():
        failed = 0
        for n in names:
            for label, measured, ok in _SUITES[n]():
                status = "PASS" if ok else "FAIL"
                failed += 0 if ok else 1
                click.echo(f"{status} [{n}] {label}: {_f(measured)}")
        if failed:
            click.echo(f"# {failed} check(s) failed")
            sys.exit(1)
        click.echo("# all checks passed")
    _exit_mapped(run)


if __name__ == "__main__":
    main()
