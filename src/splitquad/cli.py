"""Command-line harness ``qc``: prediction, counting, verification, checks.

All numeric CSV output uses the fixed %.12e format with fixed row
orderings, so identical inputs give byte-identical output.  Exit codes:
0 success, 1 check failure, 2 usage error, 3 capability/accuracy error.

A JSON config file (--config) mirrors the flags; explicit flags win.
Each command takes only the keys it reads: count d1, L, m, weight, eps,
budget; predict d1, L, m, weight, quadrature {angular}; verify d1, m,
weight, L_list, eps, budget.  Any other key is a usage error.  predict
accepts quadrature.angular (an integral number >= 4), which changes no
printed number, only because perfbench/predict_quadrature.json passes it.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import click
import numpy as np

from . import counter, delta_kernel, exp_sums, sing_integral
from .errors import AccuracyError, ArgumentError, CapabilityError
from .forms import LatticeSpec
from .weights import parse_weight

FMT = "%.12e"
EPSILON = 0.5   # the epsilon of the error-term exponent d/2 + epsilon
DIRICHLET_CUTOFF = 10 ** 5   # the q of the definitional series of the main term


def _f(x: float) -> str:
    return FMT % x


@dataclass
class MainTerm:
    """sigma_infty * sigma * L^{d-2} at one (L, m) for both sigma variants,
    with its factors."""
    spec: LatticeSpec
    sigma_infty: float
    sigma_remark5: float
    sigma_definitional: float
    main_term_r5: float
    main_term_def: float


@dataclass
class ConvergenceRow:
    L: float
    exact: float
    predicted_def: float
    predicted_r5: float
    ratio_def: float
    ratio_r5: float
    fitted_error_exponent: float | None = None


# key -> (type, default); null or absent means the default.  L_list is
# checked by _L_values and quadrature is an object whose one key is angular.
_SCHEMA = {"d1": (int, None), "L": (float, None), "m": (float, 0.0), "weight": (str, None),
           "eps": (float, 1e-8), "budget": (int, counter.DEFAULT_BUDGET)}
_KINDS = {int: "an integer", float: "a number", str: "a string"}


def _typed(key: str, v, kind):
    """v as kind, or a usage error; an integer key takes an integral number
    (a JSON float such as 3.0 included)."""
    try:
        if isinstance(v, bool) or not isinstance(v, str if kind is str else (int, float)):
            raise TypeError
        out = kind(v)
        if kind is int and out != v:
            raise ValueError
        return out
    except (TypeError, ValueError, OverflowError):
        raise click.UsageError(f"{key} must be {_KINDS[kind]}, got {v!r}") from None


def _typed_keys(raw: dict, schema: dict, prefix: str = "", untyped=()) -> dict:
    """The schema keys of raw, typed, with their defaults; a key in neither
    schema nor untyped is a usage error, not silently ignored."""
    unknown = [prefix + k for k in raw if k not in schema and k not in untyped]
    if unknown:
        raise click.UsageError(f"unknown config key {', '.join(unknown)}")
    return {k: default if raw.get(k) is None else _typed(prefix + k, raw[k], kind)
            for k, (kind, default) in schema.items()}


def _merge_config(config_path, flags: dict, required=()) -> dict:
    """The config file's keys overridden by the flags that are set, each
    key converted to its type once, with its default filled in.  The keys
    are those of flags (a key with no flag is passed as None); a key in
    required must come from a flag or the file."""
    cfg = {}
    if config_path:
        with open(config_path) as fh:
            try:
                cfg = json.load(fh)
            except ValueError as e:
                raise click.UsageError(f"config file {config_path}: {e}") from None
        if not isinstance(cfg, dict):
            raise click.UsageError(f"config file {config_path} must hold a JSON object")
    for k, v in flags.items():
        if v is not None:
            cfg[k] = v
    missing = [f"--{k.replace('_', '-')}" for k in required if cfg.get(k) is None]
    if missing:
        raise click.UsageError(f"missing {', '.join(missing)} (as a flag or a config key)")
    cfg.update(_typed_keys(cfg, {k: _SCHEMA[k] for k in flags if k in _SCHEMA},
                           untyped=[k for k in flags if k not in _SCHEMA]))
    if "quadrature" in flags:
        sub = cfg.get("quadrature") or {}
        if not isinstance(sub, dict):
            raise click.UsageError(f"config key quadrature must be an object, got {sub!r}")
        angular = _typed_keys(sub, {"angular": (int, None)}, "quadrature.")["angular"]
        if angular is not None and angular < 4:
            raise click.UsageError(f"quadrature.angular must be >= 4, got {angular}")
    return cfg


def _main_terms(d1: int, m: float, Ls, weight_spec: str):
    """The weight and the MainTerm at each L: sigma_infty and the remark5
    product over all primes (from zeta values) once each, the definitional
    series at every level t = m L^2 from one sieve."""
    d = 2 * d1
    exp_sums.half_dim(d)        # an odd d or d <= 4 exits 2 before any work
    specs = [LatticeSpec(L=L, m=m) for L in Ls]
    w = parse_weight(weight_spec, d)
    # the sieve runs before sigma_infty: the other order leaves the peak RSS
    # of a predict or verify process about 1 MB higher (35.1 against 33.8 MB
    # for the benchmark's shifted predict), though sigma_infty allocates little
    sig_def = exp_sums.sigma_dirichlet_levels(DIRICHLET_CUTOFF, d, [spec.t for spec in specs])
    sig_inf = sing_integral.sigma_infty(w, m)
    sig_r5 = exp_sums.sigma_remark5(d1).value
    terms = []
    for spec in specs:
        sig = sig_def[spec.t].value
        terms.append(MainTerm(spec, sig_inf, sig_r5, sig,
                              *(sig_inf * s * spec.L ** (d - 2) for s in (sig_r5, sig))))
    return w, terms


def _L_values(raw) -> list:
    """The distinct L values, ascending, of --L-list (comma-separated) or
    of the config's L_list (a list)."""
    try:
        Ls = sorted(float(v) for v in (raw.split(",") if isinstance(raw, str) else raw))
    except (TypeError, ValueError):
        raise click.BadParameter(f"{raw!r} is not a list of numbers",
                                 param_hint="--L-list") from None
    if not Ls or len(set(Ls)) < len(Ls):
        # a repeated L would fit the error exponent through fewer points than rows
        raise click.BadParameter(f"{raw!r} must list distinct L values",
                                 param_hint="--L-list")
    return Ls


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
                                          eps=eps, budget=budget), ("d1", "L", "weight"))

    def run():
        w = parse_weight(cfg["weight"], 2 * cfg["d1"])
        spec = LatticeSpec(L=cfg["L"], m=cfg["m"])
        res = counter.enumerate_N_L(w, spec, cfg["eps"], cfg["budget"])
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
    cfg = _merge_config(config_path, dict(d1=d1, L=L, m=m, weight=weight, quadrature=None),
                        ("d1", "L", "weight"))

    def run():
        mv, Lv = cfg["m"], cfg["L"]
        _, (term,) = _main_terms(cfg["d1"], mv, [Lv], cfg["weight"])
        d = 2 * cfg["d1"]
        n1 = 2 * d * d - 2 * d
        n2, n3 = 7 * (d + 1), n1 + 3 * d + 4
        click.echo("d,m,L,sigma_infty,sigma_remark5,sigma_definitional,"
                   "main_term_r5,main_term_def,error_envelope,epsilon,N1,N2,N3")
        click.echo(",".join([str(d), _f(mv), _f(Lv), _f(term.sigma_infty),
                             _f(term.sigma_remark5), _f(term.sigma_definitional),
                             _f(term.main_term_r5), _f(term.main_term_def),
                             "NA", _f(EPSILON), str(n1), str(n2), str(n3)]))
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
              help="comma-separated distinct L values")
@click.option("--eps", type=float, default=None)
@click.option("--budget", type=int, default=None)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
def verify(d1, m, weight, L_list, eps, budget, config_path):
    """Convergence table N_L vs prediction across L, with error-exponent fit."""
    cfg = _merge_config(config_path, dict(d1=d1, m=m, weight=weight, L_list=L_list,
                                          eps=eps, budget=budget),
                        ("d1", "weight", "L_list"))

    def run():
        Ls = _L_values(cfg["L_list"])
        w, terms = _main_terms(cfg["d1"], cfg["m"], Ls, cfg["weight"])
        rows = []
        for term in terms:
            res = counter.enumerate_N_L(w, term.spec, cfg["eps"], cfg["budget"])
            pd, pr = term.main_term_def, term.main_term_r5
            na = float("nan")
            rows.append(ConvergenceRow(term.spec.L, res.value, pd, pr,
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
def sigma_p_cmd(p, d, t):
    """Local factor sigma_p as an exact rational, in closed form.

    l_max is the last level l with a nonzero term c_{p^l}(t) / p^{l d/2},
    v_p(t) + 1, or inf at t = 0; the value is exact, so tail_bound is 0.
    """
    def run():
        val = exp_sums.sigma_p(p, d, t)
        r5 = exp_sums.remark5_sigma_p(p, d // 2)
        l_max = "inf" if t == 0 else str(exp_sums.valuation(p, t) + 1)
        click.echo("p,value,value_rational,l_max,tail_bound,remark5_value")
        click.echo(",".join([str(p), _f(float(val)), f"{val}", l_max,
                             _f(0.0), _f(float(r5))]))
    _exit_mapped(run)


@main.command(name="sigma-infty")
@click.option("--d1", type=int, required=True)
@click.option("--m", type=float, default=0.0)
@click.option("--weight", type=str, required=True)
@click.option("--check/--no-check", default=False,
              help="cross-check against a refined quadrature")
def sigma_infty_cmd(d1, m, weight, check):
    """Singular integral sigma_infty = I(m; w)."""
    def run():
        w = parse_weight(weight, 2 * d1)
        val = sing_integral.sigma_infty(w, m, check=check)
        click.echo("m,sigma_infty")
        click.echo(",".join([_f(m), _f(val)]))
    _exit_mapped(run)


@main.command(name="i-grid")
@click.option("--d1", type=int, required=True)
@click.option("--weight", type=str, required=True)
@click.option("--t-min", type=float, required=True)
@click.option("--t-max", type=float, required=True)
@click.option("--n", type=int, default=33)
def i_grid(d1, weight, t_min, t_max, n):
    """Sample the level-set integral I(t; w) on a uniform t grid (CSV t,I)."""
    def run():
        w = parse_weight(weight, 2 * d1)
        grid = sing_integral.build_i_grid(w, t_min, t_max, n)
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
    try:
        c = None if c_str is None else [int(s) for s in c_str.split(",")]
    except ValueError:
        raise click.BadParameter(f"{c_str!r} is not a list of integers",
                                 param_hint="--c") from None

    def run():
        val = exp_sums.S_q_factored(d1, q, [0] * (2 * d1) if c is None else c, t)
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
    worst = 0.0
    for q in (2, 3, 4, 5, 6, 8, 9, 12):
        for t in (0, 1, 6):
            a = exp_sums.S_q_naive(3, q, [0] * 6, t).value
            b = exp_sums.S_q_factored(3, q, [0] * 6, t).value
            worst = max(worst, abs(a - b) / (1.0 + abs(b)))
    yield ("naive vs factored S_q, q<=12, rel error", worst, worst <= 1e-8)
    ok = True
    for (p, k) in ((2, 1), (2, 2), (3, 1), (5, 1)):
        truncated = sum(exp_sums.ramanujan(p ** l, 0)
                        / exp_sums.Fraction(p ** (3 * l)) for l in range(k + 1))
        ok = ok and exp_sums.local_density(p, k, 3, 0) == truncated
    yield ("local density equals truncated sigma_p series", 0.0, ok)


def _two_radius_appendix(t: float) -> float:
    """I(t) of appendix-example, F(|x|^2) g(|y|^2), at d1 = 3, where x.y is
    flat on the sphere: 2 pi^2 int g(v) int_{uv > t^2} F(u) du dv, u = |x|^2
    and v = |y|^2, by nested adaptive quadrature over the profiles' supports."""
    from scipy.integrate import quad        # scipy loads only when needed
    from .weights import _F, _G
    opts = dict(epsabs=0.0, epsrel=1e-13, limit=200)

    def inner(v):
        return float(_G(v)) * quad(lambda u: float(_F(u)), min(t * t / v, 0.5), 0.5, **opts)[0]
    return 2.0 * math.pi ** 2 * quad(inner, 0.25, 0.5, **opts)[0]


def _check_integral():
    from .weights import AppendixExample, GaussianWeight
    # sigma_infty of a Gaussian is the theta integral; the projections share
    # neither its rule nor its closed forms
    w = GaussianWeight(1.0, 6)
    e0 = abs(sing_integral.sigma_infty(w, 0.0) - sing_integral.i_x_projection(w, 0.0))
    yield ("Gaussian I(0) theta integral vs x-projection", e0, e0 <= 1e-6)
    ws = GaussianWeight(1.0, 6, np.array([0.1, -0.2, 0.05, 0.0, 0.15, -0.1]))
    es = abs(sing_integral.sigma_infty(ws, 0.25) - sing_integral.i_y_projection(ws, 0.25))
    yield ("shifted Gaussian I(0.25) theta integral vs y-projection", es, es <= 1e-6)
    from scipy.special import k1            # scipy loads only when needed
    e1 = abs(sing_integral.i_x_projection(w, 1.0) - 4 * math.pi * float(k1(2 * math.pi)))
    yield ("Gaussian I(1) vs 4*pi*K1(2*pi)", e1, e1 <= 1e-6)
    # appendix-example's projections go through _fibre_rule (at t=0.5 both
    # are 0, hence t=0.25); the two-radius reference shares no rule with them
    da = abs(sing_integral.i_y_projection(AppendixExample(6), 0.25)
             - _two_radius_appendix(0.25))
    yield ("appendix-example y-projection vs two-radius integral at t=0.25",
           da, da <= 1e-8)


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
