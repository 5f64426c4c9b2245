import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from splitquad import exp_sums
from splitquad.cli import _two_radius_appendix, main

RUNNER = CliRunner()


def run(*args):
    return RUNNER.invoke(main, list(args), catch_exceptions=False)


def test_count_csv_shape():
    r = run("count", "--d1", "3", "--L", "2", "--m", "0",
            "--weight", "gaussian:a=1.0", "--eps", "1e-8")
    assert r.exit_code == 0
    lines = r.output.strip().splitlines()
    assert lines[0] == "L,m,value,tail_estimate,visited"
    fields = lines[1].split(",")
    assert len(fields) == 5
    assert float(fields[2]) > 0
    assert int(fields[4]) > 0


def test_count_deterministic():
    args = ("count", "--d1", "3", "--L", "2", "--m", "0",
            "--weight", "gaussian:a=1.0", "--eps", "1e-8")
    assert run(*args).output == run(*args).output


def test_count_budget_exit_code():
    r = RUNNER.invoke(main, ["count", "--d1", "3", "--L", "8", "--m", "0",
                             "--weight", "gaussian:a=1.0", "--eps", "1e-10",
                             "--budget", "1000"])
    assert r.exit_code == 3
    assert "feasible L" in r.output


def test_verify_budget_flag_exit_code(tmp_path):
    args = ["verify", "--d1", "3", "--weight", "gaussian:a=1.0", "--L-list", "2"]
    r = RUNNER.invoke(main, [*args, "--budget", "5"])
    assert r.exit_code == 3 and r.stdout == ""
    assert "work budget 5 exceeded" in r.stderr
    # the flag wins over the config's budget, either way round
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"budget": 1000000}')
    r = RUNNER.invoke(main, [*args, "--budget", "5", "--config", str(cfg)])
    assert r.exit_code == 3 and "work budget 5 exceeded" in r.stderr
    cfg.write_text('{"budget": 5}')
    r = RUNNER.invoke(main, [*args, "--budget", "1000000", "--config", str(cfg)])
    assert r.exit_code == 0 and r.stdout.startswith("L,exact,")


def test_count_usage_error_exit_code():
    r = RUNNER.invoke(main, ["count", "--d1", "3", "--L", "2",
                             "--weight", "not-a-weight"])
    assert r.exit_code == 2


def test_predict_columns():
    r = run("predict", "--d1", "3", "--L", "4", "--m", "0",
            "--weight", "gaussian:a=1.0")
    assert r.exit_code == 0
    header, row = r.output.strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert cols["d"] == "6"
    assert abs(float(cols["sigma_infty"]) - 2.0) < 1e-5
    assert float(cols["main_term_r5"]) > 0
    # error-term constants for d = 6: N1 = 60, N2 = 49, N3 = 82; the envelope
    # has no bound to print yet
    assert (cols["N1"], cols["N2"], cols["N3"]) == ("60", "49", "82")
    assert cols["error_envelope"] == "NA"


def test_predict_rejects_small_dimension():
    r = RUNNER.invoke(main, ["predict", "--d1", "2", "--L", "4",
                             "--weight", "gaussian:a=1.0"])
    assert r.exit_code == 2
    assert "d must be even and > 4" in r.stderr


_G = ("--weight", "gaussian:a=1.0")
_BAD_INPUT = {
    "count without --d1": ("count", "--L", "2", *_G),
    "count without --L": ("count", "--d1", "3", *_G),
    "count without --weight": ("count", "--d1", "3", "--L", "2"),
    "predict without --d1": ("predict", "--L", "4", *_G),
    "predict without --L": ("predict", "--d1", "3", *_G),
    "predict without --weight": ("predict", "--d1", "3", "--L", "4"),
    "verify without --d1": ("verify", "--L-list", "2,3", *_G),
    "verify without --weight": ("verify", "--d1", "3", "--L-list", "2,3"),
    "verify without --L-list": ("verify", "--d1", "3", *_G),
    "verify --L-list 2,x": ("verify", "--d1", "3", "--L-list", "2,x", *_G),
    "verify --L-list 2,,4": ("verify", "--d1", "3", "--L-list", "2,,4", *_G),
    "verify --L-list 2,2": ("verify", "--d1", "3", "--L-list", "2,2", *_G),
    "count --d1 0": ("count", "--d1", "0", "--L", "2", *_G),
    "count --d1 -1": ("count", "--d1", "-1", "--L", "2", *_G),
    "count --d1 0 appendix-example": ("count", "--d1", "0", "--L", "2",
                                      "--weight", "appendix-example"),
    "count --L inf": ("count", "--d1", "3", "--L", "inf", *_G),
    "count --m inf": ("count", "--d1", "3", "--L", "2", "--m", "inf", *_G),
    "count --m nan": ("count", "--d1", "3", "--L", "2", "--m", "nan", *_G),
    "verify --L-list 2,inf": ("verify", "--d1", "3", "--L-list", "2,inf", *_G),
    "sigma-infty --m nan": ("sigma-infty", "--d1", "3", *_G, "--m", "nan"),
    "sigma-infty --m inf": ("sigma-infty", "--d1", "3", *_G, "--m", "inf"),
    "i-grid --n -1": ("i-grid", "--d1", "3", *_G, "--t-min", "0", "--t-max", "1",
                      "--n", "-1"),
    "gauss-sum --c 1,x,3,4": ("gauss-sum", "--d1", "2", "--q", "6", "--c", "1,x,3,4"),
    "delta --Q inf": ("delta", "--n", "3", "--Q", "inf"),
    "predict gaussian a=inf": ("predict", "--d1", "3", "--L", "2",
                               "--weight", "gaussian:a=inf"),
    "count gaussian shift nan": ("count", "--d1", "3", "--L", "2",
                                 "--weight", "gaussian:a=1.0:shift=nan,0,0,0,0,0"),
    "predict gaussian shift nan": ("predict", "--d1", "3", "--L", "2",
                                   "--weight", "gaussian:a=1.0:shift=nan,0,0,0,0,0"),
    "count bump scale inf": ("count", "--d1", "3", "--L", "2", "--weight", "bump:scale=inf"),
    "count --budget -5": ("count", "--d1", "3", "--L", "2", *_G, "--budget", "-5"),
    "count --budget 0": ("count", "--d1", "3", "--L", "2", *_G, "--budget", "0"),
}
# (command, config file text): the file is passed as --config
_BAD_CONFIG = {
    "config not JSON": (("count", "--d1", "3", "--L", "2", *_G), "{bad"),
    "config a list": (("count", "--d1", "3", "--L", "2", *_G), "[1, 2]"),
    "config d1 a string": (("count", *_G), '{"d1": "x", "L": 2}'),
    "config quadrature a list": (("predict", "--d1", "3", "--L", "4", *_G),
                                 '{"quadrature": [1]}'),
    "config budget a string": (("count", "--d1", "3", "--L", "2", *_G), '{"budget": "x"}'),
    "config eps a string": (("count", "--d1", "3", "--L", "2", *_G), '{"eps": "x"}'),
    "config m a list": (("count", "--d1", "3", "--L", "2", *_G), '{"m": [1]}'),
    "config quadrature.angular a string": (("predict", "--d1", "3", "--L", "4", *_G),
                                           '{"quadrature": {"angular": "x"}}'),
    "config budget 0": (("count", "--d1", "3", "--L", "2", *_G), '{"budget": 0}'),
    # predict reads no quadrature setting, but accepts quadrature.angular, with
    # its range check, because perfbench/predict_quadrature.json passes it
    "config quadrature.angular 3": (("predict", "--d1", "3", "--L", "4", *_G),
                                    '{"quadrature": {"angular": 3}}'),
    # sigma-infty and i-grid take no config file
    "config sigma-infty quadrature.angular 3": (("sigma-infty", "--d1", "3", *_G),
                                                '{"quadrature": {"angular": 3}}'),
    "config verify quadrature": (("verify", "--d1", "3", "--L-list", "2,4", *_G),
                                 '{"quadrature": {"angular": 8}}'),
    "config unknown key": (("predict", "--d1", "3", "--L", "4", *_G), '{"Q": 10}'),
    "config unknown quadrature key": (("predict", "--d1", "3", "--L", "4", *_G),
                                      '{"quadrature": {"angualr": 8}}'),
    # the main-term cutoffs are fixed, and the quadrature's radii and its
    # orders other than angular come from the weight alone
    "config deleted key cutoffs": (("predict", "--d1", "3", "--L", "4", *_G),
                                   '{"cutoffs": {"q": 100000, "primes": 10000}}'),
    "config deleted key quadrature.r_max": (("predict", "--d1", "3", "--L", "4", *_G),
                                            '{"quadrature": {"r_max": 3.0}}'),
    # a key the command does not read, though another command reads it (or,
    # for sigma-infty and i-grid, no config file at all)
    "config sigma-infty m": (("sigma-infty", "--d1", "3", *_G), '{"m": 0.5}'),
    "config i-grid d1": (("i-grid", "--d1", "3", *_G, "--t-min", "0", "--t-max", "1"),
                         '{"d1": 3}'),
    "config count quadrature": (("count", "--d1", "3", "--L", "2", *_G),
                                '{"quadrature": {"angular": 8}}'),
    "config predict budget": (("predict", "--d1", "3", "--L", "4", *_G), '{"budget": 5}'),
    "config verify L": (("verify", "--d1", "3", "--L-list", "2,4", *_G), '{"L": 4}'),
}


@pytest.mark.parametrize("case", list(_BAD_INPUT) + list(_BAD_CONFIG))
def test_bad_input_is_a_usage_error(case, tmp_path):
    if case in _BAD_CONFIG:
        args, text = _BAD_CONFIG[case]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        args = (*args, "--config", str(cfg))
    else:
        args = _BAD_INPUT[case]
    r = RUNNER.invoke(main, list(args))
    assert r.exit_code == 2, r.exception
    assert r.stdout == ""
    assert "Traceback" not in r.output and r.stderr.lstrip().startswith("Usage:")


# command -> (its required flags, the config keys it reads)
_READS = {
    "count": ({"--d1": "3", "--L": "2", "--weight": "gaussian:a=1.0"},
              {"d1", "L", "m", "weight", "eps", "budget"}),
    # quadrature only because perfbench/predict_quadrature.json passes it
    "predict": ({"--d1": "3", "--L": "4", "--weight": "gaussian:a=1.0"},
                {"d1", "L", "m", "weight", "quadrature"}),
    "verify": ({"--d1": "3", "--L-list": "2,4", "--weight": "gaussian:a=1.0"},
               {"d1", "m", "weight", "L_list", "eps", "budget"}),
}
# a malformed value of every key some command reads
_MALFORMED = {"d1": "x", "L": "x", "m": "x", "weight": 1, "eps": "x", "budget": "x",
              "L_list": "x", "quadrature": {"angular": "x"}}


def test_each_command_reads_only_its_config_keys(tmp_path):
    # a key the command reads exits 2 as malformed, any other as unknown
    cfg = tmp_path / "cfg.json"
    for command, (flags, reads) in _READS.items():
        for key, value in _MALFORMED.items():
            cfg.write_text(json.dumps({key: value}))
            # the file's key stands in for its flag, which would override it
            args = [a for f, v in flags.items()
                    if not (key in reads and f == "--" + key.replace("_", "-"))
                    for a in (f, v)]
            r = RUNNER.invoke(main, [command, *args, "--config", str(cfg)])
            assert r.exit_code == 2 and r.stdout == "", (command, key)
            unknown = f"unknown config key {key}" in r.stderr
            assert unknown == (key not in reads), (command, key, r.stderr)


def test_sigma_methods():
    outs = {}
    for method in ("euler", "dirichlet", "remark5"):
        r = run("sigma", "--d", "6", "--method", method, "--cutoff", "500")
        assert r.exit_code == 0
        header, row = r.output.strip().splitlines()
        assert header == "method,cutoff,value,tail_bound"
        outs[method] = float(row.split(",")[2])
    # definitional assemblies approach zeta(2)/zeta(3); the closed-form
    # product is a distinct normalization near 1.306
    assert abs(outs["euler"] - 1.3684) < 0.02
    assert abs(outs["dirichlet"] - 1.3684) < 0.02
    assert abs(outs["remark5"] - 1.3059) < 0.02


@pytest.mark.parametrize("method", ["euler", "dirichlet", "remark5"])
@pytest.mark.parametrize("d", ["4", "7"])
def test_sigma_bad_dimension_exit_code(method, d):
    r = RUNNER.invoke(main, ["sigma", "--d", d, "--method", method, "--cutoff", "100"])
    assert r.exit_code == 2
    assert "d must be even and > 4" in r.stderr


@pytest.mark.parametrize("method", ["euler", "dirichlet", "remark5"])
@pytest.mark.parametrize("cutoff", ["0", "-3"])
def test_sigma_cutoff_below_range_exit_code(method, cutoff):
    r = RUNNER.invoke(main, ["sigma", "--d", "6", "--method", method, "--cutoff", cutoff])
    assert r.exit_code == 2
    assert r.stdout == ""
    assert ("X must be >= 1" if method == "dirichlet" else "P must be >= 2") in r.stderr


_SIGMA_GOLDEN = {
    "--d 6 --t 36 --method euler --cutoff 20000":
        "euler_product,20000,1.226678232402e+00,9.813818406718e-05",
    "--d 6 --t 36 --method dirichlet --cutoff 300000":
        "dirichlet_sum,300000,1.226678232254e+00,3.333333333333e-06",
    "--d 6 --t 36 --method remark5":
        "remark5_product,10000,1.305955455905e+00,2.089695900661e-04",
    "--d 6 --t 100 --method euler --cutoff 20000":
        "euler_product,20000,1.137300569192e+00,9.098768499423e-05",
    "--d 6 --t 100 --method dirichlet --cutoff 300000":
        "dirichlet_sum,300000,1.137300569055e+00,3.333333333333e-06",
    "--d 6 --t 100 --method remark5":
        "remark5_product,10000,1.305955455905e+00,2.089695900661e-04",
    "--d 6 --t 0 --method dirichlet --cutoff 300000":
        "dirichlet_sum,300000,1.368430751198e+00,3.333333333333e-06",
    "--d 6 --t 72 --method dirichlet --cutoff 300000":
        "dirichlet_sum,300000,1.241281544543e+00,3.333333333333e-06",
    "--d 6 --t 144 --method dirichlet --cutoff 300000":
        "dirichlet_sum,300000,1.244932372615e+00,3.333333333333e-06",
    "--d 10 --t 0 --method dirichlet --cutoff 100000":
        "dirichlet_sum,100000,1.043778824843e+00,3.333333333333e-16",
    "--d 8 --t 72 --method euler --cutoff 20000":
        "euler_product,20000,1.096218873354e+00,1.879232355933e-09",
    "--d 10 --t 0 --method euler --cutoff 20000":
        "euler_product,20000,1.043778824843e+00,5.566820399165e-14",
}


@pytest.mark.parametrize("args", sorted(_SIGMA_GOLDEN))
def test_sigma_golden_stdout(args):
    # the rows printed while the products ran in 50-digit mpmath, and the
    # Dirichlet sum took c_q(t) from a gcd pass and added its terms by fsum;
    # since the local factors are exact, the Euler tails cover only the primes
    # above the cutoff, and d = 10, t = 0 reads as the Dirichlet sum does
    r = run("sigma", *args.split())
    assert r.exit_code == 0
    assert r.output == "method,cutoff,value,tail_bound\n" + _SIGMA_GOLDEN[args] + "\n"


_SIGMA_P_GOLDEN = {
    # the series ends at l = v_p(t) + 1, or sums in closed form at t = 0
    "--p 2 --d 6 --t 12": "2,1.148437500000e+00,147/128,3,0.000000000000e+00,"
                          "1.125000000000e+00",
    "--p 2 --d 6 --t 0": "2,1.166666666667e+00,7/6,inf,0.000000000000e+00,"
                         "1.125000000000e+00",
    "--p 2 --d 6 --t 99999999999999999999999999999":
        "2,8.750000000000e-01,7/8,1,0.000000000000e+00,1.125000000000e+00",
    "--p 3 --d 10 --t 0": "3,1.008333333333e+00,121/120,inf,0.000000000000e+00,"
                          "1.008230452675e+00",
}


def test_sigma_p_golden_stdout():
    for args, row in _SIGMA_P_GOLDEN.items():
        r = run("sigma-p", *args.split())
        assert r.exit_code == 0
        assert r.output == "p,value,value_rational,l_max,tail_bound,remark5_value\n" \
            + row + "\n", args


_COUNT_HEAD = "L,m,value,tail_estimate,visited\n"
# value as printed while the fibre path also summed each block inside 0.8 R;
# tail_estimate is now the rounding bound of the sum, and visited the work of
# one u_x per signed-permutation orbit (56364, 217554, 612444 for every u_x)
_APPENDIX_GOLDEN = {
    "6": "6.000000000000e+00,2.500000000000e-01,6.120904654844e+01,"
         "2.271079253158e-11,2745\n",
    "8": "8.000000000000e+00,2.500000000000e-01,2.537646177142e+02,"
         "2.638733020439e-10,9090\n",
    "10": "1.000000000000e+01,2.500000000000e-01,4.729553892925e+02,"
          "1.017301544358e-09,20769\n",
}


@pytest.mark.parametrize("L", sorted(_APPENDIX_GOLDEN))
def test_count_appendix_golden_stdout(L):
    r = run("count", "--d1", "3", "--weight", "appendix-example", "--m", "0.25", "--L", L)
    assert r.exit_code == 0
    assert r.output == _COUNT_HEAD + _APPENDIX_GOLDEN[L]


@pytest.mark.parametrize("m,row", [
    # a level past |u_x . u_y| <= Rx Ry: no solution, nothing enumerated or charged
    ("1e16", "1.000000000000e+01,1.000000000000e+16,0.000000000000e+00,"
             "0.000000000000e+00,0\n"),
    # the same with t = 10^22, beyond int64
    ("1e20", "1.000000000000e+01,1.000000000000e+20,0.000000000000e+00,"
             "0.000000000000e+00,0\n")])
def test_count_appendix_huge_level(m, row):
    r = run("count", "--d1", "3", "--weight", "appendix-example", "--m", m, "--L", "10")
    assert r.exit_code == 0
    assert r.output == _COUNT_HEAD + row


def test_count_appendix_huge_level_past_the_budget():
    # the level is tested before the budget, which would refuse L = 1000 (exit 3)
    r = run("count", "--d1", "3", "--weight", "appendix-example", "--m", "1e20", "--L", "1000")
    assert r.exit_code == 0
    assert r.output == _COUNT_HEAD + ("1.000000000000e+03,1.000000000000e+20,"
                                      "0.000000000000e+00,0.000000000000e+00,0\n")
    r = run("count", "--d1", "3", "--weight", "appendix-example", "--m", "0.25", "--L", "1000")
    assert r.exit_code == 3


_PREDICT_HEAD = ("d,m,L,sigma_infty,sigma_remark5,sigma_definitional,main_term_r5,"
                 "main_term_def,error_envelope,epsilon,N1,N2,N3\n")
_VERIFY_HEAD = "L,exact,predicted_def,predicted_r5,ratio_def,ratio_r5,fitted_error_exponent\n"
_MAIN_TERM_GOLDEN = {
    "predict --d1 3 --L 8 --m 0.5 --weight gaussian:a=1.0": _PREDICT_HEAD +
        "6,5.000000000000e-01,8.000000000000e+00,2.130848243871e-01,1.305968274168e+00,"
        "1.108939026927e+00,1.139843155379e+03,9.678769267042e+02,NA,"
        "5.000000000000e-01,60,49,82\n",
    "predict --d1 3 --L 8 --m 0.5 --weight "
    "gaussian:a=1.0:shift=0.1,-0.2,0.05,0.0,0.15,-0.1": _PREDICT_HEAD +
        "6,5.000000000000e-01,8.000000000000e+00,1.975469395518e-01,1.305968274168e+00,"
        "1.108939026927e+00,1.056727186282e+03,8.973005247235e+02,NA,"
        "5.000000000000e-01,60,49,82\n",
    "verify --d1 3 --m 0 --weight gaussian:a=1.0 --L-list 2,4,6,8": _VERIFY_HEAD +
        "2.000000000000e+00,3.030680120411e+01,4.378965434766e+01,4.179098477336e+01,"
        "6.920995759294e-01,7.251994986113e-01,NA\n"
        "4.000000000000e+00,5.927572409656e+02,7.006344695626e+02,6.686557563738e+02,"
        "8.460292302427e-01,8.864908965716e-01,NA\n"
        "6.000000000000e+00,3.182909385673e+03,3.546962002161e+03,3.385069766642e+03,"
        "8.973621323641e-01,9.402788140555e-01,NA\n"
        "8.000000000000e+00,1.034724268691e+04,1.121015151300e+04,1.069849210198e+04,"
        "9.230243386911e-01,9.671683250576e-01,3.000003458609e+00\n"
        "# verdict: sigma variant converging best = remark5 "
        "(|ratio-1| = 3.283167494235e-02 at L = 8)\n"
        "# fitted error exponent (definitional): 3.000003458609e+00\n"
        "# fitted error exponent (remark5): 2.494874936829e+00\n",
    "verify --d1 3 --m 0 --weight gaussian:a=1.0 --L-list 2,5": _VERIFY_HEAD +
        "2.000000000000e+00,3.030680120411e+01,4.378965434766e+01,4.179098477336e+01,"
        "6.920995759294e-01,7.251994986113e-01,NA\n"
        "5.000000000000e+00,1.499858744734e+03,1.710533372956e+03,1.632460342709e+03,"
        "8.768368793313e-01,9.187719330720e-01,3.000026149680e+00\n"
        "# verdict: sigma variant converging best = remark5 "
        "(|ratio-1| = 8.122806692804e-02 at L = 5)\n"
        "# fitted error exponent (definitional): 3.000026149680e+00\n"
        "# fitted error exponent (remark5): 2.669871359339e+00\n",
    "verify --d1 3 --m 1 --weight gaussian:a=1.0 --L-list 1,2,3,4": _VERIFY_HEAD +
        "1.000000000000e+00,1.541355687339e-02,1.031811241475e-02,1.619786998781e-02,"
        "1.493834943235e+00,9.515792437516e-01,NA\n"
        "2.000000000000e+00,2.140188807842e-01,2.166803607098e-01,2.591659198050e-01,"
        "9.877170228215e-01,8.257987043407e-01,NA\n"
        "3.000000000000e+00,9.492424294842e-01,9.389482297426e-01,1.312027469013e+00,"
        "1.010963543479e+00,7.234928017159e-01,NA\n"
        "4.000000000000e+00,3.526769480130e+00,3.518476333431e+00,4.146654716879e+00,"
        "1.002357027848e+00,8.505095603388e-01,5.238227230436e-01\n"
        "# verdict: sigma variant converging best = definitional "
        "(|ratio-1| = 2.357027847516e-03 at L = 4)\n"
        "# fitted error exponent (definitional): 5.238227230436e-01\n"
        "# fitted error exponent (remark5): 4.984288809012e+00\n",
}


@pytest.mark.parametrize("args", sorted(_MAIN_TERM_GOLDEN))
def test_main_term_golden_stdout(args):
    # the rows printed while predict and verify each assembled the main term
    # themselves; sigma_infty of a Gaussian comes from the theta integral,
    # which the quadrature.angular of perfbench/predict_quadrature.json, the
    # one config predict accepts it from, leaves alone (verify takes no such
    # key); sigma_remark5 is the product over all primes (exp_sums.sigma_remark5),
    # 1.305968274168 where the product to p <= 10^4 printed 1.305955455905
    bench = Path(__file__).resolve().parents[1] / "perfbench" / "predict_quadrature.json"
    r = run(*args.split(), *(("--config", str(bench)) if args.startswith("predict") else ()))
    assert r.exit_code == 0
    assert r.output == _MAIN_TERM_GOLDEN[args]


def test_sigma_p_rational_column():
    r = run("sigma-p", "--p", "2", "--d", "6")
    header, row = r.output.strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert (cols["value_rational"], cols["l_max"]) == ("7/6", "inf")
    assert abs(float(cols["value"]) - 7 / 6) < 1e-9
    assert abs(float(cols["remark5_value"]) - 9 / 8) < 1e-12


def test_sigma_infty_command():
    r = run("sigma-infty", "--d1", "3", "--m", "0", "--weight", "gaussian:a=1.0")
    assert r.exit_code == 0
    val = float(r.output.strip().splitlines()[1].split(",")[1])
    assert abs(val - 2.0) < 1e-5


def test_sigma_infty_check_is_relative():
    # the default and refined projection rules differ by 2.1e-6 relative here,
    # but by only 1.2e-10 in absolute terms
    r = RUNNER.invoke(main, ["sigma-infty", "--d1", "2", "--m", "0.45",
                             "--weight", "appendix-example", "--check"])
    assert r.exit_code == 3
    assert "quadrature not converged" in r.output


@pytest.mark.parametrize("args", ["--d1 2 --m 1.0", "--d1 3 --m 0"])
def test_sigma_infty_check_bump_theta_rule(args):
    # the bump takes the theta integral, whose refined rule agrees to rounding;
    # the tensor projection rule it replaced failed this check (4e-3 and
    # 5e-4 relative)
    r = run("sigma-infty", *args.split(), "--weight", "bump:scale=1.0", "--check")
    assert r.exit_code == 0


_SIGMA_INFTY_GOLDEN = {
    "--d1 2 --m 0.2 --weight bump:scale=1.0": "2.000000000000e-01,4.000428582954e-02",
    "--d1 2 --m 0.2 --weight appendix-example": "2.000000000000e-01,8.762242189930e-02",
    "--d1 2 --m 0.2 --weight appendix-example:variant=generic":
        "2.000000000000e-01,1.010677379821e-01",
    "--d1 3 --m 0.5 --weight gaussian:a=1.0": "5.000000000000e-01,2.130848243871e-01",
    "--d1 3 --m 0.5 --weight gaussian:a=1.5:shift=0.2,-0.1,0.05,0.15,0.1,-0.25":
        "5.000000000000e-01,4.376492145235e-02",
    "--d1 4 --m 0 --weight gaussian:a=1.0": "0.000000000000e+00,1.570796326795e+00",
}


@pytest.mark.parametrize("args", sorted(_SIGMA_INFTY_GOLDEN))
def test_sigma_infty_golden_stdout(args):
    # the rows printed while each fibre source had its own projection routine,
    # kept byte for byte where the theta integral (bump, Gaussians) agrees to
    # 12 digits; the bump row moved with it (the tensor rule was 5.7e-4 low)
    r = run("sigma-infty", *args.split())
    assert r.exit_code == 0
    assert r.output == "m,sigma_infty\n" + _SIGMA_INFTY_GOLDEN[args] + "\n"


@pytest.mark.parametrize("weight", ["gaussian:a=1.0",
                                    "gaussian:a=1.5:shift=0.2,-0.1,0.05,0.15,0.1,-0.25",
                                    "bump:scale=1.0", "appendix-example",
                                    "appendix-example:variant=generic"])
def test_sigma_infty_and_i_grid_take_no_config(weight, tmp_path):
    # no weight's I(t) reads a quadrature setting (appendix-example is
    # biradial and takes a single direction), so neither command takes a
    # config file: the one that set quadrature.angular exits 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"quadrature": {"angular": 4}}))
    for args in (("sigma-infty", "--d1", "3", "--m", "0.25", "--weight", weight),
                 ("i-grid", "--d1", "3", "--weight", weight, "--t-min", "0",
                  "--t-max", "0.25", "--n", "2")):
        assert run(*args).exit_code == 0
        r = RUNNER.invoke(main, [*args, "--config", str(cfg)])
        assert r.exit_code == 2 and r.stdout == ""
        assert "No such option '--config'" in r.stderr


def test_i_grid_prints_exact_zeros_past_the_bump_support():
    # I(t) = 0 for |t| >= d1 scale^2 = 3, where the theta rule would print
    # its rounding noise
    r = run("i-grid", "--d1", "3", "--weight", "bump:scale=1.0",
            "--t-min", "-4", "--t-max", "4", "--n", "33")
    rows = [line.split(",") for line in r.output.strip().splitlines()[1:]]
    past = [v for t, v in rows if abs(float(t)) >= 3.0]
    assert len(past) == 10 and set(past) == {"0.000000000000e+00"}
    # inside, the theta rule runs as before (its rounding noise included)
    assert all(float(v) != 0.0 for t, v in rows if abs(float(t)) < 3.0)


def test_sigma_infty_d1_4_isotropic_gaussian():
    # the theta integral needs no sphere rule; for the isotropic Gaussian it is
    # the closed-form model alone
    r = run("sigma-infty", "--d1", "4", "--weight", "gaussian:a=1.0")
    assert r.exit_code == 0
    assert abs(float(r.output.strip().splitlines()[1].split(",")[1]) - math.pi / 2) < 1e-9


_SHIFT8 = "0.1,-0.2,0.05,0.0,0.15,-0.1,0.2,0.05"


def _shifted_gaussian_reference(a, shift, t):
    """2 Re int_0^inf prod_i Psi_i(theta) e(-theta t) dtheta in mpmath, with
    the closed-form Gaussian pair transforms."""
    import mpmath
    mpmath.mp.dps = 20
    s = [mpmath.mpf(v) for v in shift]
    d1 = len(s) // 2
    n2, sig = sum(v * v for v in s), sum(x * y for x, y in zip(s[:d1], s[d1:]))

    def f(th):
        q = a * a + th * th
        P = q ** (-mpmath.mpf(d1) / 2) * mpmath.exp(
            mpmath.pi * a * a * (a * n2 + 2j * th * sig) / q - mpmath.pi * a * n2)
        return 2 * mpmath.re(P * mpmath.expj(-2 * mpmath.pi * th * t))
    if t == 0:
        return float(mpmath.quad(f, [0, 1, 10, mpmath.inf]))
    return float(mpmath.quadosc(f, [0, mpmath.inf], omega=2 * mpmath.pi * abs(t)))


def _bump_reference(d1):
    """I(0) = 2 int_0^inf Psi(theta)^d1 dtheta for bump:scale=1.0, with Psi
    from a 2-d Gauss-Legendre rule over [0, 1]^2 (panels halving toward the
    flat end at 1) and, past theta = 32, the stationary-phase expansion
    Psi = e^-2 / theta (1 - 1 / (2 pi^2 theta^2) + O(theta^-4))."""
    import mpmath
    from numpy.polynomial.legendre import leggauss
    x, wt = leggauss(20)
    edges = np.concatenate([np.linspace(0, 0.75, 17), 1 - 0.25 * 2.0 ** -np.arange(1, 8), [1.0]])
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    u = (mid[:, None] + half[:, None] * x).ravel()
    f = (half[:, None] * wt).ravel() * np.exp(1.0 / (u * u - 1.0))
    xy = np.outer(u, u)
    mpmath.mp.dps = 15
    head = mpmath.quad(lambda th: (4.0 * f @ np.cos(2 * np.pi * float(th) * xy) @ f) ** d1,
                       [0, 0.5, 1, 2, 4, 8, 16, 32])
    tail = mpmath.quad(lambda th: (math.exp(-2) / th * (1 - 1 / (2 * math.pi ** 2 * th ** 2)))
                       ** d1, [32, mpmath.inf])
    return 2 * float(head + tail)


@pytest.mark.parametrize("weight,m", [("bump:scale=1.0", "0"),
                                      ("gaussian:a=1.0:shift=" + _SHIFT8, "0.25")])
def test_predict_and_verify_at_d1_4(weight, m):
    # the theta integral serves every d1: at d = 8 the bump and the shifted
    # Gaussian, which have no sphere rule there, predict and verify
    if weight.startswith("bump"):
        ref = _bump_reference(4)
    else:
        ref = _shifted_gaussian_reference(1.0, [float(v) for v in _SHIFT8.split(",")], 0.25)
    r = run("predict", "--d1", "4", "--L", "4", "--m", m, "--weight", weight)
    assert r.exit_code == 0
    head, row = r.output.strip().splitlines()
    cols = dict(zip(head.split(","), row.split(",")))
    assert abs(float(cols["sigma_infty"]) - ref) <= 1e-11 * ref
    r = run("verify", "--d1", "4", "--m", m, "--weight", weight, "--L-list", "2,4")
    assert r.exit_code == 0
    last = r.output.strip().splitlines()[2].split(",")
    want = ref * float(cols["sigma_definitional"]) * 4.0 ** 6
    assert float(last[0]) == 4.0
    assert abs(float(last[2]) - want) <= 1e-11 * want


def test_i_grid_rows():
    r = run("i-grid", "--d1", "3", "--weight", "gaussian:a=1.0",
            "--t-min", "-1", "--t-max", "1", "--n", "5")
    lines = r.output.strip().splitlines()
    assert lines[0] == "t,I"
    assert len(lines) == 6
    mid = float(lines[3].split(",")[1])
    assert abs(mid - 2.0) < 1e-5


def test_gauss_sum_exact_column():
    r = run("gauss-sum", "--d1", "3", "--q", "4", "--t", "6")
    header, row = r.output.strip().splitlines()
    assert header == "q,t,value,value_exact"
    assert row.split(",")[3] == "-128"


@pytest.mark.parametrize("args", ["--d1 3 --q 396 --c -8,7,3,0,-3,-4",
                                  "--d1 2 --q 10000 --c 1,0,1,0"])
def test_gauss_sum_exact_zero(args):
    # t = 0 mod q: the unit sum is c_q(c_x.c_y) = 0, where the float loop
    # left an imaginary part of about 1e-6 that was refused
    r = run("gauss-sum", *args.split())
    assert r.exit_code == 0
    assert r.output == f"q,t,value,value_exact\n{args.split()[3]},0,0.000000000000e+00,0\n"


def test_gauss_sum_real_kloosterman_zero():
    # q = 5^2 and s t = 2 a non-residue mod 5: the sum is exactly 0, and the
    # loop's imaginary part of about 0.17 (against q^10 ~ 1e14) is rounding,
    # which the old fixed threshold 1e-6 (1 + |real|) refused with exit 2
    c = ",".join(["2"] + ["0"] * 9 + ["1"] + ["0"] * 9)
    r = run("gauss-sum", "--d1", "10", "--q", "25", "--t", "1", "--c", c)
    assert r.exit_code == 0
    q, t, value, exact = r.output.splitlines()[1].split(",")
    assert (q, t, exact) == ("25", "1", "")
    assert abs(float(value)) < 1e-12 * 25 ** 10


def test_gauss_sum_loop_cap_exit_code():
    # q - 1 = 10^12 float steps, refused before the loop starts
    r = RUNNER.invoke(main, ["gauss-sum", "--d1", "2", "--q", str(10 ** 12), "--t", "1",
                             "--c", "1,0,1,0"])
    assert r.exit_code == 3
    assert r.stdout == ""
    assert "loop cap" in r.stderr


def test_delta_command():
    r = run("delta", "--n", "3", "--Q", "10")
    row = r.output.strip().splitlines()[1].split(",")
    assert abs(float(row[4])) < 1e-9


def test_delta_command_outputs():
    # the batched kernel leaves the printed row of a small n unchanged
    r = run("delta", "--n", "3", "--Q", "10")
    assert r.exit_code == 0
    assert r.output == ("n,Q,delta,cQ,residual\n"
                        "3,1.000000000000e+01,4.381794694098e-17,"
                        "9.866924475778e-01,4.381794694098e-17\n")


_DELTA_Q60 = {
    "0": "0,6.000000000000e+01,1.000000000000e+00,1.000002254478e+00,0.000000000000e+00\n",
    "7": "7,6.000000000000e+01,1.765566984862e-18,1.000002254478e+00,1.765566984862e-18\n",
    "5000": "5000,6.000000000000e+01,-7.340793309618e-18,1.000002254478e+00,"
            "7.340793309618e-18\n",
}


@pytest.mark.parametrize("n", sorted(_DELTA_Q60))
def test_delta_golden_stdout(n):
    # the exact rows printed before the kernel tables existed
    r = run("delta", "--n", n, "--Q", "60")
    assert r.exit_code == 0
    assert r.output == "n,Q,delta,cQ,residual\n" + _DELTA_Q60[n]


def test_check_kernel_golden_stdout():
    r = run("check", "--suite", "kernel")
    assert r.exit_code == 0
    assert r.output == (
        "PASS [kernel] delta sweep |n|<=50 at Q=20, max residual: 1.841290781222e-16\n"
        "PASS [kernel] calibration constant |c_Q - 1| at Q=20: 2.413656999505e-03\n"
        "# all checks passed\n")


def test_delta_term_cap_exit_code():
    r = RUNNER.invoke(main, ["delta", "--n", "1099511627779", "--Q", "60"])
    assert r.exit_code == 3
    assert r.stderr.startswith("error:") and "cap" in r.stderr


@pytest.mark.parametrize("args", [("--n", "1" + "0" * 400, "--Q", "60"),
                                  ("--n", "3", "--Q", "1e200"),
                                  ("--n", "0", "--Q", "5e5")])
def test_delta_oversized_input_exit_code(args):
    # an n past float range, or a Q whose square overflows, meets the term cap
    # before either is converted or squared; at n = 0 and Q = 5e5 the h1
    # windows alone pass the cap
    r = RUNNER.invoke(main, ["delta", *args])
    assert r.exit_code == 3
    assert r.stderr.startswith("error:") and "cap" in r.stderr


def test_sigma_p_prime_test_bound_exit_code():
    r = RUNNER.invoke(main, ["sigma-p", "--p", "3317044064679887385961981", "--d", "6"])
    assert r.exit_code == 3
    assert "prime test bound" in r.stderr


def test_cli_import_loads_no_sympy_or_scipy():
    # scipy is imported inside its users (smear, coarea_check and qc check's
    # integral suite); sympy and mpmath only by the tests; numpy.polynomial
    # (the Gauss-Legendre nodes) only when a quadrature runs
    import splitquad
    src = str(Path(splitquad.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    for module in ("splitquad", "splitquad.cli"):
        code = (f"import sys, {module}; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('sympy', 'scipy', 'mpmath') "
                "or m.startswith('numpy.polynomial')))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]", module


def test_predict_verify_load_no_mpmath_scipy_or_sympy():
    # predict and verify run in-process in a fresh interpreter: the main
    # term takes its zeta values from exp_sums.zeta_int, not from mpmath,
    # whose import alone would cost each process about 30 ms
    import splitquad
    src = str(Path(splitquad.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys\n"
            "from splitquad.cli import main\n"
            "for args in (['predict', '--d1', '3', '--L', '8', '--m', '0.5', '--weight',\n"
            "              'gaussian:a=1.0:shift=0.1,-0.2,0.05,0.0,0.15,-0.1'],\n"
            "             ['verify', '--d1', '3', '--m', '0', '--weight', 'gaussian:a=1.0',\n"
            "              '--L-list', '2,3']):\n"
            "    main.main(args=args, prog_name='qc', standalone_mode=False)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('sympy', 'scipy', 'mpmath')))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert "sigma_remark5" in out and "predicted_r5" in out
    assert out.splitlines()[-1] == "[]"


def test_check_all_loads_no_mpmath():
    # qc check takes K1 and the appendix-example reference from scipy, so
    # mpmath is a test dependency only
    import splitquad
    src = str(Path(splitquad.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys\n"
            "from splitquad.cli import main\n"
            "main.main(args=['check', '--suite', 'all'], prog_name='qc', standalone_mode=False)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('sympy', 'mpmath')))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert "# all checks passed" in out
    assert out.splitlines()[-1] == "[]"


def test_check_suites():
    r = run("check", "--suite", "kernel")
    assert r.exit_code == 0
    assert "PASS" in r.output and "FAIL" not in r.output
    bad = RUNNER.invoke(main, ["check", "--suite", "nonsense"])
    assert bad.exit_code == 2


def test_check_suite_all_runs_every_check():
    r = run("check", "--suite", "all")
    assert r.exit_code == 0
    labels = [line.split(":")[0] for line in r.output.splitlines() if line.startswith("PASS")]
    assert labels == [
        "PASS [kernel] delta sweep |n|<=50 at Q=20, max residual",
        "PASS [kernel] calibration constant |c_Q - 1| at Q=20",
        "PASS [sums] naive vs factored S_q, q<=12, rel error",
        "PASS [sums] local density equals truncated sigma_p series",
        "PASS [integral] Gaussian I(0) theta integral vs x-projection",
        "PASS [integral] shifted Gaussian I(0.25) theta integral vs y-projection",
        "PASS [integral] Gaussian I(1) vs 4*pi*K1(2*pi)",
        "PASS [integral] appendix-example y-projection vs two-radius integral at t=0.25",
    ]
    assert "FAIL" not in r.output and r.output.endswith("# all checks passed\n")


@pytest.mark.parametrize("t, ref", [(0.0, 0.1216000085748122025),
                                    (0.25, 0.056093964934740565165)])
def test_two_radius_appendix_reference_vs_mpmath(t, ref):
    # qc check's reference for appendix-example's I(t), against a 25-digit
    # mpmath tanh-sinh of the same nested integral (at t = 0 the value
    # 2 pi^2 int F int g of ROADMAP item 10)
    assert abs(_two_radius_appendix(t) / ref - 1) <= 1e-13


def test_config_d1_not_integral_names_the_value(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"d1": 3.5}')
    r = RUNNER.invoke(main, ["count", "--L", "2", "--weight", "gaussian:a=1.0",
                             "--config", str(cfg)])
    assert r.exit_code == 2 and r.stdout == ""
    assert "d1 must be an integer, got 3.5" in r.stderr


@pytest.mark.parametrize("args", [("count", "--d1", "3", "--L", "4", "--m", "0.25"),
                                  ("sigma-infty", "--d1", "3", "--m", "0.5")])
def test_zero_shift_is_the_unshifted_gaussian(args):
    # an all-zero shift is dropped, so the weight takes the isotropic paths
    plain = run(*args, "--weight", "gaussian:a=1.0")
    zero = run(*args, "--weight", "gaussian:a=1.0:shift=0,0,0,0,0,0")
    assert plain.exit_code == zero.exit_code == 0
    assert zero.output == plain.output


def test_config_file_mirrors_flags(tmp_path):
    cfg = {"d1": 3, "L": 2, "m": 0.0, "weight": "gaussian:a=1.0", "eps": 1e-8}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    via_cfg = run("count", "--config", str(path)).output
    via_flags = run("count", "--d1", "3", "--L", "2", "--m", "0",
                    "--weight", "gaussian:a=1.0", "--eps", "1e-8").output
    assert via_cfg == via_flags
    # explicit flags override config values
    over = run("count", "--config", str(path), "--L", "1").output
    assert over != via_cfg
    assert over.splitlines()[1].startswith("1.0")


def test_verify_small_table():
    r = run("verify", "--d1", "3", "--m", "0", "--weight", "gaussian:a=1.0",
            "--L-list", "2,3", "--eps", "1e-8")
    assert r.exit_code == 0
    lines = r.output.strip().splitlines()
    assert lines[0] == ("L,exact,predicted_def,predicted_r5,ratio_def,"
                        "ratio_r5,fitted_error_exponent")
    assert lines[1].endswith("NA")
    assert not lines[2].endswith("NA")
    assert any(line.startswith("# verdict:") for line in lines)
    assert any("fitted error exponent" in line for line in lines)


def test_verify_deterministic():
    args = ("verify", "--d1", "3", "--m", "0", "--weight", "gaussian:a=1.0",
            "--L-list", "2,3", "--eps", "1e-8")
    assert run(*args).output == run(*args).output


def _verify_ratios(*args):
    r = run("verify", "--d1", "3", "--weight", "gaussian:a=1.0", *args)
    assert r.exit_code == 0
    lines = [ln for ln in r.output.strip().splitlines() if not ln.startswith("#")]
    head = lines[0].split(",")
    rows = [dict(zip(head, ln.split(","))) for ln in lines[1:]]
    return {float(c["L"]): (float(c["ratio_def"]), float(c["ratio_r5"])) for c in rows}


def test_verify_sigma_per_level():
    # at m != 0 each row has its own level t = m L^2 and so its own series
    ratios = _verify_ratios("--m", "1", "--L-list", "1,2,3,4")
    assert abs(ratios[2.0][0] - 1.0) <= 0.02
    assert abs(ratios[4.0][0] - 1.0) <= 0.003


@pytest.mark.parametrize("args,phi_calls,mu_calls", [
    (("verify", "--d1", "3", "--m", "1", "--weight", "gaussian:a=1.0", "--L-list", "1,2,3,4"),
     [], [10 ** 5]),
    (("predict", "--d1", "3", "--L", "8", "--m", "0.5", "--weight", "gaussian:a=1.0"),
     [], [10 ** 5]),
    (("verify", "--d1", "3", "--m", "0", "--weight", "gaussian:a=1.0", "--L-list", "2,3"),
     [10 ** 5], []),
], ids=["args0", "args1", "args2"])
def test_one_phi_mu_sieve_per_command(monkeypatch, args, phi_calls, mu_calls):
    # the sieves do not depend on the level t, so verify's four levels share
    # one mu sieve; phi serves only t = 0 and mu only t != 0
    calls = {"_phi_sieve": [], "_mu_sieve": []}
    for name in calls:
        def counted(X, sieve=getattr(exp_sums, name), name=name):
            calls[name].append(X)
            return sieve(X)
        monkeypatch.setattr(exp_sums, name, counted)
    assert run(*args).exit_code == 0
    assert calls == {"_phi_sieve": phi_calls, "_mu_sieve": mu_calls}


def test_verify_large_L_convergence():
    # the counts approach the definitional series from below and move away
    # from the remark5 product, whose ratio heads to 1.3684/1.3059 = 1.048;
    # L = 32 (about 6.1e8 multiply-adds) fits the default budget
    ratios = _verify_ratios("--m", "0", "--L-list", "16,24,32")
    r_def = [ratios[L][0] for L in (16.0, 24.0, 32.0)]
    r_r5 = [ratios[L][1] for L in (16.0, 24.0, 32.0)]
    assert r_def == pytest.approx([0.9615, 0.9743, 0.9808], abs=1e-4)
    assert r_r5 == pytest.approx([1.0075, 1.0210, 1.0277], abs=1e-4)
    assert r_def[0] < r_def[1] < r_def[2] < 1.0
    assert 1.0 < r_r5[0] < r_r5[1] < r_r5[2]
