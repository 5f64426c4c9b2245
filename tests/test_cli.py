import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from splitquad.cli import main

RUNNER = CliRunner()


def run(*args, env=None):
    return RUNNER.invoke(main, list(args), env=env, catch_exceptions=False)


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
    # error-term constants for d = 6: N1 = 60, N2 = 49, N3 = 82
    assert (cols["N1"], cols["N2"], cols["N3"]) == ("60", "49", "82")


def test_predict_rejects_small_dimension():
    r = RUNNER.invoke(main, ["predict", "--d1", "2", "--L", "4",
                             "--weight", "gaussian:a=1.0"])
    assert r.exit_code == 2


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


def test_sigma_p_no_convergence_exit_code():
    # rel_tol = 0 is never met, so the loop hits its l > 10000 refusal
    r = RUNNER.invoke(main, ["sigma-p", "--p", "2", "--d", "6", "--rel-tol", "0"])
    assert r.exit_code == 3
    assert "sigma_p failed to converge" in r.stderr


def test_sigma_p_rational_column():
    r = run("sigma-p", "--p", "2", "--d", "6")
    header, row = r.output.strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert cols["value_rational"].startswith("7/6") or "/" in cols["value_rational"]
    assert abs(float(cols["value"]) - 7 / 6) < 1e-9
    assert abs(float(cols["remark5_value"]) - 9 / 8) < 1e-12


def test_sigma_infty_command():
    r = run("sigma-infty", "--d1", "3", "--m", "0", "--weight", "gaussian:a=1.0")
    assert r.exit_code == 0
    val = float(r.output.strip().splitlines()[1].split(",")[1])
    assert abs(val - 2.0) < 1e-5


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


def test_delta_term_cap_exit_code():
    r = RUNNER.invoke(main, ["delta", "--n", "1099511627779", "--Q", "60"])
    assert r.exit_code == 3
    assert r.stderr.startswith("error:") and "cap" in r.stderr


def test_sigma_p_prime_test_bound_exit_code():
    r = RUNNER.invoke(main, ["sigma-p", "--p", "3317044064679887385961981", "--d", "6"])
    assert r.exit_code == 3
    assert "prime test bound" in r.stderr


def test_cli_import_loads_no_sympy_or_scipy():
    # scipy is imported inside its two users; sympy only by the tests
    import splitquad
    src = str(Path(splitquad.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, splitquad.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('sympy', 'scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_check_suites():
    r = run("check", "--suite", "kernel")
    assert r.exit_code == 0
    assert "PASS" in r.output and "FAIL" not in r.output
    bad = RUNNER.invoke(main, ["check", "--suite", "nonsense"])
    assert bad.exit_code == 2


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
            "--L-list", "2,3", "--eps", "1e-8", env={"QC_THREADS": "1"})
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
