"""The two benchmark workloads, built from four parts: ops, seeded inputs, oracles.

Each op is one ``qc`` command run in-process through the click entry point
(stdout captured) or one call into the public API.  A part's oracle is
computed after the timed rounds, or read from ``oracles.json`` (written by
``make_oracles.py``) when it is too costly to compute in every run.  See
README.md for why each workload and part was chosen.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ORACLES = Path(__file__).with_name("oracles.json")

# Ops are kept to a few seconds or less, so that a run repeats each of them
# often enough for its median to outlast the speed swings of a shared
# machine (see README.md, "Why two workloads of short ops").
VERIFY_LS = (2, 5)                 # first rows of the canonical verify table
VERIFY_WEIGHT = "gaussian:a=1.0"
VERIFY_M = 0
APPENDIX_LS = (6, 8, 10)           # m = 1/4, so t = L^2 / 4 = 9, 16, 25
# predict reads its quadrature from this file: 8 polar orders (96 directions)
# in place of the default 12 (288), accurate to ~1e-10 on these weights
PREDICT_CONFIG = Path(__file__).with_name("predict_quadrature.json")
ARITH_LEVELS = (36, 72, 100, 144)
EULER_CUTOFF = 20000
DIRICHLET_CUTOFF = 300000
DELTA_Q = 60.0
DELTA_N = range(-200, 201)

# Every level at which a workload calls the counter; counter.self_s.L<k>
# is reported for each of them.
COUNT_LEVELS = tuple(sorted(set(VERIFY_LS) | set(APPENDIX_LS)))


@dataclass
class Op:
    label: str
    root: str | None             # span name of the op's root, None for an API call
    call: Callable[[], str]      # runs the op, returns its output text
    part: str = ""               # name of the part the op belongs to


@dataclass
class Part:
    name: str
    inputs: dict                 # the seeded inputs, recorded with the result
    round_ops: Callable[[], list]                 # fresh ops for one round
    oracle: Callable[[], dict]                    # computed outside the timed rounds
    check: Callable[[list, dict], list]           # (outputs, oracle) -> problems per op


@dataclass
class Workload:
    name: str
    parts: tuple

    @property
    def inputs(self) -> dict:
        return {p.name: p.inputs for p in self.parts}

    def round_ops(self) -> list:
        """Fresh ops for one round: every part's ops, part after part."""
        ops = []
        for p in self.parts:
            for op in p.round_ops():
                op.part = p.name
                ops.append(op)
        return ops

    def oracle(self) -> dict:
        return {p.name: p.oracle() for p in self.parts}

    def check(self, outs: list, parts: list, oracle: dict) -> list:
        """Problems per op; parts names the part of each output."""
        found = []
        for p in self.parts:
            found += p.check([o for o, q in zip(outs, parts) if q == p.name], oracle[p.name])
        return found


def qc(*args: str) -> Op:
    from splitquad import cli

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main.main(args=list(args), prog_name="qc", standalone_mode=False)
        return buf.getvalue()
    return Op("qc " + " ".join(args), f"cli.{args[0]}", call)


def csv_rows(out: str) -> list[dict]:
    """CSV rows of a qc output as dicts; '#' lines are skipped."""
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    head = lines[0].split(",")
    return [dict(zip(head, ln.split(","))) for ln in lines[1:]]


def _stored(name: str) -> dict:
    return json.loads(ORACLES.read_text())[name]


def _close(label, got, want, tol) -> list[str]:
    if abs(got - want) <= tol:
        return []
    return [f"{label}: got {got!r}, want {want!r} within {tol!r}"]


# -- verify_gaussian -----------------------------------------------------------

def verify_gaussian(seed: int) -> Part:
    args = ("verify", "--d1", "3", "--m", str(VERIFY_M), "--weight", VERIFY_WEIGHT,
            "--L-list", ",".join(str(L) for L in VERIFY_LS))

    def oracle():
        from splitquad import LatticeSpec, brute_force_N_L, parse_weight, sigma_dirichlet
        stored = _stored("verify_gaussian")
        counts = {L: stored[str(L)]["value"] for L in VERIFY_LS}
        counts[2] = brute_force_N_L(parse_weight(VERIFY_WEIGHT, 6), LatticeSpec(2, VERIFY_M), 6)
        return {"counts": counts,
                "tails": {L: stored[str(L)]["tail_estimate"] for L in VERIFY_LS},
                "sigma": {L: sigma_dirichlet(10 ** 5, 6, VERIFY_M * L * L).value
                          for L in VERIFY_LS}}

    def check(outs, orc):
        rows = csv_rows(outs[0])
        got = [float(r["L"]) for r in rows]
        if got != [float(L) for L in VERIFY_LS]:
            return [[f"rows for L = {got}, want {list(VERIFY_LS)}"]]
        problems = []
        for r in rows:
            L = int(float(r["L"]))
            problems += _close(f"exact at L={L}", float(r["exact"]),
                               orc["counts"][L], orc["tails"][L])
            want = 2.0 * orc["sigma"][L] * L ** 4          # I(0) = 2 for this weight
            problems += _close(f"predicted_def at L={L}", float(r["predicted_def"]),
                               want, 1e-6 * want)
        return [problems]

    return Part("verify_gaussian", {"L_list": list(VERIFY_LS)},
                    lambda: [qc(*args)], oracle, check)


# -- count_appendix ------------------------------------------------------------

def count_appendix(seed: int) -> Part:
    def ops():
        return [qc("count", "--d1", "3", "--weight", "appendix-example",
                   "--m", "0.25", "--L", str(L)) for L in APPENDIX_LS]

    def oracle():
        stored = _stored("count_appendix")
        return {L: stored[str(L)] for L in APPENDIX_LS}

    def check(outs, orc):
        problems = []
        for L, out in zip(APPENDIX_LS, outs):
            (row,) = csv_rows(out)
            want = orc[L]
            problems.append(_close(f"N_L at L={L} vs brute force", float(row["value"]),
                                   want, 1e-10 * abs(want)))
        return problems

    return Part("count_appendix", {"L": list(APPENDIX_LS)}, ops, oracle, check)


# -- predict_shifted -----------------------------------------------------------

def predict_shifted(seed: int) -> Part:
    rng = random.Random(f"predict_shifted:{seed}")
    shift = ",".join(f"{rng.uniform(-0.3, 0.3):.6f}" for _ in range(6))
    weight = f"gaussian:a=1.0:shift={shift}"
    m, L = 0.5, 8
    t = int(m * L * L)
    args = ("predict", "--d1", "3", "--L", str(L), "--m", str(m), "--weight", weight,
            "--config", str(PREDICT_CONFIG))

    def oracle():
        from dataclasses import replace

        from splitquad import i_y_projection, parse_weight, sigma_dirichlet, sigma_euler
        from splitquad.sing_integral import default_config
        w = parse_weight(weight, 6)
        angular = json.loads(PREDICT_CONFIG.read_text())["quadrature"]["angular"]
        euler = sigma_euler(10 ** 4, 6, t)
        return {"mirror": i_y_projection(w, m, replace(default_config(w), angular_order=angular)),
                "euler": euler.value,
                "sigma_tol": euler.tail_bound + sigma_dirichlet(10 ** 5, 6, t).tail_bound}

    def check(outs, orc):
        (row,) = csv_rows(outs[0])
        s_inf, s_def = float(row["sigma_infty"]), float(row["sigma_definitional"])
        main = s_inf * s_def * L ** 4
        return [_close("sigma_infty vs mirror projection", s_inf, orc["mirror"], 1e-8)
                + _close("sigma_definitional vs Euler product", s_def, orc["euler"],
                         orc["sigma_tol"])
                + _close("main_term_def", float(row["main_term_def"]), main, 1e-10 * main)]

    return Part("predict_shifted", {"shift": shift, "t": t},
                    lambda: [qc(*args)], oracle, check)


# -- arith_series --------------------------------------------------------------

def arith_series(seed: int) -> Part:
    t = random.Random(f"arith_series:{seed}").choice(ARITH_LEVELS)

    def ops():
        from splitquad import delta_kernel
        # one config per round: c_Q is calibrated by its first call
        cfg = delta_kernel.DeltaKernelConfig(Q=DELTA_Q)

        def delta(n):
            # looked up on the module at call time, so a traced round sees the wrapper
            return Op(f"delta_sum({n}, Q={DELTA_Q:g})", None,
                      lambda: repr(delta_kernel.delta_sum(n, cfg)))
        sigma = ("sigma", "--d", "6", "--t", str(t))
        return [qc(*sigma, "--method", "euler", "--cutoff", str(EULER_CUTOFF)),
                qc(*sigma, "--method", "dirichlet", "--cutoff", str(DIRICHLET_CUTOFF))] \
            + [delta(n) for n in DELTA_N]

    def check(outs, orc):
        (euler,), (dirichlet,) = csv_rows(outs[0]), csv_rows(outs[1])
        tol = float(euler["tail_bound"]) + float(dirichlet["tail_bound"])
        agree = _close("Euler vs Dirichlet sigma", float(euler["value"]),
                       float(dirichlet["value"]), tol)
        return [agree, agree] + [_close(f"delta({n}) residual", float(out),
                                        1.0 if n == 0 else 0.0, 1e-9)
                                 for n, out in zip(DELTA_N, outs[2:])]

    return Part("arith_series", {"t": t}, ops, dict, check)


# -- the workloads -------------------------------------------------------------
# Two workloads, not one per part: the machine's speed wanders on a scale of
# tens of seconds, so each run has to be long, and the number of runs a
# comparison takes grows with the number of workloads (README.md, "Why two
# workloads of short ops").

def lattice_count(seed: int) -> Workload:
    """Lattice-point counting: the counter and per-fibre weight calls."""
    return Workload("lattice_count", (verify_gaussian(seed), count_appendix(seed)))


def main_term(seed: int) -> Workload:
    """The factors of the main term: singular integral, singular series, delta kernel."""
    return Workload("main_term", (predict_shifted(seed), arith_series(seed)))


WORKLOADS = {f.__name__: f for f in (lattice_count, main_term)}
