"""Run one splitquad benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the package is imported from ``src/``.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones of BENCHMARK.json, measured untraced; with
``--trace 1`` they are the per-layer ones, from one traced round (see
tracing.py) followed by one untraced round.  The lines before it name every
metric with its unit, ``fail_frac`` and the environment.  The spans of a
traced run and every run's result are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# fresh interpreters timed per run for setup_s; the median is reported
SETUP_SAMPLES = 5
# an untraced run repeats rounds while the next one, taking as long as the
# last, still ends within --seconds, and runs at least this many, so that a
# slow first round (one-time costs) does not set any op's median
MIN_ROUNDS = 3
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import splitquad; "
                "print(repr(time.perf_counter() - t0))")


def measure_setup() -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    samples = []
    for _ in range(SETUP_SAMPLES):
        r = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(r.stdout.split()[-1]))
    return statistics.median(samples)


@dataclass
class Round:
    wall: float                  # seconds for all ops of the round
    outs: list                   # output text per op, None when it raised
    errors: list                 # error message per op, None when it returned
    op_walls: list               # seconds per op
    parts: list                  # part name per op


def run_round(workload, tracer=None) -> Round:
    ops = workload.round_ops()
    outs, errors, walls = [], [], []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        t_op = time.perf_counter()
        try:
            out = op.call() if tracer is None else tracer.run_op(i, op.root, op.call)
            err = None
        except (Exception, SystemExit) as e:   # an op that raises or exits has failed
            traceback.print_exc()
            out, err = None, f"{op.label}: raised {e!r}"
        walls.append(time.perf_counter() - t_op)
        outs.append(out)
        errors.append(err)
    return Round(time.perf_counter() - t0, outs, errors, walls, [op.part for op in ops])


def problems_of(workload, rnd: Round, oracle) -> list[list[str]]:
    """Problems per op of one round: the op's own error or its oracle's findings."""
    if any(rnd.errors):
        return [[e] if e else ["not checked: another op of the round failed"]
                for e in rnd.errors]
    outs = rnd.outs
    try:
        found = workload.check(outs, rnd.parts, oracle)
    except Exception as e:     # malformed output fails every op of the round
        traceback.print_exc()
        return [[f"output not parsed: {e!r}"]] * len(outs)
    if len(found) != len(outs):
        raise RuntimeError(f"{workload.name}: check returned {len(found)} entries "
                           f"for {len(outs)} ops")
    return found


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int, qc_threads: str | None, inputs: dict) -> dict:
    env = {"seed": seed, "nproc": os.cpu_count(), "QC_THREADS": qc_threads,
           "python": platform.python_version()}
    env.update({pkg: metadata.version(pkg)
                for pkg in ("numpy", "scipy", "sympy", "mpmath", "click")})
    env.update({"commit": git_commit(), "inputs": inputs})
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time of an untraced run: rounds repeat while "
                             f"they fit in it, at least {MIN_ROUNDS} of them")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "splitquad" / "__init__.py").is_file():
        print(f"error: no splitquad package under {SRC}", file=sys.stderr)
        return 2
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    # verify runs with QC_THREADS unset, as a user runs it by default
    qc_threads = os.environ.pop("QC_THREADS", None)
    sys.path.insert(0, str(SRC))
    import splitquad  # noqa: F401  (import cost is setup_s, outside the timed rounds)
    import tracing as tr
    from workloads import APPENDIX_LS, COUNT_LEVELS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    env = environment(args.seed, qc_threads, workload.inputs)

    rounds: list[Round] = []
    values = {}
    tracer = None
    if args.trace:
        # the traced round comes first, in the state the untraced runs time;
        # the overhead it reports therefore includes one-time warm-up as well
        tracer = tr.Tracer()
        tr.instrument(tracer)
        try:
            rounds.append(run_round(workload, tracer))
        finally:
            tracer.restore()
        rounds.append(run_round(workload))
        values = tr.layer_metrics(tracer.spans, COUNT_LEVELS, APPENDIX_LS)
        values["trace.overhead_s"] = rounds[0].wall - rounds[1].wall
    else:
        values["setup_s"] = measure_setup()
        t_start = time.perf_counter()
        rounds.append(run_round(workload))
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(rounds) < MIN_ROUNDS or \
                time.perf_counter() - t_start + rounds[-1].wall <= args.seconds:
            rounds.append(run_round(workload))
        # each op's median over the rounds, summed: a burst of contention on
        # a shared machine slows a few ops of one round, not the result
        values["wall_s"] = math.fsum(statistics.median(walls)
                                     for walls in zip(*(r.op_walls for r in rounds)))

    oracle = workload.oracle()
    problems = [problems_of(workload, r, oracle) for r in rounds]
    # identical inputs must give byte-identical stdout, traced or not
    first = rounds[0].outs
    for rnd, found in zip(rounds[1:], problems[1:]):
        for i, (a, b) in enumerate(zip(first, rnd.outs)):
            if a is not None and b is not None and a != b:
                found[i] = found[i] + ["output differs from the first round"]

    attempted = sum(len(p) for p in problems)
    failed = sum(1 for p in problems for op in p if op)
    declared = decl["per_layer"] if args.trace else decl["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"# workload {workload.name}, seed {args.seed}, trace {args.trace}, "
          f"{len(rounds)} round(s) of {len(first)} op(s)")
    for r, found in enumerate(problems):
        for i, msgs in enumerate(found):
            for msg in msgs:
                print(f"# FAIL round {r} op {i}: {msg}")
    print("# round wall times: " + ", ".join(f"{r.wall:.4f} s" for r in rounds))
    for part in dict.fromkeys(rounds[0].parts):
        walls = [math.fsum(w for w, q in zip(r.op_walls, r.parts) if q == part) for r in rounds]
        print(f"# part {part}: {statistics.median(walls):.4f} s median, "
              f"{min(walls):.4f} s fastest of {len(walls)} round(s)")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']!r} {m['unit']}")
    print(f"# fail_frac = {failed / attempted!r} ({failed} of {attempted} ops failed)")
    if tracer is not None:
        # per part, so that each part's dominant layers can be read off
        selfs = tr.self_times(tracer.spans)
        part_of = rounds[0].parts
        for part in dict.fromkeys(part_of):
            by_layer = dict.fromkeys(tr.LAYERS, 0.0)
            for sp in tracer.spans:
                if part_of[sp.op] == part:
                    by_layer[sp.layer] += selfs[id(sp)]
            total = math.fsum(by_layer.values())
            shares = ", ".join(f"{layer} {t / total:.3f}" for layer, t in by_layer.items())
            print(f"# share of summed self time in {part}: {shares}")
    print(json.dumps({"env": env}))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"env": env, "problems": problems, "op_walls": [r.op_walls for r in rounds], **result},
        indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
