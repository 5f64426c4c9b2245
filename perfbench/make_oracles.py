"""Write perfbench/oracles.json, the stored oracles too costly to compute per run.

    python3 perfbench/make_oracles.py

- verify_gaussian: value and tail_estimate of ``qc count`` at each L of the
  workload, the reference for verify's ``exact`` column.
- count_appendix: ``brute_force_N_L`` with box L at each L of the workload,
  a literal scan independent of the hyperplane enumerator (about 15 s in all).

Regenerate only when the definition of a workload changes, never to make a
failing check pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from splitquad import AppendixExample, LatticeSpec, brute_force_N_L  # noqa: E402

from workloads import (APPENDIX_LS, ORACLES, VERIFY_LS, VERIFY_M, VERIFY_WEIGHT,  # noqa: E402
                       csv_rows, qc)


def main():
    verify = {}
    for L in VERIFY_LS:
        op = qc("count", "--d1", "3", "--L", str(L), "--m", str(VERIFY_M),
                "--weight", VERIFY_WEIGHT)
        (row,) = csv_rows(op.call())
        verify[str(L)] = {"value": float(row["value"]),
                          "tail_estimate": float(row["tail_estimate"])}
    appendix = {str(L): brute_force_N_L(AppendixExample(6), LatticeSpec(L, 0.25), L)
                for L in APPENDIX_LS}
    ORACLES.write_text(json.dumps({"verify_gaussian": verify,
                                   "count_appendix": appendix}, indent=1) + "\n")


if __name__ == "__main__":
    main()
