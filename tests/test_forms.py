import math

import pytest

from splitquad.errors import ArgumentError
from splitquad.exp_sums import S_q_factored, S_q_naive
from splitquad.forms import LatticeSpec


def test_dimension_mismatch():
    # the sums take d1 itself: d1 = 0 is refused, and c must have length 2 d1
    assert S_q_factored(1, 2, [0, 0], 0).value_exact == 2
    for S in (S_q_naive, S_q_factored):
        with pytest.raises(ArgumentError):
            S(0, 2, [], 0)
        with pytest.raises(ArgumentError):
            S(3, 2, [0] * 4, 0)


def test_lattice_spec_integrality():
    assert LatticeSpec(L=2, m=0.25).t == 1
    assert LatticeSpec(L=4, m=0).t == 0
    assert LatticeSpec(L=3, m=2).t == 18
    with pytest.raises(ArgumentError):
        LatticeSpec(L=2, m=0.1)
    for L, m in [(0.5, 0), (math.inf, 0), (2, math.inf), (2, -math.inf), (2, math.nan)]:
        with pytest.raises(ArgumentError):
            LatticeSpec(L=L, m=m)
