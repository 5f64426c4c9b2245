import math

import pytest

from splitquad.errors import ArgumentError
from splitquad.forms import LatticeSpec, QuadraticFormF0


def test_dimension_mismatch():
    # the form's dimension d = 2 d1 is all it carries; d1 = 0 is refused
    assert QuadraticFormF0(3).d == 6
    assert QuadraticFormF0(1).d == 2
    with pytest.raises(ArgumentError):
        QuadraticFormF0(0)


def test_lattice_spec_integrality():
    assert LatticeSpec(L=2, m=0.25).t == 1
    assert LatticeSpec(L=4, m=0).t == 0
    assert LatticeSpec(L=3, m=2).t == 18
    with pytest.raises(ArgumentError):
        LatticeSpec(L=2, m=0.1)
    for L, m in [(0.5, 0), (math.inf, 0), (2, math.inf), (2, -math.inf), (2, math.nan)]:
        with pytest.raises(ArgumentError):
            LatticeSpec(L=L, m=m)
