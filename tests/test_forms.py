import math

import numpy as np
import pytest

from splitquad.errors import ArgumentError
from splitquad.forms import LatticeSpec, QuadraticFormF0


def test_eval_basic():
    f = QuadraticFormF0(3)
    assert f.d == 6
    z = np.array([1, 2, 3, 4, 5, 6])
    assert f.eval(z) == 1 * 4 + 2 * 5 + 3 * 6
    assert f.eval_exact(z) == 32


def test_eval_float_and_batch():
    f = QuadraticFormF0(2)
    assert f.eval([0.5, 0.5, 2.0, 2.0]) == pytest.approx(2.0)
    Z = np.array([[1, 0, 0, 1], [1, 1, 1, 1]], dtype=float)
    vals = f.eval(Z)
    assert np.allclose(vals, [0.0, 2.0])


def test_eval_exact_rejects_non_integers():
    f = QuadraticFormF0(2)
    with pytest.raises(ArgumentError):
        f.eval_exact([0.5, 1, 1, 1])


def test_eval_exact_big_integers():
    f = QuadraticFormF0(1)
    n = 10 ** 30
    assert f.eval_exact([n, n]) == n * n


def test_grad_is_coordinate_swap():
    f = QuadraticFormF0(3)
    z = np.array([1.0, 2, 3, 4, 5, 6])
    assert np.array_equal(f.grad(z), [4, 5, 6, 1, 2, 3])
    # |grad F0(z)| = |z|
    assert np.linalg.norm(f.grad(z)) == pytest.approx(np.linalg.norm(z))


def test_dimension_mismatch():
    f = QuadraticFormF0(2)
    with pytest.raises(ArgumentError):
        f.eval([1.0, 2.0, 3.0])
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
