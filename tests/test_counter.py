import math
from itertools import product

import numpy as np
import pytest

from splitquad import counter as ct
from splitquad.errors import ArgumentError, CapabilityError
from splitquad.exp_sums import remark5_sigma_p
from splitquad.forms import LatticeSpec
from splitquad.weights import AppendixExample, GaussianWeight, ProductBump, WeightFunction

RNG = np.random.default_rng(7)
# float64 rounding allowance (relative) when two paths sum in different orders
ROUNDING = 1e4 * np.finfo(float).eps


def test_solve_axis_vector():
    sol = ct.solve_hyperplane_lattice([2, 0, 0], 4)
    assert int(np.dot(sol.particular, [2, 0, 0])) == 4
    assert len(sol.basis) == 2
    for b in sol.basis:
        assert int(np.dot(b, [2, 0, 0])) == 0


def test_solve_obstruction():
    assert ct.solve_hyperplane_lattice([2, 0, 0], 3) is None
    assert ct.solve_hyperplane_lattice([6, 10], 7) is None
    assert ct.solve_hyperplane_lattice([6, 10], 8) is not None


def test_solve_argument_checks():
    with pytest.raises(ArgumentError):
        ct.solve_hyperplane_lattice([0, 0, 0], 1)


def test_solve_random_vectors():
    for _ in range(50):
        x = RNG.integers(-9, 10, size=3)
        if not np.any(x):
            continue
        t = int(RNG.integers(-20, 21))
        sol = ct.solve_hyperplane_lattice(x, t)
        g = math.gcd(math.gcd(int(x[0]), int(x[1])), int(x[2]))
        if t % g:
            assert sol is None
            continue
        assert int(np.dot(sol.particular, x)) == t
        for b in sol.basis:
            assert int(np.dot(b, x)) == 0


def test_solution_covers_all_points_in_box():
    # every integer solution of x . y = t in a box must lie in the coset
    x = np.array([1, 2, 2])
    t = 3
    sol = ct.solve_hyperplane_lattice(x, t)
    B = np.stack(sol.basis)
    Binv = np.linalg.pinv(B.astype(float))
    found = 0
    for y in product(range(-6, 7), repeat=3):
        y = np.array(y)
        if int(y @ x) != t:
            continue
        found += 1
        coeffs = (y - sol.particular).astype(float) @ Binv
        rounded = np.round(coeffs).astype(np.int64)
        assert np.array_equal(sol.particular + rounded @ B, y)
    assert found > 50


def test_kernel_covolume():
    # covolume of the kernel lattice of x . y = 0 is |x| / gcd(x)
    x = np.array([3, -5, 7])
    sol = ct.solve_hyperplane_lattice(x, 0)
    B = np.stack(sol.basis).astype(float)
    assert np.linalg.det(B @ B.T) == pytest.approx(float(x @ x), rel=1e-12)
    x2 = np.array([2, 4, 6])
    B2 = np.stack(ct.solve_hyperplane_lattice(x2, 0).basis).astype(float)
    assert np.linalg.det(B2 @ B2.T) == pytest.approx(float(x2 @ x2) / 4, rel=1e-12)


def test_theta_value_unit_lattice():
    # N_1 for the isotropic Gaussian at m = 0 against a literal grid sum;
    # terms beyond |z|_inf = 3 are below exp(-16 pi) and cannot matter
    w = GaussianWeight(1.0, 6)
    res = ct.enumerate_N_L(w, LatticeSpec(L=1, m=0), eps=1e-9)
    ax = np.arange(-3, 4)
    X = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    ex = np.exp(-math.pi * np.sum(X * X, axis=1))
    match = (X @ X.T) == 0
    oracle = float(ex @ match @ ex)
    assert res.value == pytest.approx(oracle, abs=1e-6)
    assert res.tail_estimate < 1e-4


def test_theta_value_d1_one():
    # d1 = 1: solutions of x * y = 0 in Z^2 are the two axes, so the count
    # is 2 * Theta - 1 with Theta = sum exp(-pi n^2)
    w = GaussianWeight(1.0, 2)
    res = ct.enumerate_N_L(w, LatticeSpec(L=1, m=0), eps=1e-9)
    theta = sum(math.exp(-math.pi * n * n) for n in range(-8, 9))
    assert res.value == pytest.approx(2 * theta - 1, abs=1e-6)
    assert res.value == pytest.approx(1.1728697, abs=1e-6)


def test_enumerate_matches_brute_force():
    cases = [
        (GaussianWeight(1.0, 6), LatticeSpec(L=2, m=0)),
        (GaussianWeight(1.0, 6), LatticeSpec(L=2, m=1)),
        (ProductBump(1.0, 4), LatticeSpec(L=3, m=0)),
    ]
    for w, spec in cases:
        res = ct.enumerate_N_L(w, spec, eps=1e-10)
        box = int(math.ceil(res.truncation_radius * spec.L)) + 1
        ref = ct.brute_force_N_L(w, spec, box)
        assert res.value == pytest.approx(ref, abs=1e-8 + res.tail_estimate)


def test_scaling_identity():
    # summing w(u/L) over u_x . u_y = m L^2 equals the unit-lattice count of
    # the rescaled weight w(z/2) = exp(-pi |z|^2 / 4) at the integer level m L^2
    a = ct.enumerate_N_L(GaussianWeight(1.0, 6), LatticeSpec(L=2, m=1), eps=1e-10)
    b = ct.enumerate_N_L(GaussianWeight(0.25, 6), LatticeSpec(L=1, m=4), eps=1e-10)
    assert a.value == pytest.approx(b.value,
                                    abs=a.tail_estimate + b.tail_estimate + 1e-12)


def test_determinism():
    w = GaussianWeight(1.0, 6)
    r1 = ct.enumerate_N_L(w, LatticeSpec(L=2, m=0), eps=1e-8)
    r2 = ct.enumerate_N_L(w, LatticeSpec(L=2, m=0), eps=1e-8)
    assert r1.value == r2.value
    assert r1.lattice_points_visited == r2.lattice_points_visited
    assert r1.tail_estimate == r2.tail_estimate


def test_tail_shrinks_with_eps():
    w = GaussianWeight(1.0, 6)
    loose = ct.enumerate_N_L(w, LatticeSpec(L=2, m=0), eps=1e-4)
    tight = ct.enumerate_N_L(w, LatticeSpec(L=2, m=0), eps=1e-10)
    assert tight.truncation_radius >= loose.truncation_radius
    assert abs(tight.value - loose.value) <= loose.tail_estimate + 1e-12


def test_budget_capability():
    w = GaussianWeight(1.0, 6)
    with pytest.raises(CapabilityError) as exc:
        ct.enumerate_N_L(w, LatticeSpec(L=8, m=0), eps=1e-10, budget=10 ** 4)
    assert "feasible L" in str(exc.value)


def _square_sum_counts(d: int, radius: float) -> list:
    """[r_0, ..., r_d], r_k[s] = #{v in Z^k : |v|^2 = s} for s = 0..floor(radius^2).

    Each r_k is r_{k-1} convolved with the 1-d square counts over
    |v_i| <= floor(radius), so that sum(r_k) == len(ct._ball_points(k, radius)).
    """
    N = math.floor(radius * radius)
    r = np.zeros(N + 1, dtype=np.int64)
    r[0] = 1
    levels = [r]
    for _ in range(d):
        nxt = r.copy()
        for k in range(1, math.floor(radius) + 1):
            nxt[k * k:] += 2 * r[:N + 1 - k * k]
        r = nxt
        levels.append(r)
    return levels


def _fibre_work(d1: int, t: int, rx: float, ry: float) -> int:
    """The fibre work over every admissible u_x (the quantity that
    ct._fibre_work_floor bounds from below), counted without building a
    ball, O(rx^3) time: the oracle of the floor at radii no ball reaches.

    u_x runs over the ball of radius rx and the free coordinates of u_y over
    the (d1 - 1)-ball of radius ry.  With B(s) the number of vectors in
    Z^{d1} with |v|^2 <= s, the nonzero u_x whose gcd is exactly g number
    E(g) = B(N // g^2) - 1 - sum_{k >= 2} E(k g) (Moebius inversion, from the
    largest g down); u_x is admissible when g | t.  When t = 0 the u_x = 0
    stratum adds the d1-ball of radius ry.
    """
    ball = np.cumsum(_square_sum_counts(d1, rx)[d1])   # ball[s] = B(s)
    y_levels = _square_sum_counts(d1, ry)
    free = int(np.sum(y_levels[d1 - 1]))
    N = len(ball) - 1
    if t == 0:
        admissible = int(ball[N]) - 1
    else:
        n = math.floor(rx)
        exact = [0] * (n + 1)                          # exact[g] = E(g)
        for g in range(n, 0, -1):
            exact[g] = int(ball[N // (g * g)]) - 1 - sum(exact[2 * g::g])
        admissible = sum(exact[g] for g in range(1, n + 1) if t % g == 0)
    return d1 * (admissible * free + (int(np.sum(y_levels[d1])) if t == 0 else 0))


@pytest.mark.parametrize("kind", ["gaussian", "appendix"])
def test_budget_equals_visited(kind):
    # both paths check the budget against the work they report as visited
    w = GaussianWeight(1.0, 6) if kind == "gaussian" else AppendixExample(6)
    spec = LatticeSpec(L=6, m=0.25)
    res = ct.enumerate_N_L(w, spec, eps=1e-8)
    need = res.lattice_points_visited
    assert ct.enumerate_N_L(w, spec, eps=1e-8, budget=need).value == res.value
    with pytest.raises(CapabilityError):
        ct.enumerate_N_L(w, spec, eps=1e-8, budget=need - 1)


def test_fibre_work_matches_balls():
    # the oracle's count equals the one read off the enumerated balls, for
    # radii whose square is and is not an integer and levels with square factors
    for d1, radius in [(2, 6.0), (2, 9.3), (3, 3.7), (3, 7.0710678), (4, 4.5)]:
        ball = ct._ball_points(d1, radius)
        F = ct._ball_points(d1 - 1, radius)
        UX = ball[np.any(ball, axis=1)]
        g = np.gcd.reduce(UX, axis=1)
        for t in (0, 1, -2, 9, 12, 72, 144, 360, 1000003):
            admissible = int(np.sum(t % g == 0))
            want = d1 * (admissible * len(F) + (len(ball) if t == 0 else 0))
            assert _fibre_work(d1, t, radius, radius) == want, (d1, radius, t)


def test_fibre_work_two_radii_matches_balls():
    # u_x over the rx-ball, the free coordinates of u_y and the u_x = 0
    # stratum over the ry-balls, with rx < ry and rx > ry
    for d1, rx, ry in [(2, 4.2, 7.0), (2, 9.3, 3.0), (3, 3.7, 5.5), (3, 7.0710678, 2.5),
                       (4, 2.9, 4.5)]:
        UX = ct._ball_points(d1, rx)
        UX = UX[np.any(UX, axis=1)]
        g = np.gcd.reduce(UX, axis=1)
        F = ct._ball_points(d1 - 1, ry)
        Y = ct._ball_points(d1, ry)
        for t in (0, 1, -2, 9, 12, 72, 144, 360, 1000003):
            admissible = int(np.sum(t % g == 0))
            want = d1 * (admissible * len(F) + (len(Y) if t == 0 else 0))
            assert _fibre_work(d1, t, rx, ry) == want, (d1, rx, ry, t)


def test_fibre_budget_refusal_builds_no_ball(monkeypatch):
    def no_ball(d, radius):
        raise AssertionError("a ball was enumerated before the budget check")
    monkeypatch.setattr(ct, "_ball_points", no_ball)
    monkeypatch.setattr(ct, "_orbit_rows", no_ball)
    with pytest.raises(CapabilityError, match="feasible L"):
        ct.enumerate_N_L(AppendixExample(6), LatticeSpec(L=80, m=0), 1e-8, budget=1)


def test_fibre_floor_refusal_names_an_upper_bound_on_L():
    # the floor lies below the orbit work, so the L it extrapolates to is an
    # upper bound on the largest L the exact check admits, and the message
    # says so (at d = 4, m = 1/4 it is about 1.25 times that L)
    w, budget = AppendixExample(4), 10 ** 6
    with pytest.raises(CapabilityError, match="largest feasible L below about") as exc:
        ct.enumerate_N_L(w, LatticeSpec(L=300, m=0.25), 1e-8, budget=budget)
    named = int(str(exc.value).split()[-1])
    Rx = Ry = math.sqrt(0.5)
    admitted = [L for L in range(2, 301, 2)
                if ct._fibre_rows(2, L * L // 4, Rx * L, Ry * L)[0] <= budget]
    assert 0 < max(admitted) <= named
    res = ct.enumerate_N_L(w, LatticeSpec(L=max(admitted), m=0.25), 1e-8, budget=budget)
    assert 0 < res.lattice_points_visited <= budget


def test_fibre_work_floor_is_a_lower_bound():
    # below the exact work for every radius and level, including radii
    # under 1 and 2 and past the g <= 16 sum, and close to it at large radii,
    # so that a far-out L is refused from the floor alone
    for d1 in (1, 2, 3, 4):
        for rx in (0.3, 1.0, 1.5, 2.0, 3.7, 7.0710678, 16.9, 30.2, 61.0):
            for ry in (0.5, 1.0, 2.5, 12.1):
                for t in (0, 1, -2, 12, 360, 1000003):
                    assert ct._fibre_work_floor(d1, t, rx, ry) <= \
                        _fibre_work(d1, t, rx, ry), (d1, rx, ry, t)
    for d1, t, share in [(2, 0, 0.95), (2, 7, 0.35), (3, 0, 0.9), (3, 7, 0.8)]:
        exact = _fibre_work(d1, t, 50.0, 50.0)
        assert ct._fibre_work_floor(d1, t, 50.0, 50.0) >= share * exact, (d1, t)


@pytest.mark.parametrize("d", [4, 6, 8])
@pytest.mark.parametrize("m", [0, 0.25])
def test_fibre_budget_refusal_at_huge_L_counts_nothing(monkeypatch, d, m):
    # the floor refuses before the exact count, whose orbit rows grow as L^d1
    def no_count(*args):
        raise AssertionError("the exact work count ran before the refusal")
    monkeypatch.setattr(ct, "_ball_points", no_count)
    monkeypatch.setattr(ct, "_orbit_rows", no_count)
    for L in (10 ** 4, 10 ** 9):
        with pytest.raises(CapabilityError, match="feasible L"):
            ct.enumerate_N_L(AppendixExample(d), LatticeSpec(L=L, m=m), 1e-8)


def test_fibre_float_guard_refuses_before_any_ball(monkeypatch):
    def no_ball(d, radius):
        raise AssertionError("a ball was enumerated before the guard")
    monkeypatch.setattr(ct, "_ball_points", no_ball)
    monkeypatch.setattr(ct, "_orbit_rows", no_ball)
    monkeypatch.setattr(ct, "FLOAT_EXACT", 100.0)
    with pytest.raises(CapabilityError, match="2\\^53"):
        ct.enumerate_N_L(AppendixExample(6), LatticeSpec(L=6, m=0.25), 1e-8)


def test_fibre_level_beyond_the_block_is_zero(monkeypatch):
    # |u_x . u_y| <= Rx Ry, so no ball is built and nothing overflows int64
    monkeypatch.setattr(ct, "_ball_points", None)
    res = ct.enumerate_N_L(AppendixExample(6), LatticeSpec(L=10, m=1e20), 1e-8)
    assert (res.value, res.tail_estimate, res.lattice_points_visited) == (0.0, 0.0, 0)


@pytest.mark.parametrize("L", [10 ** 4, 10 ** 9])
@pytest.mark.parametrize("m", [1, -1, 1e20])
def test_fibre_level_beyond_the_block_is_zero_before_the_budget(monkeypatch, L, m):
    # Rx Ry = L^2 / 2 < |t|: the count is 0 at any L, with no work counted or
    # charged, where the budget would refuse the same L at a level inside the block
    def no_count(*args):
        raise AssertionError("work was counted for a level past the block")
    for name in ("_ball_points", "_orbit_rows", "_fibre_work_floor"):
        monkeypatch.setattr(ct, name, no_count)
    res = ct.enumerate_N_L(AppendixExample(6), LatticeSpec(L=L, m=m), 1e-8)
    assert (res.value, res.tail_estimate, res.lattice_points_visited) == (0.0, 0.0, 0)


@pytest.mark.parametrize("m", [0, 0.25, -0.25])
def test_fibre_tally_evaluates_each_distinct_pair_once_per_block(monkeypatch, m):
    # blocks of 1000 candidates, so that the few orbit rows at L = 8 take several
    monkeypatch.setattr(ct, "BLOCK", 1000)
    w, spec = AppendixExample(6, generic=True), LatticeSpec(L=8, m=m)
    calls, blocks = [], []

    def no_points(Z):
        raise AssertionError("eval_array on the tally path")

    def record(rx, ry):
        calls.append(np.stack([rx, ry], axis=1))
        return AppendixExample.eval_biradial(w, rx, ry)

    solutions = ct._fibre_solutions

    def counted(*args):
        for block in solutions(*args):
            blocks.append(len(block[0]))
            yield block
    monkeypatch.setattr(w, "eval_array", no_points)
    monkeypatch.setattr(w, "eval_biradial", record)
    monkeypatch.setattr(ct, "_fibre_solutions", counted)
    res = ct.enumerate_N_L(w, spec, 1e-8)
    assert len(calls) == len(blocks) > 1
    for pairs, n in zip(calls, blocks):
        assert len(np.unique(pairs, axis=0)) == len(pairs) <= n
    ref = ct.brute_force_N_L(AppendixExample(6, generic=True), spec, 8)
    assert abs(res.value - ref) <= res.tail_estimate


def test_fibre_sum_keeps_one_term_per_block(monkeypatch):
    # the final fsum adds one sum per block, not one term per distinct pair,
    # so memory does not grow with the blocks' tallies
    monkeypatch.setattr(ct, "BLOCK", 1000)
    w = AppendixExample(6)
    sums, blocks = [], []
    solutions = ct._fibre_solutions

    def counted(*args):
        for block in solutions(*args):
            blocks.append(len(block[0]))
            yield block

    def recorded(terms):
        sums.append(len(terms))
        return math.fsum(terms)
    monkeypatch.setattr(ct, "_fibre_solutions", counted)
    monkeypatch.setattr(ct, "fsum", recorded)
    res = ct.enumerate_N_L(w, LatticeSpec(L=8, m=0), 1e-8)
    assert sums[-1] == len(blocks) > 1
    assert res.value == pytest.approx(ct.brute_force_N_L(w, LatticeSpec(L=8, m=0), 8),
                                      rel=1e-13)


@pytest.mark.parametrize("L", [4, 6])
@pytest.mark.parametrize("m", [0, 0.25, 0.5, -0.25])
def test_fibre_tally_counts_match_a_literal_scan(monkeypatch, L, m):
    # every (|u_x|^2, |u_y|^2) of the solutions in the block, with its count
    # times the multiplicity of its u_x (an orbit's size), against a scan of
    # the box |u|_inf <= L; small blocks split the u_x rows into many blocks
    monkeypatch.setattr(ct, "BLOCK", 500)
    d1, spec = 3, LatticeSpec(L=L, m=m)
    Rx = Ry = math.sqrt(0.5) * L
    ny = math.floor(Ry * Ry) + 1
    box = np.array(list(product(range(-L, L + 1), repeat=d1)))
    sq = np.sum(box * box, axis=1)
    ix, iy = np.nonzero(box @ box.T == spec.t)
    keep = (sq[ix] <= Rx * Rx) & (sq[iy] <= Ry * Ry) & (sq[ix] + sq[iy] <= L * L)
    pairs, counts = np.unique(np.stack([sq[ix[keep]], sq[iy[keep]]], axis=1),
                              axis=0, return_counts=True)
    want = {(float(a), float(b)): int(c) for (a, b), c in zip(pairs, counts)}
    assert sum(want.values()) == int(np.sum(keep)) > 0
    got = {}
    _, fibres = ct._fibre_rows(d1, spec.t, Rx, Ry)
    for a, b, n in ct._fibre_solutions(spec.t, *fibres, Ry):
        for ka, kb, c in zip(*ct._tally(a, b, n, ny)):
            got[ka, kb] = got.get((ka, kb), 0) + int(c)
    assert got == want


@pytest.mark.parametrize("d1,rx,ry", [(2, 6.0, 6.0), (2, 9.3, 9.3), (3, 3.7, 3.7),
                                      (3, 7.0710678, 7.0710678), (4, 4.5, 4.5),
                                      (2, 4.2, 7.0), (3, 7.0710678, 2.5)])
def test_orbit_rows_and_work_match_the_ball(d1, rx, ry):
    # the orbit rows are the ball's rows with 0 <= x_1 <= ... <= x_d1, each with
    # the number of ball rows it stands for; their sizes add up to the
    # admissible u_x, and the orbit work to a count read off the ball, which
    # the floor over 2^d1 d1! never exceeds
    ball = ct._ball_points(d1, rx)
    V, size = ct._orbit_rows(d1, rx)
    canonical = ball[(ball[:, 0] >= 0) & np.all(ball[:, 1:] >= ball[:, :-1], axis=1)]
    assert np.array_equal(V, canonical)
    members = np.unique(np.sort(np.abs(ball), axis=1), axis=0, return_counts=True)[1]
    assert np.array_equal(size, members)
    F, Y = ct._ball_points(d1 - 1, ry), ct._ball_points(d1, ry)
    g, gc = np.gcd.reduce(ball, axis=1), np.gcd.reduce(canonical, axis=1)
    for t in (0, 1, -2, 9, 12, 72, 144, 360, 1000003):
        admissible = (g > 0) & (t % np.maximum(g, 1) == 0)
        orbits = (gc > 0) & (t % np.maximum(gc, 1) == 0)
        assert np.sum(size[orbits]) == np.sum(admissible), t
        work, _ = ct._fibre_rows(d1, t, rx, ry)
        assert work == d1 * (np.sum(orbits) * len(F) + (len(Y) if t == 0 else 0)), t
        assert ct._fibre_work_floor(d1, t, rx, ry) / (2 ** d1 * math.factorial(d1)) <= work, t


@pytest.mark.parametrize("d1,rx", [(2, 9.3), (3, 7.0710678), (4, 4.5), (3, 0.5)])
def test_fibre_rows_end_in_their_largest_coordinate(d1, rx):
    # _fibre_solutions divides by the last coordinate of every u_x row: each
    # row is nonzero, 0 <= x_1 <= ... <= x_d1, so x_d1 is its largest and > 0
    for t in (0, 1, -2, 12, 360):
        _, (UX, mult, _, _) = ct._fibre_rows(d1, t, rx, rx)
        assert len(UX) == len(mult) and (len(UX) > 0) == (rx >= 1)
        assert np.all(np.any(UX != 0, axis=1))
        assert np.all(UX[:, 0] >= 0) and np.all(UX[:, 1:] >= UX[:, :-1])
        assert np.array_equal(UX[:, -1], np.max(np.abs(UX), axis=1, initial=0))


def test_appendix_example_matches_brute_force():
    # the fibre path on a weight that does not factor; its support |z| <= 1
    # lies inside the box |u|_inf <= L
    w, spec = AppendixExample(6), LatticeSpec(L=6, m=0.25)
    res = ct.enumerate_N_L(w, spec, eps=1e-8)
    ref = ct.brute_force_N_L(w, spec, 6)
    assert res.value == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("block", [1, 1000])
def test_fibre_blocks_do_not_change_the_count(monkeypatch, block):
    # smaller blocks split the u_x rows into many pieces
    w, spec = AppendixExample(6), LatticeSpec(L=6, m=0.25)
    whole = ct.enumerate_N_L(w, spec, eps=1e-8)
    monkeypatch.setattr(ct, "BLOCK", block)
    split = ct.enumerate_N_L(w, spec, eps=1e-8)
    assert split.value == pytest.approx(whole.value, rel=1e-14)
    assert split.tail_estimate == pytest.approx(whole.tail_estimate, rel=1e-12)


def _brute_force_loop(w, spec, B):
    """The box scan with one matrix-vector product per u_x (the reference of
    brute_force_N_L's blocks)."""
    grid = np.array(list(product(range(-B, B + 1), repeat=w.dim // 2)))
    totals = []
    for ux in grid:
        Y = grid[grid @ ux == spec.t]
        Z = np.concatenate([np.broadcast_to(ux, Y.shape), Y], axis=1) / spec.L
        totals.append(np.sum(w.eval_array(Z)))
    return math.fsum(totals)


def test_brute_force_blocks_match_the_per_u_x_loop():
    # the d = 6, B = 8 box takes six blocks of u_x
    for w, spec, B in [(AppendixExample(6), LatticeSpec(L=8, m=0.25), 8),
                       (GaussianWeight(1.0, 4), LatticeSpec(L=2, m=1), 5),
                       (ProductBump(1.5, 2), LatticeSpec(L=3, m=0), 6)]:
        ref = _brute_force_loop(w, spec, B)
        assert ref > 0
        assert abs(ct.brute_force_N_L(w, spec, B) - ref) <= ROUNDING * ref


def test_eps_argument_check():
    w = GaussianWeight(1.0, 6)
    with pytest.raises(ArgumentError):
        ct.enumerate_N_L(w, LatticeSpec(L=2, m=0), eps=0.0)


@pytest.mark.parametrize("p,d1", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_residue_count_matches_density_product(p, d1):
    # |{z mod p : x . y = 0 mod p}| = p^(2 d1 - 1) * sigma_p closed form
    count = 0
    for z in product(range(p), repeat=2 * d1):
        if sum(z[i] * z[d1 + i] for i in range(d1)) % p == 0:
            count += 1
    expected = p ** (2 * d1 - 1) * remark5_sigma_p(p, d1)
    assert count == expected


class _FibreOnly(WeightFunction):
    """The same weight without pair_factors or block_support, so
    enumerate_N_L walks the fibres of the whole ball (when w has a bounded
    support and a biradial form, which it keeps)."""

    def __init__(self, w):
        self.w, self.dim, self.support_radius = w, w.dim, w.support_radius
        if hasattr(w, "eval_biradial"):
            self.is_biradial, self.eval_biradial = w.is_biradial, w.eval_biradial

    def eval_array(self, Z):
        return self.w.eval_array(Z)

    def decay_radius(self, eps, n=0):
        return self.w.decay_radius(eps, n)


def _separable(kind, d1):
    if kind == "gaussian":
        return GaussianWeight(1.0, 2 * d1)
    if kind == "shifted":
        return GaussianWeight(1.0, 2 * d1, shift=0.25 * np.sin(np.arange(2 * d1) + 1.0))
    return ProductBump(1.5, 2 * d1)


@pytest.mark.parametrize("m", [0, 1, 0.25, -1])
@pytest.mark.parametrize("d1", [1, 2, 3])
@pytest.mark.parametrize("kind", ["gaussian", "shifted", "bump"])
def test_pair_convolution_matches_oracles(kind, d1, m):
    # L = 2 is even, so m = 1/4 gives the integer level t = 1
    w, spec = _separable(kind, d1), LatticeSpec(L=2, m=m)
    res = ct.enumerate_N_L(w, spec, eps=1e-10)
    box = int(math.ceil(res.truncation_radius * spec.L)) + 1
    ref = ct.brute_force_N_L(w, spec, box)
    assert abs(res.value - ref) <= res.tail_estimate + ROUNDING * abs(ref)


def test_fibre_path_refuses_unbounded_support(monkeypatch):
    # a weight with neither pair_factors nor a bounded support has no tail bound
    def no_ball(d, radius):
        raise AssertionError("a ball was enumerated before the refusal")
    monkeypatch.setattr(ct, "_ball_points", no_ball)
    with pytest.raises(CapabilityError, match="bounded support"):
        ct.enumerate_N_L(_FibreOnly(GaussianWeight(1.0, 6)), LatticeSpec(L=2, m=0), 1e-10)


def test_fibre_path_refuses_a_weight_that_is_not_biradial(monkeypatch):
    # bounded, but with neither pair_factors nor eval_biradial: no fibre path
    # counts it, so it is refused before any ball is built
    def no_ball(d, radius):
        raise AssertionError("a ball was enumerated before the refusal")
    monkeypatch.setattr(ct, "_ball_points", no_ball)
    monkeypatch.setattr(ct, "_orbit_rows", no_ball)
    w = _FibreOnly(ProductBump(1.5, 6))
    assert w.support_radius is not None
    with pytest.raises(CapabilityError, match="biradial form"):
        ct.enumerate_N_L(w, LatticeSpec(L=2, m=0), 1e-10)


@pytest.mark.parametrize("generic", [False, True])
@pytest.mark.parametrize("d", [4, 6])
def test_fibre_tail_bounds_the_brute_force_gap(d, generic):
    # the support |z| <= 1 lies in the box |u|_inf <= L, so the brute-force scan
    # is the exact count up to its own rounding, well inside the tail
    w = AppendixExample(d, generic=generic)
    for m in (0, 0.25):
        for L in (4, 8):
            spec = LatticeSpec(L=L, m=m)
            res = ct.enumerate_N_L(w, spec, eps=1e-8)
            assert res.tail_estimate <= 1e-9 * res.value, (m, L)
            assert abs(res.value - ct.brute_force_N_L(w, spec, L)) <= res.tail_estimate, (m, L)


@pytest.mark.parametrize("kind", ["gaussian", "shifted"])
@pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
def test_pair_convolution_tail_bounds_box_doubling(kind, R):
    # growing the box from B to about 2B adds lattice mass, never more than the
    # tail (ProductBump's box is its support whatever R, so it is left out)
    w, L, t = _separable(kind, 3), 2.0, 4
    small = ct._count_pair_convolution(w.pair_factors(L, R), t, L, R, 10 ** 9)
    large = ct._count_pair_convolution(w.pair_factors(L, 2 * R), t, L, 2 * R, 10 ** 9)
    assert large.value - small.value >= -ROUNDING * large.value
    assert large.value - small.value <= small.tail_estimate + ROUNDING * large.value


@pytest.mark.parametrize("generic", [False, True])
@pytest.mark.parametrize("d", [4, 6])
def test_block_support_matches_whole_ball_and_brute_force(d, generic):
    # the fibres inside the weight's block against the fibres of the whole
    # ball |u| <= R L (the same weight without block_support, over the same
    # orbits) and the literal scan of the box |u|_inf <= L that holds the
    # support |z| <= 1
    w = AppendixExample(d, generic=generic)
    for m in (0, 0.25, 1, -0.25):
        for L in (4, 8, 12):
            spec = LatticeSpec(L=L, m=m)
            block = ct.enumerate_N_L(w, spec, eps=1e-8)
            whole = ct.enumerate_N_L(_FibreOnly(w), spec, eps=1e-8)
            ref = ct.brute_force_N_L(w, spec, L)
            for other in (whole.value, ref):
                assert abs(block.value - other) <= 1e-14 * abs(other), (m, L)
            assert block.lattice_points_visited < whole.lattice_points_visited


@pytest.mark.parametrize("generic", [False, True])
def test_tally_matches_point_path_at_d8(generic):
    # the fibres inside the block (AppendixExample) against those of the
    # whole ball (the same weight without block_support) and the literal scan
    # of the box |u|_inf <= 4 that holds the support |z| <= 1
    w = AppendixExample(8, generic=generic)
    for m in (0, 0.25, -0.25):
        spec = LatticeSpec(L=4, m=m)
        block = ct.enumerate_N_L(w, spec, eps=1e-8)
        whole = ct.enumerate_N_L(_FibreOnly(w), spec, eps=1e-8)
        ref = ct.brute_force_N_L(w, spec, 4)
        assert block.value > 0
        for other in (whole.value, ref):
            assert abs(block.value - other) <= 1e-14 * other, m


def test_block_support_cuts_the_fibre_work():
    # d = 6, m = 1/4, L = 10: 612,444 operations inside the block against
    # 3,313,284 for the whole ball; one u_x per orbit solves 20,769 of them
    w, spec = AppendixExample(6), LatticeSpec(L=10, m=0.25)
    res = ct.enumerate_N_L(w, spec, eps=1e-8)
    whole = _fibre_work(3, spec.t, res.truncation_radius * 10, res.truncation_radius * 10)
    block = _fibre_work(3, spec.t, math.sqrt(0.5) * 10, math.sqrt(0.5) * 10)
    assert block <= 0.25 * whole
    assert res.lattice_points_visited <= block / 20


class _Stretched(WeightFunction):
    """AppendixExample(x / sx, y / sy): a block support with rx != ry."""

    is_biradial = True

    def __init__(self, dim, sx, sy):
        self.w, self.dim, self.s = AppendixExample(dim), dim, (sx, sy)
        r = math.sqrt(0.5)
        self.block_support = (sx * r, sy * r)
        self.support_radius = math.hypot(sx * r, sy * r)
        self.seen = []

    def eval_array(self, Z):
        d1 = self.dim // 2
        return self.w.eval_array(np.concatenate([Z[:, :d1] / self.s[0],
                                                 Z[:, d1:] / self.s[1]], axis=1))

    def eval_biradial(self, rx, ry):
        self.seen.append(np.stack([rx, ry], axis=1))
        return self.w.eval_biradial(rx / self.s[0], ry / self.s[1])


@pytest.mark.parametrize("sx,sy", [(1.2, 0.6), (0.5, 1.3)])
def test_block_support_unequal_radii(sx, sy):
    # every pair of radii handed to the weight lies in the block, and the
    # count is the whole ball's and the literal scan's (the support |z| < 1
    # lies in the box |u|_inf <= L)
    w = _Stretched(6, sx, sy)
    rx, ry = w.block_support
    for m in (0, 0.25, -0.25):
        spec = LatticeSpec(L=8, m=m)
        w.seen.clear()
        block = ct.enumerate_N_L(w, spec, eps=1e-8)
        radii = np.concatenate(w.seen)
        assert np.all(radii[:, 0] <= rx * (1 + 1e-12))
        assert np.all(radii[:, 1] <= ry * (1 + 1e-12))
        whole = ct.enumerate_N_L(_FibreOnly(w), spec, eps=1e-8)
        ref = ct.brute_force_N_L(w, spec, 8)
        assert block.value > 0
        for other in (whole.value, ref):
            assert abs(block.value - other) <= 1e-14 * other, m
