import functools
import math
from fractions import Fraction
from itertools import product

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import (divisors, factorint, isprime, mobius, nextprime, prevprime, primerange,
                   totient)

from splitquad import exp_sums as es
from splitquad.errors import ArgumentError, CapabilityError
from splitquad.forms import QuadraticFormF0

RNG = np.random.default_rng(421)


def ramanujan_direct(q, n):
    return round(sum(math.cos(2 * math.pi * a * n / q)
                     for a in range(1, q + 1) if math.gcd(a, q) == 1))


def test_ramanujan_small_values():
    assert es.ramanujan(1, 5) == 1
    assert es.ramanujan(2, 1) == -1
    assert es.ramanujan(4, 2) == -2
    assert es.ramanujan(6, 0) == 2     # phi(6)
    for q in range(1, 30):
        for n in (0, 1, 2, 6, 12):
            assert es.ramanujan(q, n) == ramanujan_direct(q, n)


@functools.lru_cache(maxsize=None)
def ramanujan_divisor_sum(q, g):
    # c_q(n) = sum_{d | gcd(q, n)} d mu(q/d), the sympy-backed form
    return sum(d * int(mobius(q // d)) for d in divisors(g))


def test_ramanujan_matches_divisor_sum():
    for q in range(1, 301):
        for n in range(-30, 31):
            g = q if n == 0 else math.gcd(q, abs(n))
            assert es.ramanujan(q, n) == ramanujan_divisor_sum(q, g), (q, n)


def test_factor_matches_sympy():
    for n in list(range(1, 3000)) + [2 ** 40, 3 ** 25 * 7, 999983 * 1000003, 10 ** 18 + 9]:
        assert es._factor(n) == factorint(n), n
    with pytest.raises(CapabilityError, match="cannot factor"):
        es._factor(1000003 * 1000033)     # no prime factor up to TRIAL_CAP


def test_is_prime_matches_sympy():
    assert [es.is_prime(n) for n in range(10 ** 5 + 1)] == \
        [isprime(n) for n in range(10 ** 5 + 1)]
    for p in (prevprime(2 ** 60), nextprime(2 ** 60), prevprime(2 ** 61 - 1), 2 ** 61 - 1):
        assert es.is_prime(p) and not es.is_prime(p + 2 * 3 * 5 * 7)
    mid = [prevprime(2 ** 40), nextprime(2 ** 40), nextprime(3 * 2 ** 39)]
    for p, q in zip(mid, mid[1:]):
        assert es.is_prime(p) and not es.is_prime(p * q) and not es.is_prime(p * p)


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051,
                               318665857834031151167461])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not isprime(n)
    assert not es.is_prime(n)


def test_is_prime_bound():
    assert es.is_prime(es.MR_EXACT_BELOW - 1) == isprime(es.MR_EXACT_BELOW - 1)
    with pytest.raises(CapabilityError, match="deterministic prime test bound"):
        es.is_prime(3317044064679887385961981)
    with pytest.raises(CapabilityError):
        es.sigma_p(3317044064679887385961981, 6, 0)


def test_sieve_cap():
    # refused before any array is allocated: the sieve alone would be 909 TiB
    for call in (lambda: es.sigma_euler(10 ** 15, 6, 0),
                 lambda: es.sigma_remark5_product(10 ** 15, 3),
                 lambda: es.sigma_dirichlet(10 ** 15, 6, 0)):
        with pytest.raises(CapabilityError, match="sieve"):
            call()


def test_phi_mu_sieve_cap_before_allocation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("array allocated")
    monkeypatch.setattr(np, "arange", refuse)
    with pytest.raises(CapabilityError, match="sieve"):
        es._phi_mu_sieves(es.SIEVE_CAP + 1)


@pytest.mark.parametrize("X", [0, 1, 3, 4, 48, 49, 50, 10 ** 4, 3 * 10 ** 5])
def test_phi_mu_sieves_loop_only_to_sqrt(monkeypatch, X):
    asked = []
    primes_upto = es._primes_upto

    def record(P):
        asked.append(P)
        return primes_upto(P)
    monkeypatch.setattr(es, "_primes_upto", record)
    es._phi_mu_sieves(X)
    assert asked and max(asked) <= math.isqrt(X)


@pytest.mark.parametrize("d", [4, 5, 7, 3])
def test_sigma_rejects_bad_dimension(d):
    for call in (lambda: es.sigma_euler(100, d, 0),
                 lambda: es.sigma_dirichlet(100, d, 0),
                 lambda: es.sigma_remark5_product(100, es.half_dim(d))):
        with pytest.raises(ArgumentError, match="d must be even and > 4"):
            call()
    with pytest.raises(ArgumentError, match="d1 must be >= 3"):
        es.sigma_remark5_product(100, 2)


def test_prime_loops_skip_primality_test(monkeypatch):
    # sieve primes go to the unchecked closed forms; only outside p is tested
    def refuse(n):
        raise AssertionError(f"is_prime({n}) called")
    remark5 = {p: es.remark5_sigma_p(p, 3) for p in es._primes_upto(50)}
    monkeypatch.setattr(es, "is_prime", refuse)
    rep = es.sigma_remark5_product(50, 3)
    assert [pp[1] for pp in rep.per_prime] == [float(v) for v in remark5.values()]
    assert len(es.sigma_euler(50, 6, 12).per_prime) == len(remark5)
    with pytest.raises(AssertionError):
        es.remark5_sigma_p(7, 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(-30, 30))
def test_ramanujan_multiplicative(q1, q2, n):
    if math.gcd(q1, q2) != 1:
        return
    assert es.ramanujan(q1 * q2, n) == es.ramanujan(q1, n) * es.ramanujan(q2, n)


def test_S_q_spec_values():
    form = QuadraticFormF0(3)
    assert es.S_q_factored(form, 2, [0] * 6, 0).value_exact == 8
    assert es.S_q_factored(form, 4, [0] * 6, 6).value_exact == -128
    v = es.S_q_factored(form, 4, [1, 0, 0, 1, 0, 0], 0)
    assert abs(v.value) < 1e-9


def test_S_q_naive_matches_factored():
    form = QuadraticFormF0(3)
    cs = [tuple(int(v) for v in RNG.integers(-5, 6, size=6)) for _ in range(4)]
    cs.append((0,) * 6)
    for q in (2, 3, 4, 5, 8, 9, 12):
        for c in cs:
            for t in (0, 1, -6):
                a = es.S_q_naive(form, q, c, t).value
                b = es.S_q_factored(form, q, c, t).value
                assert a == pytest.approx(b, rel=1e-8, abs=1e-6 * q ** 3)


def test_S_q_naive_cap():
    form = QuadraticFormF0(3)
    with pytest.raises(CapabilityError):
        es.S_q_naive(form, 65, [0] * 6, 0)


def test_S_q_zero_c_closed_form():
    form = QuadraticFormF0(3)
    for q in range(1, 30):
        for t in (0, 1, 6):
            assert es.S_q_factored(form, q, [0] * 6, t).value_exact \
                == q ** 3 * es.ramanujan(q, t)


def test_S_q_multiplicative_exact():
    form = QuadraticFormF0(3)
    for q1, q2 in ((2, 3), (3, 4), (4, 5), (5, 9), (7, 8), (8, 9)):
        for t in (0, 1, 6):
            a = es.S_q_factored(form, q1 * q2, [0] * 6, t).value_exact
            b = es.S_q_factored(form, q1, [0] * 6, t).value_exact
            c = es.S_q_factored(form, q2, [0] * 6, t).value_exact
            assert a == b * c


def test_sigma_p_values():
    val2, _, tail2 = es.sigma_p(2, 6, 0)
    assert abs(val2 - Fraction(7, 6)) <= Fraction(7, 6) * Fraction(1, 10 ** 10)
    val3, _, _ = es.sigma_p(3, 6, 0)
    assert abs(val3 - Fraction(13, 12)) <= Fraction(13, 12) * Fraction(1, 10 ** 10)
    assert es.remark5_sigma_p(2, 3) == Fraction(9, 8)
    assert es.remark5_sigma_p(3, 3) == Fraction(29, 27)
    with pytest.raises(ArgumentError):
        es.sigma_p(4, 6, 0)
    with pytest.raises(ArgumentError):
        es.sigma_p(2, 4, 0)


def _sigma_prime_literal(p, d, t, rel_tol):
    """sigma_p summed in Fractions, with the tail tested against the float
    rel_tol * value, exactly as Fraction <= float compares."""
    d1 = d // 2
    ratio = Fraction(1, p ** (d1 - 1))
    value = Fraction(1)
    l = 0
    while True:
        tail = ratio ** (l + 1) / (1 - ratio)
        if tail <= rel_tol * abs(value) and l >= 1:
            break
        l += 1
        value += Fraction(es.ramanujan(p ** l, t), p ** (l * d1))
    return value, l, float(tail)


SIGMA_P_LEVELS = (0, 1, -1, 12, 36, 72, 2 ** 20, 3 ** 12 * 5 ** 3, 10 ** 20 + 36)


@pytest.mark.parametrize("d", [6, 8, 10])
@pytest.mark.parametrize("rel_tol", [1e-12, 1e-6, 0.3, 1e-30])
def test_sigma_prime_matches_fraction_loop(d, rel_tol):
    # the same rational, the same number of levels and the same tail float
    for p in primerange(2, 3001):
        for t in SIGMA_P_LEVELS:
            assert es._sigma_prime(p, d, t, rel_tol) == \
                _sigma_prime_literal(p, d, t, rel_tol), (p, t)


def test_sigma_prime_stops_on_the_rounded_product():
    # at p = 3, d = 6, l = 1 the tail 1/72 exceeds rel_tol * 29/27 in exact
    # rationals but not after the product is rounded to a float, and the
    # loop stops where the float comparison says
    rel_tol = float.fromhex("0x1.a7b9611a7b961p-7")
    assert Fraction(1, 72) > Fraction(rel_tol) * Fraction(29, 27)
    assert es._sigma_prime(3, 6, 0, rel_tol) == _sigma_prime_literal(3, 6, 0, rel_tol)
    assert es._sigma_prime(3, 6, 0, rel_tol)[1] == 1


def _remark5_product_literal(P, d1):
    """sigma_remark5_product with each factor built as a Fraction."""
    with mpmath.workdps(50):
        prod = mpmath.mpf(1)
        per_prime = []
        for p in primerange(2, P + 1):
            v = 1 + Fraction(1, p ** (d1 - 1)) - Fraction(1, p ** d1)
            per_prime.append((p, float(v), 1, 0.0))
            prod *= mpmath.mpf(v.numerator) / v.denominator
        value = float(prod)
    return value, per_prime


@pytest.mark.parametrize("d1", [3, 4])
def test_sigma_remark5_product_matches_fraction_loop(d1):
    rep = es.sigma_remark5_product(20000, d1)
    value, per_prime = _remark5_product_literal(20000, d1)
    assert (rep.value, rep.per_prime) == (value, per_prime)
    assert rep.tail_bound == value * math.expm1(1.2 * es._euler_omitted_tail(20000, d1))


@pytest.mark.parametrize("d,t", [(6, 36), (8, 72)])
def test_sigma_euler_matches_fraction_loop(monkeypatch, d, t):
    rep = es.sigma_euler(20000, d, t)
    monkeypatch.setattr(es, "_sigma_prime", _sigma_prime_literal)
    ref = es.sigma_euler(20000, d, t)
    assert (rep.value, rep.tail_bound, rep.per_prime) == \
        (ref.value, ref.tail_bound, ref.per_prime)


def test_ramanujan_prime_power_closed_form():
    # the closed form that sigma_p sums agrees with the divisor sum of ramanujan
    for p in (2, 3, 5, 7, 11):
        for l in range(1, 7):
            for t in list(range(-30, 31)) + [2 ** 20, -(2 ** 20), 10 ** 20 + 36]:
                assert es._ramanujan_prime_power(p, l, t) == es.ramanujan(p ** l, t)


@pytest.mark.parametrize("X", [0, 1, 2, 4, 25, 49, 121, 1000, 5000])
def test_phi_mu_sieves_match_sympy(X):
    assert es._primes_upto(X) == list(primerange(2, X + 1))
    phi, mu = es._phi_mu_sieves(X)
    assert phi[1:].tolist() == [int(totient(n)) for n in range(1, X + 1)]
    assert mu[1:].tolist() == [int(mobius(n)) for n in range(1, X + 1)]


def local_density_exhaustive(p, k, d1, t):
    """Literal residue count; only for small p^k."""
    pk = p ** k
    count = 0
    for z in product(range(pk), repeat=2 * d1):
        if sum(z[i] * z[d1 + i] for i in range(d1)) % pk == t % pk:
            count += 1
    return Fraction(count, pk ** (2 * d1 - 1))


def test_local_density_exhaustive_small():
    for (p, k, d1, t) in ((2, 1, 2, 0), (2, 1, 2, 1), (3, 1, 2, 0), (2, 2, 2, 1)):
        assert es.local_density(p, k, d1, t) == local_density_exhaustive(p, k, d1, t)


def test_local_density_k1_matches_remark5():
    for p in (2, 3, 5, 7):
        for d1 in (2, 3):
            assert es.local_density(p, 1, d1, 0) == es.remark5_sigma_p(p, d1)


def test_local_density_matches_truncated_series():
    for (p, k) in ((2, 1), (2, 2), (2, 3), (3, 1), (5, 1)):
        for t in (0, 1):
            series = sum(Fraction(es.ramanujan(p ** l, t), p ** (3 * l))
                         for l in range(k + 1))
            assert es.local_density(p, k, 3, t) == series


def test_sigma_reports_consistent():
    eu = es.sigma_euler(500, 6, 0)
    di = es.sigma_dirichlet(5000, 6, 0)
    assert abs(eu.value - di.value) <= eu.tail_bound + di.tail_bound
    assert eu.tail_bound >= 0 and di.tail_bound >= 0
    r5 = es.sigma_remark5_product(500, 3)
    assert r5.value == pytest.approx(1.3059, abs=2e-3)


def test_sigma_euler_reports_per_prime():
    rep = es.sigma_euler(20, 6, 0)
    primes = [pp[0] for pp in rep.per_prime]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19]
    assert rep.per_prime[0][1] == pytest.approx(7 / 6, rel=1e-9)


def _phi_mu_sieves_literal(X):
    """Euler phi and Moebius mu on 0..X, one slice pass per prime p <= X."""
    phi = np.arange(X + 1, dtype=np.int64)
    mu = np.ones(X + 1, dtype=np.int64)
    for p in primerange(2, X + 1):
        phi[p::p] -= phi[p::p] // p
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
    return phi, mu


@pytest.mark.parametrize("X", [0, 1, 2, 3, 4, 48, 49, 50, 120, 121, 4093,
                               10 ** 5, 3 * 10 ** 5])
def test_phi_mu_sieves_match_all_primes_loop(X):
    # squares of primes and their neighbours, where rest[n] is p or 1
    phi, mu = es._phi_mu_sieves(X)
    ref_phi, ref_mu = _phi_mu_sieves_literal(X)
    assert np.array_equal(phi, ref_phi) and np.array_equal(mu, ref_mu)
    assert phi.dtype == ref_phi.dtype and mu.dtype == ref_mu.dtype


def _dirichlet_literal(X, d, t):
    """sum_{q <= X} c_q(t) / q^{d1}, one Python term per q."""
    phi, mu = _phi_mu_sieves_literal(X)
    terms = []
    for q in range(1, X + 1):
        g = q if t == 0 else math.gcd(q, t)
        cq = int(mu[q // g]) * int(phi[q]) // int(phi[q // g])
        if cq:
            terms.append(cq / q ** (d // 2))
    return math.fsum(terms)


@pytest.mark.parametrize("X,d,t", [(1, 6, 0), (2, 6, 5), (1000, 8, 0), (1000, 8, 360),
                                   (1000, 6, 1001), (200000, 6, 0), (200000, 6, 36),
                                   (200000, 6, 144), (1000, 6, 10 ** 20 + 36)])
def test_sigma_dirichlet_matches_literal_loop(X, d, t):
    # every term q^{d1} stays below 2^53, so the float division is the same
    # correctly rounded quotient as the loop's and the sums agree exactly;
    # the last level does not fit in int64
    got = es.sigma_dirichlet(X, d, t).value
    assert got == _dirichlet_literal(X, d, t)
    if X <= 1000:
        ref = math.fsum(es.ramanujan(q, t) / q ** (d // 2) for q in range(1, X + 1))
        assert got == pytest.approx(ref, rel=1e-15)
