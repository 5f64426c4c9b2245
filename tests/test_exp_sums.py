import bisect
import functools
import math
from fractions import Fraction
from itertools import product

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import (divisors, factorint, isprime, mobius, multiplicity, nextprime, prevprime,
                   primerange, totient)

from splitquad import exp_sums as es
from splitquad.delta_kernel import _ramanujan_from_sieves
from splitquad.errors import AccuracyError, ArgumentError, CapabilityError

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
    for q in [*range(1, 301), 2 ** 10, 3 ** 6, 5 ** 4]:
        for n in [*range(-30, 31), 2 ** 70 + 6, -(2 ** 64 * 3 ** 6 * 5 ** 2)]:
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
    monkeypatch.setattr(np, "ones", refuse)
    for sieve in (es._phi_sieve, es._mu_sieve):
        with pytest.raises(CapabilityError, match="sieve"):
            sieve(es.SIEVE_CAP + 1)


@pytest.mark.parametrize("X", [0, 1, 3, 4, 48, 49, 50, 10 ** 4, 3 * 10 ** 5])
def test_phi_mu_sieves_loop_only_to_sqrt(monkeypatch, X):
    asked = []
    primes_upto = es._primes_upto

    def record(P):
        asked.append(P)
        return primes_upto(P)
    monkeypatch.setattr(es, "_primes_upto", record)
    for sieve in (es._phi_sieve, es._mu_sieve):
        asked.clear()
        sieve(X)
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
    d1 = 3
    assert es.S_q_factored(d1, 2, [0] * 6, 0).value_exact == 8
    assert es.S_q_factored(d1, 4, [0] * 6, 6).value_exact == -128
    v = es.S_q_factored(d1, 4, [1, 0, 0, 1, 0, 0], 0)
    assert abs(v.value) < 1e-9


def test_S_q_naive_matches_factored():
    d1 = 3
    cs = [tuple(int(v) for v in RNG.integers(-5, 6, size=6)) for _ in range(4)]
    cs.append((0,) * 6)
    for q in (2, 3, 4, 5, 8, 9, 12):
        for c in cs:
            for t in (0, 1, -6):
                a = es.S_q_naive(d1, q, c, t)
                b = es.S_q_factored(d1, q, c, t)
                assert a.value == pytest.approx(b.value, rel=1e-8, abs=1e-6 * q ** 3)
                assert abs(a.value_complex - b.value_complex) <= a.round_bound + b.round_bound


@pytest.mark.parametrize("d1,q,s", [(2, 9, 2), (3, 49, 3), (10, 25, 2), (4, 121, 2)])
def test_S_q_factored_real_kloosterman_zero(d1, q, s):
    # q = p^2 and s t a non-residue mod p: the Kloosterman sum vanishes, so
    # the float loop's whole value is rounding and lies within round_bound,
    # which is of order q^d1 phi(q) 2^-53.  The fixed threshold
    # 1e-6 (1 + |real|) refused d1 = 10, q = 25 (imaginary part 0.17).
    v = es.S_q_factored(d1, q, [s] + [0] * (d1 - 1) + [1] + [0] * (d1 - 1), 1)
    assert v.value_exact is None
    assert abs(v.value_complex) <= v.round_bound
    assert v.round_bound < 1e-12 * q ** d1


def test_exp_sum_value_refuses_imaginary_part_beyond_rounding():
    assert es.ExpSumValue(complex(2.0, -1e-3), round_bound=1e-3).value == 2.0
    with pytest.raises(AccuracyError, match="imaginary part"):
        es.ExpSumValue(complex(2.0, 2e-3), round_bound=1e-3)
    # an exact value has no rounding to excuse any imaginary part
    with pytest.raises(AccuracyError, match="imaginary part"):
        es.ExpSumValue(complex(2.0, 1e-300), value_exact=2)
    with pytest.raises(AccuracyError, match="disagree"):
        es.ExpSumValue(complex(2.5), value_exact=2, round_bound=0.25)


def test_S_q_naive_cap():
    d1 = 3
    with pytest.raises(CapabilityError):
        es.S_q_naive(d1, 65, [0] * 6, 0)


def test_S_q_zero_c_closed_form():
    d1 = 3
    for q in range(1, 30):
        for t in (0, 1, 6):
            assert es.S_q_factored(d1, q, [0] * 6, t).value_exact \
                == q ** 3 * es.ramanujan(q, t)


def test_S_q_multiplicative_exact():
    d1 = 3
    for q1, q2 in ((2, 3), (3, 4), (4, 5), (5, 9), (7, 8), (8, 9)):
        for t in (0, 1, 6):
            a = es.S_q_factored(d1, q1 * q2, [0] * 6, t).value_exact
            b = es.S_q_factored(d1, q1, [0] * 6, t).value_exact
            c = es.S_q_factored(d1, q2, [0] * 6, t).value_exact
            assert a == b * c


def test_sigma_p_values():
    assert es.sigma_p(2, 6, 0) == Fraction(7, 6)
    assert es.sigma_p(3, 6, 0) == Fraction(13, 12)
    assert es.remark5_sigma_p(2, 3) == Fraction(9, 8)
    assert es.remark5_sigma_p(3, 3) == Fraction(29, 27)
    with pytest.raises(ArgumentError):
        es.sigma_p(4, 6, 0)
    with pytest.raises(ArgumentError):
        es.sigma_p(2, 4, 0)


def _sigma_prime_literal(p, d, t):
    """sigma_p for t != 0 summed in Fractions up to its last nonzero term,
    l = v_p(t) + 1."""
    d1 = d // 2
    value = Fraction(1)
    for l in range(1, multiplicity(p, t) + 2):
        value += Fraction(ramanujan_divisor_sum(p ** l, math.gcd(p ** l, abs(t))),
                          p ** (l * d1))
    return value


def _sigma_prime_truncated(p, d, t, rel_tol):
    """The Fraction series stopped by a geometric tail test, as sigma_p summed
    it before the closed form: the first l >= 1 with tail <= rel_tol * value
    (Fraction <= float).  Returns the partial sum, l and the tail, which
    bounds every omitted term since |c_{p^l}(t)| / p^{l d1} <= s^{-l}."""
    d1 = d // 2
    ratio = Fraction(1, p ** (d1 - 1))
    value = Fraction(1)
    l = 0
    while True:
        tail = ratio ** (l + 1) / (1 - ratio)
        if tail <= rel_tol * abs(value) and l >= 1:
            return value, l, tail
        l += 1
        g = p ** l if t == 0 else math.gcd(p ** l, abs(t))
        value += Fraction(ramanujan_divisor_sum(p ** l, g), p ** (l * d1))


SIGMA_P_LEVELS = (1, -1, 12, 36, 72, 2 ** 20, 3 ** 12 * 5 ** 3, 10 ** 20 + 36)


@pytest.mark.parametrize("d", [6, 8, 10])
def test_sigma_prime_matches_literal_series(d):
    for p in primerange(2, 3001):
        for t in SIGMA_P_LEVELS:
            num, den = es._sigma_prime(p, d // 2, t)
            assert Fraction(num, den) == _sigma_prime_literal(p, d, t), (p, t)


@pytest.mark.parametrize("d", [6, 8, 10])
@pytest.mark.parametrize("rel_tol", [1e-12, 1e-6, 0.3, 1e-30])
def test_sigma_prime_matches_fraction_loop(d, rel_tol):
    # the truncated series lies within its own tail of the closed form, and
    # equals it once it has passed the last nonzero level v_p(t) + 1
    for p in primerange(2, 3001):
        for t in (0, *SIGMA_P_LEVELS):
            num, den = es._sigma_prime(p, d // 2, t)
            value, l, tail = _sigma_prime_truncated(p, d, t, rel_tol)
            assert abs(Fraction(num, den) - value) <= tail, (p, t)
            if t != 0 and l > multiplicity(p, t):
                assert Fraction(num, den) == value, (p, t)


def test_valuation_matches_sympy():
    for p in (2, 3, 5, 7, 4, 6):
        for n in (1, -1, 12, -288, 3 ** 12 * 5 ** 3, 10 ** 20 + 36, 6 ** 40):
            assert es.valuation(p, n) == multiplicity(p, n), (p, n)
    for p, n in ((2, 0), (1, 12), (0, 12), (-2, 12)):
        with pytest.raises(ArgumentError):
            es.valuation(p, n)


@pytest.mark.parametrize("d", [6, 8])
def test_sigma_p_is_the_complete_local_density(d):
    # c_{p^l}(t) = 0 past l = v_p(t) + 1, so the residue count mod p^(v+1) is exact
    for p in (2, 3, 5, 7):
        for t in (1, -1, 12, 36, 72, 288):
            k = multiplicity(p, t) + 1
            assert es.sigma_p(p, d, t) == es.local_density(p, k, d // 2, t), (p, t)


@pytest.mark.parametrize("d", [6, 8])
def test_sigma_p_at_zero_is_the_geometric_limit(d):
    # at t = 0 every level adds phi(p^l) / p^(l d1): the tail past k is geometric
    d1 = d // 2
    for p in (2, 3, 5):
        s = Fraction(1, p ** (d1 - 1))
        for k in (1, 2, 3):
            tail = (1 - Fraction(1, p)) * s ** (k + 1) / (1 - s)
            assert es.sigma_p(p, d, 0) - es.local_density(p, k, d1, 0) == tail, (p, k)


@pytest.mark.parametrize("d", [6, 8, 10])
def test_sigma_euler_at_zero_rounds_the_closed_product_once(d):
    d1 = d // 2
    primes = es._primes_upto(20000)
    exact = math.prod(p ** d1 - 1 for p in primes) / math.prod(p ** d1 - p for p in primes)
    assert es.sigma_euler(20000, d, 0).value == exact


def _remark5_product_literal(P, d1):
    """sigma_remark5_product with each factor built as a Fraction."""
    with mpmath.workdps(50):
        prod = mpmath.mpf(1)
        per_prime = []
        for p in primerange(2, P + 1):
            v = 1 + Fraction(1, p ** (d1 - 1)) - Fraction(1, p ** d1)
            per_prime.append((p, float(v)))
            prod *= mpmath.mpf(v.numerator) / v.denominator
        value = float(prod)
    return value, per_prime


@pytest.mark.parametrize("d1", [3, 4])
def test_sigma_remark5_product_matches_fraction_loop(d1):
    rep = es.sigma_remark5_product(20000, d1)
    value, per_prime = _remark5_product_literal(20000, d1)
    assert (rep.value, rep.per_prime) == (value, per_prime)
    assert rep.tail_bound == value * math.expm1(1.2 * es._euler_omitted_tail(20000, d1))


def test_zeta_int_matches_mpmath():
    with mpmath.workdps(40):
        for k in range(2, 65):
            value, bound = es.zeta_int(k)
            zc, zc_bound = es._zetac_int(k)
            exact = mpmath.zeta(k)
            assert abs(mpmath.mpf(value) - exact) <= bound <= 4e-16 * value, k
            # zeta(k) - 1 ~ 2^-k keeps its own relative accuracy
            assert abs(mpmath.mpf(zc) - (exact - 1)) <= zc_bound <= 1e-15 * zc, k
    for k in (1, 0, 2.5):
        with pytest.raises(ArgumentError, match="integer k >= 2"):
            es.zeta_int(k)


@pytest.mark.parametrize("d1", [3, 4, 5, 8, 12])
def test_zeta_exponents_rebuild_the_local_factor(d1):
    # prod_{n <= K} (1 - x^n)^{-e_n} agrees with 1 + x^{d1-1} - x^{d1}
    # through x^K, in integer power-series arithmetic
    K = 30
    e = es._zeta_exponents(d1, K)
    series = [1] + [0] * K
    for n in range(1, K + 1):
        for _ in range(abs(e[n])):
            if e[n] > 0:            # times 1 / (1 - x^n)
                for i in range(n, K + 1):
                    series[i] += series[i - n]
            else:                   # times (1 - x^n)
                for i in range(K, n - 1, -1):
                    series[i] -= series[i - n]
    want = [0] * (K + 1)
    want[0], want[d1 - 1], want[d1] = 1, 1, -1
    assert series == want


def _remark5_mpmath(d1, P=1000, K=80):
    """prod_p (1 + p^{1-d1} - p^{-d1}) to 30 digits: the primes p <= P
    multiplied out and zeta_{>P}(n)^{e_n}, n <= K, from mpmath.zeta."""
    e = es._zeta_exponents(d1, K)
    primes = list(primerange(2, P + 1))
    with mpmath.workdps(30):
        prod = mpmath.mpf(1)
        for p in primes:
            prod *= 1 + mpmath.mpf(p) ** (1 - d1) - mpmath.mpf(p) ** -d1
        for n in range(2, K + 1):
            if e[n]:
                z = mpmath.zeta(n)
                for p in primes:
                    z *= 1 - mpmath.mpf(p) ** -n
                prod *= z ** e[n]
        return +prod


@pytest.mark.parametrize("d1", [3, 4, 5, 6, 7, 8])
def test_sigma_remark5_matches_mpmath(d1):
    rep = es.sigma_remark5(d1)
    want = _remark5_mpmath(d1)
    err = abs(mpmath.mpf(rep.value) - want)
    assert err <= rep.tail_bound <= 3e-15 * rep.value
    assert err <= 3e-16 * rep.value
    assert (rep.method, rep.cutoff) == ("remark5_zeta", es.REMARK5_PRIMES)


def test_sigma_remark5_values():
    # the values printed by predict and verify (cf. the 1.305955455905 of
    # the product to p <= 10^4 at d1 = 3)
    assert es.sigma_remark5(3).value == pytest.approx(1.30596827416754, rel=1e-14)
    assert es.sigma_remark5(4).value == pytest.approx(1.10028622672436, rel=1e-14)
    with pytest.raises(ArgumentError, match="d1 must be >= 3"):
        es.sigma_remark5(2)


@pytest.mark.parametrize("P,K", [(3, 5), (10, 4), (20, 8)])
def test_sigma_remark5_tail_bound_covers_truncation(monkeypatch, P, K):
    # few primes and few zeta factors: the truncation at K, not the
    # rounding, makes the error, and the bound still covers it
    monkeypatch.setattr(es, "REMARK5_PRIMES", P)
    monkeypatch.setattr(es, "REMARK5_ZETA_TERMS", K)
    for d1 in (3, 4, 6):
        rep = es.sigma_remark5(d1)
        err = abs(mpmath.mpf(rep.value) - _remark5_mpmath(d1))
        assert err <= rep.tail_bound, (d1, float(err), rep.tail_bound)


@pytest.mark.parametrize("P", [50, 997, 20000])
@pytest.mark.parametrize("d1", [3, 4, 5])
def test_sigma_remark5_exceeds_truncated_products(P, d1):
    # every factor exceeds 1, so the truncated product falls short of the
    # whole by at most its own tail bound
    whole = es.sigma_remark5(d1)
    part = es.sigma_remark5_product(P, d1)
    gap = whole.value - part.value
    assert -whole.tail_bound <= gap <= part.tail_bound + whole.tail_bound


FIXED_LEVELS = (*range(41), 72, 100, 144, 3600, 10 ** 6)
FIXED_CUTOFFS = (2, 3, 50, 997, 20000)


def _prefix_products(primes, factors):
    """{P: (exact product rounded once, 50-digit mpmath product)} over the
    factors of the primes p <= P, for each P in FIXED_CUTOFFS."""
    out = {}
    for P in FIXED_CUTOFFS:
        nums, dens = zip(*factors[:bisect.bisect_right(primes, P)])
        with mpmath.workdps(50):
            prod = mpmath.mpf(1)
            for num, den in zip(nums, dens):
                prod *= mpmath.mpf(num) / den
            out[P] = (math.prod(nums) / math.prod(dens), float(prod))
    return out


@pytest.mark.parametrize("d", [6, 8, 10])
def test_fixed_point_products_round_once(d):
    # int / int is correctly rounded, so the exact product rounded once is
    # the oracle; the fixed-point error is far below half an ulp
    d1 = d // 2
    primes = es._primes_upto(max(FIXED_CUTOFFS))
    want = _prefix_products(primes, [(p ** d1 + p - 1, p ** d1) for p in primes])
    for P, (exact, mp) in want.items():
        assert es.sigma_remark5_product(P, d1).value == exact == mp, P
    for t in FIXED_LEVELS:
        want = _prefix_products(primes, [es._sigma_prime(p, d1, t) for p in primes])
        for P, (exact, mp) in want.items():
            assert es.sigma_euler(P, d, t).value == exact == mp, (t, P)


@pytest.mark.parametrize("d,t", [(6, 36), (8, 72)])
def test_sigma_euler_matches_fraction_loop(monkeypatch, d, t):
    rep = es.sigma_euler(20000, d, t)

    def literal_pair(p, d1, t):
        value = _sigma_prime_literal(p, 2 * d1, t)
        return value.numerator, value.denominator
    monkeypatch.setattr(es, "_sigma_prime", literal_pair)
    ref = es.sigma_euler(20000, d, t)
    assert (rep.value, rep.tail_bound, rep.per_prime) == \
        (ref.value, ref.tail_bound, ref.per_prime)


def test_euler_products_build_no_fraction(monkeypatch):
    # the local factors reach the fixed-point product as pairs of ints
    want = (es.sigma_euler(2000, 6, 36), es.sigma_remark5_product(2000, 3))

    def refuse(*args):
        raise AssertionError("a Fraction was built")
    monkeypatch.setattr(es, "Fraction", refuse)
    assert (es.sigma_euler(2000, 6, 36), es.sigma_remark5_product(2000, 3)) == want


def test_ramanujan_prime_power_closed_form():
    # the closed form that ramanujan multiplies agrees with the sympy divisor sum
    for p in (2, 3, 5, 7, 11):
        for l in range(1, 7):
            for t in list(range(-30, 31)) + [2 ** 20, -(2 ** 20), 10 ** 20 + 36]:
                g = p ** l if t == 0 else math.gcd(p ** l, abs(t))
                assert es._ramanujan_prime_power(p, l, t) == \
                    ramanujan_divisor_sum(p ** l, g), (p, l, t)


@pytest.mark.parametrize("X", [0, 1, 2, 4, 25, 49, 121, 1000, 5000])
def test_phi_mu_sieves_match_sympy(X):
    assert es._primes_upto(X) == list(primerange(2, X + 1))
    phi, mu = es._phi_sieve(X), es._mu_sieve(X)
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
    assert rep.per_prime[0] == (2, 7 / 6)


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
    # squares of primes and their neighbours, where n // s[n] is p or 1
    phi, mu = es._phi_sieve(X), es._mu_sieve(X)
    ref_phi, ref_mu = _phi_mu_sieves_literal(X)
    assert np.array_equal(phi, ref_phi) and np.array_equal(mu, ref_mu)
    assert phi.dtype == mu.dtype == np.int32


def _phi_mu_sieves_rest(X):
    """The one-call phi and mu sieve the two int32 sieves replaced: int64,
    dividing rest[n] by every power of each p <= isqrt(X)."""
    phi = np.arange(X + 1, dtype=np.int64)
    mu = np.ones(X + 1, dtype=np.int64)
    rest = np.arange(X + 1, dtype=np.int32)
    for p in es._primes_upto(math.isqrt(max(X, 0))):
        phi[p::p] -= phi[p::p] // p
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
        pk = p
        while pk <= X:
            rest[pk::pk] //= p
            pk *= p
    rest[:1] = 1
    big = rest > 1
    phi -= phi // rest * big
    np.negative(mu, out=mu, where=big)
    return phi, mu


@pytest.mark.parametrize("X", [0, 1, 2, 3, 4, 48, 49, 50, 120, 121, 4093, 99991,
                               10 ** 5, 3 * 10 ** 5])
def test_phi_and_mu_sieves_match_rest_sieve(X):
    ref_phi, ref_mu = _phi_mu_sieves_rest(X)
    assert np.array_equal(es._phi_sieve(X), ref_phi)
    assert np.array_equal(es._mu_sieve(X), ref_mu)


@pytest.mark.parametrize("t", [0, 1, -1, 12, 32, 36, 100, 144, 720720])
def test_divisor_row_matches_gcd_pass(t):
    # c_q(t) = sum_{d | (q, t)} d mu(q/d) against mu(q/g) phi(q) / phi(q/g)
    X = 5000
    phi, mu = es._phi_sieve(X), es._mu_sieve(X)
    assert np.array_equal(es._ramanujan_row(phi, mu, t, X),
                          _ramanujan_from_sieves(np.arange(1, X + 1), phi, mu, t))


def test_divisor_row_matches_gcd_pass_past_int64():
    X, t = 300, 2 ** 64 * 720720 + 2 ** 64
    phi, mu = es._phi_sieve(X), es._mu_sieve(X)
    row = es._ramanujan_row(phi, mu, t, X)
    assert np.array_equal(row, _ramanujan_from_sieves(np.arange(1, X + 1), phi, mu, t))
    assert row.tolist() == [es.ramanujan(q, t) for q in range(1, X + 1)]


def _ramanujan_literal(X, t):
    """c_q(t) for q = 1..X, one Python gcd per q."""
    phi, mu = _phi_mu_sieves_literal(X)
    row = []
    for q in range(1, X + 1):
        g = q if t == 0 else math.gcd(q, t)
        row.append(int(mu[q // g]) * int(phi[q]) // int(phi[q // g]))
    return row


def _fsum_terms(c, d1):
    """math.fsum of the float terms c[q-1] / float(q) ** d1, built as
    exp_sums._term_sum builds them."""
    return math.fsum((np.asarray(c) / np.arange(1, len(c) + 1, dtype=float) ** d1).tolist())


@pytest.mark.parametrize("X,d,t", [(1, 6, 0), (2, 6, 5), (1000, 8, 0), (1000, 8, 360),
                                   (1000, 6, 1001), (200000, 6, 0), (200000, 6, 36),
                                   (200000, 6, 144), (1000, 6, 10 ** 20 + 36),
                                   (300000, 6, 0), (300000, 6, 36), (300000, 6, 144)])
def test_sigma_dirichlet_matches_literal_loop(X, d, t):
    # while X^{d1} < 2^53 every q^{d1} is exact, so the float division is the
    # same correctly rounded quotient as the loop's and the sums agree exactly;
    # past it (X = 300000 at d1 = 3) float(q) ** d1 is rounded first, and the
    # reference is fsum of those float terms; one level does not fit in int64
    got = es.sigma_dirichlet(X, d, t).value
    d1 = d // 2
    row = _ramanujan_literal(X, t)
    if X ** d1 < 2 ** 53:
        assert got == math.fsum(c / q ** d1 for q, c in enumerate(row, 1) if c)
    else:
        assert got == _fsum_terms(np.array(row, dtype=np.int64), d1)
    if X <= 1000:
        ref = math.fsum(es.ramanujan(q, t) / q ** (d // 2) for q in range(1, X + 1))
        assert got == pytest.approx(ref, rel=1e-15)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2 ** 62, 2 ** 62) | st.integers(-3, 3), max_size=200),
       st.sampled_from([3, 4, 5]))
def test_term_sum_equals_fsum(c, d1):
    # mixed signs, zeros, the empty row; int64 entries past 2^53 round to float
    row = np.array(c, dtype=np.int64)
    assert es._term_sum(row, d1).hex() == _fsum_terms(row, d1).hex()


def _full_range_row():
    """Floats at every binary exponent of float64, alternating in sign, the
    largest first, so the terms run from about 2^1023 down to 2^-1074."""
    e = np.arange(1023, -1075, -1)
    return np.ldexp(np.where(e % 2 == 0, 0.75, -0.625), e)


_EXACT_ROWS = {
    # terms 2^1000, 3/8, -2^1000: all but 3/8 cancels
    "cancel": np.array([2.0 ** 1000, 3.0, -27 * 2.0 ** 1000]),
    # terms 1, 2^-53, 2^-106: the correctly rounded sum is 1 + 2^-52
    "half-way": np.array([1.0, 8 * 2.0 ** -53, 27 * 2.0 ** -106]),
    # terms all at least 2^53, so the sum is a multiple of a power of 2 >= 1
    "huge": np.array([2.0 ** 60, -8 * 3 * 2.0 ** 70, 27 * 2.0 ** 65, 64 * 2.0 ** 900]),
    # terms in the subnormal range only
    "subnormal": np.array([5e-324, -8 * 5e-324, 27 * 3e-320, 64 * 1e-310]),
    "full-range": _full_range_row(),
    "full-range-reversed": _full_range_row()[::-1].copy(),
    # more than one chunk of the int32 rows sigma_dirichlet sums
    "chunks": np.where(RNG.random(50000) < 0.2, 0,
                       RNG.integers(-2 ** 31, 2 ** 31, 50000)).astype(np.int32),
}


@pytest.mark.parametrize("d1", [3, 4, 5])
@pytest.mark.parametrize("name", sorted(_EXACT_ROWS))
def test_term_sum_equals_fsum_fixed_rows(name, d1):
    row = _EXACT_ROWS[name]
    assert es._term_sum(row, d1).hex() == _fsum_terms(row, d1).hex()
    if name == "half-way" and d1 == 3:
        assert es._term_sum(row, d1) == 1 + 2.0 ** -52


@pytest.mark.parametrize("t", [0, 1, 72])
@pytest.mark.parametrize("d", [6, 8])
def test_sigma_dirichlet_tail_bound_covers_4x_cutoff(d, t):
    X = 10 ** 4
    small = es.sigma_dirichlet(X, d, t)
    assert small.tail_bound == X ** (2 - d // 2) / (d // 2 - 2)
    assert abs(es.sigma_dirichlet(4 * X, d, t).value - small.value) <= small.tail_bound


def test_sigma_dirichlet_levels_match_one_level_calls():
    levels = [0, 36, 1, 36, 1048576, 0]
    got = es.sigma_dirichlet_levels(3000, 8, levels)
    assert list(got) == [0, 36, 1, 1048576]
    for t, rep in got.items():
        one = es.sigma_dirichlet(3000, 8, t)
        assert (rep.method, rep.cutoff, rep.value, rep.tail_bound) == \
            (one.method, one.cutoff, one.value, one.tail_bound)
