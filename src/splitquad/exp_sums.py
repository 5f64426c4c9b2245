"""Complete exponential sums S_q(c) for the split form, local densities
and the singular series.

For F(z) = x.y - t the complete sum

    S_q(c) = sum*_{a mod q} sum_{b mod q} e_q(a(b_x.b_y - t) + c.b)

collapses coordinate-pair by coordinate-pair to the twisted Kloosterman
form q^{d1} sum*_a e_q(-a t - abar (c_x.c_y)), which is real and, when
c_x.c_y = 0 mod q, the exact integer q^{d1} c_q(t) with c_q the Ramanujan
sum (when t = 0 mod q, q^{d1} c_q(c_x.c_y)); c_q is the product of its
prime-power closed forms.  Otherwise a float loop over the units sums the
roots of unity, and its value carries a derived rounding bound of order
q^{d1} phi(q) 2^-53; an imaginary part beyond it raises AccuracyError.
Both evaluators return an ExpSumValue: the value, its exact integer when
known, and that bound.  A
literal-summation oracle (S_q_naive) retains every term of the double sum,
grouped per coordinate pair, and never touches modular inverses.

The local factor sigma_p = sum_l p^{-dl} S_{p^l}(0) has finitely many
nonzero terms when t != 0, the last at l = v_p(t) + 1, and is geometric at
t = 0, so it is taken in closed form: the Euler factor of Ramanujan's
sigma(t) = sigma_{1-d1}(|t|) / zeta(d1), exact and with no tail.  Each local
factor, sigma_p or the remark-5 closed form, is a pair of ints (num, den);
only the public sigma_p and remark5_sigma_p build a Fraction.
The singular series is assembled both as an Euler product and as the
Dirichlet sum sum_{q<=X} q^{-d} S_q(0).

The Euler product of the sigma_p and the remark-5 product to a cutoff P
share one loop over the sieve primes.  Each builds the lists of its
factors' numerators and denominators once; the loop multiplies those pairs
into one Python int in fixed point with FIX_BITS fraction bits; each factor
lies in (1/2, 2), so n factors carry a relative error below about
2n 2^{1-FIX_BITS}, far below the final rounding to a float.  Neither
floor(num 2^FIX_BITS / den) nor the correctly rounded num / den depends on
the pair being reduced.  The factors are exact, so the tail bound covers
only the primes above P.

The remark-5 product over all primes (sigma_remark5, the one predict and
verify print) takes no long prime loop: its factor f(1/p) is written as
prod_n (1 - p^{-n})^{-e_n} with integer e_n, so the primes above 50 give
prod_n zeta_{>50}(n)^{e_n} (Cohen 1998).  The zeta values come from
zeta_int, an Euler-Maclaurin sum in floats with a certified bound, so no
mpmath is imported; its tail bound covers the omitted zeta factors and the
rounding, about 1e-15 relative.

Primes come from one numpy sieve of Eratosthenes.  The phi and mu sieves
on 0..X loop only over the primes up to isqrt(X) and finish the one prime
factor of each n above isqrt(X) in a vectorised pass.  The Dirichlet sum
takes c_q(0) = phi(q) and, for t != 0, c_q(t) = sum_{d | (q, t)} d mu(q/d):
one strided add per divisor d <= X of t.  Its float terms c_q / q^{d1} are
added exactly: frexp splits each into an integer mantissa below 2^53 and an
exponent, bincount adds the mantissas' 26-bit halves per exponent, and the
bins fold into one Python int divided once by a power of 2, so the sum is
correctly rounded, as math.fsum's is, at numpy speed.  Each term is an exact
quotient only while q^{d1} < 2^53; past that float(q) ** d1 is rounded
first.  A single q is factored by trial division, and a p given from outside
is checked by a deterministic Miller-Rabin test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import truediv

import numpy as np

from .errors import AccuracyError, ArgumentError, CapabilityError

NAIVE_Q_CAP = 64
FACTORED_Q_CAP = 10 ** 6  # the float unit sum of S_q_factored, about 4.5 us a step
TRIAL_CAP = 10 ** 6       # trial divisors tried before a cofactor must be prime
SIEVE_CAP = 10 ** 8       # largest sieve: two int32 arrays of 0.4 GB
FIX_BITS = 192            # fraction bits of the Euler-product accumulator
SUM_CHUNK = 2 ** 14       # Dirichlet-sum terms built and binned per numpy pass

# Miller-Rabin to the 13 prime bases up to 41 is exact below MR_EXACT_BELOW
# (Sorenson and Webster, Math. Comp. 86, 2017); the first 12 bases pass the
# composite 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3317044064679887385961981

# frexp exponents of finite doubles lie in [-1073, 1024]; bin e + _EXP_OFFSET
_EXP_OFFSET = 1074
_EXP_BINS = 1024 + _EXP_OFFSET + 1
_U = 2.0 ** -53           # unit roundoff of float64


def e_q(x, q):
    return np.exp(2j * math.pi * np.asarray(x, dtype=float) / q)


def _root_err(xmax, q) -> float:
    """Bound on |e_q(x) - exp(2 pi i x / q)| for integers |x| <= xmax.

    The angle picks up at most five roundings (x to float, pi, the product,
    1/q and the quotient), each relative u = 2^-53, and libm's cos and sin
    err by one ulp each, below 3u in modulus.
    """
    return (32.0 * xmax / q + 3.0) * _U


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < MR_EXACT_BELOW."""
    n = int(n)
    if n < 2:
        return False
    if n >= MR_EXACT_BELOW:
        raise CapabilityError(
            f"{n} is beyond the deterministic prime test bound {MR_EXACT_BELOW}")
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factor(n: int) -> dict:
    """{p: e} with n = prod p^e, by trial division up to TRIAL_CAP.

    A cofactor with no prime factor up to TRIAL_CAP is accepted only if it
    is prime; otherwise CapabilityError.
    """
    f = {}
    p = 2
    while p * p <= n:
        if p > TRIAL_CAP:
            if not is_prime(n):
                raise CapabilityError(
                    f"cannot factor {n}: no prime factor up to {TRIAL_CAP}")
            break
        while n % p == 0:
            f[p] = f.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        f[n] = f.get(n, 0) + 1
    return f


def ramanujan(q: int, n: int) -> int:
    """Ramanujan sum c_q(n) = sum*_{a mod q} e_q(a n), exactly, as the
    product of c_{p^e}(n) over p^e || q (c_q is multiplicative in q)."""
    q, n = int(q), int(n)
    if q < 1:
        raise ArgumentError("q must be >= 1")
    return math.prod(_ramanujan_prime_power(p, e, n) for p, e in _factor(q).items())


def _ramanujan_prime_power(p: int, l: int, t: int) -> int:
    """c_{p^l}(t) for a prime p and l >= 1, in closed form."""
    pl = p ** l
    if t % pl == 0:
        return pl - pl // p
    return -(pl // p) if t % (pl // p) == 0 else 0


@dataclass
class ExpSumValue:
    """One value of S_q(c), floating plus (when available) exact integer.

    round_bound bounds |value_complex - S_q(c)|, the rounding of the float
    evaluation.  S_q(c) is real for F0, so an imaginary part beyond it is no
    rounding and raises AccuracyError.
    """

    value_complex: complex
    value_exact: int | None = None
    round_bound: float = 0.0

    def __post_init__(self):
        v = self.value_complex
        if abs(v.imag) > self.round_bound:
            raise AccuracyError(f"S_q imaginary part {v.imag:.6g} beyond its rounding "
                                f"bound {self.round_bound:.3g}: S_q is real for F0")
        if self.value_exact is not None:
            if abs(v - self.value_exact) > self.round_bound:
                raise AccuracyError("exact and floating values disagree")

    @property
    def value(self) -> float:
        return float(self.value_exact) if self.value_exact is not None \
            else self.value_complex.real


def _check_q_d1(q: int, d1: int) -> int:
    """q as an int, after the checks q >= 1 and d1 >= 1 (usage errors)."""
    q = int(q)
    if q < 1:
        raise ArgumentError("q must be >= 1")
    if d1 < 1:
        raise ArgumentError(f"d1 must be a positive integer, got {d1}")
    return q


def _split_c(d1: int, c):
    c = [int(v) for v in c]
    if len(c) != 2 * d1:
        raise ArgumentError(f"c has length {len(c)}, expected {2 * d1}")
    return c[:d1], c[d1:]


def S_q_naive(d1: int, q: int, c, t: int) -> ExpSumValue:
    """Literal summation over a coprime to q and all b mod q.

    The b-sum is evaluated pair by coordinate pair (plain Fubini
    regrouping of the same q^d terms), keeping the cost at
    phi(q) * d1 * q^2 so the oracle reaches q = 64.
    """
    q = _check_q_d1(q, d1)
    if q > NAIVE_Q_CAP:
        raise CapabilityError(
            f"q = {q} beyond the naive cap {NAIVE_Q_CAP}; use S_q_factored")
    cx, cy = _split_c(d1, c)
    if q == 1:
        return ExpSumValue(1.0 + 0.0j, 1)
    X, Y = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    total, drift = 0.0 + 0.0j, 0.0
    for a in range(1, q):
        if math.gcd(a, q) != 1:
            continue
        term = e_q(-a * int(t), q)
        for i in range(d1):
            term = term * np.sum(e_q(a * X * Y + cx[i] * X + cy[i] * Y, q))
        total += term
        drift += abs(total)
    # rounding: each pair sum adds n = q^2 roots, each off by err, in some
    # order, so it is off by at most n e, e = err + n u (1 + err), from a
    # value of modulus <= n; a product of d1 + 1 factors, each complex
    # product adding 3u, then errs by at most
    # n^d1 ((1 + err) (1 + e)^d1 (1 + 3u)^d1 - 1), and each add to total by
    # u |total|
    n = q * q
    err = _root_err(max((q - 1) ** 3 + 2 * (q - 1) * max(map(abs, cx + cy)),
                        (q - 1) * abs(int(t))), q)
    e = err + n * _U * (1 + err)
    per_a = n ** d1 * math.expm1(
        math.log1p(err) + d1 * (math.log1p(e) + math.log1p(3 * _U)))
    bound = (q - 1) * per_a + _U * drift
    return ExpSumValue(complex(total), round_bound=bound)


def S_q_factored(d1: int, q: int, c, t: int) -> ExpSumValue:
    """Closed form q^{d1} sum*_a e_q(-a t - abar c_x.c_y): the exact integer
    q^{d1} c_q(c_x.c_y + t) when c_x.c_y or t is 0 mod q, else a float loop
    of q - 1 steps, refused past FACTORED_Q_CAP."""
    q = _check_q_d1(q, d1)
    cx, cy = _split_c(d1, c)
    s = sum(a * b for a, b in zip(cx, cy))
    t = int(t)
    if s % q == 0 or t % q == 0:
        exact = q ** d1 * ramanujan(q, s + t)
        return ExpSumValue(complex(float(exact)), exact)
    if q > FACTORED_Q_CAP:
        raise CapabilityError(
            f"q = {q} beyond the Kloosterman loop cap {FACTORED_Q_CAP}")
    acc, drift = 0.0 + 0.0j, 0.0
    for a in range(1, q):
        if math.gcd(a, q) != 1:
            continue
        abar = pow(a, -1, q)
        acc += e_q(-(a * t + abar * s) % q, q)
        drift += abs(acc)
    val = q ** d1 * acc
    # rounding: at most q - 1 roots with arguments in [0, q), each add off by
    # u |acc|; the scaling by q^d1 (a float past 2^53) adds two roundings
    bound = q ** d1 * ((q - 1) * _root_err(q, q) + _U * drift) * (1 + 4 * _U) \
        + 2 * _U * abs(val)
    return ExpSumValue(complex(val), round_bound=bound)


def remark5_sigma_p(p: int, d1: int) -> Fraction:
    """Closed form 1 + p^{1-d1} - p^{-d1} from the smooth-quadric point count."""
    if not is_prime(p):
        raise ArgumentError(f"{p} is not prime")
    if d1 < 2:
        raise ArgumentError("d1 must be >= 2")
    (num,), (den,) = _remark5_factors([int(p)], d1)
    return Fraction(num, den)


def _remark5_factors(primes: list, d1: int) -> tuple[list, list]:
    """remark5_sigma_p of each p in primes (known to be prime, d1 >= 2) as
    the lists nums, dens with num / den = (p^d1 + p - 1) / p^d1."""
    dens = [p ** d1 for p in primes]
    return [den + p - 1 for p, den in zip(primes, dens)], dens


def sigma_p(p: int, d: int, t: int) -> Fraction:
    """The local factor sum_{l >= 0} p^{-dl} S_{p^l}(0) as an exact rational;
    the series ends at l = v_p(t) + 1, and for t = 0 sums in closed form."""
    if not is_prime(p):
        raise ArgumentError(f"{p} is not prime")
    return Fraction(*_sigma_prime(int(p), half_dim(d), int(t)))


def half_dim(d: int) -> int:
    """d1 = d / 2 for a dimension d the singular series admits (even, > 4)."""
    if d % 2 or d <= 4:
        raise ArgumentError("d must be even and > 4")
    return d // 2


def valuation(p: int, n: int) -> int:
    """v_p(n), the largest v with p^v | n, for integers p >= 2 and n != 0."""
    if p < 2 or n == 0:
        raise ArgumentError(f"v_p(n) needs p >= 2 and n != 0, got p = {p}, n = {n}")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _sigma_prime(p: int, d1: int, t: int) -> tuple:
    """sigma_p for a p known to be prime as the pair (num, den).

    Its terms are c_{p^l}(t) / p^{l d1}: phi(p^l) / p^{l d1} while p^l | t,
    then -p^v / p^{(v+1) d1} at l = v + 1 with v = v_p(t), then 0.  With
    s = p^{d1-1} they sum to (1 - p^{-d1}) sum_{j <= v} s^{-j}, and at t = 0
    (v infinite) to (1 - p^{-d1}) / (1 - 1/s).
    """
    pd1 = p ** d1
    if t == 0:
        return pd1 - 1, pd1 - p
    if t % p:
        return pd1 - 1, pd1
    s = pd1 // p
    v = valuation(p, t)
    return (pd1 - 1) * (s ** (v + 1) - 1), pd1 * s ** v * (s - 1)


def local_density(p: int, k: int, d1: int, t: int) -> Fraction:
    """Exact #{x.y = t mod p^k} / p^{(2 d1 - 1) k} via per-pair counts.

    The count of (x, y) mod p^k with x y = r depends only on the p-adic
    valuation of r; the d1-pair total is the (d1)-fold cyclic convolution
    of that single-pair table, all in exact integers.
    """
    if not is_prime(p):
        raise ArgumentError(f"{p} is not prime")
    if k < 1 or d1 < 1:
        raise ArgumentError("k and d1 must be positive")
    pk = p ** k
    if pk ** 2 * d1 > 10 ** 9:
        raise CapabilityError(f"modulus p^k = {pk} beyond the enumeration cap")
    # single-pair table M[r] = #{(x, y) mod p^k : x y = r mod p^k}
    cnt = [p ** (k - j) - p ** (k - j - 1) if j < k else 1 for j in range(k + 1)]
    M = [0] * pk
    for r in range(pk):
        jmax = k if r == 0 else valuation(p, r)
        M[r] = sum(cnt[j] * p ** j for j in range(jmax + 1))
    conv = [1 if r == 0 else 0 for r in range(pk)]
    for _ in range(d1):
        nxt = [0] * pk
        for r1, v1 in enumerate(conv):
            if v1 == 0:
                continue
            for r2, v2 in enumerate(M):
                nxt[(r1 + r2) % pk] += v1 * v2
        conv = nxt
    return Fraction(conv[t % pk], p ** ((2 * d1 - 1) * k))


@dataclass
class SigmaReport:
    """Singular-series value with its cutoff and certified tail bound; a
    product lists each local factor as (p, value)."""

    method: str
    cutoff: int
    value: float
    tail_bound: float
    per_prime: list = field(default_factory=list)


def _euler_omitted_tail(P: int, d1: int) -> float:
    # |sigma_p - 1| <= sum_{l>=1} p^{-l d1} phi(p^l) <= p^{1-d1} / (1 - 2^{1-d1});
    # sum over primes > P overestimated by the integral over reals > P.
    c = 1.0 / (1.0 - 2.0 ** (1 - d1))
    return c * P ** (2 - d1) / (d1 - 2)


def _euler_product(method: str, P: int, d1: int, factors) -> SigmaReport:
    """Product of the exact local factors num / den of the primes p <= P,
    given as the lists nums, dens = factors(primes), in FIX_BITS-bit fixed
    point rounded once to a float."""
    if P < 2:
        raise ArgumentError("P must be >= 2")
    primes = _primes_upto(P)
    nums, dens = factors(primes)
    one = 1 << FIX_BITS
    acc = one
    for num, den in zip(nums, dens):
        acc = acc * ((num << FIX_BITS) // den) >> FIX_BITS
    value = acc / one        # int / int is correctly rounded
    tail_bound = abs(value) * math.expm1(1.2 * _euler_omitted_tail(P, d1))
    per_prime = list(zip(primes, map(truediv, nums, dens)))
    return SigmaReport(method, int(P), value, tail_bound, per_prime)


def sigma_euler(P: int, d: int, t: int) -> SigmaReport:
    """Product over primes p <= P of sigma_p, in FIX_BITS-bit fixed point."""
    d1, t = half_dim(d), int(t)
    return _euler_product("euler_product", P, d1,
                          lambda primes: zip(*[_sigma_prime(p, d1, t) for p in primes]))


def sigma_remark5_product(P: int, d1: int) -> SigmaReport:
    """Product of the closed-form factors 1 + p^{1-d1} - p^{-d1} over p <= P."""
    _check_remark5_d1(d1)
    return _euler_product("remark5_product", P, d1,
                          lambda primes: _remark5_factors(primes, d1))


def _check_remark5_d1(d1: int):
    if d1 < 3:
        raise ArgumentError("d1 must be >= 3 (d = 2 d1 > 4)")


# sigma_remark5 multiplies the factors of the primes p <= REMARK5_PRIMES
# exactly and the rest as zeta_{>P}(n)^{e_n} for n <= REMARK5_ZETA_TERMS
REMARK5_PRIMES = 50
REMARK5_ZETA_TERMS = 16


def _zeta_exponents(d1: int, K: int) -> list:
    """[e_0, ..., e_K] with 1 + x^{d1-1} - x^{d1} = prod_{n >= 1} (1 - x^n)^{-e_n}
    up to O(x^{K+1}); e_0 = 0.

    With a_n the coefficients of f = 1 + x^{d1-1} - x^{d1}, the logarithmic
    derivative x f'/f = sum_m b_m x^m has b_m = m a_m - sum_{k<m} b_k a_{m-k}
    and b_m = sum_{n | m} n e_n, inverted here divisor by divisor.  The e_n
    are integers, since f has integer coefficients and f(0) = 1.
    """
    b, e = [0] * (K + 1), [0] * (K + 1)
    for n in range(1, K + 1):
        # only a_{d1-1} = 1 and a_{d1} = -1 are nonzero past a_0
        b[n] = n * ((n == d1 - 1) - (n == d1))
        if n > d1 - 1:
            b[n] -= b[n - d1 + 1]
        if n > d1:
            b[n] += b[n - d1]
        e[n] = (b[n] - sum(k * e[k] for k in range(1, n // 2 + 1) if n % k == 0)) // n
    return e


def sigma_remark5(d1: int) -> SigmaReport:
    """The remark5 product prod_p f(1/p), f(x) = 1 + x^{d1-1} - x^{d1}, over
    all primes, by factoring zeta values out of it (Cohen, "High precision
    computation of Hardy-Littlewood constants", 1998).

    With f = prod_n (1 - x^n)^{-e_n} (_zeta_exponents), the primes above
    P = REMARK5_PRIMES give prod_n zeta_{>P}(n)^{e_n}, where
    zeta_{>P}(n) = zeta(n) prod_{p <= P} (1 - p^{-n}).  The primes p <= P are
    multiplied exactly; log zeta_{>P}(n) is the sum of log1p(zeta(n) - 1)
    and the log1p(-p^{-n}), so zeta(n) - 1 ~ 2^{-n} keeps its digits.
    The tail bound covers the factors n > K = REMARK5_ZETA_TERMS and the
    rounding; the cutoff is P.
    """
    _check_remark5_d1(d1)
    P, K = REMARK5_PRIMES, REMARK5_ZETA_TERMS
    primes = _primes_upto(P)
    nums, dens = _remark5_factors(primes, d1)
    head = math.prod(nums) / math.prod(dens)     # exact, rounded once
    logs, err = [], 0.0
    for n, e in enumerate(_zeta_exponents(d1, K)):
        if e == 0:
            continue
        zc, zc_bound = _zetac_int(n)
        parts = [math.log1p(zc)] + [math.log1p(-1 / p ** n) for p in primes]
        log_n = math.fsum(parts)
        # each log1p takes a correctly rounded argument in (-1/2, 1) and
        # errs by one ulp: below 4u of its value together; fsum rounds once
        err_n = zc_bound / (1 + zc - zc_bound) \
            + 4 * _U * math.fsum(map(abs, parts)) + _U * abs(log_n)
        logs.append(e * log_n)
        err += abs(e) * err_n + _U * abs(e * log_n)
    S = math.fsum(logs)
    # past K: the roots y of y^{d1} + y - 1 have |y| < 2, so |e_n| <= 2 d1 2^n / n,
    # and log zeta_{>P}(n) <= 2 sum_{m > P} m^{-n} <= 2 (P+1)^{-n} (1 + (P+1)/(n-1))
    r = 2 / (P + 1)
    err += _U * abs(S) + 4 * d1 * (1 + (P + 1) / K) / (K + 1) * r ** (K + 1) / (1 - r)
    value = head * math.exp(S)
    # head, exp and the product each add a rounding: at most 5u together
    return SigmaReport("remark5_zeta", P, value, value * (math.expm1(err) + 5 * _U))


# Euler-Maclaurin for zeta(k) - 1: the terms n = 2..ZETA_EM_N - 1, then the
# corrections B_2j / (2j)! (k)_{2j-1} ZETA_EM_N^{1-k-2j} for j = 1..6, as
# (numerator, denominator) of B_2j / (2j)!; the seventh bounds the remainder
ZETA_EM_N = 16
_EM_COEFFS = tuple((bn, bd * math.factorial(2 * j)) for j, (bn, bd) in enumerate(
    ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6)), 1))


def _zetac_int(k: int) -> tuple[float, float]:
    """(zeta(k) - 1, bound) for an integer k >= 2, from the Euler-Maclaurin
    sum at N = ZETA_EM_N.

    For x^{-k} the remainder after the j-th correction is at most the first
    omitted one (Edwards, "Riemann's Zeta Function", 6.4).  Every term is
    one correctly rounded int / int quotient and fsum rounds their sum once,
    so the rounding is at most u (sum |terms| + |value|), doubled here.
    """
    N = ZETA_EM_N
    terms = [1 / n ** k for n in range(2, N)]
    terms += [1 / ((k - 1) * N ** (k - 1)), 1 / (2 * N ** k)]
    rising = k                      # (k)_{2j-1} = k (k+1) ... (k+2j-2)
    for j, (bn, bd) in enumerate(_EM_COEFFS[:-1], 1):
        terms.append(bn * rising / (bd * N ** (k + 2 * j - 1)))
        rising *= (k + 2 * j - 1) * (k + 2 * j)
    bn, bd = _EM_COEFFS[-1]
    J = len(_EM_COEFFS)
    remainder = abs(bn) * rising / (bd * N ** (k + 2 * J - 1))
    value = math.fsum(terms)
    return value, remainder + 2 * _U * (math.fsum(map(abs, terms)) + abs(value))


def zeta_int(k: int) -> tuple[float, float]:
    """(zeta(k), bound) for an integer k >= 2: |value - zeta(k)| <= bound."""
    if int(k) != k or k < 2:
        raise ArgumentError(f"zeta_int needs an integer k >= 2, got {k}")
    zc, bound = _zetac_int(int(k))
    return 1.0 + zc, bound + _U * (1.0 + zc)


def _primes_upto(P: int) -> list:
    """The primes p <= P, ascending, as Python ints, by Eratosthenes."""
    if P < 2:
        return []
    _check_sieve(P)
    sieve = np.ones(P + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(P) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.flatnonzero(sieve).tolist()


def _check_sieve(X: int):
    if X > SIEVE_CAP:
        raise CapabilityError(f"sieve to {X} beyond the cap {SIEVE_CAP}")


# The sieves and the divisor pass work in int32 (SIEVE_CAP < 2^31, and every
# partial divisor sum is at most sigma(q) < 6 q), which halves the memory
# their strided passes walk against int64.

def _phi_sieve(X: int) -> np.ndarray:
    """Euler phi on 0..X as int32, one pass per prime power p^k with p <= isqrt(X).

    Those passes build, by multiplication only, the part s[n] of n made of
    such primes and f[n] = phi(s[n]); n // s[n] is 1 or the one prime factor
    of n above isqrt(X), applied in one dense pass.
    """
    _check_sieve(X)
    f = np.ones(X + 1, dtype=np.int32)
    s = np.ones(X + 1, dtype=np.int32)
    for p in _primes_upto(math.isqrt(max(X, 0))):
        f[p::p] *= p - 1
        s[p::p] *= p
        pk = p * p
        while pk <= X:
            f[pk::pk] *= p
            s[pk::pk] *= p
            pk *= p
    # n // s[n] by a float division, exact as s[n] | n < 2^53, and faster
    # than int32 //; in place, so that the pass holds one array at a time
    big = np.arange(X + 1, dtype=float)
    big /= s
    big -= 1
    np.maximum(big, 1, out=big)
    f *= big.astype(np.int32)
    f[:1] = 0
    return f


def _mu_sieve(X: int) -> np.ndarray:
    """Moebius mu on 0..X as int32 (mu[0] = 1), one pass per prime p <= isqrt(X).

    m[n] collects -p for each of those p dividing n, and 0 once some p^2
    does; a squarefree n with |m[n]| < n has one more prime factor, above
    isqrt(X), which flips the sign.
    """
    _check_sieve(X)
    m = np.ones(X + 1, dtype=np.int32)
    for p in _primes_upto(math.isqrt(max(X, 0))):
        m[p::p] *= -p
        m[p * p::p * p] = 0
    big = np.abs(m) < np.arange(X + 1, dtype=np.int32)
    np.sign(m, out=m)
    m -= 2 * m * big
    return m


def _ramanujan_row(phi: np.ndarray | None, mu: np.ndarray | None, t: int, X: int) -> np.ndarray:
    """c_q(t) for q = 1..X as exact int32: phi(q) at t = 0, else the divisor
    sum of d mu(q/d) over d | t, one strided add per divisor d <= X.  It beats
    the gcd pass of delta_kernel._ramanujan_from_sieves at X = 1e5, t = 36 or
    100 (0.23-0.27 ms against 4.0-4.2 ms, best of 9, 2-core VM), which wins
    over a 401-level delta sweep at q <= 60 (3.0-3.3 ms against 8.4-9.7 ms)."""
    if t == 0:
        return phi[1:X + 1]
    t = abs(int(t))
    q = np.arange(1, min(X, t) + 1, dtype=np.int64)
    # a t past int64 is reduced mod each candidate divisor in Python
    r = t % q if t < 2 ** 63 else np.array([t % v for v in q.tolist()], dtype=np.int64)
    c = np.zeros(X, dtype=np.int32)
    for d in (np.flatnonzero(r == 0) + 1).tolist():
        c[d - 1::d] += d * mu[1:X // d + 1]
    return c


def _term_sum(c: np.ndarray, d1: int) -> float:
    """sum over q = 1..len(c) of c[q-1] / q^d1, correctly rounded, so equal
    bit for bit to math.fsum of the same terms.

    The terms are built in chunks of SUM_CHUNK.  frexp writes each as
    M 2^(e-53) with M = m 2^53 an integer, |M| < 2^53; its halves M >> 26
    (floor(m 2^27)) and M & (2^26 - 1) are added per exponent by bincount,
    whose float bin sums stay below 2^41 within a chunk and so are exact,
    into int64 bins exact up to about 2^36 terms.  The bins fold into one
    Python int N and the sum is N / 2^k, which int / int rounds correctly.
    Each division c / q^d1 is itself correctly rounded while q^d1 < 2^53,
    as int / int is; there q^d1 is built by products, exact as pow is, and
    past it the float q ** d1 is rounded first.
    """
    hi = np.zeros(_EXP_BINS, dtype=np.int64)
    lo = np.zeros(_EXP_BINS, dtype=np.int64)
    for i in range(0, c.size, SUM_CHUNK):
        q = np.arange(i + 1, min(i + SUM_CHUNK, c.size) + 1, dtype=float)
        qd = q.copy()
        for _ in range(d1 - 1):
            qd *= q
        big = np.searchsorted(qd, 2.0 ** 53)         # the products round from here on
        qd[big:] = q[big:] ** d1
        terms = c[i:i + SUM_CHUNK] / qd
        m, e = np.frexp(terms)       # frexp(0) = (0, 0): a zero term adds nothing
        e += _EXP_OFFSET
        m *= 2.0 ** 27
        top = np.floor(m)
        m -= top
        m *= 2.0 ** 26
        hi += np.bincount(e, weights=top, minlength=_EXP_BINS).astype(np.int64)
        lo += np.bincount(e, weights=m, minlength=_EXP_BINS).astype(np.int64)
    bins = np.flatnonzero(hi | lo).tolist()
    if not bins:
        return 0.0
    b0 = bins[0]
    N = sum(((int(hi[b]) << 26) + int(lo[b])) << (b - b0) for b in bins)
    k = _EXP_OFFSET + 53 - b0        # bin b holds the multiples of 2^(b - k)
    return N / (1 << k) if k >= 0 else float(N << -k)


def sigma_dirichlet(X: int, d: int, t: int) -> SigmaReport:
    """sum_{q <= X} q^{-d} S_q(0) = sum_{q <= X} q^{-d1} c_q(t)."""
    return sigma_dirichlet_levels(X, d, [t])[t]


def sigma_dirichlet_levels(X: int, d: int, levels) -> dict:
    """{t: sigma_dirichlet(X, d, t)} for each distinct t in levels.

    The phi sieve is built only if t = 0 is a level and the mu sieve only
    if some t != 0 is; each level then costs one divisor pass and one sum.
    """
    d1 = half_dim(d)
    if X < 1:
        raise ArgumentError("X must be >= 1")
    levels = list(dict.fromkeys(levels))
    phi = _phi_sieve(X) if 0 in levels else None
    mu = _mu_sieve(X) if any(t != 0 for t in levels) else None
    cq = {t: _ramanujan_row(phi, mu, t, X) for t in levels}
    # |c_q(t)| <= phi(q) < q, so the tail past X is below X^{2-d1}/(d1-2)
    tail_bound = X ** (2 - d1) / (d1 - 2)
    return {t: SigmaReport("dirichlet_sum", int(X), _term_sum(c, d1), tail_bound)
            for t, c in cq.items()}
