"""Complete exponential sums S_q(c) for the split form, local densities
and the singular series.

For F(z) = x.y - t the complete sum

    S_q(c) = sum*_{a mod q} sum_{b mod q} e_q(a(b_x.b_y - t) + c.b)

collapses coordinate-pair by coordinate-pair to the twisted Kloosterman
form q^{d1} sum*_a e_q(-a t - abar (c_x.c_y)), which is real and, when
c_x.c_y = 0 mod q, the exact integer q^{d1} c_q(t) with c_q the
Ramanujan sum.  A literal-summation oracle (S_q_naive) retains every
term of the double sum, grouped per coordinate pair, and never touches
modular inverses.

Local densities sigma_p are partial sums of p^{-dl} S_{p^l}(0), exact
rationals with a certified geometric tail bound.  The loop carries the
numerator over p^{l d1} and the tail denominator as Python ints and builds
one Fraction at the end.  The singular series is assembled both as an
Euler product and as the Dirichlet sum sum_{q<=X} q^{-d} S_q(0).

Primes come from one numpy sieve of Eratosthenes.  The phi and mu sieves
on 0..X loop only over the primes up to isqrt(X); what is left of each n
after dividing those out is 1 or its one prime factor above isqrt(X), and
one vectorised pass applies it.  A single q is factored by trial division,
and a p given from outside is checked by a deterministic Miller-Rabin test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
import numpy as np

from .errors import ArgumentError, CapabilityError
from .forms import QuadraticFormF0

NAIVE_Q_CAP = 64
TRIAL_CAP = 10 ** 6       # trial divisors tried before a cofactor must be prime
SIEVE_CAP = 10 ** 8       # largest sieve: 1.6 GB of int64 phi and mu, 0.4 GB of int32 rest

# Miller-Rabin to the 13 prime bases up to 41 is exact below MR_EXACT_BELOW
# (Sorenson and Webster, Math. Comp. 86, 2017); the first 12 bases pass the
# composite 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3317044064679887385961981


def e_q(x, q):
    return np.exp(2j * math.pi * np.asarray(x, dtype=float) / q)


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
    """Ramanujan sum c_q(n) = sum*_{a mod q} e_q(a n), exactly."""
    q = int(q)
    if q < 1:
        raise ArgumentError("q must be >= 1")
    if q == 1:
        return 1
    g = q if n == 0 else math.gcd(q, abs(int(n)))
    # c_q(n) = mu(k) phi(q) / phi(k) with k = q/g, whose primes divide q
    k, phi_q, phi_k, mu_k = q // g, 1, 1, 1
    for p, e in _factor(q).items():
        phi_q *= p ** (e - 1) * (p - 1)
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            mu_k, phi_k = -mu_k, phi_k * (p - 1)
    return mu_k * (phi_q // phi_k)


@dataclass
class ExpSumValue:
    """One value of S_q(c), floating plus (when available) exact integer."""

    q: int
    c: tuple
    t: int
    value_complex: complex
    value_exact: int | None = None

    def __post_init__(self):
        v = self.value_complex
        if abs(v.imag) > 1e-6 * (1.0 + abs(v.real)):
            raise ArgumentError(f"S_q imaginary part {v.imag} too large for F0")
        if self.value_exact is not None:
            if abs(v - self.value_exact) > 1e-6 * (1 + abs(self.value_exact)):
                raise ArgumentError("exact and floating values disagree")

    @property
    def value(self) -> float:
        return float(self.value_exact) if self.value_exact is not None \
            else self.value_complex.real


def _split_c(form: QuadraticFormF0, c):
    c = [int(v) for v in c]
    if len(c) != form.d:
        raise ArgumentError(f"c has length {len(c)}, expected {form.d}")
    return c[: form.d1], c[form.d1 :]


def S_q_naive(form: QuadraticFormF0, q: int, c, t: int) -> ExpSumValue:
    """Literal summation over a coprime to q and all b mod q.

    The b-sum is evaluated pair by coordinate pair (plain Fubini
    regrouping of the same q^d terms), keeping the cost at
    phi(q) * d1 * q^2 so the oracle reaches q = 64.
    """
    q = int(q)
    if q < 1:
        raise ArgumentError("q must be >= 1")
    if q > NAIVE_Q_CAP:
        raise CapabilityError(
            f"q = {q} beyond the naive cap {NAIVE_Q_CAP}; use S_q_factored")
    cx, cy = _split_c(form, c)
    if q == 1:
        return ExpSumValue(1, tuple(c), int(t), 1.0 + 0.0j, 1)
    X, Y = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    total = 0.0 + 0.0j
    for a in range(1, q):
        if math.gcd(a, q) != 1:
            continue
        term = e_q(-a * int(t), q)
        for i in range(form.d1):
            term = term * np.sum(e_q(a * X * Y + cx[i] * X + cy[i] * Y, q))
        total += term
    return ExpSumValue(q, tuple(int(v) for v in c), int(t), complex(total))


def S_q_factored(form: QuadraticFormF0, q: int, c, t: int) -> ExpSumValue:
    """Closed form q^{d1} sum*_a e_q(-a t - abar c_x.c_y); exact integer path
    when c_x.c_y = 0 mod q."""
    q = int(q)
    if q < 1:
        raise ArgumentError("q must be >= 1")
    cx, cy = _split_c(form, c)
    s = sum(a * b for a, b in zip(cx, cy))
    t = int(t)
    if q == 1:
        return ExpSumValue(1, tuple(c), t, 1.0 + 0.0j, 1)
    if s % q == 0:
        exact = q ** form.d1 * ramanujan(q, t)
        return ExpSumValue(q, tuple(int(v) for v in c), t,
                           complex(float(exact)), exact)
    acc = 0.0 + 0.0j
    for a in range(1, q):
        if math.gcd(a, q) != 1:
            continue
        abar = pow(a, -1, q)
        acc += e_q(-(a * t + abar * s) % q, q)
    val = q ** form.d1 * acc
    return ExpSumValue(q, tuple(int(v) for v in c), t, complex(val))


def remark5_sigma_p(p: int, d1: int) -> Fraction:
    """Closed form 1 + p^{1-d1} - p^{-d1} from the smooth-quadric point count."""
    if not is_prime(p):
        raise ArgumentError(f"{p} is not prime")
    if d1 < 2:
        raise ArgumentError("d1 must be >= 2")
    return _remark5_prime(int(p), d1)


def _remark5_prime(p: int, d1: int) -> Fraction:
    """remark5_sigma_p for a p known to be prime and d1 >= 2."""
    return 1 + Fraction(1, p ** (d1 - 1)) - Fraction(1, p ** d1)


def sigma_p(p: int, d: int, t: int, rel_tol: float = 1e-12):
    """Partial sum of p^{-dl} S_{p^l}(0) as an exact rational.

    Returns (value, l_max, tail) where tail is the certified geometric
    envelope sum_{l > l_max} p^{-dl} p^{l(d/2+1)} <= rel_tol * value.
    """
    if not is_prime(p):
        raise ArgumentError(f"{p} is not prime")
    return _sigma_prime(int(p), d, t, rel_tol)


def _ramanujan_prime_power(p: int, l: int, t: int) -> int:
    """c_{p^l}(t) for a prime p and l >= 1, in closed form."""
    pl = p ** l
    if t % pl == 0:
        return pl - pl // p
    return -(pl // p) if t % (pl // p) == 0 else 0


def half_dim(d: int) -> int:
    """d1 = d / 2 for a dimension d the singular series admits (even, > 4)."""
    if d % 2 or d <= 4:
        raise ArgumentError("d must be even and > 4")
    return d // 2


def _sigma_prime(p: int, d: int, t: int, rel_tol: float):
    """sigma_p for a p known to be prime."""
    d1 = half_dim(d)
    t = int(t)
    s = p ** (d1 - 1)      # the envelope decays by 1/s per extra l
    pd1 = s * p
    # value = num / den with den = p^{l d1}; tail = 1 / tden with
    # tden = s^l (s - 1), the envelope sum_{l' > l} s^{-l'}
    num = den = 1          # l = 0 term, S_1 = 1
    tden = s - 1
    l = 0
    while True:
        if l >= 1 and _tail_within(tden, rel_tol * (abs(num) / den)):
            break
        l += 1
        # S_{p^l}(0) = p^{l d1} c_{p^l}(t)
        num = num * pd1 + _ramanujan_prime_power(p, l, t)
        den *= pd1
        tden *= s
        if l > 10000:
            raise CapabilityError("sigma_p failed to converge")
    return Fraction(num, den), l, 1 / tden


def _tail_within(tden: int, bound: float) -> bool:
    """1 / tden <= bound, compared exactly as Fraction <= float compares."""
    if not math.isfinite(bound):
        return 0.0 <= bound
    a, b = bound.as_integer_ratio()
    return b <= a * tden


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
        jmax = k
        if r != 0:
            jmax = 0
            rr = r
            while rr % p == 0:
                rr //= p
                jmax += 1
        M[r] = sum(cnt[j] * p ** j for j in range(min(jmax, k) + 1))
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
    """Singular-series value with its cutoff and certified tail bound."""

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


def sigma_euler(P: int, d: int, t: int, rel_tol: float = 1e-12) -> SigmaReport:
    """Product over primes p <= P of sigma_p, in extended precision."""
    d1 = half_dim(d)
    if P < 2:
        raise ArgumentError("P must be >= 2")
    per_prime = []
    with mpmath.workdps(50):
        prod = mpmath.mpf(1)
        for p in _primes_upto(P):
            val, l_max, tail = _sigma_prime(p, d, t, rel_tol)
            per_prime.append((p, float(val), l_max, tail))
            prod *= mpmath.mpf(val.numerator) / val.denominator
        value = float(prod)
    s = _euler_omitted_tail(P, d1) + sum(pp[3] for pp in per_prime)
    tail_bound = abs(value) * math.expm1(1.2 * s)
    return SigmaReport("euler_product", int(P), value, tail_bound, per_prime)


def sigma_remark5_product(P: int, d1: int) -> SigmaReport:
    """Product of the closed-form factors 1 + p^{1-d1} - p^{-d1} over p <= P."""
    if d1 < 3:
        raise ArgumentError("d1 must be >= 3 (d = 2 d1 > 4)")
    with mpmath.workdps(50):
        prod = mpmath.mpf(1)
        per_prime = []
        for p in _primes_upto(P):
            # (p^d1 + p - 1) / p^d1 is in lowest terms
            den = p ** d1
            num = den + p - 1
            per_prime.append((p, num / den, 1, 0.0))
            prod *= mpmath.mpf(num) / den
        value = float(prod)
    tail_bound = value * math.expm1(1.2 * _euler_omitted_tail(P, d1))
    return SigmaReport("remark5_product", int(P), value, tail_bound, per_prime)


def _primes_upto(P: int) -> list:
    """The primes p <= P, ascending, as Python ints, by Eratosthenes."""
    if P < 2:
        return []
    if P > SIEVE_CAP:
        raise CapabilityError(f"sieve to {P} beyond the cap {SIEVE_CAP}")
    sieve = np.ones(P + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(P) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.flatnonzero(sieve).tolist()


def _phi_mu_sieves(X: int):
    """Euler phi and Moebius mu on 0..X, one pass per prime p <= isqrt(X).

    rest[n] starts at n and loses every power of those p; what is left is
    1 or the one prime factor of n above isqrt(X), applied in one pass.
    """
    if X > SIEVE_CAP:
        raise CapabilityError(f"sieve to {X} beyond the cap {SIEVE_CAP}")
    phi = np.arange(X + 1, dtype=np.int64)
    mu = np.ones(X + 1, dtype=np.int64)
    rest = np.arange(X + 1, dtype=np.int32)        # SIEVE_CAP < 2^31
    for p in _primes_upto(math.isqrt(max(X, 0))):
        phi[p::p] -= phi[p::p] // p
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
        pk = p
        while pk <= X:
            rest[pk::pk] //= p
            pk *= p
    big = rest > 1
    phi[big] -= phi[big] // rest[big]
    mu[big] *= -1
    return phi, mu


def ramanujan_sums(X: int, t: int) -> np.ndarray:
    """c_q(t) for q = 1..X as exact int64, from the phi and mu sieves."""
    t = abs(int(t))
    phi, mu = _phi_mu_sieves(X)
    q = np.arange(1, X + 1, dtype=np.int64)
    # g = gcd(q, t); a t past int64 is first reduced mod each q
    tq = t if t < 2 ** 63 else np.array([t % int(v) for v in q], dtype=np.int64)
    k = q // np.gcd(q, tq)
    return mu[k] * phi[q] // phi[k]        # c_q(t) = mu(q/g) phi(q) / phi(q/g)


def sigma_dirichlet(X: int, d: int, t: int) -> SigmaReport:
    """sum_{q <= X} q^{-d} S_q(0) = sum_{q <= X} q^{-d1} c_q(t)."""
    d1 = half_dim(d)
    if X < 1:
        raise ArgumentError("X must be >= 1")
    cq = ramanujan_sums(X, t)
    q = np.arange(1, X + 1, dtype=np.int64)
    # one correctly rounded division per term while q^d1 < 2^53, as in int / int
    terms = cq.astype(float) / q.astype(float) ** d1
    value = math.fsum(terms)
    # |c_q(t)| <= phi(q) < q, so the true tail is below X^{2-d1}/(d1-2);
    # the empirical X vs X/2 fit sharpens nothing but is reported when larger.
    analytic = X ** (2 - d1) / (d1 - 2)
    fitted = abs(value - math.fsum(terms[:X // 2])) if X >= 2 else analytic
    tail_bound = max(analytic, min(fitted, 10 * analytic))
    return SigmaReport("dirichlet_sum", int(X), value, tail_bound)
