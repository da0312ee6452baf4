"""Integer-side machinery.

Factorization, radicals, p-adic valuations, multiplicative orders, the
n = n1*n2 split along the primes of an auxiliary order, totients, divisor
lists and q-cyclotomic coset tables.  Everything here is a pure function on
plain integers; all factor-based routines go through :func:`factorize`, and
prime_power tells p^e by exact roots, so a composite q is never factored.
is_prime is Miller-Rabin on proven witness sets below 3.2e23 and BPSW above.

least_order and is_exact_order are the one order search for every group:
ord_mod, element orders in ff, polynomial orders in poly and factor orders
in factor each hand them their own "x^t = 1" predicate and prime source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import NotCoprime, NotPrime, PNotDividing, PreconditionViolated

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]

# Deterministic Miller-Rabin witness sets, (bound, bases): below each bound
# the bases prove primality (the last row: Sorenson-Webster 2017).  Beyond
# the last bound is_prime runs BPSW.
_MR_SETS = [
    (341531, [9345883071009581737]),
    (1050535501, [336781006125, 9639812373923155]),
    (350269456337, [4230279247111683200, 14694767155120705706, 16641139526367750375]),
    (3825123056546413051, [2, 3, 5, 7, 11, 13, 17, 19, 23]),
    (318665857834031151167461, [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]),
]


def is_prime(n: int) -> bool:
    """Primality: Miller-Rabin on proven witness sets for n < 3.2e23, and
    above that BPSW (Baillie-Wagstaff 1980), a strong test to base 2 plus a
    strong Lucas test, which no known composite passes."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    for bound, bases in _MR_SETS:
        if n < bound:
            return all(_strong_probable_prime(n, a) for a in bases)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


@lru_cache(maxsize=4096)
def prime_power(q: int) -> tuple[int, int] | None:
    """(p, e) with q = p^e for a prime p, else None, with no factoring: the
    exact integer k-th root of q for each k <= log2 q, tested by is_prime."""
    for k in range(1, max(q, 1).bit_length()):
        r = 1 << -(-q.bit_length() // k)  # >= q^(1/k); Newton from above
        while (y := ((k - 1) * r + q // r ** (k - 1)) // k) < r:
            r = y
        if r ** k == q and is_prime(r):
            return r, k
    return None


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin round: odd n > 2 is a strong probable prime to base a."""
    a %= n
    if a == 0:
        return True
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd n > 2 with no
    prime factor below 40.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4.  With n + 1 = d * 2^s, d odd, n passes when U_d = 0 or
    V_{d * 2^r} = 0 for some r < s (mod n).  A square never has such a D,
    so it is rejected first.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # gcd(D, n) > 1, and |D| < n here
        D = -D - 2 if D > 0 else -D + 2
    P, Q = 1, (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x: int) -> int:
        return (x + n if x % 2 else x) // 2 % n

    # U_k, V_k and Q^k from k = 1 along the bits of d
    U, V, Qk = 1, P, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(P * U + V), half(D * U + P * V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _brent_rho(n: int) -> int:
    """Find a nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1  # rare cycle degeneracy; restart with a new increment


@dataclass(frozen=True)
class IntFactorization:
    """Prime factorization as an immutable prime -> exponent map."""

    factors: dict[int, int] = field(default_factory=dict)

    def value(self) -> int:
        out = 1
        for p, e in self.factors.items():
            out *= p ** e
        return out

    def primes(self) -> list[int]:
        return sorted(self.factors)

    def radical(self) -> int:
        return math.prod(self.primes())

    def divisor_list(self) -> list[int]:
        divs = [1]
        for p, e in self.factors.items():
            divs = [d * p ** i for d in divs for i in range(e + 1)]
        return sorted(divs)


def _factor_into(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _brent_rho(n)
    _factor_into(d, out)
    _factor_into(n // d, out)


@lru_cache(maxsize=4096)
def factorize(n: int) -> IntFactorization:
    """Full prime factorization: trial division to 10^6, then Pollard rho."""
    if n < 1:
        raise PreconditionViolated("factorize expects n >= 1")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # wheel over numbers coprime to 30
    f = 7
    incs = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n and f < 10 ** 6:
        if n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        else:
            f += incs[i]
            i = (i + 1) % 8
    if n > 1:
        if f * f > n:
            out[n] = out.get(n, 0) + 1
        else:
            _factor_into(n, out)
    return IntFactorization(dict(sorted(out.items())))


def radical(n: int) -> int:
    """Product of the distinct primes of n; radical(1) = 1."""
    if n < 1:
        raise PreconditionViolated("radical expects n >= 1")
    return factorize(n).radical()


def p_adic(n: int, p: int) -> int:
    """Exact exponent of the prime p in n."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if n == 0:
        raise PreconditionViolated("p_adic expects n != 0")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def euler_phi(n: int) -> int:
    if n < 1:
        raise PreconditionViolated("euler_phi expects n >= 1")
    out = 1
    for p, e in factorize(n).factors.items():
        out *= (p - 1) * p ** (e - 1)
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n in ascending order."""
    if n < 1:
        raise PreconditionViolated("divisors expects n >= 1")
    return factorize(n).divisor_list()


def mobius(n: int) -> int:
    fz = factorize(n)
    if any(e > 1 for e in fz.factors.values()):
        return 0
    return -1 if len(fz.factors) % 2 else 1


def ord_mod(m: int, n: int) -> int:
    """Multiplicative order of m modulo n.

    Computed by dividing primes out of phi(n), never by exhaustive powering.
    """
    if n < 1:
        raise PreconditionViolated("ord_mod expects n >= 1")
    if math.gcd(m, n) != 1:
        raise NotCoprime(f"gcd({m}, {n}) != 1")
    m %= n
    t = euler_phi(n)
    return least_order(t, factorize(t).primes(), lambda e: pow(m, e, n) == 1)


def least_order(N: int, primes, is_one) -> int:
    """Least t | N with is_one(t), for is_one true exactly on the multiples
    of t and on N; each of N's `primes` is divided out while is_one holds."""
    t = N
    for ell in primes:
        while t % ell == 0 and is_one(t // ell):
            t //= ell
    return t


def is_exact_order(d: int, is_one) -> bool:
    """is_one(d) holds and is_one(d/l) fails for every prime l | d; stops at
    the first l where it holds, so a scan pays the full check only on a hit."""
    return is_one(d) and not any(is_one(d // ell) for ell in factorize(d).primes())


def split_by_order(n: int, e: int) -> tuple[int, int]:
    """Split n = n1*n2 with rad(n1) | rad(e) and gcd(n2, e) = 1."""
    if n < 1 or e < 1:
        raise PreconditionViolated("split_by_order expects n, e >= 1")
    n1 = 1
    n2 = n
    g = math.gcd(n2, e)
    while g > 1:
        n1 *= g
        n2 //= g
        g = math.gcd(n2, g)
    return n1, n2


@dataclass(frozen=True)
class CosetTable:
    """Orbits of i -> i q + u modulo d, the q-cyclotomic cosets for u = 0,
    with smallest-member representatives."""

    q: int
    d: int
    cosets: tuple[tuple[int, ...], ...]
    reps: tuple[int, ...]


@lru_cache(maxsize=4096)
def coset_table(q: int, d: int, u: int = 0) -> CosetTable:
    """Partition {0,…,d−1} into orbits of i -> i*q + u mod d, a permutation
    for gcd(q, d) = 1.  Cached: the table is frozen tuples, so every caller
    of one (q, d, u) holds one."""
    if d < 1:
        raise PreconditionViolated("coset_table expects d >= 1")
    if math.gcd(q, d) != 1:
        raise NotCoprime(f"gcd({q}, {d}) != 1")
    seen = [False] * d
    cosets = []
    reps = []
    for i in range(d):
        if seen[i]:
            continue
        orbit = []
        j = i
        while not seen[j]:
            seen[j] = True
            orbit.append(j)
            j = (j * q + u) % d
        cosets.append(tuple(sorted(orbit)))
        reps.append(i)  # ascending scan makes i the smallest member
    return CosetTable(q, d, tuple(cosets), tuple(reps))


def beyl_valuation(q: int, p: int, m: int) -> int:
    """v_p(q^m - 1) for a prime p | q-1, by the valuation lemma's case split."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if q < 2 or m < 1:
        raise PreconditionViolated("beyl_valuation expects q >= 2, m >= 1")
    if (q - 1) % p != 0:
        raise PNotDividing(f"{p} does not divide {q} - 1")
    if p != 2:
        return p_adic(q - 1, p) + p_adic(m, p)
    if m % 2 == 1:
        return p_adic(q - 1, 2)
    return p_adic(q - 1, 2) + p_adic(q + 1, 2) + p_adic(m, 2) - 1


def cyclotomic_value(d: int, x: int) -> int:
    """Value of the d-th cyclotomic polynomial at the integer x >= 2.

    Moebius product of (x^{d/t} - 1)^{mu(t)}; exact integer division.
    """
    if d < 1 or x < 2:
        raise PreconditionViolated("cyclotomic_value expects d >= 1, x >= 2")
    num = 1
    den = 1
    for t in divisors(d):
        mu = mobius(t)
        if mu == 1:
            num *= x ** (d // t) - 1
        elif mu == -1:
            den *= x ** (d // t) - 1
    return num // den


@lru_cache(maxsize=512)
def _factored_cyclotomic_value(d: int, x: int) -> IntFactorization:
    return factorize(cyclotomic_value(d, x))


@lru_cache(maxsize=512)
def factored_power_minus_one(p: int, m: int) -> IntFactorization:
    """Prime factorization of p^m - 1, split along cyclotomic values first.

    The split keeps the numbers handed to Pollard rho small and lets towers
    over the same characteristic share work through the cache.
    """
    out: dict[int, int] = {}
    for d in divisors(m):
        for prime, e in _factored_cyclotomic_value(d, p).factors.items():
            out[prime] = out.get(prime, 0) + e
    return IntFactorization(dict(sorted(out.items())))
