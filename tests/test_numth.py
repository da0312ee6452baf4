import math
import random

import pytest

from cyclofactor import ff, numth
from cyclofactor.errors import (BaseNotSubfield, NotCoprime, NotPrime,
                                ParseError, PNotDividing, PreconditionViolated)
from cyclofactor.poly import Poly, q_spin


class TestFactorize:
    def test_known_values(self):
        assert numth.factorize(1).factors == {}
        assert numth.factorize(12).factors == {2: 2, 3: 1}
        assert numth.factorize(97).factors == {97: 1}
        assert numth.factorize(2 ** 10).factors == {2: 10}

    def test_round_trip(self):
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randrange(1, 10 ** 9)
            fz = numth.factorize(n)
            assert fz.value() == n
            assert all(numth.is_prime(p) for p in fz.primes())

    def test_large_cofactor(self):
        # beyond the trial-division bound, exercised through Pollard rho
        n = (10 ** 9 + 7) * (10 ** 9 + 9)
        assert numth.factorize(n).factors == {10 ** 9 + 7: 1, 10 ** 9 + 9: 1}

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            numth.factorize(0)

    def test_argument_checks_are_typed(self):
        bad = [(numth.factorize, 0), (numth.radical, 0), (numth.p_adic, 0, 2),
               (numth.euler_phi, 0), (numth.divisors, 0), (numth.ord_mod, 2, 0),
               (numth.split_by_order, 0, 1), (numth.coset_table, 3, 0),
               (numth.beyl_valuation, 5, 2, 0), (numth.cyclotomic_value, 0, 2)]
        for fn, *args in bad:
            with pytest.raises(PreconditionViolated):
                fn(*args)


class TestPrimality:
    # strong pseudoprimes to the first 12 prime bases, at and above the last
    # proven Miller-Rabin bound
    PSEUDOPRIMES = [
        (318665857834031151167461, 399165290221, 798330580441),
        (3317044064679887385961981, 1287836182261, 2575672364521),
    ]

    @pytest.mark.parametrize("n, a, b", PSEUDOPRIMES)
    def test_pseudoprimes_beyond_the_bound_are_composite(self, n, a, b):
        assert a * b == n
        assert all(numth._strong_probable_prime(n, t) for t in numth._SMALL_PRIMES)
        assert not numth.is_prime(n)
        with pytest.raises(NotPrime):
            ff.make_extension(n, 1)

    def test_primes_beyond_the_bound(self):
        for k in (89, 107, 127, 521):  # Mersenne primes
            assert numth.is_prime(2 ** k - 1)
        for k in (83, 101, 131):  # composite Mersenne numbers
            assert not numth.is_prime(2 ** k - 1)
        p, q = 2 ** 89 - 1, 2 ** 107 - 1
        assert not numth.is_prime(p * q)
        assert not numth.is_prime(p * p)

    def test_strong_lucas_pseudoprimes(self):
        # the strong Lucas test alone, with Selfridge's parameters, passes
        # exactly the primes and these composites below 10^5 (OEIS A217255);
        # every one of them fails the strong test to base 2
        lucas = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309,
                 58519, 75077, 97439]
        got = [n for n in range(41, 10 ** 5, 2)
               if all(n % t for t in numth._SMALL_PRIMES)
               and numth._strong_lucas_probable_prime(n) != numth.is_prime(n)]
        assert got == lucas
        assert not any(numth._strong_probable_prime(n, 2) for n in lucas)


class TestPrimePower:
    SEMIPRIME = 100000000000000001380000000000000004437

    def test_exact_roots_tell_prime_powers(self):
        p = 2 ** 61 - 1
        for q, want in ((2, (2, 1)), (4, (2, 2)), (3 ** 12, (3, 12)),
                        (10007, (10007, 1)), (p, (p, 1)), (p * p, (p, 2)),
                        (2 ** 127, (2, 127))):
            assert numth.prime_power(q) == want, q
        for q in (1, 6, 10 ** 12, self.SEMIPRIME):
            assert numth.prime_power(q) is None, q

    def test_composite_order_is_refused_without_factoring(self, monkeypatch):
        # a 39-digit semiprime would keep Brent's rho busy for minutes
        def forbidden(n):
            raise AssertionError(f"factorize({n}) called")

        F4 = ff.make_extension(2, 2)
        monkeypatch.setattr(numth, "factorize", forbidden)
        with pytest.raises(ParseError):
            ff.parse_field(str(self.SEMIPRIME))
        with pytest.raises(BaseNotSubfield):
            q_spin(Poly.binomial(F4, 3, 1), self.SEMIPRIME)


class TestSmallArithmetic:
    def test_radical(self):
        assert numth.radical(1) == 1
        assert numth.radical(8) == 2
        assert numth.radical(360) == 30

    def test_p_adic(self):
        assert numth.p_adic(24, 2) == 3
        assert numth.p_adic(24, 3) == 1
        assert numth.p_adic(7, 5) == 0
        with pytest.raises(NotPrime):
            numth.p_adic(24, 4)

    def test_euler_phi_sum_identity(self):
        for n in range(1, 200):
            assert sum(numth.euler_phi(d) for d in numth.divisors(n)) == n

    def test_mobius_sum_identity(self):
        for n in range(1, 200):
            total = sum(numth.mobius(d) for d in numth.divisors(n))
            assert total == (1 if n == 1 else 0)

    def test_divisors(self):
        assert numth.divisors(1) == [1]
        assert numth.divisors(12) == [1, 2, 3, 4, 6, 12]
        assert all(12 % d == 0 for d in numth.divisors(12))


class TestOrdMod:
    def test_known(self):
        assert numth.ord_mod(3, 8) == 2
        assert numth.ord_mod(2, 7) == 3
        assert numth.ord_mod(3, 1) == 1
        assert numth.ord_mod(1, 5) == 1

    def test_is_the_minimum(self):
        rng = random.Random(2)
        for _ in range(100):
            n = rng.randrange(2, 500)
            m = rng.randrange(1, n)
            if math.gcd(m, n) != 1:
                continue
            t = numth.ord_mod(m, n)
            assert pow(m, t, n) == 1
            assert all(pow(m, u, n) != 1 for u in range(1, t))

    def test_rejects_non_coprime(self):
        with pytest.raises(NotCoprime):
            numth.ord_mod(2, 8)


class TestOrderSearch:
    # the predicate t % r == 0 holds exactly on the multiples of r
    N = 2 ** 5 * 3 ** 3 * 7

    def test_least_order_finds_every_divisor(self):
        primes = numth.factorize(self.N).primes()
        for r in numth.divisors(self.N):
            got = numth.least_order(self.N, primes, lambda t, r=r: t % r == 0)
            assert got == r

    def test_is_exact_order(self):
        for r in numth.divisors(self.N):
            def pred(t, r=r):
                return t % r == 0
            assert numth.is_exact_order(r, pred)
            assert not numth.is_exact_order(2 * r, pred)
            for ell in numth.factorize(r).primes():
                assert not numth.is_exact_order(r // ell, pred)

    def test_is_exact_order_stops_at_first_hit(self):
        asked = []

        def pred(t):
            asked.append(t)
            return t % 105 == 0

        assert not numth.is_exact_order(210, pred)
        assert asked == [210, 105]


class TestSplitByOrder:
    def test_split_properties(self):
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randrange(1, 2000)
            e = rng.randrange(1, 60)
            n1, n2 = numth.split_by_order(n, e)
            assert n1 * n2 == n
            assert math.gcd(n2, e) == 1
            for p in numth.factorize(n1).primes():
                assert e % p == 0

    def test_known(self):
        assert numth.split_by_order(12, 2) == (4, 3)
        assert numth.split_by_order(12, 6) == (12, 1)
        assert numth.split_by_order(35, 2) == (1, 35)


class TestCosetTable:
    def test_partition(self):
        for q, d in [(3, 8), (2, 15), (5, 12), (9, 20), (13, 47)]:
            ct = numth.coset_table(q, d)
            flat = sorted(x for c in ct.cosets for x in c)
            assert flat == list(range(d))
            for c in ct.cosets:
                assert {x * q % d for x in c} == set(c)  # closed under *q
            assert ct.reps == tuple(min(c) for c in ct.cosets)

    @pytest.mark.parametrize("q, d, u", [(3, 8, 1), (5, 12, 7), (2, 15, 4),
                                         (13, 4, 2), (9, 20, 11), (7, 4, 3)])
    def test_affine_orbits(self, q, d, u):
        # the orbits of i -> i q + u mod d, against a partition built by
        # following each i until it comes back
        orbits = set()
        for i in range(d):
            orbit, j = {i}, (i * q + u) % d
            while j != i:
                orbit.add(j)
                j = (j * q + u) % d
            orbits.add(tuple(sorted(orbit)))
        ct = numth.coset_table(q, d, u)
        assert set(ct.cosets) == orbits and len(ct.cosets) == len(orbits)
        assert ct.reps == tuple(min(c) for c in ct.cosets)
        assert list(ct.reps) == sorted(ct.reps)
        assert numth.coset_table(q, d, u) is ct  # cached

    def test_trivial_modulus(self):
        ct = numth.coset_table(5, 1)
        assert ct.cosets == ((0,),) and ct.reps == (0,)

    def test_rejects_non_coprime(self):
        with pytest.raises(NotCoprime):
            numth.coset_table(3, 9)


class TestBeylValuation:
    def test_against_direct_valuation(self):
        for q in range(2, 14):
            for p in numth.factorize(q - 1).primes() if q > 2 else []:
                for m in range(1, 13):
                    assert (numth.beyl_valuation(q, p, m)
                            == numth.p_adic(q ** m - 1, p)), (q, p, m)

    def test_preconditions(self):
        with pytest.raises(PNotDividing):
            numth.beyl_valuation(5, 3, 2)
        with pytest.raises(NotPrime):
            numth.beyl_valuation(5, 4, 2)


class TestFactoredPowerMinusOne:
    def test_value_and_primality(self):
        for p, m in [(2, 10), (3, 8), (5, 6), (13, 12), (7, 11)]:
            fz = numth.factored_power_minus_one(p, m)
            assert fz.value() == p ** m - 1
            assert all(numth.is_prime(x) for x in fz.primes())

    def test_cyclotomic_value(self):
        assert numth.cyclotomic_value(1, 2) == 1
        assert numth.cyclotomic_value(6, 2) == 3
        assert numth.cyclotomic_value(4, 3) == 10
