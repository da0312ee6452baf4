import math
import random

import pytest

from cyclofactor import ff, oracle
from cyclofactor.errors import DegreeGuard, DivByZero
from cyclofactor.factor import factor_cyclotomic, factor_unity
from cyclofactor.oracle import OracleConfig, brute_factor, is_irreducible
from cyclofactor.poly import Poly, parse_poly, poly_gcd

F2 = ff.make_extension(2, 1)
F3 = ff.make_extension(3, 1)
F4 = ff.make_extension(2, 2)
F5 = ff.make_extension(5, 1)
F9 = ff.make_extension(3, 2)


def random_monic(ctx, deg, rng):
    coeffs = [ctx.element_from_index(rng.randrange(ctx.order))
              for _ in range(deg)]
    coeffs.append(ctx.one())
    return Poly.from_coeffs(ctx, coeffs)


class TestIsIrreducible:
    def test_knowns(self):
        assert is_irreducible(parse_poly(F3, "x^2 + 1"))
        assert not is_irreducible(parse_poly(F3, "x^2 + 2"))
        assert is_irreducible(Poly.x(F3))

    def test_degree_guard(self):
        cfg = OracleConfig(max_total_degree=4)
        with pytest.raises(DegreeGuard):
            is_irreducible(parse_poly(F3, "x^5 + 1"), cfg)


class TestBruteFactorKnowns:
    def test_quadratic_split(self):
        fz = brute_factor(parse_poly(F3, "x^2 + 2"))
        assert {poly.key() for poly, in map(lambda e: (e.poly,), fz.factors)} == {
            parse_poly(F3, "x + 1").key(),
            parse_poly(F3, "x + 2").key(),
        }
        assert all(e.mult == 1 for e in fz.factors)

    def test_equal_degree_split(self):
        fz = brute_factor(parse_poly(F3, "x^4 + 1"))
        assert fz.multiset() == {
            parse_poly(F3, "x^2 + x + 2").key(): 1,
            parse_poly(F3, "x^2 + 2*x + 2").key(): 1,
        }

    def test_matches_unity_formula(self):
        base = Poly.binomial(F3, 8, F3.one())
        assert brute_factor(base).multiset() == factor_unity(F3, 8).multiset()


class TestDistinctDegree:
    def test_block_sharing_degrees(self):
        # isqrt(26) = 5: degrees 1, 3, 4, 4 and 5 fall in the first block of
        # the distinct-degree search, 9 in the second
        rng = random.Random(26)
        irr = []
        for deg in (1, 3, 4, 4, 5, 9):
            while True:
                f = random_monic(F9, deg, rng)
                if is_irreducible(f) and f not in irr:
                    irr.append(f)
                    break
        base = Poly.one(F9)
        for f in irr:
            base = base * f
        fz = brute_factor(base)
        assert fz.multiset() == {f.key(): 1 for f in irr}

    def test_one_gcd_per_block(self, monkeypatch):
        # an irreducible of degree 60 over F_4 (ord_1037(4) = 60): one gcd per
        # d would take 30, blocks of isqrt(60) = 7 take 5
        f = factor_cyclotomic(F4, 1037).factors[0].poly
        assert f.degree == 60
        calls = []

        def counting_gcd(a, b):
            calls.append(1)
            return poly_gcd(a, b)

        monkeypatch.setattr(oracle, "poly_gcd", counting_gcd)
        assert oracle._distinct_degree(f) == [(f, 60)]
        assert 0 < len(calls) <= 2 * math.isqrt(60)


class TestMultiplicities:
    def test_square(self):
        lin = parse_poly(F3, "x + 2")
        fz = brute_factor(lin * lin)
        assert fz.multiset() == {lin.key(): 2}

    def test_char_p_power(self):
        # X^p - a = (X - a^{1/p})^p in characteristic p
        for ctx, a in ((F3, F3.from_int(2)), (F9, F9.generator)):
            base = Poly.binomial(ctx, ctx.p, a)
            fz = brute_factor(base)
            assert len(fz.factors) == 1
            entry = fz.factors[0]
            assert entry.mult == ctx.p
            assert entry.poly.degree == 1
            assert fz.product() == base

    def test_mixed_multiplicities(self):
        f1 = parse_poly(F5, "x + 1")
        f2 = parse_poly(F5, "x^2 + 2")
        base = f1 * f1 * f1 * f2 * f2
        fz = brute_factor(base)
        assert fz.multiset() == {f1.key(): 3, f2.key(): 2}


class TestProperties:
    def test_reconstruction_and_irreducibility(self):
        rng = random.Random(7)
        for ctx in (F2, F3, F4, F5, F9):
            for _ in range(25):
                f = random_monic(ctx, rng.randrange(1, 9), rng)
                fz = brute_factor(f)
                assert fz.product() == f
                total = 0
                for e in fz.factors:
                    assert is_irreducible(e.poly)
                    assert e.poly.lead() == ctx.one()
                    assert e.degree == e.poly.degree
                    total += e.degree * e.mult
                assert total == f.degree

    def test_forced_repeats(self):
        rng = random.Random(8)
        for _ in range(15):
            g = random_monic(F3, rng.randrange(1, 4), rng)
            h = random_monic(F3, rng.randrange(1, 4), rng)
            base = g * g * h
            fz = brute_factor(base)
            assert fz.product() == base
            assert all(is_irreducible(e.poly) for e in fz.factors)

    def test_nonmonic_scale(self):
        f = parse_poly(F5, "3*x^2 + 3")
        fz = brute_factor(f)
        assert fz.scale == F5.from_int(3)
        assert fz.product() == f
        assert all(e.poly.lead() == F5.one() for e in fz.factors)

    def test_seed_determinism(self):
        rng = random.Random(9)
        for _ in range(10):
            f = random_monic(F5, rng.randrange(2, 9), rng)
            out = [
                brute_factor(f, OracleConfig(rng_seed=s)).multiset()
                for s in (0, 1, 1234)
            ]
            assert out[0] == out[1] == out[2]
            keys = [e.poly.key() for e in brute_factor(f).factors]
            assert keys == sorted(keys)


class TestGuards:
    def test_zero_polynomial(self):
        with pytest.raises(DivByZero):
            brute_factor(Poly.zero(F3))

    def test_degree_guard(self):
        cfg = OracleConfig(max_total_degree=6)
        with pytest.raises(DegreeGuard):
            brute_factor(Poly.binomial(F3, 7, F3.one()), cfg)
