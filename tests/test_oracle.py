import random
import sys
import threading

import pytest

from cyclofactor import ff, oracle
from cyclofactor.errors import DegreeGuard, DivByZero, InvariantViolated
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

    def test_constant(self):
        # a nonzero constant has no squarefree part of positive degree: no
        # factors, and the constant is the scale
        for ctx, i in ((F3, 2), (F9, 5)):
            c = ctx.element_from_index(i)
            f = Poly.from_coeffs(ctx, [c])
            fz = brute_factor(f)
            assert len(fz) == 0
            assert fz.scale == c
            assert fz.product() == f

    def test_matches_unity_formula(self):
        base = Poly.binomial(F3, 8, F3.one())
        assert brute_factor(base).multiset() == factor_unity(F3, 8).multiset()


class TestSplitting:
    def test_block_sharing_degrees(self):
        # degrees 1, 3, 4, 4, 5 and 9: two factors of one degree next to
        # distinct ones
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

    def test_irreducible_takes_no_split_gcd(self, monkeypatch):
        # an irreducible of degree 60 over F_4 (ord_1037(4) = 60): the null
        # space of Q - I has dimension m = 2, so no gcd runs after the
        # squarefree step
        f = factor_cyclotomic(F4, 1037).factors[0].poly
        assert f.degree == 60
        callers = []

        def counting_gcd(a, b):
            callers.append(sys._getframe(1).f_code.co_name)
            return poly_gcd(a, b)

        monkeypatch.setattr(oracle, "poly_gcd", counting_gcd)
        fz = brute_factor(f)
        assert fz.multiset() == {f.key(): 1}
        assert callers and set(callers) == {"_squarefree_parts"}

    @pytest.mark.parametrize("ctx, n", [(F3, 8), (F4, 15)])
    def test_split_stalls_into_an_error(self, monkeypatch, ctx, n):
        # a constant rng draws v = 0 every round, which splits nothing (odd q
        # and the trace path): the round bound turns that into an error
        # naming r and the unsplit piece, instead of an endless loop
        r = len(factor_unity(ctx, n))
        monkeypatch.setattr(random.Random, "randrange", lambda self, *a, **k: 0)
        out = {}

        def work():
            try:
                brute_factor(Poly.binomial(ctx, n, ctx.one()))
            except InvariantViolated as exc:
                out["error"] = str(exc)

        worker = threading.Thread(target=work, daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert out["error"] == (f"1 of the r = {r} factors after"
                                f" {86 + 3 * r.bit_length()} rounds;"
                                f" open pieces of degree {n}")


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


def distinct_irreducibles(ctx, degrees, rng):
    """Distinct monic irreducibles of the given degrees, checked by Rabin's
    test (is_irreducible), independently of brute_factor."""
    out = []
    for deg in degrees:
        while True:
            f = random_monic(ctx, deg, rng)
            if f not in out and is_irreducible(f):
                out.append(f)
                break
    return out


def product(ctx, polys):
    out = Poly.one(ctx)
    for f in polys:
        out = out * f
    return out


class TestBerlekampProducts:
    # F_2, F_4 and F_8 take the trace path with m = 1, 2 and 3
    FIELDS = [(2, 1), (2, 2), (2, 3), (3, 2), (5, 2), (7, 2), (1009, 1)]
    # ten or more factors of one degree: the smallest degree with that many
    # irreducibles to draw from
    SAME_DEGREE = {2: 7, 4: 3, 8: 2, 9: 2, 25: 1, 49: 1, 1009: 1}

    @pytest.mark.parametrize("p, m", FIELDS)
    @pytest.mark.parametrize("shape", ["single", "same_degree", "mixed"])
    def test_product_comes_back_exactly(self, p, m, shape):
        ctx = ff.make_extension(p, m)
        rng = random.Random(f"berlekamp:{p}:{m}:{shape}")
        degrees = {
            "single": (9,),
            "same_degree": (self.SAME_DEGREE[ctx.order],) * 10,
            "mixed": (1, 2, 3, 3, 4, 6),
        }[shape]
        irr = distinct_irreducibles(ctx, degrees, rng)
        fz = brute_factor(product(ctx, irr))
        assert fz.multiset() == {f.key(): 1 for f in irr}

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n", [63, 85, 255])
    def test_unity_matches_formula(self, m, n):
        ctx = ff.make_extension(2, m)
        base = Poly.binomial(ctx, n, ctx.one())
        assert brute_factor(base).multiset() == factor_unity(ctx, n).multiset()

    @pytest.mark.parametrize("p", [2**61 - 1, 1518500213])
    def test_exact_at_large_p(self, p):
        # p = 2^61 - 1 keeps coordinates in object dtype.  p = 1518500213 is
        # the largest prime whose field keeps them in int64, yet five
        # products of residues can pass 2^63, and the elimination of the
        # 21 x 21 matrix Q - I subtracts up to 16 from one entry: it runs in
        # the dtype that Q's size asks for
        ctx = ff.make_extension(p, 1)
        irr = distinct_irreducibles(ctx, (2, 3, 3, 5, 8), random.Random(61))
        fz = brute_factor(product(ctx, irr))
        assert fz.multiset() == {f.key(): 1 for f in irr}


class TestGuards:
    def test_zero_polynomial(self):
        with pytest.raises(DivByZero):
            brute_factor(Poly.zero(F3))

    def test_degree_guard(self):
        cfg = OracleConfig(max_total_degree=6)
        with pytest.raises(DegreeGuard):
            brute_factor(Poly.binomial(F3, 7, F3.one()), cfg)
