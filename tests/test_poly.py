import math
import random
import sys

import numpy as np
import pytest

from cyclofactor import ff, numth, poly, spin
from cyclofactor.errors import (BaseNotSubfield, CtxMismatch, DivByZero,
                                ImproperCoefficients, InvariantViolated,
                                NoRoot, NotIrreducible, ParseError,
                                PreconditionViolated, RootAtZero)
from cyclofactor.factor import clear_caches, factor_unity
from cyclofactor.oracle import brute_factor
from cyclofactor.poly import (Factorization, FactorEntry, Poly, QuotientRing,
                              coeff_degree, coeff_frobenius, find_root,
                              has_order,
                              parse_poly, poly_gcd, poly_order, poly_text,
                              q_spin, q_transform, rabin_irreducible)

F2 = ff.make_extension(2, 1)
F3 = ff.make_extension(3, 1)
F4 = ff.make_extension(2, 2)
F5 = ff.make_extension(5, 1)
F9 = ff.make_extension(3, 2)
F27 = ff.make_extension(3, 3)


def random_poly(ctx, deg, rng, monic=False):
    coeffs = [ctx.element_from_index(rng.randrange(ctx.order))
              for _ in range(deg + 1)]
    if monic:
        coeffs[-1] = ctx.one()
    elif coeffs[-1].is_zero():
        coeffs[-1] = ctx.one()
    return Poly.from_coeffs(ctx, coeffs)


def spun(emb, D, C):
    """spin.spin_binomials's stack as one Poly g(X^D[k]) per row of C."""
    stack, ends = spin.spin_binomials(emb, C)
    return [Poly.spread(emb.sub, stack[lo:hi], Dk)
            for Dk, lo, hi in zip(D, (0,) + ends, ends)]


def naive_pow_mod(f, e, mod):
    """f^e mod `mod` as the repeated product f * ... % mod."""
    out = Poly.one(f.ctx) % mod
    for _ in range(e):
        out = out * f % mod
    return out


class TestArithmetic:
    def test_frozen_examples(self):
        x = Poly.x(F2)
        assert (x + Poly.one(F2)) * (x + Poly.one(F2)) == parse_poly(F2, "x^2 + 1")
        g = poly_gcd(parse_poly(F5, "x^2 + 4"), parse_poly(F5, "x + 4"))
        assert g == parse_poly(F5, "x + 4")
        assert parse_poly(F3, "x^2 + 1").eval(F3.from_int(2)) == F3.from_int(2)

    def test_divmod_identity(self):
        # division runs by the monic associate of g; a monic g skips the
        # inversion.  F_{(2^31-1)^2} computes in object dtype
        rng = random.Random(10)
        big = ff.make_extension(2 ** 31 - 1, 2)
        assert big._dtype is object
        ctxs = (F3, F5, F9, ff.make_extension(2, 3), F27,
                ff.make_extension(3, 4), big)
        for ctx in ctxs:
            for _ in range(60):
                f = random_poly(ctx, rng.randrange(0, 9), rng)
                g = random_poly(ctx, rng.randrange(0, 5), rng)
                if g.is_zero():
                    continue
                for div in (g, g.monic()):
                    quo, rem = divmod(f, div)
                    assert quo * div + rem == f, (ctx, f, div)
                    assert rem.degree < div.degree

    def test_division_by_one(self):
        # a divisor of degree 0 returns at once: the quotient is a copy of
        # the dividend's rows, the remainder has none; F_{(2^31-1)^2}
        # computes in object dtype
        rng = random.Random(16)
        big = ff.make_extension(2 ** 31 - 1, 2)
        for ctx in (F5, F9, big):
            one = Poly.one(ctx).a
            c = ctx.element_from_index(2)
            for deg in (None, 0, 1, 6):
                f = Poly.zero(ctx) if deg is None else random_poly(ctx, deg, rng)
                quo, rem = poly._divmod_rows(ctx, f.a, one)
                assert np.array_equal(quo, f.a) and not np.shares_memory(quo, f.a)
                assert quo.dtype == rem.dtype == ctx._dtype
                assert rem.shape == (0, ctx.m)
                assert poly._divmod_rows(ctx, f.a, one, quot=False)[0] is None
                quo, rem = divmod(f, Poly.from_coeffs(ctx, [c]))
                assert quo == f.scaled(ctx.one() / c) and rem.is_zero()

    def test_division_by_zero(self):
        with pytest.raises(DivByZero):
            divmod(Poly.x(F3), Poly.zero(F3))

    def test_negative_power(self):
        with pytest.raises(PreconditionViolated):
            Poly.x(F3) ** -1

    def test_gcd_is_monic_common_divisor(self):
        rng = random.Random(11)
        for _ in range(40):
            f = random_poly(F5, rng.randrange(1, 5), rng)
            g = random_poly(F5, rng.randrange(1, 5), rng)
            h = random_poly(F5, rng.randrange(0, 4), rng)
            d = poly_gcd(f * h, g * h)
            assert d.is_monic()
            assert (f * h) % d == Poly.zero(F5)
            assert (g * h) % d == Poly.zero(F5)
            if not h.is_zero():
                assert d % h.monic() == Poly.zero(F5)

    def test_gcd_matches_divmod_euclid(self):
        # poly_gcd runs Euclid on coefficient rows; the reference runs it on
        # Poly.__divmod__.  F_{(2^31-1)^2} computes in object dtype
        def ref_gcd(f, g):
            while not g.is_zero():
                f, g = g, f % g
            return f.monic()

        rng = random.Random(15)
        big = ff.make_extension(2 ** 31 - 1, 2)
        for ctx in (F4, F9, ff.make_extension(2, 6), F27, big):
            zero = Poly.zero(ctx)
            assert poly_gcd(zero, zero) == zero
            c = Poly.from_coeffs(ctx, [ctx.element_from_index(2)])
            for _ in range(25):
                f = random_poly(ctx, rng.randrange(0, 7), rng)
                g = random_poly(ctx, rng.randrange(0, 7), rng)
                h = random_poly(ctx, rng.randrange(0, 4), rng)
                d = poly_gcd(f * h, g * h)
                assert d == ref_gcd(f * h, g * h), (ctx, f, g, h)
                assert d.a.dtype == ctx._dtype
                assert (f * h) % d == zero and (g * h) % d == zero
                # zero, constant, non-monic and equal arguments
                assert poly_gcd(f, zero) == poly_gcd(zero, f) == f.monic()
                assert poly_gcd(f, c) == poly_gcd(c, f) == Poly.one(ctx)
                assert poly_gcd(f.scaled(c.coeff(0)), f) == f.monic()
                assert poly_gcd(f, f) == f.monic()

    def test_ctx_mismatch(self):
        with pytest.raises(CtxMismatch):
            Poly.x(F3) + Poly.x(F5)

    def test_mul_exact_for_large_p(self):
        # a convolution coordinate sums up to (deg + 1) * m products of
        # residues near 2^58, past int64; the reference multiplies in Python
        # ints and reduces by the modulus
        rng = random.Random(19)
        p = 536870923
        for m, deg in ((1, 299), (2, 299), (3, 60), (6, 60)):
            ctx = ff.make_extension(p, m)
            f, g = (random_poly(ctx, deg, rng) for _ in range(2))
            assert (f * g).a.tolist() == ref_poly_mul(f, g)

    @pytest.mark.parametrize("p", [536870923, 2 ** 61 - 1])
    @pytest.mark.parametrize("m", [1, 2])
    def test_object_dtype_product_matches_schoolbook(self, p, m):
        # past int64 the product is one big-int Kronecker product; unequal
        # lengths and zero coefficients included
        rng = random.Random(p + m)
        ctx = ff.make_extension(p, m)
        for df, dg in ((40, 25), (25, 40), (60, 60)):
            f, g = random_poly(ctx, df, rng), random_poly(ctx, dg, rng)
            f = Poly(ctx, np.where(np.arange(df + 1)[:, None] % 7 == 3, 0, f.a))
            assert ff.exact_dtype(p, min(df, dg) * m) is object
            assert (f * g).a.tolist() == ref_poly_mul(f, g)

    def test_key_sort_order(self):
        # degree first, then serialized coefficients from the top exponent down
        ps = [parse_poly(F3, s) for s in
              ("x + 1", "x + 2", "x^2 + 1", "x^2 + x", "x", "x + 2")]
        ordered = sorted(ps, key=lambda f: f.key())
        assert [poly_text(f) for f in ordered] == [
            "x", "x + 1", "x + 2", "x + 2", "x^2 + 1", "x^2 + x"]


def ref_poly_mul(f, g):
    """Coefficient rows of f * g, multiplied in Python ints coordinate by
    coordinate and reduced by the field's modulus."""
    ctx = f.ctx
    p, m, mod = ctx.p, ctx.m, ctx.modulus
    want = [[0] * (2 * m - 1) for _ in range(f.degree + g.degree + 1)]
    for i, a in enumerate(f.a.tolist()):
        for j, b in enumerate(g.a.tolist()):
            for u in range(m):
                for v in range(m):
                    want[i + j][u + v] += a[u] * b[v]
    for row in want:
        for k in range(2 * m - 2, m - 1, -1):
            for t in range(m):
                row[k - m + t] -= row[k] * mod[t]
    return [[c % p for c in row[:m]] for row in want]


def ref_mulmod(f, g, mod, p):
    """f * g mod the monic `mod` over F_p in Python ints, ascending lists."""
    prod = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            prod[i + j] += a * b
    D = len(mod) - 1
    for k in range(len(prod) - 1, D - 1, -1):
        c = prod[k] % p
        for t in range(D):
            prod[k - D + t] -= c * mod[t]
    return [c % p for c in prod[:D]] + [0] * (D - len(prod))


class TestQuotientRing:
    # a reduction or Frobenius product sums up to D * m products of residues,
    # past int64 at p = 536870923 from D = 16 on, although the field itself
    # stores int64 there; at p = 2^61 - 1 everything takes object dtype
    LARGE_P = [536870923, 2 ** 61 - 1]

    @staticmethod
    def _random_ring(p, D, rng):
        ctx = ff.make_extension(p, 1)
        mod = random_poly(ctx, D, rng, monic=True)
        f, g = (random_poly(ctx, D - 1, rng) for _ in range(2))
        lists = [[int(c) for c in h.a[:, 0]] for h in (f, g, mod)]
        return QuotientRing(mod), f, g, lists

    @pytest.mark.parametrize("p", LARGE_P)
    def test_mul_exact_for_large_p(self, p):
        rng = random.Random(21)
        for D in (120, 300):
            ring, f, g, (fl, gl, modl) = self._random_ring(p, D, rng)
            got = ring.mul(ring.lift(f), ring.lift(g))
            assert got[:, 0].tolist() == ref_mulmod(fl, gl, modl, p)

    @pytest.mark.parametrize("p", LARGE_P)
    def test_pow_and_frob_exact_for_large_p(self, p):
        # over F_p, frob(u) = u^p; the reference powers in Python ints
        ring, f, _, (fl, _, modl) = self._random_ring(p, 120, random.Random(22))
        want, sq, e = [1] + [0] * 119, fl, p
        while e:
            if e & 1:
                want = ref_mulmod(want, sq, modl, p)
            sq, e = ref_mulmod(sq, sq, modl, p), e >> 1
        u = ring.lift(f)
        assert ring.pow(u, p)[:, 0].tolist() == want
        assert ring.frob(u)[:, 0].tolist() == want

    @staticmethod
    def _ref_frob_matrix(ring):
        """The x -> x^q matrix from D - 1 ring products: row j*m + u is the
        flattened block Y^u * X^{qj} mod f."""
        ctx, D, m = ring.ctx, ring.D, ring.ctx.m
        xq = ring.pow(ring.x(), ctx.order)
        blocks = [ring.one()]
        for _ in range(1, D):
            blocks.append(ring.mul(blocks[-1], xq))
        ys = [ring.lift(Poly.from_coeffs(ctx, [ctx.x_class() ** u]))
              for u in range(m)]
        return [ring.mul(y, b).reshape(-1).tolist() for b in blocks for y in ys]

    @pytest.mark.parametrize("p, m, D", [
        (3, 2, 1), (3, 2, 2), (3, 2, 8), (3, 2, 40),
        (2, 6, 1), (2, 6, 2), (2, 6, 8), (2, 6, 40),
        (7, 2, 1), (7, 2, 2), (7, 2, 8), (7, 2, 40),
        (536870923, 1, 120)])
    def test_frob_matrix_matches_ring_products(self, p, m, D, monkeypatch):
        # frob_matrix shifts X^q by X into the multiply-by-X^q matrix and
        # steps X^{qj} through it: no ring product past those of pow(X, q)
        ctx = ff.make_extension(p, m)
        ring = QuotientRing(random_poly(ctx, D, random.Random(D + m), monic=True))
        calls = []
        mul = QuotientRing.mul
        monkeypatch.setattr(QuotientRing, "mul",
                            lambda self, u, v: calls.append(1) or mul(self, u, v))
        F = ring.frob_matrix()
        assert len(calls) <= 2 * math.ceil(math.log2(ctx.order))
        monkeypatch.undo()
        assert F.dtype == ring._dt
        assert F.tolist() == self._ref_frob_matrix(ring)

    def test_ops_match_direct_mod(self):
        rng = random.Random(13)
        for ctx in (F3, F9, F4, F27, F5):
            for _ in range(20):
                mod = random_poly(ctx, rng.randrange(1, 6), rng, monic=True)
                ring = QuotientRing(mod)
                f = random_poly(ctx, rng.randrange(0, 8), rng)
                g = random_poly(ctx, rng.randrange(0, 8), rng)
                u, v = ring.lift(f), ring.lift(g)
                assert ring.to_poly(ring.mul(u, v)) == f * g % mod
                e = rng.randrange(0, 40)
                assert ring.to_poly(ring.pow(u, e)) == naive_pow_mod(f, e, mod)

    def test_frobenius(self):
        rng = random.Random(14)
        for ctx in (F3, F9, F27):
            mod = random_poly(ctx, 4, rng, monic=True)
            ring = QuotientRing(mod)
            for _ in range(10):
                f = random_poly(ctx, 3, rng)
                u = ring.lift(f)
                assert ring.to_poly(ring.frob(u)) == naive_pow_mod(f, ctx.order, mod)

    def test_power_is_never_its_argument(self):
        # the one power loop hands back x itself for e = 1, so vpow and
        # ring.pow must pass it a copy: writing into a power leaves the base
        rng = random.Random(31)
        for ctx in (F9, ff.make_extension(2, 6)):
            a = ctx.x_class().vec()
            ring = QuotientRing(random_poly(ctx, 4, rng, monic=True))
            u = ring.lift(random_poly(ctx, 3, rng))
            for base, power, one in ((a, ctx.vpow, ctx.vone()),
                                     (u, ring.pow, ring.one())):
                kept = base.copy()
                out = power(base, 1)
                assert np.array_equal(out, kept)
                out += 1
                assert np.array_equal(base, kept)
                assert np.array_equal(power(base, 0), one)

    def test_round_trip_and_one(self):
        ring = QuotientRing(parse_poly(F5, "x^3 + x + 1"))
        f = parse_poly(F5, "x^2 + 3")
        assert ring.to_poly(ring.lift(f)) == f
        assert ring.is_one(ring.one())
        assert not ring.is_one(ring.x())


    @pytest.mark.parametrize("p, m", [(5, 1), (3, 2), (2**61 - 1, 1)])
    def test_x_and_monomial_blocks(self, p, m):
        # x() and one(k) write the block of X^k directly, k < D; for D = 1,
        # X reduces to -f(0)
        ctx = ff.make_extension(p, m)
        for D in (1, 2, 5):
            ring = QuotientRing(random_poly(ctx, D, random.Random(D), monic=True))
            want = ring.lift(Poly.x(ctx))
            assert ring.x().dtype == want.dtype
            assert np.array_equal(ring.x(), want)
            for k in range(D):
                assert np.array_equal(ring.one(k), ring.lift(Poly.monomial(ctx, k)))


class TestFindRoot:
    def test_gcd_count_is_bounded(self, monkeypatch):
        # one trace split suffices, where sweeping the splitting elements in
        # index order took hundreds of gcds over F_{2^12}
        calls = []

        def counting_gcd(a, b):
            calls.append(a.degree)
            return poly_gcd(a, b)

        monkeypatch.setattr(poly, "poly_gcd", counting_gcd)
        for m in (12, 18):
            K = ff.make_extension(2, m)
            calls.clear()
            r = find_root([1, 1, 1], K)
            assert (r * r + r + 1).is_zero()
            assert 1 <= len(calls) <= K.m * K.p

    def test_roots_over_odd_characteristic(self):
        rng = random.Random(21)
        for K in (F9, F27, ff.make_extension(5, 3), ff.make_extension(101, 2)):
            for deg in (1, 2, 5):
                roots = {K.element_from_index(rng.randrange(K.order))
                         for _ in range(deg)}
                f = Poly.one(K)
                for r in roots:
                    f = f * Poly.from_coeffs(K, [-r, 1])
                assert find_root([f.coeff(i) for i in range(f.degree + 1)],
                                 K) in roots

    def test_rejects_rootless(self):
        with pytest.raises(NoRoot):
            find_root([1, 1, 1], F2)  # irreducible over F_2
        with pytest.raises(NoRoot):
            f = parse_poly(F3, "x^2 + 1") * parse_poly(F3, "x^2 + x + 2")
            find_root([f.coeff(i) for i in range(5)], F3)
        with pytest.raises(NoRoot):
            find_root([4], F5)
        # x^2 + 1 is irreducible for p = 3 (mod 4): refused before any of
        # the K.m * p trace splits is tried
        with pytest.raises(NoRoot):
            find_root([1, 0, 1], ff.make_extension(1000000007, 1))


class TestRabin:
    def test_against_root_search_low_degree(self):
        # degree <= 3 is irreducible exactly when there is no root
        for ctx in (F2, F3, F5):
            q = ctx.order
            for deg in (2, 3):
                for idx in range(q ** deg):
                    coeffs = []
                    t = idx
                    for _ in range(deg):
                        coeffs.append(ctx.element_from_index(t % q))
                        t //= q
                    f = Poly.from_coeffs(ctx, coeffs + [ctx.one()])
                    has_root = any(
                        f.eval(ctx.element_from_index(i)).is_zero()
                        for i in range(q))
                    assert rabin_irreducible(f) == (not has_root), poly_text(f)

    def test_known_higher_degree(self):
        assert rabin_irreducible(parse_poly(F2, "x^4 + x + 1"))
        assert not rabin_irreducible(parse_poly(F2, "x^4 + x^2 + 1"))
        assert rabin_irreducible(parse_poly(F9, "x^2 + x + [1,1]")) in (True, False)

    def test_linear(self):
        assert rabin_irreducible(Poly.x(F3))
        assert rabin_irreducible(parse_poly(F3, "x + 1"))

    def test_lex_modulus_is_first_rabin_irreducible(self):
        # the modulus search runs Rabin's test, so the reference for the
        # same lex order is the brute-force oracle: f is irreducible when it
        # splits into one factor of multiplicity 1
        for p in (2, 3, 5):
            ctx = ff.make_extension(p, 1)
            for m in range(1, 6):
                for idx in range(p ** m):
                    low = [(idx // p ** i) % p for i in range(m)]
                    f = Poly.from_coeffs(ctx, low + [1])
                    if [e.mult for e in brute_factor(f)] == [1]:
                        break
                assert ff._lex_modulus(p, m) == tuple(low + [1]), (p, m)


class TestCoefficientFrobenius:
    def test_fixed_on_base(self):
        f = parse_poly(F3, "x^2 + 2*x + 1")
        assert coeff_frobenius(f, 5, F3) == f
        assert coeff_degree(f, F3) == 1

    def test_extension_coefficients(self):
        g = F4.generator
        h = Poly.from_coeffs(F4, [g, F4.one()])  # x + g, viewed over F_2
        assert coeff_frobenius(h, 1, 2) == Poly.from_coeffs(F4, [g ** 2, F4.one()])
        assert coeff_frobenius(h, 0, 2) == h
        assert coeff_degree(h, 2) == 2
        assert coeff_degree(parse_poly(F9, "x^2 + 1"), F3) == 1

    def test_homomorphism_and_period(self):
        rng = random.Random(15)
        for _ in range(20):
            f = random_poly(F9, rng.randrange(0, 4), rng)
            g = random_poly(F9, rng.randrange(0, 4), rng)
            assert (coeff_frobenius(f * g, 1, F3)
                    == coeff_frobenius(f, 1, F3) * coeff_frobenius(g, 1, F3))
            assert coeff_frobenius(f, 2, F3) == f  # period m/e

    def test_rejects_non_subfield(self):
        with pytest.raises(BaseNotSubfield):
            coeff_degree(parse_poly(F9, "x + 1"), 2)

    def test_rejects_negative_power(self):
        with pytest.raises(PreconditionViolated):
            coeff_frobenius(parse_poly(F9, "x + 1"), -1, F3)


class TestQSpin:
    def test_frozen_example(self):
        g = F4.generator
        h = Poly.from_coeffs(F4, [-g, F4.one()])  # X - g
        s = q_spin(h, 2)
        assert s.ctx.order == 2
        assert s == parse_poly(s.ctx, "x^2 + x + 1")

    def test_trivial_base_coefficients(self):
        h = parse_poly(F5, "x + 2")
        assert q_spin(h, F5) == h

    def test_spin_is_irreducible_with_base_coefficients(self):
        rng = random.Random(16)
        K = ff.make_extension(3, 4)
        for _ in range(25):
            c = K.element_from_index(rng.randrange(1, K.order))
            h = Poly.from_coeffs(K, [-c, K.one()])
            s = q_spin(h, F3)
            assert s.ctx is F3
            assert s.degree == coeff_degree(h, F3)
            assert rabin_irreducible(s)
            assert coeff_degree(s, F3) == 1

    def test_binomial_path_matches_conjugate_product(self, monkeypatch):
        # every spin must equal multiplying the orbit out in the big field.
        # Elements of each intermediate field F_{p^k} give orbit lengths k/e
        # up to d = m/e; the ratio 0 forces the linear solve and the huge one
        # the conjugate product, whatever the orbit length.  F_{(2^31-1)^6}
        # computes in object dtype
        rng = random.Random(17)
        for p, m, e in ((2, 6, 1), (2, 6, 2), (3, 4, 2), (3, 6, 1), (2, 18, 2),
                        (1009, 10, 1), (2 ** 31 - 1, 6, 1)):
            K = ff.make_extension(p, m)
            base = ff.make_extension(p, e)
            emb = ff.embed(base, K)
            cases = []
            for k in numth.divisors(m):
                if k % e:
                    continue
                for _ in range(3):
                    c = K.element_from_index(rng.randrange(1, K.order))
                    c = c ** ((K.order - 1) // (p ** k - 1))  # norm to F_{p^k}
                    h = Poly.binomial(K, rng.randrange(1, 4), c)
                    d = coeff_degree(h, base)
                    prod = Poly.one(K)
                    for j in range(d):
                        prod = prod * coeff_frobenius(h, j, base)
                    cases.append((d, h, prod))
            assert max(d for d, _, _ in cases) == m // e
            for ratio in (0, 10 ** 9):
                monkeypatch.setattr(spin, "_SPIN_SOLVE_RATIO", ratio)
                for d, h, prod in cases:
                    s = q_spin(h, base)
                    assert s.ctx is base
                    lifted = Poly.from_coeffs(K, [emb(s.coeff(i))
                                                  for i in range(s.degree + 1)])
                    assert lifted == prod, (p, m, e, d, ratio)

    @pytest.mark.parametrize("p, m, e", [
        (2, 6, 1), (2, 6, 2), (3, 4, 2), (3, 6, 1), (1009, 10, 1),
        (2 ** 31 - 1, 6, 1)])
    def test_stacked_spins_match_conjugate_products(self, p, m, e, monkeypatch):
        # one spin_binomials call per stack of constants from every
        # intermediate field F_{p^k}, so orbit lengths 1 up to m/e sit in one
        # stack, the zero constant among them; each row must equal its own
        # conjugate product in the big field.  The ratio 0 forces the solve,
        # 10^9 the product, 1/e splits d = 1 from the rest and the default
        # splits short from long orbits.  F_{(2^31-1)^6} is object dtype
        rng = random.Random(p * m + e)
        K = ff.make_extension(p, m)
        base = ff.make_extension(p, e)
        emb = ff.embed(base, K)
        hs = [Poly.binomial(K, 2, 0)]
        for k in numth.divisors(m):
            if k % e:
                continue
            for _ in range(2):
                c = K.element_from_index(rng.randrange(1, K.order))
                c = c ** ((K.order - 1) // (p ** k - 1))  # norm to F_{p^k}
                hs.append(Poly.binomial(K, rng.randrange(1, 4), c))
        rng.shuffle(hs)
        want = []
        for h in hs:
            prod = Poly.one(K)
            for j in range(coeff_degree(h, base)):
                prod = prod * coeff_frobenius(h, j, base)
            want.append(prod)
        ds = [coeff_degree(h, base) for h in hs]
        assert min(ds) == 1 and max(ds) == m // e
        D = [h.degree for h in hs]
        C = np.array([h.a[0] for h in hs])
        # after clear_caches() the cached map's sub may only equal base
        route = ff.EmbeddingMap(base, K, emb.root)
        for ratio in (0, 1 / e, spin._SPIN_SOLVE_RATIO, 10 ** 9):
            monkeypatch.setattr(spin, "_SPIN_SOLVE_RATIO", ratio)
            spins = spun(route, D, C)
            assert len(spins) == len(hs)
            for s, prod, d in zip(spins, want, ds):
                assert s.ctx is base
                lifted = Poly.from_coeffs(K, [emb(s.coeff(i))
                                              for i in range(s.degree + 1)])
                assert lifted == prod, (p, m, e, d, ratio)

    def test_short_orbits_take_one_product_per_step(self, monkeypatch):
        # orbit lengths 1, 2, 3 and 6 over F_4 in one stack, all short: at
        # step u every row still out takes its Y + c^{q^u} in the same
        # row-wise product, so the stack takes max(d) - 1 = 5 of them, not
        # d - 1 per distinct length (8).  The same holds for the stack of
        # factor_unity(F_4, 35), whose factors have degrees 1, 2, 3 and 6
        K = ff.make_extension(2, 12)
        route = ff.EmbeddingMap(F4, K, ff.embed(F4, K).root)
        rng = random.Random(35)
        hs = []
        for k in (2, 4, 6, 12, 12, 4):
            d = 0
            while d != k // 2:
                c = K.element_from_index(rng.randrange(1, K.order))
                c = c ** ((K.order - 1) // (2 ** k - 1))  # norm to F_{2^k}
                h = Poly.binomial(K, rng.randrange(1, 4), c)
                d = coeff_degree(h, F4)
            hs.append(h)
        calls = []
        vmul_rows = ff.FieldCtx.vmul_rows

        def spy(self, a, c):  # counts the products spin_binomials takes
            if sys._getframe(1).f_code is spin.spin_binomials.__code__:
                calls.append(a.shape)
            return vmul_rows(self, a, c)

        monkeypatch.setattr(ff.FieldCtx, "vmul_rows", spy)
        spins = spun(route, [h.degree for h in hs],
                     np.array([h.a[0] for h in hs]))
        assert [s.degree for s in spins] == [
            h.degree * coeff_degree(h, F4) for h in hs]
        assert len(calls) == 5
        calls.clear()
        clear_caches()  # a cached entry would spin nothing
        fz = factor_unity(F4, 35)
        assert {e.degree for e in fz} == {1, 2, 3, 6}
        assert len(calls) == 5

    def test_solve_without_pivot_raises(self):
        # a degree below the orbit length leaves rho^d outside the span of the
        # lower powers: the Krylov matrix has no null vector
        K = ff.make_extension(3, 6)
        rho = K.x_class().vec()  # degree 6 over F_3
        with pytest.raises(InvariantViolated):
            spin._minpoly_by_solve(ff.embed(F3, K), rho, 5)

    def test_binomial_over_base_is_fixed(self):
        # X^3 - c with c in the base: the conjugate orbit of c has length 1,
        # so the spin is the binomial itself, re-expressed over the base
        for K, base in ((ff.make_extension(2, 6), F4),
                        (ff.make_extension(2, 6), F2),
                        (ff.make_extension(3, 4), F9),
                        (ff.make_extension(3, 4), F3)):
            emb = ff.embed(base, K)
            for i in range(base.order):
                c = base.element_from_index(i)
                s = q_spin(Poly.binomial(K, 3, emb(c)), base)
                assert s.ctx is base
                assert s == Poly.binomial(base, 3, c)

    def test_rejects_base_outside_the_field(self):
        # the binomial path checks its base before it looks for an embedding
        h = Poly.binomial(F9, 4, F9.x_class())
        for base in (ff.make_extension(2, 2), 2):
            with pytest.raises(BaseNotSubfield):
                q_spin(h, base)

    def test_rejects_improper(self):
        with pytest.raises(ImproperCoefficients):
            q_spin(Poly.from_coeffs(F9, [F9.one(), F9.from_int(2)]), F3)  # not monic
        with pytest.raises(ImproperCoefficients):
            q_spin(Poly.one(F9), F3)  # constant
        with pytest.raises(ImproperCoefficients):  # a coefficient outside F_3
            poly._express_over(Poly.from_coeffs(F9, [F9.x_class(), 1]), F3)


class TestOrder:
    def test_frozen_examples(self):
        assert poly_order(parse_poly(F3, "x + 2")) == 1  # root 1
        assert poly_order(parse_poly(F3, "x + 1")) == 2
        assert poly_order(parse_poly(F3, "x^2 + 1")) == 4

    def test_matches_root_order(self):
        rng = random.Random(18)
        for ctx in (F3, F5):
            for _ in range(20):
                f = random_poly(ctx, rng.randrange(1, 4), rng, monic=True)
                if f.coeff(0).is_zero() or not rabin_irreducible(f):
                    continue
                e = poly_order(f)
                K = ff.make_extension(ctx.p, ctx.m * f.degree)
                emb = ff.embed(ctx, K)
                fK = Poly.from_coeffs(K, [emb(f.coeff(i))
                                          for i in range(f.degree + 1)])
                root = next(K.element_from_index(i) for i in range(K.order)
                            if fK.eval(K.element_from_index(i)).is_zero())
                assert ff.element_order(root) == e
                assert has_order(f, e)
                assert not has_order(f, e * 2)
                assert (ctx.order ** f.degree - 1) % e == 0
                ring = QuotientRing(f)
                assert ring.is_one(ring.pow(ring.x(), e))

    def test_errors(self):
        with pytest.raises(RootAtZero):
            poly_order(Poly.x(F3))
        with pytest.raises(NotIrreducible):
            poly_order(parse_poly(F3, "x^2 + 2"))  # (x+1)(x+2)


class TestQTransform:
    def test_frozen_examples(self):
        x = Poly.x(F3)
        one = Poly.one(F3)
        f = parse_poly(F3, "x + 2")  # X - 1
        assert q_transform(f, Poly.monomial(F3, 5), one) == parse_poly(F3, "x^5 + 2")
        assert (q_transform(parse_poly(F3, "x^2 + 1"), Poly.monomial(F3, 2), one)
                == parse_poly(F3, "x^4 + 1"))
        g = parse_poly(F3, "x^2 + x")
        h = parse_poly(F3, "x + 1")
        alpha = F3.from_int(2)
        lin = Poly.from_coeffs(F3, [-alpha, F3.one()])
        assert q_transform(lin, g, h) == g - h.scaled(alpha)

    def test_degree_one_substitution(self):
        rng = random.Random(19)
        for _ in range(20):
            f = random_poly(F5, rng.randrange(1, 4), rng)
            beta = F5.element_from_index(rng.randrange(1, 5))
            out = q_transform(f, Poly.x(F5), Poly.from_coeffs(F5, [beta]))
            # h^deg * f(X/beta): evaluate both sides at a few points
            for i in range(5):
                x = F5.element_from_index(i)
                assert out.eval(x) == (beta ** f.degree) * f.eval(x / beta)

    def test_rejects_zero_denominator(self):
        with pytest.raises(DivByZero):
            q_transform(Poly.x(F3), Poly.x(F3), Poly.zero(F3))


class TestFactorizationContainer:
    def test_sorted_product_multiset(self):
        f1 = parse_poly(F3, "x + 2")
        f2 = parse_poly(F3, "x + 1")
        base = f1 * f2 * f2
        fz = Factorization(base, [FactorEntry(f2, 2, 1, 2), FactorEntry(f1, 1, 1, 1)])
        assert [poly_text(e.poly) for e in fz] == ["x + 1", "x + 2"]
        assert fz.product() == base
        assert fz.multiset() == {f1.key(): 1, f2.key(): 2}

    @pytest.mark.parametrize("p, m", [(3, 1), (3, 2), (2, 3), (1009, 2),
                                      (2**31 - 1, 1), (2**61 - 1, 1)])
    def test_entries_sort_as_their_keys(self, p, m):
        # Poly.key() builds no tuples for int64 rows but must order as the
        # tuples of the rows from the top, each from its last coordinate:
        # degrees 0 to 4 (the zero polynomial too), equal polynomials, and
        # coordinates that differ only in high positions; p = 2^31 - 1 and
        # 2^61 - 1 have object rows
        def by_rows(f):
            return f.degree, tuple(tuple(r[::-1]) for r in f.a[::-1].tolist())

        ctx = ff.make_extension(p, m)
        rng = random.Random(p * m)
        polys = [Poly.zero(ctx)]
        for _ in range(60):
            f = random_poly(ctx, rng.randrange(5), rng)
            polys += [f] * rng.randrange(1, 3)
            arr = f.a.copy()
            arr[-1, -1] = (arr[-1, -1] + 1) % p
            polys.append(Poly(ctx, poly._trim_rows(arr)))
        rng.shuffle(polys)
        entries = [FactorEntry(f, 1, f.degree, None) for f in polys]
        got = [e.poly for e in Factorization(Poly.one(ctx), entries)]
        assert [by_rows(f) for f in got] == sorted(map(by_rows, polys))
        for f, g in zip(polys, polys[1:]):
            assert (f == g) == (by_rows(f) == by_rows(g)) == (f.key() == g.key())
            assert f != g or hash(f) == hash(g)

    def test_scale(self):
        f1 = parse_poly(F5, "x + 1")
        base = f1.scaled(F5.from_int(3))
        fz = Factorization(base, [FactorEntry(f1, 1, 1, 4)], scale=F5.from_int(3))
        assert fz.product() == base

    @pytest.mark.parametrize("ctx", [F5, F9])
    def test_tree_product_matches_sequential(self, ctx):
        # 0 to 9 factors (odd counts leave one unpaired per level), with
        # multiplicities up to 3 and a scale other than 1
        rng = random.Random(ctx.order)
        for count in range(10):
            entries = [FactorEntry(random_poly(ctx, rng.randrange(1, 6), rng,
                                               monic=True), rng.randrange(1, 4), 0, None)
                       for _ in range(count)]
            scale = ctx.element_from_index(rng.randrange(2, ctx.order))
            fz = Factorization(Poly.one(ctx), entries, scale=scale)
            want = Poly.one(ctx)
            for e in fz:
                want = want * e.poly ** e.mult
            want = want.scaled(scale)
            got = fz.product()
            assert got == want and got.a.tobytes() == want.a.tobytes(), count


class TestTextFormat:
    def test_round_trip(self):
        rng = random.Random(20)
        for ctx in (F2, F3, F5, F9, F4):
            for _ in range(30):
                f = random_poly(ctx, rng.randrange(0, 6), rng)
                assert parse_poly(ctx, poly_text(f)) == f
        assert poly_text(Poly.zero(F3)) == "0"
        assert parse_poly(F3, "0") == Poly.zero(F3)

    def test_extension_coefficients(self):
        g = F9.generator
        f = Poly.from_coeffs(F9, [g, F9.one()])
        s = poly_text(f)
        assert "[" in s
        assert parse_poly(F9, s) == f

    def test_parse_errors(self):
        for bad in ("x^", "x +", "2x", "x^-1", "y + 1", "x^2 + [1]", ""):
            with pytest.raises(ParseError):
                parse_poly(F9, bad)
