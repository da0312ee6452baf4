import math
import random
import sys
import threading

import numpy as np
import pytest

from cyclofactor import ff, numth, poly
from cyclofactor.errors import (CtxMismatch, DegreeGuard, DegreeMismatch,
                                InvariantViolated, NoRoot, NotASubfield,
                                NotPrime, OrderNotDividing,
                                ParseError, PreconditionViolated,
                                ReducibleModulus, ZeroElement)


def enumerated_root(sub, sup):
    """Reference for embed: list the p^k elements of the subfield in sup,
    sort them by index and return the first root of sub.modulus."""
    p = sup.p
    F = sup.frob_matrix(sub.m) - np.eye(sup.m, dtype=sup._dtype)
    basis = ff._nullspace_basis(F, p)  # the p^{sub.m}-element subfield
    assert len(basis) == sub.m
    elems = []
    for idx in range(p ** len(basis)):
        v = sup.vzero()
        k = idx
        for b in basis:
            c = k % p
            k //= p
            if c:
                v = (v + c * b) % p
        elems.append(sup.from_vec(v))
    elems.sort(key=sup.index_of)
    mod = sub.modulus
    for cand in elems:
        cv = cand.vec()
        acc = sup.vzero()
        acc[0] = mod[-1]
        for c in reversed(mod[:-1]):
            acc = sup.vmul(acc, cv)
            acc[0] = (acc[0] + c) % p
        if not acc.any():
            return cand
    raise AssertionError("sub.modulus has no root in sup")


def coeffs_mod_p(f):
    """The ascending F_p coefficients of a polynomial over a prime field."""
    return tuple(int(c) for c in f.a[:, 0])


def is_irreducible_mod(mod, p):
    """poly.rabin_irreducible on the ascending coefficients mod over F_p."""
    return poly.rabin_irreducible(
        poly.Poly.from_coeffs(ff.make_extension(p, 1), mod))


@pytest.fixture(scope="module")
def fields():
    return {
        "F2": ff.make_extension(2, 1),
        "F3": ff.make_extension(3, 1),
        "F4": ff.make_extension(2, 2),
        "F5": ff.make_extension(5, 1),
        "F8": ff.make_extension(2, 3),
        "F9": ff.make_extension(3, 2),
        "F25": ff.make_extension(5, 2),
        "F27": ff.make_extension(3, 3),
    }


class TestConstruction:
    def test_deterministic_modulus(self):
        a = ff.make_extension(3, 4)
        b = ff.make_extension(3, 4)
        assert a.modulus == b.modulus
        assert a.generator == b.generator

    def test_rejects_bad_inputs(self):
        with pytest.raises(NotPrime):
            ff.make_extension(6, 2)
        with pytest.raises(ReducibleModulus):
            ff.make_extension(2, 2, [1, 0, 1])  # x^2 + 1 = (x+1)^2 over F_2

    def test_binomial_row_skipped_without_irreducible(self, monkeypatch):
        # 5 | 10 does not divide p - 1, so by Serret's criterion no Y^10 + a_0
        # is irreducible over F_536870923 and the search skips all p of them
        p = 536870923
        real = poly.rabin_irreducible
        tested = []

        def spy(f):
            tested.append(coeffs_mod_p(f))
            if len(tested) > 50:
                pytest.fail("modulus search tests the binomial row")
            return real(f)

        monkeypatch.setattr(poly, "rabin_irreducible", spy)
        mod = ff._lex_modulus(p, 10)
        assert tested[0] == (0, 1) + (0,) * 8 + (1,)  # Y^10 + Y, past the row
        assert real(poly.Poly.from_coeffs(ff.make_extension(p, 1), mod))

    def test_search_without_irreducible_is_invariant(self, monkeypatch):
        monkeypatch.setattr(poly, "rabin_irreducible", lambda f: False)
        with pytest.raises(InvariantViolated):
            ff._lex_modulus.__wrapped__(3, 2)

    def test_cache_hit_skips_irreducibility_test(self, monkeypatch):
        real = poly.rabin_irreducible
        calls = []

        def spy(f):
            calls.append(coeffs_mod_p(f))
            return real(f)

        ff._checked_field.cache_clear()
        monkeypatch.setattr(poly, "rabin_irreducible", spy)
        a = ff.parse_field("2^4/1,0,0,1,1")
        b = ff.parse_field("2^4/1,0,0,1,1")
        assert a is b
        assert calls == [(1, 1, 0, 0, 1)]

    def test_searches_under_the_cache_lock_finish(self):
        # the lex search and the explicit-modulus check run Rabin's test
        # over the cached F_p while their own cache entries are being made.
        # A daemon thread, so a deadlock fails the test instead of hanging
        # the run
        for fn in (ff._field, ff._checked_field, ff._lex_modulus):
            fn.cache_clear()
        got = []

        def work():
            got.append(ff.make_extension(2, 8).modulus)
            got.append(ff.field_text(ff.parse_field("2^4/1,0,0,1,1")))

        t = threading.Thread(target=work, daemon=True)
        t.start()
        t.join(timeout=30)
        assert not t.is_alive()
        assert got == [(1, 1, 0, 1, 1, 0, 0, 0, 1), "2^4/1,0,0,1,1"]

    def test_huge_degree_fails_before_allocating(self, monkeypatch):
        def spy(self, p, m, modulus):
            pytest.fail(f"FieldCtx built at degree {m}")

        monkeypatch.setattr(ff.FieldCtx, "__init__", spy)
        limit = str(ff.MAX_EXTENSION_DEGREE)
        for build in (lambda: ff.parse_field("5^549360"),
                      lambda: ff.make_extension(2, ff.MAX_EXTENSION_DEGREE + 1),
                      lambda: ff.make_extension(2, 4097, [1] + [0] * 4096 + [1]),
                      lambda: ff.make_tower(2, 4098)):
            with pytest.raises(DegreeGuard, match=limit):
                build()

    def test_order(self, fields):
        assert fields["F9"].order == 9
        assert fields["F9"].units == 8
        assert fields["F2"].order == 2


def grid_towers():
    """(p, N) of every tower W with s > 1 that factor_binomial builds on the
    acceptance grid q <= 13, n <= 60 (the characteristic part of n stripped)."""
    from cyclofactor.factor import _tower_degree
    towers = set()
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        (p, m), = numth.factorize(q).factors.items()
        for n in range(1, 61):
            s = _tower_degree(q, n // p ** numth.p_adic(n, p))[1]
            if s > 1:
                towers.add((p, m * s))
    return sorted(towers)


# towers without a Gauss period: p is a square mod every r = Nk + 1
LEX_TOWERS = [(2, 8), (2, 24), (3, 12), (5, 10), (5, 20)]


class TestTowers:
    def test_grid_towers_are_irreducible(self):
        towers = grid_towers()
        assert len(towers) == 110
        for p, N in towers:
            W = ff.make_tower(p, N)
            assert (W.p, W.m, W.modulus[-1]) == (p, N, 1)
            assert is_irreducible_mod(W.modulus, p), (p, N)

    def test_only_periodless_towers_search(self, monkeypatch):
        real = ff._lex_modulus
        searched = []

        def spy(p, m):
            searched.append((p, m))
            return real(p, m)

        monkeypatch.setattr(ff, "_lex_modulus", spy)
        ff._tower_modulus.cache_clear()
        for p, N in grid_towers():
            ff.make_tower(p, N)
        assert searched == LEX_TOWERS
        for p, N in LEX_TOWERS:
            assert ff._gauss_period_modulus(p, N) is None
            assert ff.make_tower(p, N) is ff.make_extension(p, N)

    @pytest.mark.parametrize("p, N", [(23, 178), (7, 240), (2, 156), (2, 174),
                                      (536870923, 12), (2147483647, 4)])
    def test_gauss_modulus_is_irreducible(self, p, N):
        mod = ff._gauss_period_modulus(p, N)
        assert len(mod) == N + 1 and mod[-1] == 1
        assert is_irreducible_mod(mod, p)

    def test_object_dtype_period(self):
        # (p - 1)^2 (N + 1) passes 2^62, so the solve runs on Python ints
        assert ff.make_tower(2147483647, 4)._dtype is object

    def test_large_tower_needs_no_search(self, monkeypatch):
        from cyclofactor.factor import factor_cyclotomic, verify

        F23 = ff.make_extension(23, 1)

        def spy(p, m):
            pytest.fail(f"lex search for F_{p}^{m}")

        monkeypatch.setattr(ff, "_lex_modulus", spy)
        ff._tower_modulus.cache_clear()
        fz = factor_cyclotomic(F23, 179)
        assert [e.degree for e in fz] == [178]
        assert verify(fz).passed

    def test_singular_krylov_is_invariant(self, monkeypatch):
        monkeypatch.setattr(ff, "_nullspace_basis", lambda M, p: [])
        with pytest.raises(InvariantViolated):
            ff._gauss_period_modulus(3, 4)


class TestArithmetic:
    def test_field_axioms_random(self, fields):
        rng = random.Random(4)
        for ctx in fields.values():
            q = ctx.order
            for _ in range(40):
                x = ctx.element_from_index(rng.randrange(q))
                y = ctx.element_from_index(rng.randrange(q))
                z = ctx.element_from_index(rng.randrange(q))
                assert (x + y) + z == x + (y + z)
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z
                assert x + y == y + x and x * y == y * x
                if not y.is_zero():
                    assert (x / y) * y == x
                assert x - x == ctx.zero()

    def test_power_facts(self, fields):
        for ctx in fields.values():
            q = ctx.order
            for i in range(q):
                x = ctx.element_from_index(i)
                assert x ** q == x  # Frobenius fixes nothing beyond itself here
                if not x.is_zero():
                    assert x ** (q - 1) == ctx.one()

    def test_frobenius_is_additive(self, fields):
        rng = random.Random(5)
        for ctx in (fields["F9"], fields["F8"], fields["F27"]):
            p = ctx.p
            for _ in range(30):
                x = ctx.element_from_index(rng.randrange(ctx.order))
                y = ctx.element_from_index(rng.randrange(ctx.order))
                assert (x + y) ** p == x ** p + y ** p
                assert x.conj(1) == x ** p

    def test_conj_wraps_modulo_m(self, fields):
        ctx = fields["F9"]
        x = ctx.generator
        assert x.conj(2) == x  # p^m-power is the identity
        assert x.conj(3) == x.conj(1)

    def test_frob_matrix_is_p_power(self, fields):
        # each x -> x^{p^j} matrix is built on its own from x_class^{p^j};
        # it must agree with plain powering for every j, including j = m
        rng = random.Random(9)
        ctxs = (fields["F8"], fields["F27"], ff.make_extension(2, 4),
                ff.make_extension(3, 6))
        for ctx in ctxs:
            for j in range(ctx.m + 1):
                F = ctx.frob_matrix(j)
                for _ in range(6):
                    x = ctx.element_from_index(rng.randrange(ctx.order))
                    got = ctx.from_vec(F @ x.vec() % ctx.p)
                    assert got == x ** (ctx.p ** j), (ctx, j, x)

    def test_frob_matrix_built_once_under_threads(self):
        # a cached j is read without the lock; the lock guards the insert,
        # so every thread gets the matrix object that was stored first
        base = ff.make_extension(3, 6)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                ctx = ff.FieldCtx(base.p, base.m, base.modulus)  # empty cache
                seen = [[] for _ in range(8)]

                def work(out, k):
                    for j in (list(range(ctx.m)) * 20)[k:]:
                        out.append((j, id(ctx.frob_matrix(j))))

                threads = [threading.Thread(target=work, args=(seen[k], k))
                           for k in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                    assert not t.is_alive()
                ids = {j: set() for j in range(ctx.m)}
                for out in seen:
                    for j, i in out:
                        ids[j].add(i)
                assert all(len(v) == 1 for v in ids.values())
                assert all(id(ctx.frob_matrix(j)) in ids[j] for j in ids)
        finally:
            sys.setswitchinterval(old)

    def test_frob_matrix_of_high_j_first(self):
        # for j >= 2, vpow(x, p^j) takes the digit form, which applies
        # frob_matrix(1) while frob_matrix(j) is being built; asked first
        # on an empty cache, it must neither wait on itself nor differ from
        # the binary power
        for base in (ff.make_extension(3, 6), ff.make_extension(2, 12)):
            ctx = ff.FieldCtx(base.p, base.m, base.modulus)  # empty cache
            got = []
            t = threading.Thread(  # a daemon, so a deadlock cannot hang exit
                target=lambda: got.append(ctx.frob_matrix(ctx.m - 1)),
                daemon=True)
            t.start()
            t.join(timeout=30)
            assert not t.is_alive(), ctx
            xpj = ff.power(ctx.x_class().vec(), ctx.p ** (ctx.m - 1),
                           ctx.vmul, ctx.vone)
            assert np.array_equal(got[0], ctx.power_matrix(xpj, ctx.m)), ctx
            assert got[0] is ctx.frob_matrix(ctx.m - 1)

    @pytest.mark.parametrize("p, m", [(7, 1), (10007, 1), (2**61 - 1, 1),
                                      (3, 2), (2, 8)])
    def test_power_matrix_and_vmul_rows_match_generic(self, p, m,
                                                      monkeypatch):
        # power_matrix at m = 1 takes the scalar form, on Python ints
        # (object dtype at p = 2^61 - 1), and must equal the vmul chain that
        # m > 1 still runs; vmul_rows, with no scalar form, must equal the
        # y_shifts product
        ctx = ff.make_extension(p, m)
        rng = random.Random(p + m)
        els = np.array([[rng.randrange(p) for _ in range(m)]
                        for _ in range(12)], dtype=ctx._dtype)
        calls = []
        real = ff.FieldCtx.vmul
        monkeypatch.setattr(ff.FieldCtx, "vmul", lambda self, *a:
                            calls.append("vmul") or real(self, *a))
        for k in range(1, 7):
            c, A, B = els[k], els[:k], els[6:6 + k]
            calls.clear()
            got = ctx.power_matrix(c, k)
            assert calls == ["vmul"] * (k - 1) * (m > 1), (ctx, k, calls)
            prod = ctx.vmul_rows(A, B)
            chain = [ctx.vone()]
            for _ in range(1, k):
                chain.append(ctx.vmul(chain[-1], c))
            assert got.shape == (m, k) and got.dtype == ctx._dtype
            assert np.array_equal(got, np.stack(chain, axis=1)), (ctx, k)
            generic = (A.T[..., None] * ctx.y_shifts(B)).sum(axis=0) % p
            assert prod.shape == (k, m) and prod.dtype == generic.dtype
            assert np.array_equal(prod, generic), (ctx, k)
            assert all(np.array_equal(r, ctx.vmul(x, y))
                       for r, x, y in zip(prod, A, B))

    def test_reduction_rows_match_python_reduction(self, fields):
        # row i of _red is Y^{m+i} mod the modulus; the reference is long
        # division in Python ints.  F_{(2^31-1)^6} computes in object dtype
        def y_power_mod(mod, p, k):
            m = len(mod) - 1
            c = [0] * k + [1]
            for top in range(k, m - 1, -1):
                t = c[top]
                for i in range(m + 1):
                    c[top - m + i] = (c[top - m + i] - t * mod[i]) % p
            return c[:m]

        ctxs = (fields["F5"], fields["F9"], fields["F8"], fields["F27"],
                ff.make_extension(2, 58), ff.make_extension(2 ** 31 - 1, 6))
        assert ctxs[-1]._dtype is object
        for ctx in ctxs:
            p, m = ctx.p, ctx.m
            assert ctx._red.shape == (m - 1, m)
            for i in range(m - 1):
                want = y_power_mod(ctx.modulus, p, m + i)
                assert [int(c) for c in ctx._red[i]] == want, (ctx, i)

    def test_norm_inverse(self):
        # vinv goes through the norm; it must agree with a^{q-2}
        rng = random.Random(21)
        ctxs = (ff.make_extension(2, 58), ff.make_extension(3, 12),
                ff.make_extension(2 ** 31 - 1, 6))
        for ctx in ctxs:
            one = ctx.vone()
            for _ in range(4):
                a = ctx.element_from_index(rng.randrange(1, ctx.order)).vec()
                inv = ctx.vinv(a)
                assert np.array_equal(ctx.vmul(inv, a), one), ctx
                assert np.array_equal(inv, ctx.vpow(a, ctx.units - 1)), ctx

    def test_vpow_matches_square_and_multiply(self, monkeypatch):
        # vpow may take base-p digits with Frobenius steps; it must agree
        # with ff.power, the binary loop, on every exponent shape, in int64
        # and object dtype, and in the reducible ring Z_2[Y]/(Y^2 + 1),
        # where x -> x^p is still a ring endomorphism (FieldCtx allows any
        # monic modulus)
        ring = ff.FieldCtx(2, 2, (1, 0, 1))
        big = ff.make_extension(2 ** 31 - 1, 6)  # object dtype
        ctxs = (ff.make_extension(2, 58), ff.make_extension(3, 12),
                ff.make_extension(13, 4), big, ring)
        # the digit form is taken for dense digits of a small p, pure
        # p-powers and repeated digits of any p, never below p^2
        expect = {(3, 12, "(q-1)/d"): True, (2, 2, "q"): True,
                  (big.p, 6, "q"): True, (big.p, 6, "q-1"): True}
        frob_steps = []
        real = ff.FieldCtx.vconj
        monkeypatch.setattr(ff.FieldCtx, "vconj", lambda self, a, j: (
            frob_steps.append(self), real(self, a, j))[1])
        rng = random.Random(23)
        for ctx in ctxs:
            p, q = ctx.p, ctx.order
            d = min(numth.factorize(q - 1).primes())
            exps = {"0": 0, "1": 1, "p-1": p - 1, "p^2-1": p * p - 1,
                    "p^2": p * p, "q": q, "q-1": q - 1, "(q-1)/d": (q - 1) // d,
                    "3q+5": 3 * q + 5}
            elems = [np.array([rng.randrange(p) for _ in range(ctx.m)],
                              dtype=ctx._dtype) for _ in range(3)]
            for name, e in exps.items():
                frob_steps.clear()
                for a in elems:
                    want = ff.power(a.copy(), e, ctx.vmul, ctx.vone)
                    got = ctx.vpow(a, e)
                    assert got.dtype == want.dtype, (ctx, e)
                    assert np.array_equal(got, want), (ctx, e)
                took = expect.get((p, ctx.m, name), None if e >= p * p else False)
                assert took is None or bool(frob_steps) == took, (ctx, name)
            for a in elems if ctx is not ring else ():  # e < 0: fields only
                for e in list(exps.values())[1:]:
                    want = ff.power(ctx.vinv(a), e, ctx.vmul, ctx.vone)
                    assert np.array_equal(ctx.vpow(a, -e), want), (ctx, -e)

    def test_zero_division(self, fields):
        ctx = fields["F5"]
        with pytest.raises(ZeroElement):
            ctx.one() / ctx.zero()


class TestVmulRows:
    @pytest.mark.parametrize("p, m", [(7, 1), (3, 2), (2, 8), (10007, 1),
                                      (2**61 - 1, 1)])
    def test_every_shape_matches_vmul(self, p, m):
        # F_7, F_9, F_{2^8}, F_10007 and F_{2^61-1}, the last in object
        # dtype: one element times a stack, one element per row of a row or
        # of a block, a block (1, k, m) broadcast to every row, and empty
        # stacks, each against a vmul per element
        ctx = ff.make_extension(p, m)
        rng = random.Random(p * m)

        def stack(*shape):
            return np.array(
                [rng.randrange(p) for _ in range(math.prod(shape) * m)],
                dtype=ctx._dtype).reshape(shape + (m,))

        def check(got, want):
            assert got.shape == want.shape and got.dtype == ctx._dtype
            assert np.array_equal(got, want), (ctx, got.shape)

        c, A = stack(), stack(9)
        check(ctx.vmul_rows(A, c), np.array([ctx.vmul(x, c) for x in A]))
        A3 = stack(2, 3, 4)
        check(ctx.vmul_rows(A3, c),
              np.array([[[ctx.vmul(x, c) for x in r] for r in b] for b in A3]))
        C, A = stack(5), stack(5)
        check(ctx.vmul_rows(A, C),
              np.array([ctx.vmul(x, y) for x, y in zip(A, C)]))
        B = stack(5, 3)
        check(ctx.vmul_rows(B, C),
              np.array([[ctx.vmul(x, y) for x in r] for r, y in zip(B, C)]))
        G = stack(1, 3)
        check(ctx.vmul_rows(G, C),
              np.array([[ctx.vmul(x, y) for x in G[0]] for y in C]))
        empty = stack(0)
        check(ctx.vmul_rows(empty, c), empty)
        check(ctx.vmul_rows(empty, empty), empty)
        check(ctx.vmul_rows(stack(0, 3), empty), stack(0, 3))
        check(ctx.vmul_rows(G, empty), stack(0, 3))


class TestOrders:
    def test_generator_order(self, fields):
        for ctx in fields.values():
            assert ff.element_order(ctx.generator) == ctx.units
            assert ff.element_order(ctx.one()) == 1

    def test_generator_is_coordinate_lex_smallest(self, fields):
        for ctx in (fields["F5"], fields["F9"], fields["F8"]):
            g = ctx.generator
            gi = ctx.index_of(g)
            for i in range(1, gi):
                x = ctx.element_from_index(i)
                assert ff.element_order(x) < ctx.units

    def test_element_has_order_matches(self, fields):
        ctx = fields["F25"]
        for i in range(1, 25):
            x = ctx.element_from_index(i)
            o = ff.element_order(x)
            assert ff.element_has_order(x, o)
            assert not ff.element_has_order(x, 2 * o)
            assert x ** o == ctx.one()

    @pytest.mark.parametrize("p, m", [(2, 4), (3, 4), (5, 4)])
    def test_element_order_matches_brute_force(self, p, m, monkeypatch):
        # every unit of F_16, F_81 and F_625: the least t with x^t = 1 by
        # multiplying all units by themselves t times, and the primes come
        # from p^e - 1 for the element's own subfield F_{p^e} alone
        ctx = ff.make_extension(p, m)
        X = np.array([ctx.element_from_index(i).vec()
                      for i in range(1, ctx.order)])
        want = np.zeros(len(X), dtype=np.int64)
        P = X.copy()
        for t in range(1, ctx.order):
            want[(want == 0) & (P[:, 0] == 1) & ~P[:, 1:].any(axis=1)] = t
            P = ctx.vmul_rows(P, X)
        asked = []
        real = numth.factored_power_minus_one
        monkeypatch.setattr(numth, "factored_power_minus_one",
                            lambda p, e: asked.append(e) or real(p, e))
        ff.element_order.cache_clear()
        for x, o in zip(X, want.tolist()):
            asked.clear()
            assert ff.element_order(ctx.from_vec(x)) == o
            e = next(e for e in range(1, m + 1)
                     if np.array_equal(ctx.vpow(x, p ** e), x))
            assert asked == [e]

    def test_order_of_zero_rejected(self, fields):
        with pytest.raises(ZeroElement):
            ff.element_order(fields["F5"].zero())


class TestLogTables:
    @pytest.mark.parametrize("p, m", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2),
                                      (3, 3)])
    def test_tables_match_the_vector_arithmetic(self, p, m):
        # F_4, F_8, F_9, F_16, F_25, F_27: every element and every pair
        ctx = ff.make_extension(p, m)
        exp, log = ctx.log_tables()
        q1 = ctx.units
        els = np.array([ctx.element_from_index(i).vec()
                        for i in range(ctx.order)])
        assert np.array_equal(exp[1], ctx.generator.vec())
        assert np.array_equal(ctx.vlog(els), log)
        assert np.array_equal(exp[log], els)  # zero too: log 0 = 2(q - 1)
        assert log[0] == 2 * q1 and not exp[2 * q1].any()
        logs = log[1:].astype(np.int64)
        for a, la in zip(els[1:], logs):
            for b, lb in zip(els[1:], logs):
                ab = ctx.vmul(a, b)
                assert np.array_equal(exp[(la + lb) % q1], ab)
                assert np.array_equal(exp[la + lb], ab)  # no reduction
            for k in (0, 1, 2, 3, 7, q1 - 1, q1, q1 + 5, 10**6 + 3):
                assert np.array_equal(exp[la * k % q1], ctx.vpow(a, k))

    def test_tables_are_small_read_only_and_bounded(self, monkeypatch):
        calls = []
        real = ff.FieldCtx.power_matrix
        monkeypatch.setattr(ff.FieldCtx, "power_matrix",
                            lambda self, *a: calls.append(a) or real(self, *a))
        for p, m, dt in ((3, 6, np.uint8), (10007, 1, np.uint16),
                         (2, 14, np.uint8)):
            ctx = ff.FieldCtx(p, m, ff._lex_modulus(p, m))  # no tables yet
            ctx.generator
            calls.clear()
            exp, log = ctx.log_tables()
            assert calls == []  # built by doubling, not by a power chain
            assert exp.dtype == dt and log.dtype == np.uint16
            assert exp.shape == (2 * ctx.units + 1, m)
            assert log.shape == (ctx.order,)
            assert ctx.log_tables()[0] is exp
            for arr in (exp, log):
                with pytest.raises(ValueError):
                    arr[0] = 1
        assert ff.make_extension(2, 15).log_tables() is None
        assert ff.make_extension(2**31 - 1, 1).log_tables() is None


class TestRootsOfUnity:
    def test_primitive_root_order(self, fields):
        for ctx in fields.values():
            for d in numth.divisors(ctx.units):
                z = ff.primitive_root_of_unity(ctx, d)
                assert ff.element_has_order(z, d)

    def test_rejects_non_divisor(self, fields):
        with pytest.raises(OrderNotDividing):
            ff.primitive_root_of_unity(fields["F5"], 3)

    def test_order_one_is_one_without_a_scan(self, fields, monkeypatch):
        # zeta_1 = 1 is returned at once, no candidate is raised to a power
        def no_scan(self, idx):
            raise AssertionError("d = 1 scanned the field")

        ctxs = list(fields.values()) + [ff.make_tower(2, 174)]
        monkeypatch.setattr(ff.FieldCtx, "element_from_index", no_scan)
        for ctx in ctxs:
            assert ff.primitive_root_of_unity.__wrapped__(ctx, 1) == ctx.one()

    @pytest.mark.parametrize("p, m, d", [(2, 12, 3), (2, 12, 5), (2, 12, 13),
                                         (3, 6, 4), (7, 6, 19), (7, 6, 8)])
    def test_norm_form_scans_the_same_powers(self, p, m, d):
        # d | p^w - 1 for a proper divisor w of m (but 13, of order 12 mod
        # 2): each candidate's power goes through its norm to F_{p^w}, and
        # the root is the one a scan of square-and-multiply powers finds
        ctx = ff.make_extension(p, m)
        e = ctx.units // d
        want = next(z for z in (
            ctx.from_vec(ff.power(ctx.element_from_index(i).vec(), e,
                                  ctx.vmul, ctx.vone))
            for i in range(p, ctx.order)) if ff.element_has_order(z, d))
        assert ff.primitive_root_of_unity.__wrapped__(ctx, d) == want

    def test_reducible_ring_is_invariant(self):
        ring = ff.FieldCtx(2, 2, (1, 0, 1))  # Y^2 + 1 = (Y + 1)^2 over F_2
        with pytest.raises(InvariantViolated):
            ff.primitive_root_of_unity(ring, 3)


class TestDthRoot:
    def test_root_property(self, fields):
        rng = random.Random(6)
        for ctx in fields.values():
            for _ in range(25):
                b0 = ctx.element_from_index(rng.randrange(1, ctx.order))
                d = rng.randrange(1, 13)
                a = b0 ** d
                b = ff.dth_root(a, d)
                assert b ** d == a

    def test_no_root(self, fields):
        ctx = fields["F5"]
        # 2 generates F_5*, so it is not a square
        with pytest.raises(NoRoot):
            ff.dth_root(ctx.from_int(2), 2)
        with pytest.raises(ZeroElement):
            ff.dth_root(ctx.zero(), 2)
        with pytest.raises(PreconditionViolated):
            ff.dth_root(ctx.from_int(2), 0)

    def test_deterministic(self, fields):
        ctx = fields["F9"]
        a = ctx.generator ** 4
        assert ff.dth_root(a, 4) == ff.dth_root(a, 4)

    def test_constructive_path(self, fields):
        rng = random.Random(7)
        for ctx in (fields["F9"], fields["F25"], fields["F27"]):
            for _ in range(20):
                b0 = ctx.element_from_index(rng.randrange(1, ctx.order))
                d = rng.randrange(1, 10)
                a = b0 ** d
                b = ff.dth_root.__wrapped__(a, d)
                assert b ** d == a
            with pytest.raises(NoRoot):
                nonroot = ctx.generator  # full-order element is never a p-th power residue for p | units
                p0 = numth.factorize(ctx.units).primes()[0]
                ff.dth_root.__wrapped__(nonroot, p0)

    def test_wrong_digit_is_caught(self, fields, monkeypatch):
        # a Pohlig-Hellman digit forced off by one either leaves the root
        # right or makes dth_root raise: no b with b^d != a gets out
        real = ff._bsgs

        def off_by_one(ctx, g, t, n):
            try:
                return (real(ctx, g, t, n) + 1) % n
            except NoRoot:  # an earlier digit of this root is already off
                return 0

        monkeypatch.setattr(ff, "_bsgs", off_by_one)
        raised = 0
        for ctx in (ff.make_extension(13, 1), fields["F9"], fields["F25"]):
            for d in (2, 3, 4, 6):
                for b0 in (ctx.element_from_index(i) for i in range(2, ctx.order)):
                    a = b0 ** d
                    try:
                        b = ff.dth_root.__wrapped__(a, d)
                    except InvariantViolated:
                        raised += 1
                    else:
                        assert b ** d == a
        assert raised > 0

    def test_smallest_index_root(self, fields):
        for ctx in (fields["F9"], fields["F25"], fields["F27"]):
            elems = [ctx.element_from_index(i) for i in range(1, ctx.order)]
            for d in range(1, 14):
                for a in {x ** d for x in elems}:
                    want = min((x for x in elems if x ** d == a),
                               key=ctx.index_of)
                    assert ff.dth_root(a, d) == want


class TestEmbedding:
    def test_is_ring_homomorphism(self, fields):
        rng = random.Random(8)
        for sub, sup in [(fields["F2"], fields["F8"]),
                         (fields["F3"], fields["F9"]),
                         (fields["F9"], ff.make_extension(3, 6)),
                         (fields["F4"], ff.make_extension(2, 6))]:
            emb = ff.embed(sub, sup)
            assert emb(sub.one()) == sup.one()
            assert emb(sub.zero()) == sup.zero()
            for _ in range(25):
                x = sub.element_from_index(rng.randrange(sub.order))
                y = sub.element_from_index(rng.randrange(sub.order))
                assert emb(x + y) == emb(x) + emb(y)
                assert emb(x * y) == emb(x) * emb(y)

    def test_preserves_order(self, fields):
        sub, sup = fields["F9"], ff.make_extension(3, 4)
        emb = ff.embed(sub, sup)
        for i in range(1, 9):
            x = sub.element_from_index(i)
            assert ff.element_order(emb(x)) == ff.element_order(x)

    def test_identity_on_same_field(self, fields):
        ctx = fields["F9"]
        emb = ff.embed(ctx, ctx)
        for i in range(9):
            x = ctx.element_from_index(i)
            assert emb(x) == x

    def test_rejects_non_subfield(self, fields):
        with pytest.raises(NotASubfield):
            ff.embed(fields["F4"], fields["F8"])  # 2 does not divide 3

    def test_elimination_inverts_powers(self, fields):
        # the kept rows of T have T @ E = I, so preimage undoes the
        # embedding on the subfield, and its test E y = x rejects the
        # variable of sup, which lies outside it.  The last pair computes
        # in object dtype
        rng = random.Random(10)
        P = 2 ** 31 - 1
        for sub, sup in ((fields["F4"], ff.make_extension(2, 6)),
                         (fields["F9"], ff.make_extension(3, 4)),
                         (ff.make_extension(1009, 1), ff.make_extension(1009, 10)),
                         (ff.make_extension(P, 1), ff.make_extension(P, 6))):
            emb = ff.embed(sub, sup)
            want = [[int(i == j) for j in range(sub.m)] for i in range(sub.m)]
            assert (emb._T @ emb._E % sup.p).tolist() == want
            xs = [sub.element_from_index(rng.randrange(sub.order))
                  for _ in range(8)]
            rows = np.array([emb(x).coords for x in xs], dtype=sup._dtype)
            assert emb.preimage(rows).tolist() == [list(x.coords) for x in xs]
            with pytest.raises(NotASubfield):
                emb.preimage(np.vstack([rows, sup.x_class().vec()]))

    def test_root_matches_enumeration(self):
        # every p <= 13 and k >= 2 with p^k <= 10^4, sup of degree 2k and 3k,
        # then the largest towers the benchmark workloads embed into
        cases = [(p, k, sup_m) for p in (2, 3, 5, 7, 11, 13)
                 for k in range(2, 14) if p ** k <= 10 ** 4
                 for sup_m in (2 * k, 3 * k)]
        assert len(cases) == 60
        for p, k, sup_m in cases + [(2, 3, 174), (3, 2, 66)]:
            sub, sup = ff.make_extension(p, k), ff.make_extension(p, sup_m)
            want = enumerated_root(sub, sup)
            assert ff.embed(sub, sup).root == want, (p, k, sup_m)

    def test_one_ring_per_split_polynomial(self, monkeypatch):
        # find_root builds one QuotientRing per polynomial of degree >= 2 it
        # splits: a quadratic subfield's modulus takes one ring
        from cyclofactor import poly
        built = []
        real = poly.QuotientRing.__init__

        def spy(ring, f):
            built.append(f.degree)
            real(ring, f)

        monkeypatch.setattr(poly.QuotientRing, "__init__", spy)
        ff.embed.cache_clear()
        for p, k, sup_m, rings in ((3, 2, 4, 1), (2, 2, 6, 1), (5, 2, 4, 1),
                                   (13, 2, 4, 1), (2, 6, 12, 2)):
            sub, sup = ff.make_extension(p, k), ff.make_extension(p, sup_m)
            built.clear()  # the lex searches above may build rings too
            ff.embed(sub, sup)
            assert len(built) == rings, (p, k, sup_m, built)

    def test_ctx_mismatch(self, fields):
        emb = ff.embed(fields["F3"], fields["F9"])
        with pytest.raises(CtxMismatch):
            emb(fields["F5"].one())


class TestNarrowStorage:
    """A tower (more than LOG_TABLE_LIMIT elements, int64 compute dtype)
    stores its Frobenius matrices in the smallest unsigned dtype that holds
    p - 1; every reader must widen them first, as -uint8(3) is 253 and
    uint8(200) + uint8(200) is 144.  p = 251 is the largest prime stored as
    uint8, p = 257 the smallest stored as uint16, and an object-dtype field
    keeps its arrays as they are."""

    @pytest.mark.parametrize("p, stored", [(251, np.uint8), (257, np.uint16),
                                           (2 ** 31 - 1, object)])
    def test_stored_rows_read_as_their_int64_copies(self, p, stored):
        W, F = ff.make_tower(p, 4), ff.make_extension(p, 1)
        assert W.order > ff.LOG_TABLE_LIMIT
        frob, emb = W.frob_matrix(1), ff.embed(F, W)
        assert frob.dtype == stored and emb._E.dtype == emb._T.dtype == W._dtype
        assert W.frob_matrix(1) is frob and np.array_equal(
            frob, W.power_matrix(W.vpow(W.x_class().vec(), p), W.m))
        # every cached array narrower than the compute dtype is read-only
        for arr in (*W._frob.values(), W._red, emb._E, emb._T):
            if arr.dtype != W._dtype:
                assert not arr.flags.writeable
        if stored is np.uint8:
            assert (frob >= 128).any()  # uint8 sums of these would wrap
        wide = frob.astype(W._dtype)
        back = wide[::-1]
        for got, want in ((W.vconj(frob, 1), W.vconj(wide, 1)),
                          (W.vconj(frob[0], 3), W.vconj(wide[0], 3)),
                          (W.vneg(frob), (-wide) % p),
                          (W.vsub(frob, frob[::-1]), (wide - back) % p),
                          (W.vsub(frob[0], frob[1]), (wide[0] - wide[1]) % p),
                          (W.vadd(frob, frob[::-1]), (wide + back) % p)):
            assert got.dtype == W._dtype
            assert got.tolist() == want.tolist()
        # preimage of narrow rows of the subfield, and of the tower variable
        cs = [0, 1, 2, p - 2, p - 1]
        rows = np.array([emb(F.from_int(c)).coords for c in cs], dtype=W._dtype)
        var = W.x_class().vec()[None]
        for dt in {stored, W._dtype}:
            assert emb.preimage(rows.astype(dt))[:, 0].tolist() == cs
            with pytest.raises(NotASubfield):
                emb.preimage(var.astype(dt))
            with pytest.raises(NotASubfield):
                emb.preimage(np.vstack([rows, var]).astype(dt))


def gauss_jordan(rows, p, ncols):
    """Reference for _eliminate on lists of Python ints: row swaps, the first
    nonzero entry at or below the pivot position as pivot, every entry
    reduced after each step."""
    A = [[x % p for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(A)) if A[i][c]), None)
        if sel is None:
            continue
        A[r], A[sel] = A[sel], A[r]
        inv = pow(A[r][c], p - 2, p)
        A[r] = [x * inv % p for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [(x - f * y) % p for x, y in zip(A[i], A[r])]
        pivots.append(c)
    return pivots, A


class TestElimination:
    PRIMES = [2, 3, 13, 1009, 536870923]

    @staticmethod
    def cases(p, rng):
        """(matrix, ncols) pairs of at most 14 rows: random, of lower rank,
        and eliminated on fewer columns than they have."""
        out = []
        for _ in range(12):
            n, m = rng.randint(1, 14), rng.randint(1, 20)
            A = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
            out.append((A, m))
            k = rng.randint(1, n)  # rank at most k
            L = [[rng.randrange(p) for _ in range(k)] for _ in range(n)]
            R = [[rng.randrange(p) for _ in range(m)] for _ in range(k)]
            low = [[sum(a * b for a, b in zip(row, col)) % p
                    for col in zip(*R)] for row in L]
            out.append((low, m))
            out.append((A, rng.randint(0, m)))
        out.append(([[0] * 5 for _ in range(3)], 5))
        return out

    @pytest.mark.parametrize("p", PRIMES)
    def test_matches_reference(self, p):
        # the pivots and the whole result mod p, row order included, for a
        # C-ordered array (eliminated in place through its strided
        # transpose) and for a transposed view (eliminated in place on its
        # contiguous transpose); at p = 536870923 and 14 rows int64 holds
        # only reduced pivot rows
        rng = random.Random(p)
        for rows, ncols in self.cases(p, rng):
            want_pivots, want = gauss_jordan(rows, p, ncols)
            dt = ff.exact_dtype(p, len(rows) + 1)
            assert dt is np.int64
            A = np.array(rows, dtype=dt)
            view = np.array(rows, dtype=dt).T.copy().T
            for B in (A, view):
                assert ff._eliminate(B, p, ncols) == want_pivots
                assert (B % p).tolist() == want, (p, ncols)
            assert view.T.flags.c_contiguous  # the result landed in place

    def test_nullspace_lands_in_the_krylov_rows(self):
        # _nullspace_basis(KT.T) eliminates in KT itself, and its vectors
        # span the null space of the matrix it was given
        p, rng = 13, random.Random(3)
        K = [[rng.randrange(p) for _ in range(7)] for _ in range(5)]
        KT = np.array(K).T.copy()
        null = ff._nullspace_basis(KT.T, p)
        pivots, want = gauss_jordan(K, p, 7)
        assert (KT.T % p).tolist() == want
        assert len(null) == 7 - len(pivots)
        for v in null:
            assert not (np.array(K) @ v % p).any()

    @pytest.mark.parametrize("build", ["gauss-7-240", "gauss-2-174",
                                       "spin-8-58"])
    def test_peak_memory_stays_near_the_krylov_matrix(self, build):
        # the elimination adds at most one temporary of the Krylov matrix's
        # size at a time, never a transposed copy of it
        import tracemalloc
        from cyclofactor import poly
        if build.startswith("gauss"):
            p, N = map(int, build.split("-")[1:])
            run, nbytes = (lambda: ff._gauss_period_modulus(p, N),
                           (N + 1) * N * 8)
        else:
            W, F8 = ff.make_tower(2, 174), ff.make_extension(2, 3)
            emb = ff.embed(F8, W)
            rho = W.x_class().vec()  # degree 174 / 3 = 58 over F_8
            run, nbytes = (lambda: poly._minpoly_by_solve(emb, rho, 58),
                           (58 * 3 + 1) * 174 * 8)
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * nbytes, peak / nbytes


class TestTextFormats:
    def test_field_round_trip(self, fields):
        for ctx in fields.values():
            assert ff.parse_field(ff.field_text(ctx)).modulus == ctx.modulus

    def test_prime_power_shorthand(self):
        assert ff.parse_field("9").order == 9
        assert ff.parse_field("2^3").order == 8
        for bad in ("12", "x", "4^", "3^2/a,b"):
            with pytest.raises(ParseError):
                ff.parse_field(bad)
        with pytest.raises(DegreeMismatch):
            ff.parse_field("3^2/9")  # well-formed text, wrong modulus length

    def test_element_round_trip(self, fields):
        rng = random.Random(9)
        for ctx in fields.values():
            for _ in range(20):
                x = ctx.element_from_index(rng.randrange(ctx.order))
                assert ff.parse_element(ctx, ff.element_text(x)) == x

    def test_element_text_shape(self, fields):
        assert ff.element_text(fields["F5"].from_int(3)) == "3"
        g = fields["F9"].generator
        assert ff.element_text(g).startswith("[")
        with pytest.raises(ParseError):
            ff.parse_element(fields["F9"], "[1]")
        with pytest.raises(ParseError):
            ff.parse_element(fields["F5"], "junk")
