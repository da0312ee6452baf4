import gc
import hashlib
import itertools
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from math import gcd, lcm

import numpy as np
import pytest

import cyclofactor as cf
from cyclofactor import factor as factor_mod
from cyclofactor import cli, ff, numth
from cyclofactor import poly as poly_mod
from cyclofactor import spin as spin_mod
from cyclofactor.errors import (DegreeGuard, FourDividesConflict,
                                InvariantViolated, NotCoprimeToChar,
                                NotIrreducible,
                                PreconditionViolated, RadicalNotDividing,
                                ZeroElement)
from cyclofactor.factor import (BinomialPlan, CompositionPlan, butler_profile,
                                factor_binomial, factor_composition,
                                factor_cyclotomic, factor_radq1, factor_unity,
                                serret_irreducible, step_irreducible_tp,
                                unity_shortcut, verify)
from cyclofactor.oracle import brute_factor, is_irreducible
from cyclofactor.poly import (Factorization, FactorEntry, Poly, has_order,
                              parse_poly, poly_order, poly_text, q_transform,
                              rabin_irreducible)

F2 = ff.make_extension(2, 1)
F3 = ff.make_extension(3, 1)
F4 = ff.make_extension(2, 2)
F5 = ff.make_extension(5, 1)
F7 = ff.make_extension(7, 1)
F9 = ff.make_extension(3, 2)
F13 = ff.make_extension(13, 1)


def units(ctx):
    return [ctx.element_from_index(i) for i in range(1, ctx.order)]


def spun(emb, D, C):
    """spin.spin_binomials's stack as one Poly g(X^D[k]) per row of C."""
    stack, ends = spin_mod.spin_binomials(emb, C)
    return [Poly.spread(emb.sub, stack[lo:hi], Dk)
            for Dk, lo, hi in zip(D, (0,) + ends, ends)]


def first_irreducible_monic(ctx, deg):
    """Smallest monic irreducible of the given degree with nonzero constant."""
    for idxs in itertools.product(range(ctx.order), repeat=deg):
        if idxs[-1] == 0:
            continue
        coeffs = [ctx.element_from_index(i) for i in reversed(idxs)]
        f = Poly.from_coeffs(ctx, coeffs + [ctx.one()])
        if rabin_irreducible(f):
            return f
    raise AssertionError("no irreducible of that degree found")


class TestSerret:
    def test_knowns(self):
        assert serret_irreducible(F5.from_int(2), 2)
        assert not serret_irreducible(F7.from_int(3), 4)
        for a in units(F7):
            assert serret_irreducible(a, 1)

    def test_matches_oracle(self):
        for ctx in (F3, F5, F7, F9):
            for a in units(ctx):
                for t in range(1, 7):
                    want = is_irreducible(Poly.binomial(ctx, t, a))
                    assert serret_irreducible(a, t) == want, (ctx.order, a, t)

    def test_zero_rejected(self):
        with pytest.raises(ZeroElement):
            serret_irreducible(F5.zero(), 2)


class TestStepTp:
    def test_knowns(self):
        assert step_irreducible_tp(F5.from_int(2), 2, 2)
        assert is_irreducible(Poly.binomial(F5, 4, F5.from_int(2)))
        assert not step_irreducible_tp(F5.from_int(4), 1, 2)
        assert not is_irreducible(Poly.binomial(F5, 2, F5.from_int(4)))

    def test_p_divides_t_branch(self):
        # ord(2) = 12 over F_13, so X^3 - 2 is irreducible and stepping by
        # another 3 stays inside the 3-chain
        a = F13.from_int(2)
        assert serret_irreducible(a, 3)
        assert step_irreducible_tp(a, 3, 3)
        assert serret_irreducible(a, 9)

    def test_matches_oracle(self):
        for ctx in (F5, F9, F13):
            q = ctx.order
            for a in units(ctx):
                for t in range(1, 5):
                    if not serret_irreducible(a, t):
                        continue
                    for p in numth.factorize(q - 1).primes():
                        if t * p % 4 == 0 and q % 4 != 1:
                            continue
                        want = is_irreducible(Poly.binomial(ctx, t * p, a))
                        assert step_irreducible_tp(a, t, p) == want

    def test_preconditions(self):
        with pytest.raises(PreconditionViolated):
            step_irreducible_tp(F5.one(), 2, 2)  # X^2 - 1 splits
        with pytest.raises(PreconditionViolated):
            step_irreducible_tp(F5.from_int(2), 2, 3)  # 3 does not divide 4
        with pytest.raises(PreconditionViolated):
            step_irreducible_tp(F5.from_int(2), 2, 4)  # 4 is not prime
        with pytest.raises(PreconditionViolated):
            step_irreducible_tp(F7.from_int(3), 2, 2)  # 4 | tp, 7 = 3 mod 4
        with pytest.raises(ZeroElement):
            step_irreducible_tp(F5.zero(), 2, 2)


class TestRadq1:
    def test_all_linear(self):
        fz = factor_radq1(F5.one(), 4)
        texts = [poly_text(e.poly) for e in fz]
        assert texts == ["x + 1", "x + 2", "x + 3", "x + 4"]
        assert [e.order for e in fz] == [2, 4, 4, 1]

    def test_quadratic_pair(self):
        fz = factor_radq1(F5.from_int(4), 4)
        assert {poly_text(e.poly) for e in fz} == {"x^2 + 2", "x^2 + 3"}
        assert fz.product() == Poly.binomial(F5, 4, F5.from_int(4))

    def test_linear_input(self):
        fz = factor_radq1(F7.from_int(3), 1)
        assert [poly_text(e.poly) for e in fz] == ["x + 4"]

    def test_extension_base_vs_oracle(self):
        a = F9.generator
        fz = factor_radq1(a, 2)
        assert fz.multiset() == brute_factor(Poly.binomial(F9, 2, a)).multiset()

    def test_matches_main_engine(self):
        rng = random.Random(3)
        for ctx in (F5, F9, F13):
            q = ctx.order
            pool = units(ctx) if q <= 9 else rng.sample(units(ctx), 5)
            for n in range(1, 17):
                if (q - 1) % numth.radical(n) != 0:
                    continue
                if n % 4 == 0 and q % 4 != 1:
                    continue
                for a in pool:
                    fz = factor_radq1(a, n)
                    assert fz.product() == Poly.binomial(ctx, n, a)
                    assert fz.multiset() == factor_binomial(a, n).multiset()

    def test_orders_match(self):
        for a in units(F5):
            for n in (1, 2, 4, 8):
                for e in factor_radq1(a, n):
                    assert e.order == poly_order(e.poly)

    def test_domain_errors(self):
        with pytest.raises(RadicalNotDividing):
            factor_radq1(F5.from_int(2), 3)
        with pytest.raises(FourDividesConflict):
            factor_radq1(F7.from_int(3), 4)
        with pytest.raises(ZeroElement):
            factor_radq1(F5.zero(), 2)


class TestBinomial:
    def test_linear(self):
        for ctx in (F3, F9):
            for a in units(ctx):
                fz = factor_binomial(a, 1)
                assert len(fz) == 1
                e = fz.factors[0]
                assert e.poly == Poly.binomial(ctx, 1, a)
                assert (e.mult, e.degree) == (1, 1)
                assert e.order == ff.element_order(a)

    def test_unity_eight_over_f3(self):
        fz = factor_binomial(F3.one(), 8)
        got = [(poly_text(e.poly), e.order) for e in fz]
        assert got == [
            ("x + 1", 2),
            ("x + 2", 1),
            ("x^2 + 1", 4),
            ("x^2 + x + 2", 8),
            ("x^2 + 2*x + 2", 8),
        ]

    def test_order_eight_base_vs_oracle(self):
        a = F9.generator
        assert ff.element_has_order(a, 8)
        fz = factor_binomial(a, 2)
        assert fz.multiset() == brute_factor(Poly.binomial(F9, 2, a)).multiset()

    def test_char_power_multiplicity(self):
        fz = factor_binomial(F3.from_int(2), 6)  # (X^2 - 2)^3 over F_3
        assert len(fz) == 1
        e = fz.factors[0]
        assert (poly_text(e.poly), e.mult, e.degree, e.order) == ("x^2 + 1", 3, 2, 4)
        assert fz.product() == Poly.binomial(F3, 6, F3.from_int(2))
        assert fz.plan.char_power == 3

    def test_char_power_even(self):
        fz = factor_binomial(F2.one(), 12)  # (X^3 - 1)^4 over F_2
        got = [(poly_text(e.poly), e.mult, e.order) for e in fz]
        assert got == [("x + 1", 4, 1), ("x^2 + x + 1", 4, 3)]

    def test_char_power_extension(self):
        g = F4.generator
        fz = factor_binomial(g, 2)  # X^2 - g = (X - g^2)^2 over F_4
        assert len(fz) == 1
        e = fz.factors[0]
        assert e.mult == 2 and e.degree == 1
        assert e.poly == Poly.binomial(F4, 1, g * g)
        assert fz.product() == Poly.binomial(F4, 2, g)

    def test_reconstruction_grid(self):
        rng = random.Random(4)
        for ctx in (F2, F3, F4, F5, F7, F9):
            q = ctx.order
            pool = units(ctx) if q <= 5 else rng.sample(units(ctx), 4)
            for n in range(1, 19):
                for a in pool:
                    fz = factor_binomial(a, n)
                    assert fz.product() == Poly.binomial(ctx, n, a)
                    assert sum(e.degree * e.mult for e in fz) == n
                    assert all(e.poly.is_monic() for e in fz)
                    assert isinstance(fz.plan, BinomialPlan)

    def test_oracle_sample(self):
        rng = random.Random(5)
        for ctx in (F3, F5, F9):
            for n in (5, 8, 12):
                a = rng.choice(units(ctx))
                fz = factor_binomial(a, n)
                assert fz.multiset() == brute_factor(fz.base).multiset()

    def test_domain_errors(self):
        with pytest.raises(ZeroElement):
            factor_binomial(F5.zero(), 3)
        with pytest.raises(PreconditionViolated):
            factor_binomial(F5.one(), 0)

    def test_warm_call_proves_no_prime(self, monkeypatch):
        # the characteristic is prime by construction: a warm call with p
        # not dividing n runs no primality test on it
        cases = [(ff.make_extension(7919, 1).from_int(29), 4),
                 (F9.generator, 10)]
        want = [factor_binomial(a, n).multiset() for a, n in cases]
        asked = []
        monkeypatch.setattr(numth, "is_prime", asked.append)
        assert [factor_binomial(a, n).multiset() for a, n in cases] == want
        assert asked == []

    def test_no_tower_factoring(self, monkeypatch):
        # the roots inside W = F_{q^s} need only the primes of d, so the
        # group order p^{ms} - 1 of the tower is never factored
        asked = []
        for name in ("factorize", "factored_power_minus_one"):
            real = getattr(numth, name)

            def spy(*args, _real=real, _name=name):
                asked.append((_name, args))
                return _real(*args)

            monkeypatch.setattr(numth, name, spy)
        # roots and skeletons cached by earlier tests would skip the calls
        # under test
        ff.primitive_root_of_unity.cache_clear()
        ff.dth_root.cache_clear()
        factor_mod._plan_skeleton.cache_clear()
        for ctx, n, s in ((ff.make_extension(11, 1), 59, 58),
                          (F9, 41, 4),
                          (ff.make_extension(7919, 1), 4, 2)):
            asked.clear()
            fz = factor_binomial(ctx.from_int(2), n)
            assert fz.plan.s == s
            tower = (ctx.p, ctx.m * s)
            assert ("factored_power_minus_one", tower) not in asked
            assert ("factorize", (ctx.p ** (ctx.m * s) - 1,)) not in asked

    def test_no_table_of_all_powers(self, monkeypatch):
        # each factor takes its own root-of-unity powers, so no call builds
        # more powers than a field's Frobenius matrices and embeddings use;
        # every case has d1_s or d2_s (d_s for Phi_n) above W.m + 1
        asked = []
        real = ff.FieldCtx.power_matrix

        def spy(self, s, k):
            asked.append((self.m, k))
            return real(self, s, k)

        monkeypatch.setattr(ff.FieldCtx, "power_matrix", spy)
        F17 = ff.make_extension(17, 1)
        f = parse_poly(F2, "x^3 + x + 1")
        cases = ((lambda: factor_unity(F2, 45), (1, 15)),  # W = F_16
                 (lambda: factor_binomial(F17.from_int(-1), 8), (8, 1)),
                 (lambda: factor_composition(f, 9), (1, 9)),  # W = F_64
                 (lambda: factor_cyclotomic(F2, 45), None))  # d_s = 15
        for run, d in cases:
            asked.clear()
            plan = run().plan
            if d is not None:
                plan = getattr(plan, "inner", plan)
                assert (plan.d1[plan.s], plan.d2[plan.s]) == d
            assert all(k <= m + 1 for m, k in asked), asked

    def test_one_power_per_coset_representative(self, monkeypatch):
        # zeta2^{i q^mm} is a q-Frobenius image of zeta2^i, so a call with
        # warm roots and a fresh skeleton takes at most one W.vpow per
        # representative, per (j, v) block and per j-class, plus two, not
        # one per factor
        cases = ((F7, 192, 1),  # 51 factors from 27 representatives
                 (F13, 68, 11))  # 17 factors: s1 = 4 conjugates of 4 of 5
        for ctx, n, idx in cases:
            a = ctx.element_from_index(idx)
            fz = factor_binomial(a, n)  # warms the root and tower caches
            plan = fz.plan
            W = plan.zeta_d2.ctx
            calls = []
            real = W.vpow
            monkeypatch.setattr(W, "vpow", lambda x, e: (calls.append(e),
                                                         real(x, e))[1])
            factor_mod._plan_skeleton.cache_clear()
            again = factor_binomial(a, n)
            monkeypatch.undo()
            assert [(e.poly, e.order) for e in again] == \
                [(e.poly, e.order) for e in fz]
            blocks = len(plan.j_classes) * len(
                numth.divisors(plan.n2 // plan.d2[plan.s]))
            reps = len(plan.coset_reps.reps)
            assert len(fz) > reps + blocks + len(plan.j_classes) + 2
            assert len(calls) <= reps + blocks + len(plan.j_classes) + 2, (
                ctx, n, len(calls))

    def test_large_prime_base(self):
        # the prime subfield embeds along -modulus[0], the only root of a
        # linear modulus, so no subfield is enumerated for p > 10^6
        ctx = ff.make_extension(1000003, 1)
        fz = factor_binomial(ctx.from_int(3), 4)
        assert fz.plan.s == 2
        assert sum(e.degree * e.mult for e in fz) == 4
        assert verify(fz).passed
        # the degree-10 tower over F_536870923 has no irreducible binomial
        # modulus; product() and the ring products of verify() sum past
        # int64 at this p and take object dtype
        ctx = ff.make_extension(536870923, 1)
        fz = factor_binomial(ctx.from_int(3), 66)
        assert (fz.plan.w, fz.plan.s, fz.plan.s1) == (10, 10, 2)
        assert sorted(e.degree for e in fz) == [6, 30, 30]
        assert all(e.mult == 1 and e.poly.degree == e.degree for e in fz)
        assert verify(fz).passed

    def test_subfield_beyond_enumeration(self):
        # embedding F_{1009^2} in its degree-5 tower needs a root of a
        # modulus over a subfield of 1,018,081 elements
        ctx = ff.make_extension(1009, 2)
        fz = factor_binomial(ctx.x_class(), 11)
        assert fz.plan.s == 5
        assert verify(fz).passed

    def test_invariants_survive_optimize(self):
        # the paper's identities raise InvariantViolated instead of asserting,
        # so a spin of the wrong degree is caught under python -O as well
        code = (
            "import numpy as np\n"
            "from cyclofactor import factor, ff, spin\n"
            "from cyclofactor.errors import InvariantViolated\n"
            "real = spin.spin_binomials\n"
            "def doubled(*args):  # every spin twice its degree\n"
            "    stack, ends = real(*args)\n"
            "    return np.concatenate([stack, stack]), tuple(2 * e for e in ends)\n"
            "spin.spin_binomials = doubled\n"
            "try:\n"
            "    factor.factor_binomial(ff.make_extension(7, 1).from_int(3), 5)\n"
            "except InvariantViolated as exc:\n"
            "    print('InvariantViolated:', exc)\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "InvariantViolated: spin degree off the formula\n"


@pytest.fixture(scope="module")
def instances():
    rng = random.Random(6)
    out = []
    for ctx in (F2, F3, F4, F5, F7, F9):
        q = ctx.order
        pool = units(ctx) if q <= 5 else rng.sample(units(ctx), 4)
        for n in range(1, 17):
            if gcd(n, q) != 1:
                continue
            for a in pool:
                out.append((ctx, n, a, factor_binomial(a, n)))
    return out


class TestPlanParameters:
    """Every plan field must satisfy its defining arithmetic identity."""

    def test_split_and_descriptors(self, instances):
        for ctx, n, a, fz in instances:
            p = fz.plan
            q = ctx.order
            ord_a = ff.element_order(a)
            assert (p.q, p.n, p.a, p.char_power) == (q, n, a, 1)
            assert p.n1 * p.n2 == n
            assert ord_a % numth.radical(p.n1) == 0
            assert gcd(p.n2, ord_a) == 1
            assert p.w == numth.ord_mod(q, numth.radical(n))
            if n % 4 != 0 or pow(q, p.w, 4) == 1:
                assert p.s == p.w
            else:
                assert p.s == 2 * p.w
            for t in (1, 2, p.s):
                assert p.d1[t] == gcd(p.n1, (q**t - 1) // ord_a)
                assert p.d2[t] == gcd(p.n2, q**t - 1)

    def test_s1_r_and_root(self, instances):
        for ctx, n, a, fz in instances:
            p = fz.plan
            q = ctx.order
            ord_a = ff.element_order(a)
            d1s = p.d1[p.s]
            if d1s % 4 != 0 or q % 4 == 1:
                assert p.s1 == d1s // p.d1[1]
            else:
                assert p.s1 == 2 * d1s // p.d1[2]
            # the branch formula must produce the multiplicative order that
            # defines s1, on every instance
            assert p.s1 == numth.ord_mod(q, ord_a * d1s)
            if a == ctx.one():
                assert p.r == 1
            else:
                assert p.r * p.n2 % (ord_a * d1s) == 1
            W = p.b.ctx
            assert W.order == q**p.s
            assert p.b ** d1s == ff.embed(ctx, W)(a)
            assert ff.element_has_order(p.zeta_d1, d1s)
            assert ff.element_has_order(p.zeta_d2, p.d2[p.s])

    def test_coset_data(self, instances):
        for ctx, n, a, fz in instances:
            p = fz.plan
            q = ctx.order
            d2s = p.d2[p.s]
            covered = set()
            for coset in p.coset_reps.cosets:
                covered.update(coset)
                assert min(coset) in p.coset_reps.reps
                for i in coset:
                    assert i * q % d2s in coset
            assert covered == set(range(d2s))
            for i in p.coset_reps.reps:
                # stored t_i must equal the smallest t whose d2-level reaches i
                want = 1
                while i % (d2s // gcd(p.n2, q**want - 1)) != 0:
                    want += 1
                assert p.t_i[i] == want
                assert p.c_i[i] == lcm(p.t_i[i], p.s1)

    def test_j_orbits(self, instances):
        for ctx, n, a, fz in instances:
            p = fz.plan
            q = ctx.order
            d1s = p.d1[p.s]
            bq = p.b ** (q - 1)
            acc = p.b.ctx.one()
            u = 0
            while acc != bq:
                acc = acc * p.zeta_d1
                u += 1
                assert u <= d1s
            seen = set()
            reps = []
            for j0 in range(d1s):
                if j0 in seen:
                    continue
                orbit = []
                j = j0
                while j not in seen:
                    seen.add(j)
                    orbit.append(j)
                    j = (j * q + u) % d1s
                assert len(orbit) == p.s1
                reps.append(j0)
            assert tuple(reps) == p.j_classes
            assert len(p.j_classes) * p.s1 == d1s

    def test_degree_order_census(self, instances):
        for ctx, n, a, fz in instances:
            p = fz.plan
            ord_a = ff.element_order(a)
            d1s, d2s = p.d1[p.s], p.d2[p.s]
            pred = []
            for _ in p.j_classes:
                for v in numth.divisors(p.n2 // d2s):
                    for i in p.coset_reps.reps:
                        if gcd(i, v) != 1:
                            continue
                        for _m in range(gcd(p.t_i[i], p.s1)):
                            pred.append((
                                p.n1 // d1s * v * p.c_i[i],
                                ord_a * p.n1 * v * d2s // gcd(i, d2s),
                            ))
            assert sorted(pred) == sorted((e.degree, e.order) for e in fz)


class TestRootPowers:
    """The core takes u and lambda in a's own field F_q and never takes a
    root or a power of a in W: its root b = lambda b_u must still have
    b^{d1_s} = aW and b^{q-1} = zeta1^u for the canonical u below g =
    gcd(d1_s, q - 1), with a^{(q-1)/g} = zeta_g^u and the j-classes of
    that u."""

    @staticmethod
    def check(plan):
        a, d1s = plan.a, plan.d1[plan.s]
        emb = ff.embed(a.ctx, plan.b.ctx)
        q = a.ctx.order
        g = gcd(d1s, q - 1)
        assert plan.b ** d1s == emb(a)
        t = plan.b ** (q - 1)
        u = next(k for k in range(d1s) if plan.zeta_d1 ** k == t)
        assert u < g, (q, plan.n, u, g)
        assert emb(a ** ((q - 1) // g)) == plan.zeta_d1 ** (d1s // g * u)
        assert plan.j_classes == numth.coset_table(q, d1s, u).reps

    @staticmethod
    def spy(monkeypatch):
        """Record the field of every element ff.dth_root is handed."""
        real, seen = ff.dth_root, []

        def recording(x, d):
            seen.append(x.ctx)
            return real(x, d)

        monkeypatch.setattr(ff, "dth_root", recording)
        return seen

    def test_grid(self, monkeypatch):
        # every core input of the q <= 13, n <= 60 grid: all units, p not
        # dividing n (a grid n divisible by p reduces to one of these); the
        # d1_s-th roots are taken in the unit's own field only
        seen = self.spy(monkeypatch)
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
            ctx = ff.parse_field(str(q))
            for n in range(1, 61):
                if n % ctx.p:
                    for a in units(ctx):
                        self.check(factor_binomial(a, n).plan)
            assert set(seen) <= {ctx}, q
            seen.clear()

    @pytest.mark.parametrize("p, n, a", [(10007, 3, 5), (2**31 - 1, 5, 777),
                                         (10007, 4, 10006)])
    def test_large_prime_fields(self, p, n, a, monkeypatch):
        # the last has d1_s = 4 > g = 2, so its root is taken in F_p
        ctx = ff.make_extension(p, 1)
        seen = self.spy(monkeypatch)
        plan = factor_binomial(ctx.from_int(a), n).plan
        assert plan.s > 1
        self.check(plan)
        assert set(seen) <= {ctx}
        assert bool(seen) == (plan.d1[plan.s] > 1)

    def test_compositions(self, monkeypatch):
        # a composition factors X^n - alpha over K = F_{q^k} on the skeleton
        # of alpha's own field: its one embedding is the cached K -> W, and
        # its d1_s-th roots are taken in K
        seen = self.spy(monkeypatch)
        for f, n in ((parse_poly(F9, "x^2+x+[1,0]"), 7),
                     (first_irreducible_monic(F5, 2), 13)):
            plan = factor_composition(f, n).plan.inner
            self.check(plan)
            sk = factor_mod._plan_skeleton(plan.a.ctx, n,
                                           ff.element_order(plan.a))
            assert sk.emb is ff.embed(plan.a.ctx, sk.W)
            assert set(seen) <= {plan.a.ctx}
            seen.clear()

    def test_units_of_one_class_share_an_entry(self):
        # X^4 - 3 and X^4 - 5 over F_7: both of order 6, d1_s = 4 and g = 2.
        # Their lex-smallest d1_s-th roots in W give u = 1 and u = 3, which
        # agree mod g, so both take the one entry of u = 1
        cf.clear_caches()
        fz = [factor_binomial(F7.from_int(c), 4) for c in (3, 5)]
        d1s = [z.plan.d1[z.plan.s] for z in fz]
        assert d1s == [4, 4] and fz[0].plan.b.ctx.order == 49
        old_u = []
        for z in fz:
            W = z.plan.b.ctx
            t = ff.dth_root(ff.embed(F7, W)(z.plan.a), 4) ** 6
            old_u.append(next(k for k in range(4) if z.plan.zeta_d1 ** k == t))
        assert old_u == [1, 3]
        info = factor_mod._minpoly_entry.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        for z in fz:
            self.check(z.plan)
            assert verify(z).passed


class TestPlanSkeleton:
    """The a-free part of the formula is cached per (field, n, ord(a)) by
    _plan_skeleton; a cached skeleton must give what a fresh one gives.
    Beyond integers, roots and the embedding it carries the powers of
    zeta_{d1_s} and the rows of Z, and _minpoly_entry keeps the minimal
    polynomials over F_q per (skeleton, u): nothing that depends on a
    beyond its order and u."""

    @staticmethod
    def record(fz):
        return ([(e.poly, e.mult, e.degree, e.order) for e in fz], repr(fz.plan))

    def test_cold_and_warm_agree(self):
        # every unit of the grid fields with n <= 40: once after
        # clear_caches(), then again in reverse order, every skeleton warm
        # and most of them built for another unit of the same order
        cases = [(a, n) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)
                 for a in units(ff.parse_field(str(q))) for n in range(1, 41)]
        cf.clear_caches()
        cold = [self.record(factor_binomial(a, n)) for a, n in cases]
        built = factor_mod._plan_skeleton.cache_info()
        assert built.misses == built.currsize < len(cases) / 2
        warm = [self.record(factor_binomial(a, n)) for a, n in reversed(cases)]
        assert factor_mod._plan_skeleton.cache_info().misses == built.misses
        assert warm[::-1] == cold

    def test_units_of_one_order_share_a_skeleton(self):
        cf.clear_caches()
        assert ff.element_order(F13.from_int(2)) == 12
        assert ff.element_order(F13.from_int(6)) == 12
        first = factor_binomial(F13.from_int(2), 20)
        second = factor_binomial(F13.from_int(6), 20)
        info = factor_mod._plan_skeleton.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert first.plan.b != second.plan.b
        assert first.multiset() != second.multiset()
        # X^n - 1 and Phi_n share one skeleton
        factor_unity(F13, 20)
        factor_cyclotomic(F13, 20)
        info = factor_mod._plan_skeleton.cache_info()
        assert (info.misses, info.currsize) == (2, 2)

    def test_cached_rows_are_read_only(self):
        a = F7.from_int(3)
        fz = factor_binomial(a, 5)
        sk = factor_mod._plan_skeleton(F7, 5, ff.element_order(a))
        ent = factor_mod._minpoly_entry(sk, 0)
        # d1_s = 1: the skeleton holds zeta1^0, then zeta_5^0 and zeta_5^1;
        # the entry the minimal polynomials x - 1 and x^4 + x^3 + x^2 + x + 1
        # of zeta_5^0 and zeta_5^1 over F_7, end to end, as the logs of
        # their coefficients to the base 3, the generator, with the exponent
        # r v (d - k) mod 6 of lambda in each coefficient's power of c_1 =
        # lambda^5
        assert sk.W == fz.plan.zeta_d2.ctx and len(sk.rows) == 3
        assert F7.generator == F7.from_int(3) and sk.r == 5
        assert ent.glog.tolist() == [3, 0, 0, 0, 0, 0, 0]
        exp = F7.log_tables()[0]
        assert exp[ent.glog][:, 0].tolist() == [6, 1, 1, 1, 1, 1, 1]
        assert ent.expo.tolist() == [5, 0, 2, 3, 4, 5, 0]
        assert ent.glog.dtype == ent.expo.dtype == np.uint8
        assert ent.rows is ent.tix is None and ent.tlen == ()
        # X^20 - 2 over F_3, d1_s = 4: the four powers of zeta1, then the
        # rows of Z, zeta_5^0 and zeta_5^1 with its s1 = 2 conjugates
        b = F3.from_int(2)
        spun = factor_mod._plan_skeleton(F3, 20, ff.element_order(b))
        assert len(spun.rows) == 7
        for arr in (sk.rows, sk.zg, ent.glog, ent.expo, ent.bu, spun.rows):
            with pytest.raises(ValueError):
                arr[-1] = 1
            with pytest.raises(ValueError):
                arr[1:][0] = 1  # a view of the array is read-only too
        # the plan's a-free fields: one mapping, its dicts read-only views
        for mapping in (sk.plan, *(sk.plan[k] for k in ("d1", "d2", "t_i",
                                                        "c_i"))):
            with pytest.raises(TypeError):
                mapping[0] = 1
        assert factor_binomial(a, 5).multiset() == fz.multiset()

    def test_plans_share_read_only_mappings(self):
        # every plan of one skeleton holds the skeleton's coset table and
        # read-only mappings as they are: a write to one raises, and neither
        # another plan's nor the next call's printed plan changes
        a = F13.from_int(2)
        first, second = (factor_binomial(a, 35).plan for _ in range(2))
        sk = factor_mod._plan_skeleton(F13, 35, ff.element_order(a))
        assert first.coset_reps is second.coset_reps is sk.plan["coset_reps"]
        assert first.coset_reps == numth.coset_table(13, first.d2[first.s])
        def printed(plan):
            return cli._plan_text(plan), cli._plan_json(plan)

        want = printed(second)
        for name in ("t_i", "c_i", "d1", "d2"):
            mine, other = getattr(first, name), getattr(second, name)
            assert mine is other is sk.plan[name], name
            with pytest.raises(TypeError):
                mine[-1] = 0
        again = factor_binomial(a, 35).plan
        assert [printed(p) for p in (first, second, again)] == [want] * 3

    def test_cache_footprint_of_a_grid_slice(self):
        # one unit per (q, n) of the grid from clear_caches(): the arrays
        # the new FieldCtx, EmbeddingMap, _Skeleton and _Entry objects hold
        # come to 1.72 MB by nbytes, a buffer viewed many times counted
        # once, against 4.62 MB with int64 tower Frobenius matrices and full
        # embedding T matrices.  nbytes is the same on every Python and
        # under -O.  Equal d1/d2 ladders and t_i/c_i are one mapping
        kinds = (ff.FieldCtx, ff.EmbeddingMap, factor_mod._Skeleton,
                 factor_mod._Entry)
        cf.clear_caches()
        gc.collect()
        before = [o for o in gc.get_objects() if isinstance(o, kinds)]
        seen = {id(o) for o in before}
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
            ctx = ff.parse_field(str(q))
            for n in range(1, 61):
                factor_binomial(ctx.element_from_index(q - 1), n)
        gc.collect()
        new = [o for o in gc.get_objects()
               if isinstance(o, kinds) and id(o) not in seen]
        held = {}
        for o in new:
            for v in (vars(o).values() if hasattr(o, "__dict__") else o):
                items = v.values() if isinstance(v, dict) else (
                    v if isinstance(v, tuple) else (v,))
                for arr in items:
                    if not isinstance(arr, np.ndarray):
                        continue
                    while isinstance(arr.base, np.ndarray):
                        arr = arr.base
                    held[id(arr)] = arr
        assert sum(isinstance(o, factor_mod._Skeleton) for o in new) == 381
        assert sum(a.nbytes for a in held.values()) < 2_000_000
        shared = {}
        for sk in (o for o in new if isinstance(o, factor_mod._Skeleton)):
            for name in ("d1", "d2", "t_i", "c_i"):
                m = sk.plan[name]
                assert shared.setdefault(tuple(m.items()), m) is m, name
        assert len(shared) == 266  # for 4 x 381 references

    def test_clear_caches_empties_every_cache(self):
        factor_binomial(F9.generator, 10)
        factor_composition(parse_poly(F9, "x^2+x+[1,0]"), 7)
        cf.clear_caches()
        for mod in (numth, ff, poly_mod, factor_mod):
            for name, obj in vars(mod).items():
                if hasattr(obj, "cache_info"):
                    assert obj.cache_info().currsize == 0, name

    def test_racing_first_calls_agree(self):
        # no lock guards the caches, so threads that miss together may each
        # build a field or embedding: the results must still be equal, and
        # the factors those of a sequential run.  The field has an explicit
        # non-lex modulus and embeds into the lex F_16
        def work():
            F256 = ff.make_extension(2, 8)
            F = ff.parse_field("2^4/1,1,0,0,1")
            emb = ff.embed(F, ff.make_extension(2, 4))
            fz = factor_composition(parse_poly(F, "x+[0,1,0,0]"), 17)
            return (F256, F, emb.sub, emb.sup, emb.root,
                    [(poly_text(e.poly), e.mult) for e in fz])

        cf.clear_caches()
        got, errors = [], []

        def run():
            try:
                got.append(work())
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=run, daemon=True) for _ in range(4)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        assert not errors, errors
        assert len(got) == 4 and all(g == got[0] for g in got[1:])
        cf.clear_caches()
        assert work() == got[0]

    @pytest.mark.parametrize("flags", [[], ["-O"]])
    def test_s1_check_runs_on_a_fresh_skeleton(self, flags):
        # X^8 - 2 over F_5: s1 = 1 is the order of 5 mod ord(2) * d1_s = 4;
        # a wrong ord_mod there is caught when the skeleton is built, not
        # when a cached one is reused, under python -O as well
        code = (
            "from cyclofactor import clear_caches, factor, ff, numth\n"
            "from cyclofactor.errors import InvariantViolated\n"
            "a = ff.make_extension(5, 1).from_int(2)\n"
            "factor.factor_binomial(a, 8)\n"
            "real = numth.ord_mod\n"
            "numth.ord_mod = lambda m, k: real(m, k) + (k == 4)\n"
            "factor.factor_binomial(a, 8)\n"
            "print('cached')\n"
            "clear_caches()\n"
            "try:\n"
            "    factor.factor_binomial(a, 8)\n"
            "except InvariantViolated as exc:\n"
            "    print('InvariantViolated:', exc)\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout == ("cached\nInvariantViolated: s1 is not the order"
                              " of q mod ord(a) * d1_s\n")


class TestUnity:
    def test_linear(self):
        fz = factor_unity(F5, 1)
        assert [poly_text(e.poly) for e in fz] == ["x + 4"]

    def test_fourth_roots(self):
        fz = factor_unity(F5, 4)
        assert [poly_text(e.poly) for e in fz] == ["x + 1", "x + 2", "x + 3", "x + 4"]

    @pytest.mark.parametrize("p, N", [(2, 500), (7, 300)])
    def test_large_tower_factors_only_its_subfield(self, p, N, monkeypatch):
        # ord(1) = 1 is found in F_p: nothing of p^N - 1 is factored (the
        # cyclotomic part Phi_500(2) of 2^500 - 1 has 61 digits), and the
        # root of unity of order 3 is raised through its norm
        W = ff.make_tower(p, N)
        asked, factored = [], []
        fpm, factorize = numth.factored_power_minus_one, numth.factorize
        monkeypatch.setattr(numth, "factored_power_minus_one",
                            lambda p, m: asked.append(m) or fpm(p, m))
        monkeypatch.setattr(numth, "factorize",
                            lambda n: factored.append(n) or factorize(n))
        t0 = time.perf_counter()
        fz = factor_unity(W, 3)
        elapsed = time.perf_counter() - t0
        assert [e.degree for e in fz] == [1, 1, 1]
        assert verify(fz).passed
        assert elapsed < 2, elapsed
        assert N not in asked and max(factored) < 2**64

    def test_large_tower_verify_inverts_nothing(self, monkeypatch):
        # every factor of X^3 - 1 over F_{2^500} has a constant h = Y^j mod
        # g in verify's order test: X^rem h_0 = 1 is tested by one product
        # with h_0, with no inverse in the whole field
        fz = factor_unity(ff.make_tower(2, 500), 3)
        inverted = []
        vinv = ff.FieldCtx.vinv
        monkeypatch.setattr(ff.FieldCtx, "vinv",
                            lambda self, a: inverted.append(a) or vinv(self, a))
        assert verify(fz).passed
        assert inverted == []

    def test_equals_binomial_at_one(self):
        for ctx in (F2, F3, F4, F5, F9):
            for n in range(1, 16):
                fz = factor_unity(ctx, n)
                other = factor_binomial(ctx.one(), n)
                assert fz.multiset() == other.multiset()
                assert sorted(e.order for e in fz) == sorted(e.order for e in other)


class TestCyclotomic:
    def test_knowns(self):
        assert [poly_text(e.poly) for e in factor_cyclotomic(F5, 1)] == ["x + 4"]
        fz = factor_cyclotomic(F3, 4)
        assert [poly_text(e.poly) for e in fz] == ["x^2 + 1"]
        assert fz.factors[0].order == 4
        fz = factor_cyclotomic(F5, 4)
        assert [poly_text(e.poly) for e in fz] == ["x + 2", "x + 3"]

    def test_count_degree_order(self):
        for ctx in (F3, F4, F5, F9):
            q = ctx.order
            for n in range(1, 21):
                if gcd(n, q) != 1:
                    continue
                fz = factor_cyclotomic(ctx, n)
                w = numth.ord_mod(q, numth.radical(n))
                s = w if (n % 4 != 0 or pow(q, w, 4) == 1) else 2 * w
                ds = gcd(n, q**s - 1)
                assert len(fz) == numth.euler_phi(ds) // s
                for e in fz:
                    assert e.degree == (n // ds) * s
                    assert e.order == n
                    assert is_irreducible(e.poly)
                assert fz.product() == fz.base
                assert [(e.poly, e.degree, e.order) for e in fz] == [
                    (e.poly, e.degree, e.order)
                    for e in factor_unity(ctx, n) if e.order == n]

    def test_divisor_product_is_unity(self):
        for ctx, n in ((F3, 8), (F5, 12), (F2, 15)):
            prod = Poly.one(ctx)
            for d in numth.divisors(n):
                prod = prod * factor_cyclotomic(ctx, d).product()
            assert prod == Poly.binomial(ctx, n, 1)

    def test_char_conflict(self):
        with pytest.raises(NotCoprimeToChar):
            factor_cyclotomic(F3, 6)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
    def test_order_n_part_of_unity(self, q, monkeypatch):
        # Phi_n is the order-n entries of X^n - 1, and after X^n - 1 it
        # reads X^n - 1's skeleton, entry and spin stack: no cache miss, no
        # spin
        ctx = ff.parse_field(str(q))
        spin, spins = spin_mod.spin_binomials, []
        monkeypatch.setattr(spin_mod, "spin_binomials",
                            lambda *args: spins.append(args) or spin(*args))
        caches = (factor_mod._plan_skeleton, factor_mod._minpoly_entry,
                  spin_mod._spun_minpolys)
        for n in range(1, 61):
            if n % ctx.p == 0:
                continue
            unity = [tuple(e) for e in factor_unity(ctx, n) if e.order == n]
            misses, spins[:] = [c.cache_info().misses for c in caches], []
            phi = factor_cyclotomic(ctx, n)
            assert [c.cache_info().misses for c in caches] == misses, n
            assert not spins, n
            assert [tuple(e) for e in phi] == unity, n

    def test_forged_order_raises(self):
        # a core entry relabelled out of order n, or into it, leaves the
        # order-n degrees off deg Phi_n: InvariantViolated, not an assert,
        # so also under python -O
        code = (
            "from cyclofactor import factor, ff\n"
            "from cyclofactor.errors import InvariantViolated\n"
            "real = factor._binomial_core\n"
            "for old, new in ((20, 10), (10, 20)):\n"
            "    def forged(a, n, *args, old=old, new=new):\n"
            "        plan, entries = real(a, n, *args)\n"
            "        k = next(k for k, e in enumerate(entries) if e.order == old)\n"
            "        entries[k] = entries[k]._replace(order=new)\n"
            "        return plan, entries\n"
            "    factor._binomial_core = forged\n"
            "    try:\n"
            "        factor.factor_cyclotomic(ff.parse_field('7'), 20)\n"
            "    except InvariantViolated as exc:\n"
            "        print('InvariantViolated:', exc)\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        want = "InvariantViolated: order-n factor degrees do not sum to deg Phi_n\n"
        for flags in ([], ["-O"]):
            out = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                                 capture_output=True, text=True, timeout=120)
            assert out.returncode == 0, out.stderr
            assert out.stdout == 2 * want, out.stdout

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
    def test_series_matches_moebius_quotient(self, q):
        # the printed base, byte for byte: the dense Moebius product of the
        # X^d - 1 divided by one long division, for every n <= 200
        (p, e), = numth.factorize(q).factors.items()
        ctx = ff.make_extension(p, e)
        for n in range(1, 201):
            num, den = Poly.one(ctx), Poly.one(ctx)
            for d in numth.divisors(n):
                mu = numth.mobius(n // d)
                if mu == 1:
                    num = num * Poly.binomial(ctx, d, 1)
                elif mu == -1:
                    den = den * Poly.binomial(ctx, d, 1)
            want, rem = divmod(num, den)
            assert rem.is_zero()
            got = factor_mod._cyclotomic_poly(ctx, n)
            assert got == want, n
            assert got.a.dtype == want.a.dtype and got.a.tobytes() == want.a.tobytes()


class TestCofactorSpin:
    """Spin stacks of whole factorizations: every row of orbit length
    d > 4e, e = [F_q : F_p], is solved once, the largest included (the
    class is named for the cofactor that row was once read off as), and
    each row's spin equals the row spun alone."""

    @pytest.fixture
    def replay(self, monkeypatch):
        """Run build() on empty skeleton, entry and stack caches with its one
        spin_binomials call recorded, the entry's spin, over F_{q^k} for a
        composition, and the Krylov solves it makes counted:
        exactly one per row of degree d > 4e.  Then spin each row of that
        stack alone: the spins must be equal.  Returns the number of
        solves."""
        solve, spin = spin_mod._minpoly_by_solve, spin_mod.spin_binomials
        solves = []
        monkeypatch.setattr(spin_mod, "_minpoly_by_solve",
                            lambda *args: solves.append(1) or solve(*args))
        calls = []

        def recording(*args):
            before = len(solves)
            out = spin(*args)
            calls.append((args, out, len(solves) - before))
            return out

        monkeypatch.setattr(spin_mod, "spin_binomials", recording)

        def run(build):
            # a cached entry or stack would skip the spin
            factor_mod._plan_skeleton.cache_clear()
            factor_mod._minpoly_entry.cache_clear()
            spin_mod._spun_minpolys.cache_clear()
            calls.clear()
            build()
            ((emb, C), (stack, ends), n_solves), = calls
            short = spin_mod._SPIN_SOLVE_RATIO * emb.sub.m
            spans = list(zip((0,) + ends, ends))
            assert n_solves == sum(hi - lo - 1 > short for lo, hi in spans)
            for k, (lo, hi) in enumerate(spans):
                alone, end = spin(emb, C[k : k + 1])
                assert end == (hi - lo,)
                assert np.array_equal(alone, stack[lo:hi])
            return n_solves

        return run

    @pytest.mark.parametrize("ctx", [F2, F3, F4, F5, F7, ff.make_extension(2, 3), F9],
                             ids=lambda c: str(c.order))
    def test_equal_spins_binomials(self, ctx, replay):
        # every X^n - a with n <= 60, p | n included
        solved = 0
        for n in range(1, 61):
            for a in units(ctx):
                solved += replay(lambda: factor_binomial(a, n)) > 0
        assert solved > 0

    def test_equal_spins_cyclotomic_and_compositions(self, replay):
        rng = random.Random(17)
        solved = 0
        for ctx in (F2, F3, F4, F5, F7, ff.make_extension(2, 3), F9, F13):
            for n in rng.sample([n for n in range(1, 120) if n % ctx.p], 12):
                solved += replay(lambda: factor_cyclotomic(ctx, n)) > 0
        for deg in (1, 2, 3):
            fs = []
            for idxs in itertools.product(range(1, 9), *[range(9)] * (deg - 1)):
                f = Poly.from_coeffs(F9, [F9.element_from_index(i) for i in idxs] + [1])
                if rabin_irreducible(f):
                    fs.append(f)
            for f in rng.sample(fs, 4):
                for n in rng.sample(range(1, 40), 8):
                    solved += replay(lambda: factor_composition(f, n)) > 0
        assert solved > 20

    def test_tower_174_takes_one_solve(self, replay):
        # X^59 - a over F_8 (d1_s = 1): the entry spins x - 1, a d = 1
        # product row, and x - zeta_59, the d = 58 row, one 175-unknown
        # solve over the degree-174 tower
        F8 = ff.make_extension(2, 3)
        a = ff.parse_element(F8, "[0,1,1]")
        assert replay(lambda: factor_binomial(a, 59)) == 1


class TestRescaledMinpolys:
    """Each factor of X^n - a is a minimal polynomial of the cached entry
    of (skeleton, u), spun once for the reference root b_u with b_u^{q-1} =
    zeta_{d1_s}^u, rescaled by a power of lambda = b / b_u in F_q (lambda =
    a when d1_s = 1); a composition takes the entries of X^n - alpha over
    F_{q^k} the same way."""

    @staticmethod
    def per_call_entries(plan):
        """The factors as a call spins them from the formula alone:
        X^D - zeta2^{i q^mm} (zeta1^j b)^{r v} for every j-class j, v and
        kept row (i, mm), mm < gcd(t_i, s1), D = n1 v / d1_s, one stack."""
        W, d1s, d2s = plan.zeta_d2.ctx, plan.d1[plan.s], plan.d2[plan.s]
        ord_a = ff.element_order(plan.a)
        D, consts, orders = [], [], []
        for j in plan.j_classes:
            for v in numth.divisors(plan.n2 // d2s):
                cv = (plan.zeta_d1 ** j * plan.b) ** (plan.r * v)
                for i in plan.coset_reps.reps:
                    if gcd(i, v) != 1:
                        continue
                    for mm in range(gcd(plan.t_i[i], plan.s1)):
                        z = plan.zeta_d2 ** (i * plan.q ** mm % d2s)
                        D.append(plan.n1 // d1s * v)
                        consts.append((-z * cv).vec())
                        orders.append(ord_a * plan.n1 * v * d2s // gcd(i, d2s))
        spins = spun(ff.embed(plan.a.ctx, W), D, np.array(consts))
        return sorted(((S, plan.char_power, S.degree, o)
                       for S, o in zip(spins, orders)),
                      key=lambda e: e[0].key())

    def test_equals_per_call_spin_on_the_grid(self):
        # every unit of the nine grid fields with n <= 60, d1_s > 1 included
        checked = {False: 0, True: 0}
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
            ctx = ff.parse_field(str(q))
            for a in units(ctx):
                for n in range(1, 61):
                    fz = factor_binomial(a, n)
                    got = [tuple(e) for e in fz]
                    assert got == self.per_call_entries(fz.plan), (q, a, n)
                    checked[fz.plan.d1[fz.plan.s] > 1] += 1
        assert checked[False] > 2000 and checked[True] > 500

    def test_warm_call_takes_no_spin(self, monkeypatch):
        F8 = ff.make_extension(2, 3)
        F7919 = ff.make_extension(7919, 1)
        cases = ((F7.from_int(3), 5), (ff.parse_element(F8, "[0,1,1]"), 59),
                 (F9.element_from_index(5), 53), (F13.from_int(3), 20),
                 (F3.from_int(2), 20), (ff.parse_element(F9, "[1,1]"), 58),
                 (F13.from_int(2), 57), (F7919.from_int(29), 4))
        want = [factor_binomial(a, n) for a, n in cases]
        assert [fz.plan.d1[fz.plan.s] > 1 for fz in want] == [False] * 4 + [True] * 4

        def forbidden(*args):
            raise AssertionError("a warm call spins")

        monkeypatch.setattr(spin_mod, "spin_binomials", forbidden)
        monkeypatch.setattr(spin_mod, "_minpoly_by_solve", forbidden)
        for (a, n), fz in zip(cases, want):
            assert [tuple(e) for e in factor_binomial(a, n)] == \
                [tuple(e) for e in fz]

    def test_units_of_one_u_share_an_entry(self, monkeypatch):
        # X^58 - [1,1] and X^58 - [2,2] over F_9: one order, one u, so the
        # second call rescales the first one's entry and spins nothing
        first, second = (ff.parse_element(F9, t) for t in ("[1,1]", "[2,2]"))
        cf.clear_caches()
        fz = factor_binomial(first, 58)
        assert fz.plan.d1[fz.plan.s] > 1
        info = factor_mod._minpoly_entry.cache_info()
        assert (info.misses, info.hits) == (1, 0)

        def forbidden(*args):
            raise AssertionError("a shared entry spins")

        monkeypatch.setattr(spin_mod, "spin_binomials", forbidden)
        monkeypatch.setattr(spin_mod, "_minpoly_by_solve", forbidden)
        again = factor_binomial(second, 58)
        info = factor_mod._minpoly_entry.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert again.plan.b != fz.plan.b
        assert again.multiset() != fz.multiset()
        monkeypatch.undo()
        assert verify(again).passed

    def test_reference_roots_hold(self, monkeypatch):
        # every entry a grid call takes has b_u^{q-1} = zeta1^u and y_inv =
        # b_u^{-d1_s}, and the call's root b is lambda b_u for a lambda in
        # F_q
        real, used = factor_mod._minpoly_entry, []

        def recording(sk, u):
            used.append((sk, u, real(sk, u)))
            return used[-1][2]

        monkeypatch.setattr(factor_mod, "_minpoly_entry", recording)
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
            for a in units(ff.parse_field(str(q))):
                for n in range(1, 61):
                    b = factor_binomial(a, n).plan.b
                    sk, u, ent = used[-1]
                    lam = b / sk.W.from_vec(ent.bu)
                    assert lam ** (q - 1) == sk.W.one(), (q, a, n)
        for sk, u, ent in {id(e): (sk, u, e) for sk, u, e in used}.values():
            bu = sk.W.from_vec(ent.bu)
            assert bu ** (sk.emb.sub.order - 1) == sk.plan["zeta_d1"] ** u
            assert sk.emb(ent.y_inv) == bu ** -sk.d1s
        assert sum(u != 0 for _, u, _ in used) > 100

    def test_forged_reference_root_raises(self, monkeypatch):
        # a b_u off the line x^q = zeta1^u x is caught by an invariant, not
        # an assert, so also under python -O
        # (the tower and roots are built first, with the true null spaces)
        a = ff.parse_element(F9, "[1,1]")
        factor_binomial(a, 58)
        factor_mod._minpoly_entry.cache_clear()
        monkeypatch.setattr(ff, "_nullspace_basis",
                            lambda M, p: [np.eye(M.shape[1], dtype=M.dtype)[0]])
        with pytest.raises(InvariantViolated, match="b_u"):
            factor_binomial(a, 58)
        monkeypatch.undo()
        code = (
            "import numpy as np\n"
            "from cyclofactor import ff, factor\n"
            "from cyclofactor.errors import InvariantViolated\n"
            "a = ff.parse_element(ff.parse_field('9'), '[1,1]')\n"
            "factor.factor_binomial(a, 58)\n"
            "factor._minpoly_entry.cache_clear()\n"
            "ff._nullspace_basis = lambda M, p: [\n"
            "    np.eye(M.shape[1], dtype=M.dtype)[0]]\n"
            "try:\n"
            "    factor.factor_binomial(a, 58)\n"
            "except InvariantViolated as exc:\n"
            "    print('InvariantViolated:', exc)\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout == ("InvariantViolated: b_u^(q-1) is not"
                              " zeta_{d1_s}^u\n")

    def test_other_inputs_spin_only_while_cold(self, monkeypatch):
        # X^20 - 2 over F_3 has d1_s = 4, and the composition's alpha lies
        # in F_81 over F_9: both spin only while their entry is built
        f = parse_poly(F9, "x^2+x+[1,0]")
        cases = ((lambda: factor_binomial(F3.from_int(2), 20), 4, 0),
                 (lambda: factor_composition(f, 7), None, 0))
        spin, calls = spin_mod.spin_binomials, []

        def recording(*args):
            calls.append(args)
            return spin(*args)

        for build, d1s, spins in cases:
            fz = build()  # warms the skeleton and any entry
            if d1s is not None:
                assert fz.plan.d1[fz.plan.s] == d1s
            monkeypatch.setattr(spin_mod, "spin_binomials", recording)
            calls.clear()
            again = build()
            monkeypatch.undo()
            assert len(calls) == spins
            assert [tuple(e) for e in again] == [tuple(e) for e in fz]

    def test_factors_are_disjoint_slices_of_one_buffer(self):
        # each factor is its coefficient rows written at stride D into one
        # buffer: its own slice, equal to Poly.spread of those rows, and
        # overlapping no other factor
        cases = ((F7.from_int(3), 5), (F13.from_int(2), 57),
                 (ff.parse_element(F9, "[1,1]"), 58), (F3.from_int(2), 20),
                 (ff.make_extension(2**61 - 1, 1).from_int(3), 6))
        strides = set()
        for a, n in cases:
            plan, entries = factor_mod._binomial_core(a, n)
            polys = [e.poly for e in entries]
            assert len(polys) > 1, (a, n)
            for S, T in itertools.combinations(polys, 2):
                assert not np.shares_memory(S.a, T.a), (a, n)
            sk = factor_mod._plan_skeleton(a.ctx, n, ff.element_order(a))
            assert len(sk.Ds) == len(polys), (a, n)
            for S, D in zip(polys, sk.Ds):
                rows = S.a[::D]
                assert len(rows) == S.degree // D + 1, (a, n)
                assert S == Poly.spread(a.ctx, rows, D), (a, n)
                strides.add(D)
        assert max(strides) > 1

    def test_forged_cached_minpoly_fails_verify(self, monkeypatch):
        a = F7.from_int(3)
        assert verify(factor_binomial(a, 5)).passed
        real = factor_mod._minpoly_entry
        sk = factor_mod._plan_skeleton(F7, 5, ff.element_order(a))
        # F_7 has log tables: the entry keeps its coefficients as logs
        forged = F7.log_tables()[0][real(sk, 0).glog].astype(np.int64)
        forged[3, 0] = (forged[3, 0] + 1) % 7  # x^4 + x^3 + ...: its x^1
        monkeypatch.setattr(factor_mod, "_minpoly_entry",
                            lambda *args: real(*args)._replace(
                                glog=F7.vlog(forged)))
        report = verify(factor_binomial(a, 5))
        assert not report.passed
        assert "FAIL product" in str(report)


class TestLogRescale:
    """A field with q <= ff.LOG_TABLE_LIMIT rescales the cached minimal
    polynomials by one gather through its discrete-log tables; a larger
    field multiplies them by power tables of c_v.  Both paths must give
    the same factors, and only the fields of the inputs build tables."""

    @staticmethod
    def grid_binomials():
        """The 3,060 seed-0 grid binomials: every unit when q <= 9, ten
        sampled units per (q, n) above."""
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
            ctx = ff.parse_field(str(q))
            for n in range(1, 61):
                idxs = (range(1, q) if q <= 9 else
                        random.Random(q * 1000 + n).sample(range(1, q), 10))
                for idx in idxs:
                    yield ctx.element_from_index(idx), n

    @staticmethod
    def verify_binomials():
        """The binomials of the benchmark's verify workload, seeds 0 and 1."""
        for seed in (0, 1):
            for q in (4, 9, 25, 49):
                ctx = ff.parse_field(str(q))
                for n in range(1, 61):
                    rng = random.Random(f"verify:{seed}:{q}:{n}")
                    yield ctx.element_from_index(rng.randrange(1, q)), n

    def test_table_and_power_paths_agree(self, monkeypatch):
        # the power path is the reference: with the limit at 0 no field
        # has tables; skeletons and spin stacks are shared, entries rebuilt
        real, paths = factor_mod._rescaled_minpolys, Counter()

        def spy(sk, ent, ctx, lam):
            paths[("table" if ent.glog is not None else "power"
                   if ent.tix is not None else "none")] += 1
            return real(sk, ent, ctx, lam)

        monkeypatch.setattr(factor_mod, "_rescaled_minpolys", spy)

        def record():
            fzs = [factor_binomial(a, n) for a, n in
                   itertools.chain(self.grid_binomials(),
                                   self.verify_binomials())]
            fzs += [factor_composition(f, n)
                    for f, n in TestCompositionNorm.corpus()]
            return [(repr(fz), fz.multiset(),
                     [(e.mult, e.degree, e.order) for e in fz]) for fz in fzs]

        factor_mod._minpoly_entry.cache_clear()
        tables = record()
        assert len(tables) == 3060 + 480 + 204
        # compositions over F_16 and F_27 of degree 4 reach K above the limit
        assert paths["table"] > 2000 and paths["power"] > 0
        paths.clear()
        try:
            with monkeypatch.context() as mp:
                mp.setattr(ff, "LOG_TABLE_LIMIT", 0)
                factor_mod._minpoly_entry.cache_clear()
                powers = record()
        finally:
            factor_mod._minpoly_entry.cache_clear()
        assert paths["table"] == 0 and paths["power"] > 2000
        assert powers == tables

    def test_tables_stay_on_small_input_fields(self, monkeypatch):
        built, chained = [], []
        build, power_matrix = (ff.FieldCtx._build_log_tables,
                               ff.FieldCtx.power_matrix)
        monkeypatch.setattr(ff.FieldCtx, "_build_log_tables",
                            lambda self: built.append(self) or build(self))
        monkeypatch.setattr(
            ff.FieldCtx, "power_matrix",
            lambda self, *a: chained.append(self) or power_matrix(self, *a))
        cf.clear_caches()
        # F_{2^31 - 1} is above the limit: the power path, and no table
        big = ff.make_extension(2**31 - 1, 1)
        a = big.from_int(3)
        assert verify(factor_binomial(a, 3)).passed
        ent = factor_mod._minpoly_entry(
            factor_mod._plan_skeleton(big, 3, ff.element_order(a)), 0)
        assert ent.period > 1 and ent.glog is None and ent.tix is not None
        assert big in chained and big not in built and big._logs is None
        # the towers W of the grid fields: only the input fields build
        # tables, and a tower with s > 1 never does unless it is one of them
        inputs = [ff.parse_field(str(q)) for q in (2, 3, 4, 5, 7, 8, 9, 11,
                                                   13)]
        towers = set()
        for ctx in inputs:
            for n in range(1, 61):
                fz = factor_binomial(ctx.generator, n)
                if fz.plan.s > 1:
                    towers.add(fz.plan.zeta_d2.ctx)
        assert len(towers) > 50
        assert {id(c) for c in built} == {id(c) for c in inputs}
        assert all(W._logs is None for W in towers
                   if not any(W is c for c in inputs))


class TestSharedStacks:
    """_minpoly_entry spins its distinct constants through _spun_minpolys,
    cached per (embedding, constants): entries of one W whose constants
    agree, as every order of a unit with d1_s = 1 does, share one stack."""

    @pytest.mark.parametrize("ctx, n, idxs, n_orders, dtype", [
        (F13, 35, range(1, 13), 6, np.int64),
        # 1, -1, 7^2 and the primitive root 7: orders 1, 2, (p-1)/2, p-1
        (ff.make_extension(2147483647, 1), 5, (1, 2147483646, 49, 7), 4,
         object)], ids=["13", "2147483647"])
    def test_orders_of_a_share_one_stack(self, ctx, n, idxs, n_orders, dtype,
                                         monkeypatch):
        spin, spins = spin_mod.spin_binomials, []
        monkeypatch.setattr(spin_mod, "spin_binomials",
                            lambda *args: spins.append(args) or spin(*args))
        cf.clear_caches()
        fzs = [factor_binomial(ctx.from_int(i), n) for i in idxs]
        assert all(fz.plan.d1[fz.plan.s] == 1 for fz in fzs)
        assert len({ff.element_order(fz.plan.a) for fz in fzs}) == n_orders
        # one skeleton and one entry per order, one stack for all of them
        assert factor_mod._plan_skeleton.cache_info().currsize == n_orders
        assert factor_mod._minpoly_entry.cache_info().currsize == n_orders
        (emb, C), = spins
        assert C.dtype == dtype
        info = spin_mod._spun_minpolys.cache_info()
        assert (info.misses, info.hits) == (1, n_orders - 1)
        assert all(verify(fz).passed for fz in fzs)

    def test_cached_rows_are_read_only(self, monkeypatch):
        real, got = spin_mod._spun_minpolys, []
        monkeypatch.setattr(spin_mod, "_spun_minpolys",
                            lambda *args: got.append(real(*args)) or got[-1])
        cf.clear_caches()
        factor_binomial(F7.from_int(3), 5)  # d1_s = 1
        factor_binomial(ff.parse_element(F9, "[1,1]"), 58)  # d1_s > 1
        assert len(got) == 2 and real.cache_info().currsize == 2
        for stack, ends in got:
            assert ends[-1] == len(stack)
            with pytest.raises(ValueError):
                stack[-1] = 1
            with pytest.raises(ValueError):
                stack[ends[0]:][0] = 1  # a view of the array is read-only too

    def test_equals_a_run_with_every_cache_cleared(self):
        # X^n - a, X^n - 1 and Phi_n, d1_s > 1 included: warm and shared
        # stacks give the text and plan of a call in a fresh process
        def record(fz):
            return ([(poly_text(e.poly), e.mult, e.degree, e.order) for e in fz],
                    repr(fz.plan))

        calls = [(lambda a=a, n=n: factor_binomial(a, n))
                 for a in units(F13) for n in (20, 35, 57)]
        calls += [(lambda a=a, n=n: factor_binomial(a, n))
                  for a in units(F9) for n in (10, 58)]
        calls += [(lambda ctx=ctx, n=n: fn(ctx, n)) for ctx in (F4, F13)
                  for n in (15, 35) for fn in (factor_unity, factor_cyclotomic)]
        cf.clear_caches()
        shared = [record(run()) for run in calls]
        assert spin_mod._spun_minpolys.cache_info().hits > 0
        fresh = []
        for run in calls:
            cf.clear_caches()
            fresh.append(record(run()))
        assert shared == fresh

    def test_forged_cached_row_fails_verify(self):
        # a wrong row in a shared stack is caught by the product check, not
        # an assert, so also under python -O
        code = (
            "from cyclofactor import clear_caches, factor, ff, spin\n"
            "a = ff.parse_field('7').from_int(3)\n"
            "clear_caches()\n"
            "real = spin._spun_minpolys\n"
            "def forged(emb, consts):\n"
            "    stack, ends = real(emb, consts)\n"
            "    stack = stack.copy()\n"
            "    stack[ends[-2] + 1, 0] = (stack[ends[-2] + 1, 0] + 1) % 7\n"
            "    return stack, ends\n"
            "spin._spun_minpolys = forged\n"
            "print(factor.verify(factor.factor_binomial(a, 5)))\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        for flags in ([], ["-O"]):
            out = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                                 capture_output=True, text=True, timeout=120)
            assert out.returncode == 0, out.stderr
            assert out.stdout.startswith("FAIL product"), out.stdout


class TestInputDegreeGuard:
    def test_fails_before_allocating(self):
        limit = factor_mod.MAX_INPUT_DEGREE
        tracemalloc.start()
        try:
            for n in (limit + 1, 2**40, 10**12):  # 2**40: 8 TiB of coefficients
                for build in (
                        lambda: factor_binomial(F7.element_from_index(3), n),
                        lambda: factor_unity(F3, n),
                        lambda: factor_cyclotomic(F3, n),
                        lambda: factor_radq1(F5.element_from_index(2), n),
                        lambda: unity_shortcut(F5.one(), n),
                        lambda: factor_composition(parse_poly(F3, "x + 2"), n)):
                    with pytest.raises(DegreeGuard,
                                       match=f"{n} exceeds .* = {limit}$"):
                        build()
            # f(X^n) counts n * deg f
            with pytest.raises(DegreeGuard, match=f"{limit + 2} exceeds"):
                factor_composition(parse_poly(F3, "x^2 + 1"), limit // 2 + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # one degree-2^20 coefficient array is 8 MiB

    def test_composition_refuses_before_rabin(self, monkeypatch):
        # f of degree 2100 > MAX_EXTENSION_DEGREE: the root's field F_{2^2100}
        # is refused before a Rabin test that would take most of a minute
        def forbidden(f):
            raise AssertionError("Rabin test above the degree limit")

        monkeypatch.setattr(factor_mod, "rabin_irreducible", forbidden)
        f = parse_poly(F2, "x^2100+x+1")
        with pytest.raises(DegreeGuard, match="MAX_EXTENSION_DEGREE"):
            factor_composition(f, 3)


class TestComposition:
    def test_warm_calls_prove_no_prime(self, monkeypatch):
        # the characteristic of a field is prime by construction: a warm
        # composition, its verify and the verify of a binomial, p not
        # dividing n, run no primality test on it
        F10007 = ff.make_extension(10007, 1)
        runs = [lambda: factor_composition(parse_poly(F10007, "x^2 + 1"), 3),
                lambda: factor_composition(parse_poly(F9, "x^2+x+[1,0]"), 7),
                lambda: factor_binomial(F10007.from_int(29), 4)]
        want = [(fz.multiset(), str(verify(fz))) for fz in (r() for r in runs)]
        asked = []
        monkeypatch.setattr(numth, "is_prime",
                            lambda n: asked.append(n) or True)
        got = [(fz.multiset(), str(verify(fz))) for fz in (r() for r in runs)]
        assert got == want and all("FAIL" not in text for _, text in got)
        assert asked == []

    def test_linear_reduces_to_unity(self):
        f = parse_poly(F3, "x + 2")  # X - 1
        fz = factor_composition(f, 8)
        assert fz.multiset() == factor_unity(F3, 8).multiset()
        assert isinstance(fz.plan, CompositionPlan)
        assert fz.plan.k == 1

    def test_quartic_split(self):
        f = parse_poly(F3, "x^2 + 1")
        fz = factor_composition(f, 2)
        assert {poly_text(e.poly) for e in fz} == {"x^2 + x + 2", "x^2 + 2*x + 2"}
        plan = fz.plan
        assert plan.k == 2
        assert plan.f == f
        emb_f = Poly.from_coeffs(plan.alpha.ctx,
                                 [ff.embed(F3, plan.alpha.ctx)(f.coeff(i))
                                  for i in range(3)])
        assert emb_f.eval(plan.alpha).is_zero()

    def test_x_power(self):
        fz = factor_composition(Poly.x(F5), 5)
        assert len(fz) == 1
        e = fz.factors[0]
        assert (e.poly, e.mult, e.order) == (Poly.x(F5), 5, None)
        assert fz.base == Poly.monomial(F5, 5)

    def test_nonmonic_scale(self):
        f = parse_poly(F5, "3*x + 3")  # 3(X + 1)
        fz = factor_composition(f, 2)
        assert fz.scale == F5.from_int(3)
        assert {poly_text(e.poly) for e in fz} == {"x + 2", "x + 3"}
        assert fz.product() == parse_poly(F5, "3*x^2 + 3")

    def test_char_power(self):
        f = parse_poly(F3, "x^2 + 1")
        fz = factor_composition(f, 3)  # f(X^3) = (x^2 + 1)^3
        assert len(fz) == 1
        e = fz.factors[0]
        assert (poly_text(e.poly), e.mult) == ("x^2 + 1", 3)
        assert fz.product() == parse_poly(F3, "x^6 + 1")

    def test_irreducible_composition(self):
        f = parse_poly(F2, "x^2 + x + 1")
        fz = factor_composition(f, 3)
        assert [poly_text(e.poly) for e in fz] == ["x^6 + x^3 + 1"]
        assert fz.factors[0].order == 9
        assert fz.multiset() == factor_cyclotomic(F2, 9).multiset()

    def test_extension_base_vs_oracle(self):
        # each factor comes back to F_q through the embedding F_q -> F_{q^k}
        # that f's coefficients went up by; the factor product is the check
        # that catches any coefficient-level Frobenius twist.  The next four
        # f have coefficients outside F_p, so a norm taken back by another
        # embedding conjugates their factors.  The last four are linear over
        # an F_16 whose modulus is not the lex-smallest: alpha lives in
        # make_extension's F_16, of the base's size but not equal to it
        cases = [(first_irreducible_monic(ctx, deg), n)
                 for ctx, deg, n in ((F4, 3, 3), (F9, 2, 7), (F9, 3, 11))]
        cases += [(parse_poly(ff.parse_field(q), f), n) for q, f, n in (
            ("4", "x^2+[1,0]*x+[0,1]", 7),
            ("8", "x^2+[0,1,0]*x+[0,0,1]", 5),
            ("16", "x^2+[0,0,1,0]*x+[0,0,0,1]", 11),
            ("27", "x^2+[1,0,0]*x+[0,0,1]", 11),
            ("2^4/1,1,0,0,1", "x+[0,1,0,0]", 17),
            ("2^4/1,1,0,0,1", "x+[0,1,0,0]", 23),
            ("2^4/1,1,0,0,1", "x+[1,1,0,0]", 17),
            ("2^4/1,1,0,0,1", "x+[1,1,0,0]", 23))]
        assert cases[-1][0].ctx != ff.make_extension(2, 4)
        for f, n in cases:
            ctx = f.ctx
            fz = factor_composition(f, n)
            base = q_transform(f, Poly.monomial(ctx, n), Poly.one(ctx))
            assert fz.base == base
            assert fz.product() == base
            assert fz.multiset() == brute_factor(base).multiset()

    def test_rejects_reducible(self):
        with pytest.raises(NotIrreducible):
            factor_composition(parse_poly(F3, "x^2 + 2"), 2)
        with pytest.raises(NotIrreducible):
            factor_composition(Poly.one(F3), 2)

    def test_large_root_field(self):
        F101 = ff.make_extension(101, 1)
        f = parse_poly(F101, "x^5 + x + 8")
        for n in (7, 11):
            fz = factor_composition(f, n)
            assert fz.plan.alpha.ctx.order == 101 ** 5
            assert verify(fz).passed

    def test_alpha_is_smallest_root(self):
        rng = random.Random(23)
        for ctx, max_k in ((F4, 6), (F9, 4)):
            for k in range(2, max_k + 1):
                f = first_irreducible_monic(ctx, k)
                while True:
                    g = Poly.from_coeffs(ctx, [ctx.element_from_index(
                        rng.randrange(ctx.order)) for _ in range(k)] + [1])
                    if g != f and rabin_irreducible(g):
                        break
                for h in (f, g):
                    alpha = factor_composition(h, 1).plan.alpha
                    K = alpha.ctx
                    emb = ff.embed(ctx, K)
                    hK = Poly.from_coeffs(K, [emb(h.coeff(i))
                                              for i in range(k + 1)])
                    want = next(x for x in map(K.element_from_index,
                                               range(K.order))
                                if hK.eval(x).is_zero())
                    assert alpha == want, (ctx, h)


class TestCompositionNorm:
    """f(X^n) is X^n - alpha over K = F_{q^k}, through the cached skeleton
    and entries of alpha's field, then one norm per factor g: the product
    of its k coefficient conjugates, of degree k deg g, whose coefficients
    come back to F_q."""

    FIELDS = ("2", "3", "4", "5", "7", "8", "9", "11", "13", "16", "25", "27",
              "2^4/1,1,0,0,1")

    @classmethod
    def corpus(cls):
        """Up to two irreducible f per field and degree 1 to 4 (seeded),
        each with two n < 50."""
        rng = random.Random(31)
        for spec in cls.FIELDS:
            ctx = ff.parse_field(spec)
            for deg in (1, 2, 3, 4):
                fs = []
                for _ in range(50):
                    f = Poly.from_coeffs(ctx, [ctx.element_from_index(
                        rng.randrange(1 if i == 0 else 0, ctx.order))
                        for i in range(deg)] + [1])
                    if f not in fs and rabin_irreducible(f):
                        fs.append(f)
                    if len(fs) == 2:
                        break
                for f in fs:
                    for n in rng.sample(range(1, 50), 2):
                        yield f, n

    def test_seeded_corpus_is_unchanged(self):
        # the factor text and printed plan of 204 compositions over F_2 to
        # F_27 and an explicit F_16 modulus, pinned from the per-call spin
        # path they replaced; the plan's root b and j-classes are internal
        # choices that are never printed
        h, count = hashlib.sha256(), 0
        for f, n in self.corpus():
            fz = factor_composition(f, n)
            for e in fz:
                h.update(f"{poly_text(e.poly)}|{e.mult}|{e.degree}|{e.order}\n"
                         .encode())
            h.update(cli._plan_text(fz.plan).encode() + b"\n")
            count += 1
        assert count == 204
        assert h.hexdigest() == ("a08c20fbc7e09b3bdba42073cda96a6f"
                                 "69a721b284a530af5e165eb27952aa95")

    @pytest.mark.parametrize("spec, f, n", [
        ("9", "x^2+x+[1,0]", 7), ("9", "x^3+x+[1,0]", 29),
        ("4", "x^5+x^2+1", 15), ("2^4/1,1,0,0,1", "x+[0,1,0,0]", 17)])
    def test_shares_the_caches_of_x_n_minus_alpha(self, spec, f, n):
        cf.clear_caches()
        fz = factor_composition(parse_poly(ff.parse_field(spec), f), n)
        caches = (factor_mod._plan_skeleton, factor_mod._minpoly_entry)
        misses = [c.cache_info().misses for c in caches]
        inner = factor_binomial(fz.plan.inner.a, fz.plan.inner.n)
        assert [c.cache_info().misses for c in caches] == misses
        # the factors over F_q are the norms of those over F_{q^k}
        k = fz.plan.k
        assert sorted(e.degree for e in fz) == sorted(k * e.degree for e in inner)
        assert repr(inner.plan) == repr(fz.plan.inner)

    def test_warm_call_takes_no_spin(self, monkeypatch):
        cases = [(parse_poly(F9, "x^2+x+[1,0]"), 7),
                 (parse_poly(F9, "x^3+x+[1,0]"), 29),
                 (parse_poly(F4, "x^5+x^2+1"), 15),
                 (parse_poly(F2, "x^6+x+1"), 13)]
        want = [factor_composition(f, n) for f, n in cases]

        def forbidden(*args):
            raise AssertionError("a warm composition spins")

        monkeypatch.setattr(spin_mod, "spin_binomials", forbidden)
        monkeypatch.setattr(spin_mod, "_minpoly_by_solve", forbidden)
        for (f, n), fz in zip(cases, want):
            got = factor_composition(f, n)
            assert [tuple(e) for e in got] == [tuple(e) for e in fz]
            assert repr(got.plan) == repr(fz.plan)

    @pytest.mark.parametrize("forge, what", [
        ("real(h, c - 1, base_q)", "norm degree is not k deg g"),
        ("real(h, c - 1, base_q) * h", "norm coefficients lie outside F_q")])
    def test_forged_norm_raises(self, forge, what):
        # a norm that drops a conjugate, or multiplies one in twice, is
        # caught by an invariant, not an assert, so also under python -O
        code = (
            "from cyclofactor import factor, ff, poly\n"
            "from cyclofactor.errors import InvariantViolated\n"
            "real = factor.conjugate_product\n"
            f"factor.conjugate_product = lambda h, c, base_q: {forge}\n"
            "f = poly.parse_poly(ff.parse_field('9'), 'x^2+x+[1,0]')\n"
            "try:\n"
            "    factor.factor_composition(f, 7)\n"
            "except InvariantViolated as exc:\n"
            "    print('InvariantViolated:', exc)\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        for flags in ([], ["-O"]):
            out = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                                 capture_output=True, text=True, timeout=120)
            assert out.returncode == 0, out.stderr
            assert out.stdout == f"InvariantViolated: {what}\n"


class TestUnityShortcut:
    def test_at_one(self):
        fz = unity_shortcut(F3.one(), 8)
        assert fz is not None
        assert fz.multiset() == factor_unity(F3, 8).multiset()

    def test_square_with_root(self):
        fz = unity_shortcut(F5.from_int(4), 2)
        assert fz is not None
        assert {poly_text(e.poly) for e in fz} == {"x + 2", "x + 3"}
        assert fz.product() == Poly.binomial(F5, 2, F5.from_int(4))

    def test_no_root(self):
        assert unity_shortcut(F5.from_int(2), 2) is None

    def test_differential(self):
        for ctx in (F3, F5, F7, F9):
            q = ctx.order
            for n in range(1, 11):
                for a in units(ctx):
                    fz = unity_shortcut(a, n)
                    has_root = a ** ((q - 1) // gcd(n, q - 1)) == ctx.one()
                    assert (fz is not None) == has_root
                    if fz is None:
                        continue
                    assert fz.multiset() == factor_binomial(a, n).multiset()
                    for e in fz:
                        if e.degree <= 6:
                            assert e.order == poly_order(e.poly)

    def test_zero_rejected(self):
        with pytest.raises(ZeroElement):
            unity_shortcut(F5.zero(), 2)

    def test_is_factor_binomial_with_plan(self, monkeypatch):
        # the shortcut's entries are factor_binomial's, and its plan lets
        # verify() prove them by the census, with no Rabin call
        calls = []
        real = factor_mod.rabin_irreducible
        monkeypatch.setattr(factor_mod, "rabin_irreducible",
                            lambda f: calls.append(f) or real(f))
        for ctx in (F3, F4, F5, F9, F13):
            for n in (1, 2, 3, 4, 6, 8, 9, 12):
                for a in units(ctx):
                    fz = unity_shortcut(a, n)
                    if fz is None:
                        continue
                    want = factor_binomial(a, n)
                    assert [(e.poly.key(), e.mult, e.degree, e.order) for e in fz] \
                        == [(e.poly.key(), e.mult, e.degree, e.order) for e in want]
                    assert isinstance(fz.plan, BinomialPlan)
                    assert verify(fz).passed and calls == [], (ctx, n, a)


class TestButlerProfile:
    def test_knowns(self):
        f = parse_poly(F3, "x + 2")
        assert butler_profile(f, 8) == [
            (1, 1, 1, 1), (2, 1, 1, 2), (4, 1, 2, 4), (8, 2, 2, 8)]
        assert butler_profile(parse_poly(F3, "x^2 + 1"), 2) == [(1, 2, 2, 8)]

    def test_trivial_n(self):
        f = parse_poly(F3, "x^2 + 1")
        assert butler_profile(f, 1) == [(1, 1, 2, 4)]

    def test_matches_factor_histogram(self):
        cases = [(F3, parse_poly(F3, "x + 2"), 8),
                 (F3, parse_poly(F3, "x^2 + 1"), 4),
                 (F5, parse_poly(F5, "x^2 + 2"), 6),
                 (F2, parse_poly(F2, "x^2 + x + 1"), 5)]
        for ctx, f, n in cases:
            fz = factor_composition(f, n)
            got: dict = {}
            for e in fz:
                got[(e.degree, e.order)] = got.get((e.degree, e.order), 0) + e.mult
            want = {(deg, order): count
                    for _, count, deg, order in butler_profile(f, n)}
            assert got == want

    def test_domain_errors(self):
        with pytest.raises(NotCoprimeToChar):
            butler_profile(parse_poly(F3, "x + 2"), 3)
        with pytest.raises(NotIrreducible, match="^f must be irreducible$"):
            butler_profile(parse_poly(F3, "x^2 + 2"), 2)
        with pytest.raises(NotIrreducible, match="^f must be irreducible$"):
            butler_profile(Poly.one(F3), 2)

    def test_one_rabin_test(self, monkeypatch):
        calls = []
        real = poly_mod.rabin_irreducible
        for mod in (poly_mod, factor_mod):
            monkeypatch.setattr(mod, "rabin_irreducible",
                                lambda f: calls.append(f) or real(f))
        f = parse_poly(F3, "x^2 + 1")
        assert butler_profile(f, 2) == [(1, 2, 2, 8)]
        assert calls == [f]


class TestVerify:
    def test_clean_pass(self):
        report = verify(factor_unity(F3, 8))
        assert report.passed
        assert [c.name for c in report.checks] == [
            "product", "irreducible", "degrees", "orders", "butler"]
        assert "PASS product" in str(report)

    def test_composition_pass(self):
        assert verify(factor_composition(parse_poly(F3, "x^2 + 1"), 2)).passed
        assert verify(factor_radq1(F5.from_int(4), 4)).passed

    def _tampered(self, fz, swap):
        return Factorization(fz.base, [swap(e) for e in fz], plan=fz.plan)

    def test_product_mismatch(self):
        fz = factor_unity(F3, 8)
        target = parse_poly(F3, "x^2 + 1").key()
        bad = self._tampered(fz, lambda e: e._replace(
            poly=parse_poly(F3, "x^2 + x + 2")) if e.poly.key() == target else e)
        report = verify(bad)
        assert not report.passed
        assert not next(c for c in report.checks if c.name == "product").passed

    def test_order_mismatch(self):
        fz = factor_unity(F3, 8)
        target = parse_poly(F3, "x^2 + 1").key()
        bad = self._tampered(fz, lambda e: e._replace(order=16)
                             if e.poly.key() == target else e)
        report = verify(bad)
        assert next(c for c in report.checks if c.name == "product").passed
        assert not next(c for c in report.checks if c.name == "orders").passed

    def test_reducible_factor(self):
        fz = factor_unity(F3, 8)
        target = parse_poly(F3, "x^2 + 1").key()
        bad = self._tampered(fz, lambda e: e._replace(
            poly=parse_poly(F3, "x^2 + 2")) if e.poly.key() == target else e)
        report = verify(bad)
        assert not next(c for c in report.checks if c.name == "irreducible").passed

    # -- irreducibility and orders by the census, with Rabin as the fallback --

    @pytest.fixture
    def rabin_calls(self, monkeypatch):
        """Every polynomial verify() hands to its per-factor Rabin test."""
        calls = []

        def spy(f):
            calls.append(f)
            return rabin_irreducible(f)

        monkeypatch.setattr(factor_mod, "rabin_irreducible", spy)
        return calls

    @staticmethod
    def _irreducible(fz):
        return next(c for c in verify(fz).checks if c.name == "irreducible")

    @staticmethod
    def _rabin_detail(fz):
        bad = [e for e in fz if not rabin_irreducible(e.poly)]
        return f"{len(bad)} reducible factor(s), first: {bad[0].poly!r}"

    @staticmethod
    def _merged(fz, i, j, plan=None):
        """fz with factors i and j, of equal multiplicity, merged into one."""
        a, b = fz.factors[i], fz.factors[j]
        prod = a.poly * b.poly
        rest = [e for k, e in enumerate(fz) if k not in (i, j)]
        entry = FactorEntry(prod, a.mult, prod.degree, None)
        return Factorization(fz.base, rest + [entry], scale=fz.scale,
                             plan=fz.plan if plan is None else plan)

    def _assert_rabin_fail(self, forged, rabin_calls):
        assert forged.product() == forged.base
        rabin_calls.clear()
        check = self._irreducible(forged)
        assert not check.passed
        assert check.detail == self._rabin_detail(forged)
        assert len(rabin_calls) == len(forged)  # the per-factor fallback ran

    def test_merged_linear_pair(self, rabin_calls):
        # x + 1 and x + 2 merged into x^2 + 2; the irreducible x^2 + 1 sorts
        # first among the degree-2 factors and must not be the one named
        forged = self._merged(factor_unity(F3, 8), 0, 1)
        self._assert_rabin_fail(forged, rabin_calls)
        assert self._irreducible(forged).detail == "1 reducible factor(s), first: x^2 + 2"

    def test_merged_composition_pair(self, rabin_calls):
        fz = factor_composition(first_irreducible_monic(F9, 2), 5)
        assert len(fz) >= 2
        self._assert_rabin_fail(self._merged(fz, 0, 1), rabin_calls)

    def test_wrong_multiplicity(self, rabin_calls):
        # X^6 - 1 = (x + 1)^3 (x + 2)^3 over F_3
        fz = factor_unity(F3, 6)
        assert fz.plan.char_power == 3 and [e.mult for e in fz] == [3, 3]
        e0 = fz.factors[0]
        cube = FactorEntry(e0.poly ** 3, 1, 3, None)
        forged = Factorization(fz.base, [cube, fz.factors[1]], plan=fz.plan)
        self._assert_rabin_fail(forged, rabin_calls)
        # multiplicities 1 + 2 in place of 3: every factor irreducible, so
        # the fallback passes what the census could not
        split = Factorization(fz.base, [e0._replace(mult=1), e0._replace(mult=2),
                                        fz.factors[1]], plan=fz.plan)
        rabin_calls.clear()
        assert self._irreducible(split).passed
        assert len(rabin_calls) == 3

    def test_plan_not_matching_base(self, rabin_calls):
        # X^4 - 1 = (x^2 - 1)(x^2 - 4) over F_5 under the plan of X^4 - 4,
        # which does not describe the input, so it proves nothing
        wrong = factor_binomial(F5.from_int(4), 4).plan
        quads = [FactorEntry(parse_poly(F5, s), 1, 2, None)
                 for s in ("x^2 + 4", "x^2 + 1")]
        forged = Factorization(Poly.binomial(F5, 4, 1), quads, plan=wrong)
        self._assert_rabin_fail(forged, rabin_calls)
        # the plan of X^8 + 1 on the factors of X^8 - 1
        wrong = factor_binomial(F3.from_int(2), 8).plan
        self._assert_rabin_fail(self._merged(factor_unity(F3, 8), 0, 1, plan=wrong),
                                rabin_calls)
        genuine = factor_unity(F3, 8)
        relabeled = Factorization(genuine.base, genuine.factors, plan=wrong)
        rabin_calls.clear()
        assert self._irreducible(relabeled).passed
        assert len(rabin_calls) == len(genuine)

    # -- the plan, read by _reduced_input alone and rejected when forged --

    FORGED = "plan does not describe the input"

    @staticmethod
    def _forged_plans():
        """(name, genuine factorization, forged plan): X^6 - 1 over F_7 and
        f(X^2) for f = x^2 + 1 over F_3, each under its own plan with one
        field changed, none of which describes the input."""
        bz = factor_unity(F7, 6)
        cz = factor_composition(parse_poly(F3, "x^2 + 1"), 2)
        bp, cp = bz.plan, cz.plan

        def inner_n(n):
            return replace(cp, inner=replace(cp.inner, n=n))

        return [
            ("binomial p | n", bz, replace(bp, n=14)),
            ("binomial n = 0", bz, replace(bp, n=0)),
            ("binomial n = 2^40 + 1", bz, replace(bp, n=2**40 + 1)),
            ("binomial a in F_5", bz, replace(bp, a=F5.one())),
            ("binomial a = 0", bz, replace(bp, a=F7.zero())),
            ("binomial char_power 0", bz, replace(bp, char_power=0)),
            ("binomial char_power 2", bz, replace(bp, char_power=2)),
            ("composition p | n", cz, inner_n(6)),
            ("composition n = 0", cz, inner_n(0)),
            ("composition n = 2^40 + 1", cz, inner_n(2**40 + 1)),
            ("composition f in F_5", cz, replace(cp, f=parse_poly(F5, "x^2 + 1"))),
            ("composition f = x^2", cz, replace(cp, f=parse_poly(F3, "x^2"))),
            ("composition char_power 0", cz, replace(cp, char_power=0)),
            ("composition char_power 2", cz, replace(cp, char_power=2)),
            ("composition reducible f", cz, replace(cp, f=parse_poly(F3, "x^2 + 2"))),
        ]

    def test_forged_plan_fails_butler_without_raising(self):
        # a forged n of 2^40 + 1 would otherwise allocate terabytes: the
        # degree is checked before g(X^N)^cpow is built
        for name, fz, plan in self._forged_plans():
            forged = Factorization(fz.base, fz.factors, plan=plan, scale=fz.scale)
            t0 = time.perf_counter()
            report = verify(forged)
            assert time.perf_counter() - t0 < 1.0, name
            checks = {c.name: c for c in report.checks}
            assert not report.passed, name
            assert not checks["butler"].passed, name
            assert checks["butler"].detail == self.FORGED, name
            assert factor_mod._reduced_input(forged) is None, name
            # the factors themselves are right: only the plan is wrong
            assert all(c.passed for c in report.checks if c.name != "butler"), name

    def test_rejected_plan_keeps_true_orders(self):
        # the factors of X^6 - 1 under the plan of X^6 - 2: the order check
        # takes no relation from a plan that does not describe the input
        genuine = factor_unity(F7, 6)
        wrong = factor_binomial(F7.from_int(2), 6).plan
        report = verify(Factorization(genuine.base, genuine.factors, plan=wrong))
        assert str(report).splitlines() == [
            "PASS product", "PASS irreducible", "PASS degrees", "PASS orders",
            f"FAIL butler: {self.FORGED}"]

    def test_plan_without_an_order_is_rejected(self, monkeypatch):
        # plans whose g(X^N)^cpow is the input but whose g has no order: a
        # = 0 and f = x on X^4, and the reducible f = (x + 1)^2 on f(X^2).
        # The order step raises, and the reader rejects the plan instead
        bp = factor_unity(F3, 4).plan
        cp = factor_composition(parse_poly(F3, "x^2 + 1"), 2).plan
        x, x4 = parse_poly(F3, "x"), parse_poly(F3, "x^4")
        on_x4 = [FactorEntry(x, 4, 1, None)]
        forged = [
            Factorization(x4, on_x4, plan=replace(bp, a=F3.zero())),
            Factorization(x4, on_x4,
                          plan=replace(cp, f=x, inner=replace(cp.inner, n=4))),
            Factorization(parse_poly(F3, "x^4 + 2*x^2 + 1"),
                          [FactorEntry(parse_poly(F3, "x^2 + 1"), 2, 2, 4)],
                          plan=replace(cp, f=parse_poly(F3, "x^2 + 2*x + 1"))),
        ]
        raised = []

        def spy(fn):
            def wrapped(*args):
                try:
                    return fn(*args)
                except Exception as exc:
                    raised.append(type(exc))
                    raise
            return wrapped

        monkeypatch.setattr(ff, "element_order", spy(ff.element_order))
        monkeypatch.setattr(factor_mod, "poly_order", spy(factor_mod.poly_order))
        for fz in forged:
            raised.clear()
            report = verify(fz)
            assert raised and set(raised) <= {NotIrreducible, ZeroElement}, fz
            assert factor_mod._reduced_input(fz) is None
            assert str(report).splitlines()[-1] == f"FAIL butler: {self.FORGED}"
            assert all(c.passed for c in report.checks if c.name != "butler")

    def test_constant_factor_fails_without_raising(self):
        # a constant 1 declared with order 1 next to the factors of X^4 - 1:
        # the product holds, the census fails, and the per-factor fallback
        # finds no order to test on a factor of degree 0
        fz = factor_unity(F3, 4)
        one = FactorEntry(Poly.one(F3), 1, 0, 1)
        report = verify(Factorization(fz.base, fz.factors + [one], plan=fz.plan))
        lines = str(report).splitlines()
        assert lines[0] == "PASS product"
        assert lines[1].startswith("FAIL irreducible")
        assert lines[3] == "FAIL orders: 1 wrong order(s), first: declared 1"

    @pytest.mark.parametrize("f, n, detail", [
        ("x + 1", 4, "declared 16 actual 8"),
        ("x^2 + x + [1,0]", 2, "declared 160 actual 80"),
    ])
    def test_composition_mismatch_names_actual_order(self, f, n, detail):
        # N ord(g) of a composition plan bounds the actual order too, so a
        # doubled order is named by the factor's actual one
        fz = factor_composition(parse_poly(F9, f), n)
        first = fz.factors[0]
        bad = self._tampered(fz, lambda e: e._replace(order=2 * e.order)
                             if e is first else e)
        check = next(c for c in verify(bad).checks if c.name == "orders")
        assert check.detail == f"1 wrong order(s), first: {detail}"

    def test_reader_accepts_every_planned_output(self):
        # every X^n - a over the grid fields with n <= 40, p | n included;
        # the F_9 compositions are checked in _assert_count_agrees
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
            ctx = ff.parse_field(str(q))
            for n in range(1, 41):
                for a in units(ctx):
                    fz = factor_binomial(a, n)
                    assert factor_mod._reduced_input(fz) is not None, (q, n, a)

    def test_verify_leaves_the_formula_alone(self, monkeypatch):
        # genuine, forged, product-failing and plan-less factorizations:
        # verify reads the plan's fields, never the formula that made it
        fzs = [factor_unity(F3, 8), factor_unity(F3, 6), factor_binomial(F9.generator, 10),
               factor_composition(parse_poly(F9, "x^2 + x + [1,0]"), 12),
               factor_composition(parse_poly(F3, "x^2 + 1"), 2),
               factor_cyclotomic(F7, 20)]
        fzs.append(Factorization(fzs[0].base, fzs[0].factors[1:], plan=fzs[0].plan))
        fzs.append(Factorization(fzs[4].base, fzs[4].factors[1:], plan=fzs[4].plan,
                                 scale=fzs[4].scale))
        for _, fz, plan in self._forged_plans():
            fzs.append(Factorization(fz.base, fz.factors, plan=plan, scale=fz.scale))

        def forbidden(*args, **kwargs):
            raise AssertionError("verify called the formula")

        for name in ("butler_profile", "_binomial_core", "_plan_skeleton"):
            monkeypatch.setattr(factor_mod, name, forbidden)
        monkeypatch.setattr(spin_mod, "spin_binomials", forbidden)
        for fz in fzs:
            verify(fz)

    @pytest.mark.parametrize("ctx", [F2, F3, F4, F5, F7, ff.make_extension(2, 3), F9],
                             ids=lambda c: str(c.order))
    def test_count_agrees_with_rabin_binomials(self, ctx, rabin_calls):
        # every X^n - a with n <= 40, p | n included: the census accepts the
        # factorization without a Rabin call where Rabin finds every factor
        # irreducible, and rejects the first two factors merged
        for n in range(1, 41):
            for a in units(ctx):
                self._assert_count_agrees(factor_binomial(a, n), rabin_calls)

    def test_count_agrees_with_rabin_compositions(self, rabin_calls):
        # eight seeded monic irreducibles f over F_9 of each degree <= 3
        rng = random.Random(16)
        for deg in (1, 2, 3):
            fs = []
            for idxs in itertools.product(range(1, 9), *[range(9)] * (deg - 1)):
                f = Poly.from_coeffs(F9, [F9.element_from_index(i) for i in idxs] + [1])
                if rabin_irreducible(f):
                    fs.append(f)
            for i, f in enumerate(rng.sample(fs, 8)):
                if i % 2:  # a non-monic f: the factorization carries a scale
                    f = f.scaled(F9.element_from_index(1 + i))
                for n in (1, 2, 3, 4, 5, 6, 8, 9, 10, 12):
                    self._assert_count_agrees(factor_composition(f, n), rabin_calls)

    def _assert_count_agrees(self, fz, rabin_calls):
        assert factor_mod._reduced_input(fz) is not None, fz
        rabin_calls.clear()
        assert verify(fz).passed, fz
        assert rabin_calls == [], fz
        assert all(rabin_irreducible(e.poly) for e in fz)
        assert all(has_order(e.poly, e.order) for e in fz)
        if len(fz) >= 2:
            forged = self._merged(fz, 0, 1)
            check = self._irreducible(forged)
            assert not check.passed and check.detail == self._rabin_detail(forged)

    def test_plan_less_keeps_rabin(self, rabin_calls):
        planned = factor_binomial(F13.from_int(2) ** 6, 6)
        stripped = Factorization(planned.base, planned.factors, plan=None)
        for fz in (factor_cyclotomic(F7, 20), stripped):
            rabin_calls.clear()
            assert verify(fz).passed
            assert [f.key() for f in rabin_calls] == [e.poly.key() for e in fz]

    def test_nonpositive_order_fails(self):
        # a forged order below 1 is a mismatch, on both plans, not a raise
        for fz in (factor_unity(F3, 8),
                   factor_composition(parse_poly(F3, "x^2 + 1"), 2)):
            for order in (0, -2):
                bad = self._tampered(fz, lambda e: e._replace(order=order)
                                     if e is fz.factors[1] else e)
                check = next(c for c in verify(bad).checks if c.name == "orders")
                assert not check.passed
                assert check.detail.startswith(
                    f"1 wrong order(s), first: declared {order}")

    @pytest.mark.parametrize("order, line", [
        (2, "FAIL orders: 1 wrong order(s), first: declared 2"),
        (6, "PASS orders"),
    ], ids=["declared-2", "declared-6"])
    def test_order_of_a_factor_off_the_relation(self, order, line):
        # (x + 1)^3 with multiplicity 1 keeps the product of X^6 - 1 over
        # F_3 but does not divide g(X^N) = X^2 - 1, so the relation X^N =
        # root of g says nothing mod it; ord(X mod x^3 + 1) is 6, and 6 does
        # not divide N ord(g) = 2, so no actual order is named
        fz = factor_unity(F3, 6)
        entries = [FactorEntry(parse_poly(F3, "x + 1") ** 3, 1, 3, order),
                   FactorEntry(parse_poly(F3, "x + 2"), 3, 1, 1)]
        report = verify(Factorization(fz.base, entries, plan=fz.plan))
        assert str(report).splitlines() == [
            "PASS product",
            "FAIL irreducible: 1 reducible factor(s), first: x^3 + 1",
            "PASS degrees", line,
            "PASS butler: not applicable (characteristic divides n)"]

    def test_large_binomial_without_rabin(self, rabin_calls):
        # degree-240 factors over F_7 with p = 7 | n
        fz = factor_binomial(F7.from_int(3), 7 * 241)
        assert verify(fz).passed and rabin_calls == []

    @pytest.mark.parametrize("pair, detail", [
        (("x + 1", "x + 2"), "declared 1 actual 2"),
        (("x^2 + 1", "x^2 + x + 2"), "declared 8 actual 4"),
    ])
    def test_swapped_orders_fail_on_the_power(self, pair, detail, rabin_calls):
        # two factors of X^8 - 1 of equal degree trade orders, one dividing
        # the other: the census multiset is unchanged, as the butler PASS
        # shows, so only the per-factor power X^o = 1 can reject the swap
        fz = factor_unity(F3, 8)
        keys = [parse_poly(F3, s).key() for s in pair]
        i, j = [k for k, e in enumerate(fz) if e.poly.key() in keys]
        fs = list(fz)
        fs[i], fs[j] = (fs[i]._replace(order=fs[j].order),
                        fs[j]._replace(order=fs[i].order))
        swapped = Factorization(fz.base, fs, plan=fz.plan)
        checks = {c.name: c for c in verify(swapped).checks}
        assert checks["irreducible"].passed and checks["butler"].passed
        assert not checks["orders"].passed
        assert checks["orders"].detail == f"2 wrong order(s), first: {detail}"
        assert len(rabin_calls) == len(fz)  # the per-factor fallback ran

    def test_census_takes_no_per_factor_test(self, monkeypatch, rabin_calls):
        # planned binomials and compositions, p | n included: no Rabin test
        # and no exact-order search per factor, and a binomial takes at most
        # one QuotientRing power per factor
        F9x = parse_poly(F9, "x^2 + x + [1,0]")
        binomials = [factor_unity(F3, 8), factor_binomial(F7.from_int(3), 9),
                     factor_binomial(F9.generator, 10), factor_unity(F4, 21),
                     factor_binomial(F5.from_int(2), 15)]
        compositions = [factor_composition(parse_poly(F3, "x^2 + 1"), 2),
                        factor_composition(F9x, 10), factor_composition(F9x, 12),
                        factor_composition(F9x.scaled(F9.generator), 5)]
        exact, pows = [], []
        real_exact, real_pow = numth.is_exact_order, poly_mod.QuotientRing.pow
        monkeypatch.setattr(numth, "is_exact_order",
                            lambda d, is_one: exact.append(d) or real_exact(d, is_one))
        monkeypatch.setattr(poly_mod.QuotientRing, "pow",
                            lambda ring, u, e: pows.append(e) or real_pow(ring, u, e))
        for k, fz in enumerate(binomials + compositions):
            rabin_calls.clear()
            pows.clear()
            assert verify(fz).passed, fz
            assert rabin_calls == [] and exact == [], fz
            if k < len(binomials):
                assert len(pows) <= len(fz), fz


class TestAlgebraicProperties:
    def test_root_of_unity_twist_scales_order(self):
        # for prime p | q-1 with p coprime to ord(a) and r the inverse of p
        # mod ord(a): a^r keeps its order, zeta_p^j a^r picks up the factor p
        for ctx in (F5, F7, F9, F13):
            q = ctx.order
            for p in numth.factorize(q - 1).primes():
                zeta = ff.primitive_root_of_unity(ctx, p)
                for a in units(ctx):
                    ord_a = ff.element_order(a)
                    if ord_a % p == 0:
                        continue
                    r = pow(p, -1, ord_a) if ord_a > 1 else 1
                    ar = a**r
                    assert ff.element_order(ar) == ord_a
                    for j in range(1, p):
                        assert ff.element_order(zeta**j * ar) == p * ord_a

    def test_pth_root_split_stays_irreducible(self):
        # whenever p * ord(a) | q-1, all p conjugate binomial factors of
        # X^{tp} - a over an irreducible X^t - a are themselves irreducible
        for ctx in (F3, F5, F7, F9, F13):
            q = ctx.order
            for a in units(ctx):
                ord_a = ff.element_order(a)
                for t in (1, 2, 3):
                    if not serret_irreducible(a, t):
                        continue
                    for p in numth.factorize(q - 1).primes():
                        if (q - 1) % (p * ord_a) != 0:
                            continue
                        b = ff.dth_root(a, p)
                        zeta = ff.primitive_root_of_unity(ctx, p)
                        prod = Poly.one(ctx)
                        for j in range(p):
                            piece = Poly.binomial(ctx, t, zeta**j * b)
                            prod = prod * piece
                            if t * p % 4 != 0 or q % 4 == 1:
                                assert serret_irreducible(zeta**j * b, t)
                        assert prod == Poly.binomial(ctx, t * p, a)

    def test_full_radical_case(self):
        # rad(n) | ord(a) forces equal-degree factors whose roots all have
        # order ord(a) * n, with the degree fixed by the d1 ladder
        rng = random.Random(12)
        count = 0
        for ctx in (F5, F7, F9, F13):
            q = ctx.order
            for a in units(ctx):
                ord_a = ff.element_order(a)
                for n in range(2, 19):
                    if gcd(n, q) != 1 or ord_a % numth.radical(n) != 0:
                        continue
                    fz = factor_binomial(a, n)
                    p = fz.plan
                    d1s = p.d1[p.s]
                    degs = {e.degree for e in fz}
                    if q % 4 == 1 or d1s % 4 != 0:
                        assert degs == {n // p.d1[1]}
                    else:
                        assert degs == {2 * n // p.d1[2]}
                    assert {e.order for e in fz} == {ord_a * n}
                    count += 1
        assert count > 50

    def test_choice_invariance(self, monkeypatch):
        # any primitive root of unity and any d-th root are admissible
        # choices; the factor multiset must not depend on which one is picked
        base_root = ff.primitive_root_of_unity
        base_dth = ff.dth_root

        def other_root(ctx, d):
            return base_root(ctx, d) ** (d - 1) if d > 1 else base_root(ctx, d)

        def other_dth(x, d):
            b = base_dth(x, d)
            twist = gcd(d, b.ctx.units)
            return b * base_root(b.ctx, twist)

        cases = [(F3.one(), 8), (F5.from_int(2), 8), (F7.from_int(3), 9),
                 (F9.generator, 4), (F13.from_int(2), 12)]
        want = [factor_binomial(a, n).multiset() for a, n in cases]
        monkeypatch.setattr(ff, "primitive_root_of_unity", other_root)
        monkeypatch.setattr(ff, "dth_root", other_dth)
        # the skeletons hold the roots: build them anew with the other
        # choice, and drop those again after
        factor_mod._plan_skeleton.cache_clear()
        try:
            got = [factor_binomial(a, n).multiset() for a, n in cases]
        finally:
            factor_mod._plan_skeleton.cache_clear()
        assert got == want

    @pytest.mark.parametrize("revert", ["modulus", "tower"])
    def test_tower_choice_invariance(self, monkeypatch, revert):
        # W's modulus is never printed: with every tower on the lex search
        # ("modulus"), or on the monic reciprocal of the lex modulus, a third
        # choice ("tower"), the factor text stays byte-identical
        G9 = ff.parse_field("3^2/1,1,2")  # explicit, not the lex F_9 modulus
        f = first_irreducible_monic(F4, 3)
        cases = [
            lambda: factor_binomial(F5.from_int(2), 12),   # W = F_{5^2}
            lambda: factor_binomial(F7.from_int(3), 9),    # W = F_{7^3}
            lambda: factor_unity(F2, 21),                  # W = F_{2^6}
            lambda: factor_cyclotomic(F3, 13),             # W = F_{3^3}
            lambda: factor_composition(f, 5),              # W = F_{2^12}
            lambda: factor_binomial(G9.generator, 8),      # s = 1: W = G9
            lambda: factor_binomial(G9.generator, 5),      # W = F_{3^4}
        ]

        def text(fz):
            return [(poly_text(e.poly), e.mult, e.degree, e.order) for e in fz]

        def reciprocal(p, N):
            lex = ff._lex_modulus(p, N)
            inv = pow(lex[0], -1, p)
            return tuple(c * inv % p for c in reversed(lex))

        assert ff._tower_modulus(3, 4) != ff._lex_modulus(3, 4)
        assert reciprocal(3, 4) not in (ff._tower_modulus(3, 4),
                                        ff._lex_modulus(3, 4))
        want = [text(run()) for run in cases]
        if revert == "modulus":
            monkeypatch.setattr(ff, "_tower_modulus", ff._lex_modulus)
        else:
            monkeypatch.setattr(
                ff, "make_tower",
                lambda p, N: ff.make_extension(p, N, reciprocal(p, N)))
        # the skeletons hold the towers: build them anew on the other
        # modulus, and drop those again after
        factor_mod._plan_skeleton.cache_clear()
        try:
            got = [text(run()) for run in cases]
        finally:
            factor_mod._plan_skeleton.cache_clear()
        assert got == want
