"""Closed-formula factorization of X^n - a, X^n - 1, Phi_n, and f(X^n).

The main entry factor_binomial evaluates the parameter stack
(n1/n2 split, w, s, the d1/d2 gcd ladder, s1, r, a d1_s-th root b of a, and
the q-cyclotomic coset table mod d2_s), then emits each irreducible factor as
the q-spin of an explicit binomial over the tower W = F_{q^s} (u, with
b^{q-1} = zeta_{d1_s}^u, is one ff._bsgs log).  Its constants follow the
Frobenius-image rule zeta^{i q^mm} = Frob_q^mm(zeta^i): one power of
zeta_{d2_s} per coset representative i, its conjugates by FieldCtx.vconj,
and one row-wise product by c_v for every (j, v) block, so neither a table
of all d powers nor a power per factor is taken.  The binomials of one
factorization are collected first and spun as one stack by
poly.spin_binomials, one call per factorization.
factor_cyclotomic is the order-n part of the same stacked pass for a = 1:
Phi_n's factors are the factors of X^n - 1 of order exactly n.
factor_composition runs the same machinery over base q^k for a root alpha of
f and spins all the way back down to F_q.  No generic factorization: every
factor comes out of the formula, and verify() cross-checks it
independently.  alpha and the embeddings' roots come from poly.find_root
(Berlekamp 1970, Lenstra 1991).
W is the base field itself when s = 1, else ff.make_tower, whose
Gauss-period modulus costs one linear solve and is never printed, as every
factor is spun down from W; F_{q^k}, where alpha lives and is printed, keeps
make_extension's lex-smallest modulus.  Every factor_* refuses an input
degree above MAX_INPUT_DEGREE before it allocates anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import compress
from math import gcd, lcm
from typing import Mapping, Optional

import numpy as np

from . import ff, numth
from .errors import (
    DegreeGuard,
    FourDividesConflict,
    InvariantViolated,
    NotCoprimeToChar,
    NotIrreducible,
    PreconditionViolated,
    RadicalNotDividing,
    ZeroElement,
)
from .ff import FieldCtx, FieldElem
from .poly import (
    Factorization,
    FactorEntry,
    Poly,
    QuotientRing,
    coeff_frobenius,
    find_root,
    has_order,
    poly_order,
    q_spin,  # no caller here; perfbench's tracer test reads factor.q_spin
    q_transform,
    rabin_irreducible,
    spin_binomials,
    _rows_times,
)


@dataclass(frozen=True)
class BinomialPlan:
    """Audit record of every parameter behind a binomial factorization.

    q, n, a describe the reduced instance (characteristic power stripped);
    char_power carries the stripped p^l, applied as factor multiplicity.
    """

    q: int
    n: int
    a: FieldElem
    n1: int
    n2: int
    w: int
    s: int
    d1: Mapping[int, int]  # t -> d1_t for t in {1, 2, s}
    d2: Mapping[int, int]
    s1: int
    r: int
    b: FieldElem  # in F_{q^s}, b^{d1_s} = a
    zeta_d1: FieldElem
    zeta_d2: FieldElem
    coset_reps: numth.CosetTable
    t_i: Mapping[int, int]
    c_i: Mapping[int, int]
    j_classes: tuple
    char_power: int = 1


@dataclass(frozen=True)
class CompositionPlan:
    f: Poly
    k: int
    alpha: FieldElem  # root of f in F_{q^k}
    inner: BinomialPlan  # the X^n - alpha plan over base q^k
    char_power: int
    scale: FieldElem


MAX_INPUT_DEGREE = 2**20


def _require_positive(n: int):
    if n < 1:
        raise PreconditionViolated("n must be a positive integer")


def _require_input(n: int, deg_f: int = 1):
    """Entry check of every factor_*: n >= 1 and an input degree n * deg_f
    within MAX_INPUT_DEGREE, before anything is allocated."""
    _require_positive(n)
    if n * deg_f > MAX_INPUT_DEGREE:
        raise DegreeGuard(f"input degree {n * deg_f} exceeds the limit "
                          f"MAX_INPUT_DEGREE = {MAX_INPUT_DEGREE}")


def _invariant(ok: bool, what: str) -> None:
    """Raise InvariantViolated unless an identity the paper proves holds."""
    if not ok:
        raise InvariantViolated(what)


def _tower_degree(q: int, n: int) -> tuple[int, int]:
    """(w, s): w = ord_{rad(n)}(q), s = 2w when 4 | n and q^w = 3 (mod 4)."""
    w = numth.ord_mod(q, numth.radical(n))
    return w, (w if (n % 4 != 0 or pow(q, w, 4) == 1) else 2 * w)


def _strip_char_power(a: FieldElem, n: int) -> tuple[FieldElem, int, int]:
    """(a_red, n_red, p^l) with X^n - a = (X^n_red - a_red)^{p^l}."""
    ctx = a.ctx
    l = numth.p_adic(n, ctx.p)
    if l == 0:
        return a, n, 1
    # p^l-th root: iterate the inverse Frobenius x -> x^{p^{m-1}}
    return a.conj((-l) % ctx.m), n // ctx.p**l, ctx.p**l


def _binomial_core(a: FieldElem, n: int, spin_base: FieldCtx | None = None,
                   char_power: int = 1, order: int | None = None):
    """Plan + factor entries for X^n - a, gcd(n, q) = 1.

    spin_base picks the field the factors are spun down to (defaults to a's
    own field; factor_composition passes F_q while a lives in F_{q^k}).
    order, when set, keeps only the factors of that formula order
    (factor_cyclotomic passes a = 1 and order = n).
    Every kept entry's binomial X^D - c is collected first and all of them
    are spun in one spin_binomials call; each spin's degree is then checked
    against the formula.
    """
    ctx = a.ctx
    spin_base = spin_base or ctx
    q = ctx.order
    ord_a = ff.element_order(a)
    n1, n2 = numth.split_by_order(n, ord_a)
    w, s = _tower_degree(q, n)
    d1 = {t: gcd(n1, (q**t - 1) // ord_a) for t in (1, 2, s)}
    d2 = {t: gcd(n2, q**t - 1) for t in (1, 2, s)}
    d1s, d2s = d1[s], d2[s]
    if d1s % 4 != 0 or q % 4 == 1:
        s1 = d1s // d1[1]
    else:
        s1 = 2 * d1s // d1[2]
    # s1 is the multiplicative order of q mod ord(a)*d1_s; the branch formula
    # must agree with it on every instance
    _invariant(s1 == numth.ord_mod(q, ord_a * d1s),
             "s1 is not the order of q mod ord(a) * d1_s")
    r = 1 if a == ctx.one() else pow(n2, -1, ord_a * d1s)
    # W = F_{q^s}, where the formulas run; its modulus is never printed
    W = ctx if s == 1 else ff.make_tower(ctx.p, ctx.m * s)
    emb = ff.embed(ctx, W)
    aW = emb(a)
    if spin_base.m != ctx.m:
        # the canonical embeddings spin_base -> ctx -> W and spin_base -> W
        # need not commute; realign aW by the Frobenius power reconciling
        # the two routes, else every spun factor comes out conjugated
        g0 = spin_base.x_class()  # fixes an embedding of spin_base
        via = emb(ff.embed(spin_base, ctx)(g0))
        direct = ff.embed(spin_base, W)(g0)
        t = 0
        while via != direct.conj(t):
            t += 1
            _invariant(t < spin_base.m, "route mismatch exceeds base automorphisms")
        aW = aW.conj((-t) % W.m)
    zeta1 = ff.primitive_root_of_unity(W, d1s)
    zeta2 = ff.primitive_root_of_unity(W, d2s)
    b = ff.dth_root(aW, d1s)
    ct = numth.coset_table(q, d2s)
    t_i = {i: numth.ord_mod(q, d2s // gcd(i, d2s)) for i in ct.reps}
    c_i = {i: lcm(t_i[i], s1) for i in ct.reps}

    # j-classes: orbits of j -> jq + u (mod d1_s), where b^{q-1} = zeta1^u,
    # u by baby-step giant-step in <zeta1>; every orbit has size exactly s1,
    # the representative is its smallest j
    u = ff._bsgs(W, zeta1.vec(), (b ** (q - 1)).vec(), d1s)
    j_classes = []
    seen = [False] * d1s
    for j0 in range(d1s):
        if seen[j0]:
            continue
        j, size = j0, 0
        while not seen[j]:
            seen[j] = True
            size += 1
            j = (j * q + u) % d1s
        _invariant(size == s1, "a j-class has not exactly s1 members")
        j_classes.append(j0)

    plan = BinomialPlan(
        q=q, n=n, a=a, n1=n1, n2=n2, w=w, s=s, d1=d1, d2=d2, s1=s1, r=r,
        b=b, zeta_d1=zeta1, zeta_d2=zeta2, coset_reps=ct, t_i=t_i, c_i=c_i,
        j_classes=tuple(j_classes), char_power=char_power,
    )

    k_rel = ctx.m // spin_base.m
    t_deg = n1 // d1s
    # zeta2^{i q^mm} is the mm-th q-Frobenius image of zeta2^i, so each
    # representative takes one power, of the gap to the one before it (the
    # representatives ascend from 0), and its conjugates come from vconj;
    # row k of Z belongs to the representative zreps[k]
    zreps, Z, z2 = [], [], zeta2.vec()
    zi, prev = None, 0
    for i in ct.reps:
        step = W.vpow(z2, i - prev)
        z = zi = step if zi is None else W.vmul(zi, step)
        prev = i
        for mm in range(gcd(t_i[i], s1)):
            if mm:
                z = W.vconj(z, ctx.m)
            zreps.append(i)
            Z.append(z)
    # block (j, v) is Z times c_v = (zeta1^j b)^{r v}, restricted to the rows
    # with gcd(i, v) = 1 (and of the requested order): one row-wise product
    # covers every block
    Ds, cvs, keep, degs, orders = [], [], [], [], []
    for j in j_classes:
        cj = W.vmul(W.vpow(zeta1.vec(), j), b.vec())
        for v in numth.divisors(n2 // d2s):
            ords = [ord_a * n1 * v * d2s // gcd(i, d2s) for i in zreps]
            rows = [gcd(i, v) == 1 and order in (None, o)
                    for i, o in zip(zreps, ords)]
            if not any(rows):
                continue
            cvs.append(W.vpow(cj, r * v))
            keep.append(rows)
            for i, o in compress(zip(zreps, ords), rows):
                Ds.append(t_deg * v)
                degs.append(k_rel * t_deg * v * c_i[i])
                orders.append(o)
    blocks = np.array(Z)[None].repeat(len(cvs), axis=0)
    consts = W.vneg(_rows_times(W, blocks, np.array(cvs))[np.array(keep)])
    spins = spin_binomials(W, spin_base, Ds, consts)
    entries = []
    for S, deg, o in zip(spins, degs, orders):
        _invariant(S.degree == deg, "spin degree off the formula")
        entries.append(FactorEntry(S, char_power, deg, o))
    # a = 1 has phi(N) roots of each order N | n
    total = k_rel * (n if order is None else numth.euler_phi(order))
    _invariant(sum(degs) == total, "factor degrees do not sum to the input degree")
    return plan, entries


def factor_binomial(a: FieldElem, n: int) -> Factorization:
    """Complete factorization of X^n - a over a's field."""
    if a.is_zero():
        raise ZeroElement("a must be nonzero")
    _require_input(n)
    base = Poly.binomial(a.ctx, n, a)
    a_red, n_red, cpow = _strip_char_power(a, n)
    plan, entries = _binomial_core(a_red, n_red, char_power=cpow)
    return Factorization(base, entries, plan=plan)


def factor_unity(ctx: FieldCtx, n: int) -> Factorization:
    """Complete factorization of X^n - 1."""
    return factor_binomial(ctx.one(), n)


def factor_cyclotomic(ctx: FieldCtx, n: int) -> Factorization:
    """The n-th cyclotomic polynomial: the factors of X^n - 1 of order n."""
    _require_input(n)
    if n % ctx.p == 0:
        raise NotCoprimeToChar(f"n = {n} shares a factor with the characteristic")
    _, entries = _binomial_core(ctx.one(), n, order=n)
    return Factorization(_cyclotomic_poly(ctx, n), entries, plan=None)


def _cyclotomic_poly(ctx: FieldCtx, n: int) -> Poly:
    """Phi_n over ctx via the Moebius product of X^d - 1 terms."""
    num = Poly.one(ctx)
    den = Poly.one(ctx)
    for d in numth.divisors(n):
        mu = numth.mobius(n // d)
        if mu == 1:
            num = num * Poly.binomial(ctx, d, 1)
        elif mu == -1:
            den = den * Poly.binomial(ctx, d, 1)
    quot, rem = divmod(num, den)
    _invariant(rem.is_zero(), "Moebius quotient for Phi_n is not exact")
    return quot


def factor_composition(f: Poly, n: int) -> Factorization:
    """Complete factorization of f(X^n) for irreducible f."""
    _require_input(n, max(f.degree, 1))
    ctx = f.ctx
    if f.degree < 1:
        raise NotIrreducible("f must be nonconstant")
    scale = f.lead()
    fm = f.monic()
    base = q_transform(f, Poly.monomial(ctx, n), Poly.one(ctx))
    if fm == Poly.x(ctx):
        entry = FactorEntry(Poly.x(ctx), n, 1, None)
        return Factorization(base, [entry], plan=None, scale=scale)
    if not rabin_irreducible(fm):
        raise NotIrreducible("f must be irreducible")
    # strip the characteristic power of n: f(X^n) = (f_red(X^n_red))^{p^l}
    # with f_red the coefficient-wise p^l-th root of f
    l = numth.p_adic(n, ctx.p)
    cpow = ctx.p**l
    n_red = n // cpow
    f_red = coeff_frobenius(fm, (-l) % ctx.m, ctx.p)
    k = f_red.degree
    K = ff.make_extension(ctx.p, ctx.m * k)
    emb = ff.embed(ctx, K)
    coeffs = [emb(f_red.coeff(i)) for i in range(k + 1)]
    # alpha: the smallest-index root, of the k conjugates x -> x^q of any one
    alpha = root = find_root(coeffs, K)
    for _ in range(k - 1):
        root = root.conj(ctx.m)
        alpha = min(alpha, root, key=K.index_of)
    _invariant(Poly.from_coeffs(K, coeffs).eval(alpha).is_zero(),
               "split-off root is not a root of f")
    plan_inner, entries = _binomial_core(alpha, n_red, spin_base=ctx,
                                         char_power=cpow)
    plan = CompositionPlan(f=f, k=k, alpha=alpha, inner=plan_inner,
                           char_power=cpow, scale=scale)
    return Factorization(base, entries, plan=plan, scale=scale)


# -- direct engines for the fully split regime --------------------------------------

def serret_irreducible(a: FieldElem, t: int) -> bool:
    """Exact irreducibility of X^t - a over a's field."""
    if a.is_zero():
        raise ZeroElement("a must be nonzero")
    _require_positive(t)
    if t == 1:
        return True
    q = a.ctx.order
    ord_a = ff.element_order(a)
    if ord_a % numth.radical(t) != 0:
        return False
    if gcd(t, (q - 1) // ord_a) != 1:
        return False
    return t % 4 != 0 or q % 4 == 1


def step_irreducible_tp(a: FieldElem, t: int, p: int) -> bool:
    """Irreducibility of X^{tp} - a, stepping up from irreducible X^t - a."""
    if a.is_zero():
        raise ZeroElement("a must be nonzero")
    q = a.ctx.order
    if not numth.is_prime(p) or (q - 1) % p != 0:
        raise PreconditionViolated("p must be a prime dividing q - 1")
    if not serret_irreducible(a, t):
        raise PreconditionViolated("X^t - a must be irreducible")
    if t * p % 4 == 0 and q % 4 != 1:
        raise PreconditionViolated("4 | tp needs q = 1 (mod 4)")
    if t % p == 0:
        return True  # stepping within an existing p-chain never splits
    return (q - 1) % (p * ff.element_order(a)) != 0


def factor_radq1(a: FieldElem, n: int) -> Factorization:
    """X^n - a when rad(n) | q - 1: everything splits over F_q itself.

    Checks the regime, then defers to factor_binomial, whose tower degree s
    is 1 there.
    """
    if a.is_zero():
        raise ZeroElement("a must be nonzero")
    _require_input(n)
    q = a.ctx.order
    if (q - 1) % numth.radical(n) != 0:
        raise RadicalNotDividing(f"rad({n}) does not divide q - 1 = {q - 1}")
    if n % 4 == 0 and q % 4 != 1:
        raise FourDividesConflict("4 | n needs q = 1 (mod 4)")
    return factor_binomial(a, n)


def unity_shortcut(a: FieldElem, n: int) -> Optional[Factorization]:
    """X^n - a via X^n - 1 when a has an n-th root beta: transform by X/beta.

    Returns None when no beta exists (the power criterion fails).
    """
    if a.is_zero():
        raise ZeroElement("a must be nonzero")
    _require_input(n)
    ctx = a.ctx
    q = ctx.order
    if (a ** ((q - 1) // gcd(n, q - 1))) != ctx.one():
        return None
    beta = ff.dth_root(a, n)
    ones = factor_unity(ctx, n)
    a_red, n_red, _ = _strip_char_power(a, n)
    ord_red = ff.element_order(a_red)
    x = Poly.x(ctx)
    bconst = Poly.from_coeffs(ctx, [beta])
    entries = []
    for e in ones:
        S = q_transform(e.poly, x, bconst)
        order = _factor_order_by_relation(S, n_red, a_red, ord_red)
        _invariant(order is not None, "transformed factor does not divide X^n - a")
        entries.append(FactorEntry(S, e.mult, e.degree, order))
    return Factorization(Poly.binomial(ctx, n, a), entries, plan=None)


def butler_profile(f: Poly, n: int) -> list[tuple[int, int, int, int]]:
    """Census (d, count, degree, order) of the factors of f(X^n), per d | n2."""
    _require_positive(n)
    ctx = f.ctx
    if n % ctx.p == 0:
        raise NotCoprimeToChar(f"n = {n} shares a factor with the characteristic")
    if f.degree < 1 or not rabin_irreducible(f):
        raise NotIrreducible("f must be irreducible")
    k = f.degree
    e = poly_order(f)  # RootAtZero for f = X, which has no order
    q = ctx.order
    n1, n2 = numth.split_by_order(n, e)
    out = []
    for d in numth.divisors(n2):
        dd = numth.ord_mod(q, d * n1 * e)
        count, r0 = divmod(k * n1 * numth.euler_phi(d), dd)
        _invariant(r0 == 0, "factor count is not integral")
        out.append((d, count, dd, d * n1 * e))
    return out


# -- verification -------------------------------------------------------------------

@dataclass
class VerifyCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class VerifyReport:
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self):
        return "\n".join(
            f"{'PASS' if c.passed else 'FAIL'} {c.name}"
            + (f": {c.detail}" if c.detail else "")
            for c in self.checks
        )


def _rel_pow_is_one(ring: QuotientRing, n: int, a: FieldElem, ord_a: int,
                    E: int) -> bool:
    """X^E = 1 in F_q[X]/(S) for S | X^n - a, via X^n = a exponent reduction."""
    sc = a ** ((E // n) % ord_a)
    rem = E % n
    if rem == 0:
        return sc == a.ctx.one()
    blk = ring.pow(ring.x(), rem)
    target = np.zeros_like(blk)
    target[0] = (a.ctx.one() / sc).vec()
    return bool(np.array_equal(blk, target))


def _factor_order_by_relation(S: Poly, n: int, a: FieldElem,
                              ord_a: int) -> Optional[int]:
    """Order of a factor S of X^n - a, dividing primes out of n*ord(a).

    None when X^{n*ord(a)} != 1 mod S, i.e. S is not actually a factor.
    """
    ring = QuotientRing(S)
    T = n * ord_a
    is_one = partial(_rel_pow_is_one, ring, n, a, ord_a)
    if not is_one(T):
        return None
    return numth.least_order(T, numth.factorize(T).primes(), is_one)


def verify(fz: Factorization) -> VerifyReport:
    """Independent cross-check of a factorization; never raises on mismatch."""
    report = VerifyReport()
    base = fz.base
    ctx = base.ctx

    product_ok = fz.product() == base
    report.checks.append(VerifyCheck(
        "product", product_ok,
        "" if product_ok else "factors do not multiply back to the input"))

    bad = [e for e in fz if not rabin_irreducible(e.poly)]
    report.checks.append(VerifyCheck(
        "irreducible", not bad,
        "" if not bad else f"{len(bad)} reducible factor(s), first: {bad[0].poly!r}"))

    bad_deg = [e for e in fz if e.degree != e.poly.degree]
    report.checks.append(VerifyCheck(
        "degrees", not bad_deg,
        "" if not bad_deg else f"declared {bad_deg[0].degree} != {bad_deg[0].poly.degree}"))

    plan = fz.plan
    mism = []
    skipped = 0
    for e in fz:
        if e.order is None:
            skipped += 1
            continue
        if e.poly.degree < 1:
            mism.append((e, None))
        elif isinstance(plan, BinomialPlan) and product_ok:
            actual = _factor_order_by_relation(
                e.poly, plan.n, plan.a, ff.element_order(plan.a))
            if actual != e.order:
                mism.append((e, actual))
        elif not has_order(e.poly, e.order):
            mism.append((e, None))
    detail = "" if not mism else (
        f"{len(mism)} wrong order(s), first: declared {mism[0][0].order}"
        + (f" actual {mism[0][1]}" if mism[0][1] else ""))
    if skipped and not detail:
        detail = f"{skipped} factor(s) without declared order skipped"
    report.checks.append(VerifyCheck("orders", not mism, detail))

    report.checks.append(_butler_check(fz))
    return report


def _butler_check(fz: Factorization) -> VerifyCheck:
    plan = fz.plan
    if isinstance(plan, CompositionPlan):
        f, n, cpow = plan.f.monic(), plan.inner.n * plan.char_power, plan.char_power
    elif isinstance(plan, BinomialPlan):
        ctx = plan.a.ctx
        f = Poly.from_coeffs(ctx, [-plan.a, ctx.one()])
        n, cpow = plan.n * plan.char_power, plan.char_power
    else:
        return VerifyCheck("butler", True, "not applicable (no plan)")
    if cpow > 1:
        return VerifyCheck("butler", True,
                           "not applicable (characteristic divides n)")
    if f.coeff(0).is_zero():
        return VerifyCheck("butler", True, "not applicable (f has root 0)")
    expected = {(deg, order): count
                for _, count, deg, order in butler_profile(f, n)}
    got: dict = {}
    for e in fz:
        got[(e.degree, e.order)] = got.get((e.degree, e.order), 0) + e.mult
    ok = got == expected
    return VerifyCheck("butler", ok,
                       "" if ok else f"profile mismatch: {got} != {expected}")
