"""Closed-formula factorization of X^n - a, X^n - 1, Phi_n, and f(X^n).

The main entry factor_binomial evaluates the parameter stack
(n1/n2 split, w, s, the d1/d2 gcd ladder, s1, r, a d1_s-th root b of a with
b^{q-1} = zeta_{d1_s}^u, and the q-cyclotomic coset table mod d2_s), then
emits each irreducible factor as the q-spin of an explicit binomial over the
tower W = F_{q^s}.  u and b come from F_q: with g = gcd(d1_s, q - 1), every
root b has a^{(q-1)/g} = zeta_g^u for zeta_g = zeta_{d1_s}^{d1_s/g} in F_q,
and the roots take every u of one class mod g, so one power of a in F_q,
looked up among the g powers of zeta_g, gives the canonical u < g; then b
= lambda b_u for a d1_s-th root lambda in F_q of a / b_u^{d1_s}, b_u the
cached reference root below.  No root or power of a is taken in W.  The
binomials' constants follow the
Frobenius-image rule zeta^{i q^mm} = Frob_q^mm(zeta^i): one power of
zeta_{d2_s} per coset representative i, its conjugates by FieldCtx.vconj,
and one FieldCtx.vmul_rows by c_v for every (j, v) block, so neither a table
of all d powers nor a power per factor is taken.  The binomials of one
entry are spun as one stack by spin.spin_binomials.
Most of that is fixed by q, n and ord(a) alone, and _plan_skeleton computes
it once and caches it (functools.lru_cache, bounded as the root caches
are): the plan's a-free fields (n1/n2, w, s, the d1/d2 ladder, s1 with its
ord_mod check, r, both roots of unity, numth's coset table mod d2_s with
each coset's t_i and c_i) as one read-only mapping whose dicts are
read-only views, one object per distinct content across skeletons
(_read_only), the tower W with the embedding of a's field into it, the
powers of zeta_{d1_s} and the rows of zeta_{d2_s} powers and conjugates as
one read-only array, the powers of zeta_g in F_q, which (v, row) cells are
kept, and each factor's D, degree and order, for every j-class.
Each factor is g(X^D) for g the minimal polynomial over F_q of beta =
zeta_{d2_s}^i (zeta_{d1_s}^j b)^{r v}.  Two roots b, b' with one u differ
by lambda = b' / b, and lambda^{q-1} = 1 puts it in F_q, so beta' =
lambda^{r v} beta and the factor is g rescaled, sum_k g[k] c^{d-k} X^{D k}
for c = lambda^{r v} (Lidl-Niederreiter).  So _minpoly_entry caches, per
(skeleton, u), the j-classes (numth.coset_table's orbits of j -> j q + u
mod d1_s) and the minimal polynomials of a reference root b_u with
b_u^{q-1} = zeta_{d1_s}^u: b_u = 1 for u = 0, else a vector of the F_q-line
x^q = zeta_{d1_s}^u x in W, nonzero by Hilbert's Theorem 90.  spin.minpolys
spins its constants, one cached stack per distinct constants in W, so each
is spun once: with d1_s = 1 they are the rows -zeta_{d2_s}^i, which X^n - 1
and every order of a with d1_s = 1 share.  Each call takes u and lambda in
F_q (lambda = a when d1_s = 1) and rescales every coefficient at once: over
a field with discrete-log tables (q <= ff.LOG_TABLE_LIMIT) by one gather,
exp[log g[k] + r v (d - k) log lambda mod (q - 1)], the entry holding log
g[k] and r v (d - k); over a larger field by one power_matrix of c_v per v
as the table of its powers and one row-wise product.  The coefficients fill
one zeroed buffer at stride D, each factor a slice of it; a call spins
nothing.  Its plan takes the skeleton's read-only mapping as it is, with a,
b, the j-classes and the characteristic power added, and builds no dict.
All this module's caches hold is fixed by q, n, ord(a) and u (ff caches
ord(a) and lambda per element), and clear_caches() empties every cache of
the library.
factor_cyclotomic keeps the order-n entries of the one unfiltered
_binomial_core call for X^n - 1: Phi_n's factors are the factors of X^n - 1
of order exactly n, so Phi_n and X^n - 1 share one skeleton, entry and spin
stack per (field, n).
factor_composition is X^n - alpha over K = F_{q^k}, for a root alpha of f,
through the same cached entries, then one norm per factor: a factor g over
K divides exactly one factor of f(X^n) over F_q, prod_{j<k} sigma^j(g) for
sigma the q-Frobenius on coefficients (poly.conjugate_product), taken back
to F_q by the embedding F_q -> K that f's coefficients went up by.  No
generic factorization: every factor comes out of the formula, and verify()
cross-checks it independently: its one reader of the plan, _reduced_input,
returns the reduced input g(X^N)^cpow or rejects the plan (g.degree * N *
cpow != deg input is rejected before anything is built), and a rejected
plan fails the butler check.  For an accepted plan it proves the factors
irreducible and of exactly their declared orders by Butler's census of
g(X^N) (the number of roots of each exact order, from integers and ord g
only; no tower, root of unity or coset of the formula) and one relation
power X^N = root of g per factor, and keeps rabin_irreducible and an
exact-order check per factor, on X^t = 1 mod the factor itself, for
plan-less factorizations, rejected plans and when the census fails.  alpha
and the embeddings' roots come from poly.find_root (Berlekamp 1970,
Lenstra 1991).
W is the base field itself when s = 1, else ff.make_tower, whose
Gauss-period modulus costs one linear solve and is never printed, as every
factor is spun down from W; F_{q^k}, where alpha lives and is printed, keeps
make_extension's lex-smallest modulus.  Every factor_* refuses an input
degree above MAX_INPUT_DEGREE before it allocates anything.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from itertools import cycle
from math import gcd, lcm
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

import numpy as np

from . import ff, numth, spin
from .errors import (
    DegreeGuard,
    FourDividesConflict,
    InvariantViolated,
    NotASubfield,
    NotCoprimeToChar,
    NotIrreducible,
    PreconditionViolated,
    RadicalNotDividing,
    RootAtZero,
    ZeroElement,
)
from .ff import FieldCtx, FieldElem
from .poly import (
    Factorization,
    FactorEntry,
    Poly,
    QuotientRing,
    coeff_frobenius,
    conjugate_product,
    find_root,
    poly_order,
    q_spin,  # no caller here; perfbench's tracer test reads factor.q_spin
    rabin_irreducible,
    _x_power_is_one,
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
    if n % ctx.p:
        return a, n, 1
    l = numth.p_adic(n, ctx.p)
    # p^l-th root: iterate the inverse Frobenius x -> x^{p^{m-1}}
    return a.conj((-l) % ctx.m), n // ctx.p**l, ctx.p**l


class _Skeleton(NamedTuple):
    """The a-free part of the X^n - a formula, fixed by (ctx, n, ord(a)):
    ints, tuples and read-only arrays, so that many of them stay small in
    _plan_skeleton's cache.  plan holds every a-free field of the
    BinomialPlan as one read-only mapping, its dicts read-only views, so
    that every plan of the skeleton shares them as they are; equal views
    (the d1/d2 ladders, t_i and c_i) are one object across skeletons.
    rows holds the powers of zeta1 and the rows of Z, from which
    _minpoly_entry takes the constants of its minimal polynomials once per
    u, and zg the powers of zeta_g in F_q that give a unit its u.  Ds,
    degs and orders hold each factor's D, degree and order, j-class by
    j-class, in the order the factors come out.  A skeleton hashes and
    compares by identity, so that the entries cached per skeleton never
    meet a skeleton built anew, on another tower or other roots of
    unity."""

    ord_a: int
    d1s: int
    s1: int
    r: int
    W: FieldCtx
    emb: ff.EmbeddingMap  # ctx -> W
    # read-only: zeta1^k for k < d1_s, then the rows of Z, zeta2^i and its
    # q-conjugates
    rows: np.ndarray
    # read-only: zeta_g^k for k < g = gcd(d1_s, q - 1), zeta_g =
    # zeta1^{d1_s / g}, in ctx's coordinates
    zg: np.ndarray
    vs: tuple  # the v | n2/d2_s, each with a kept row (i = 1 when d2_s > 1)
    sel: tuple  # the kept (v, Z row) cells, as indices into len(vs) x len(Z)
    Ds: tuple  # per factor: D, its X^D stride
    degs: tuple  # per factor: its degree
    orders: tuple  # per factor: its order
    plan: Mapping  # the BinomialPlan fields fixed by q, n and ord(a)
    __hash__ = object.__hash__
    __eq__ = object.__eq__


@functools.lru_cache(maxsize=4096)
def _plan_skeleton(ctx: FieldCtx, n: int, ord_a: int) -> _Skeleton:
    """Everything of X^n - a's formula that q, n and ord(a) fix, for a in
    ctx: n1/n2, w, s, the d1/d2 ladder, s1 (checked against ord_mod), r,
    the tower W with the embedding of ctx into it, zeta_{d1_s} and
    zeta_{d2_s}, the powers of zeta_{d1_s} and the rows of Z, the g =
    gcd(d1_s, q - 1) powers of zeta_g = zeta_{d1_s}^{d1_s/g} brought down
    to ctx, the coset table mod d2_s with t_i and c_i = lcm(t_i, s1), and
    which (v, row) cells are kept, with the D, degree and order of their
    factors for every one of the d1_s / s1 j-classes.  Two units of one
    order share it, and so do X^n - 1 and Phi_n; it spins nothing."""
    q = ctx.order
    n1, n2 = numth.split_by_order(n, ord_a)
    w, s = _tower_degree(q, n)
    d1 = tuple(gcd(n1, (q**t - 1) // ord_a) for t in (1, 2, s))
    d2 = tuple(gcd(n2, q**t - 1) for t in (1, 2, s))
    d1s, d2s = d1[2], d2[2]
    if d1s % 4 != 0 or q % 4 == 1:
        s1 = d1s // d1[0]
    else:
        s1 = 2 * d1s // d1[1]
    # s1 is the multiplicative order of q mod ord(a)*d1_s; the branch formula
    # must agree with it on every instance
    _invariant(s1 == numth.ord_mod(q, ord_a * d1s),
             "s1 is not the order of q mod ord(a) * d1_s")
    r = 1 if ord_a == 1 else pow(n2, -1, ord_a * d1s)
    # W = F_{q^s}, where the formulas run; its modulus is never printed
    W = ctx if s == 1 else ff.make_tower(ctx.p, ctx.m * s)
    zeta1 = ff.primitive_root_of_unity(W, d1s)
    zeta2 = ff.primitive_root_of_unity(W, d2s)
    ct = numth.coset_table(q, d2s)
    t_i = tuple(map(len, ct.cosets))  # t_i = ord_mod(q, d2_s / gcd(i, d2_s))
    c_i = tuple(lcm(ti, s1) for ti in t_i)

    P, z1 = [W.vone()], zeta1.vec()  # P[k] = zeta1^k
    for _ in range(1, d1s):
        P.append(W.vmul(P[-1], z1))
    # zeta2^{i q^mm} is the mm-th q-Frobenius image of zeta2^i, so each
    # representative takes one power, of the gap to the one before it (the
    # representatives ascend from 0), and its conjugates come from vconj;
    # row k of Z belongs to the representative zreps[k]
    zreps, zc, Z, z2 = [], [], [], zeta2.vec()
    zi, prev = None, 0
    for i, ti, ci in zip(ct.reps, t_i, c_i):
        step = W.vpow(z2, i - prev)
        z = zi = step if zi is None else W.vmul(zi, step)
        prev = i
        for mm in range(gcd(ti, s1)):
            if mm:
                z = W.vconj(z, ctx.m)
            zreps.append(i)
            zc.append(ci)
            Z.append(z)
    # block (j, v) keeps the rows with gcd(i, v) = 1; which rows, and their
    # D, degree and order, do not depend on j
    t_deg = n1 // d1s
    vs, sel, cells = tuple(numth.divisors(n2 // d2s)), [], []
    for iv, v in enumerate(vs):
        for k, i in enumerate(zreps):
            if gcd(i, v) == 1:
                sel.append(iv * len(Z) + k)
                cells.append((t_deg * v, t_deg * v * zc[k],
                              ord_a * n1 * v * d2s // gcd(i, d2s)))
    Ds, degs, orders = zip(*cells * (d1s // s1))
    rows = np.array(P + Z)
    rows.setflags(write=False)
    emb = ff.embed(ctx, W)
    zg = emb.preimage(rows[:d1s:d1s // gcd(d1s, q - 1)])
    zg.setflags(write=False)

    def ro(keys, values):  # (1, 2, s) has a key twice when s <= 2
        d = dict(zip(keys, values))
        return _read_only(tuple(d), tuple(d.values()))

    plan = MappingProxyType(dict(
        q=q, n=n, n1=n1, n2=n2, w=w, s=s, d1=ro((1, 2, s), d1),
        d2=ro((1, 2, s), d2), s1=s1, r=r, zeta_d1=zeta1, zeta_d2=zeta2,
        coset_reps=ct, t_i=ro(ct.reps, t_i), c_i=ro(ct.reps, c_i)))
    return _Skeleton(ord_a, d1s, s1, r, W, emb, rows, zg, vs, tuple(sel),
                     Ds, degs, orders, plan)


@functools.lru_cache(maxsize=4096)
def _read_only(keys: tuple, values: tuple) -> Mapping:
    """The read-only mapping of keys to values, one object per distinct
    pair of tuples: the d1/d2 ladders of skeletons with one tower degree,
    and t_i/c_i per (q, d2_s, s1), are shared, not built per skeleton."""
    return MappingProxyType(dict(zip(keys, values)))


def _cell_constants(sk: _Skeleton, j_classes: tuple, xp=None) -> np.ndarray:
    """-zeta2^{i q^mm} (zeta1^j x)^{r v} for every kept cell, j-class by
    j-class, where xp holds x^{r v} per v of sk.vs (x = 1 when None): block
    (j, v) is Z times zeta1^{j r v} x^{r v}, one vmul_rows of Z by the
    blocks' constants covers every block, and the skeleton's cells pick the
    kept rows."""
    W, d1s = sk.W, sk.d1s
    P, Z = sk.rows[:d1s], sk.rows[d1s:]
    if xp is None and d1s == 1:  # one j-class, every block constant 1
        return W.vneg(Z[[k % len(Z) for k in sk.sel]])
    cvs = P[[j * sk.r * v % d1s for j in j_classes for v in sk.vs]]
    if xp is not None:
        cvs = W.vmul_rows(cvs, np.array(xp * len(j_classes)))
    prods = W.vmul_rows(Z[None], cvs).reshape(len(j_classes), -1, W.m)
    return W.vneg(prods[:, sk.sel].reshape(-1, W.m))


class _Entry(NamedTuple):
    """What the units a of one skeleton share when a root b has b^{q-1} =
    zeta1^u, u < g: b = lambda b_u for the reference root b_u and a
    d1_s-th root lambda of a y_inv in F_q, so every factor is a minimal
    polynomial of the b_u formula rescaled by a power of lambda.  The
    minimal polynomials are read from the stack spin.minpolys spins once
    per distinct constants in W; the entry keeps its own copy, in its cell
    order: as discrete logs in a field with log tables (glog, q <=
    ff.LOG_TABLE_LIMIT), else as coordinate rows (rows)."""

    j_classes: tuple
    bu: np.ndarray  # b_u in W, read-only
    y_inv: FieldElem  # b_u^{-d1_s}, in F_q
    period: int  # a multiple of ord(lambda) for every such a
    # read-only: per j-class and kept cell, the d + 1 coefficients over F_q
    # of the minimal polynomial g of zeta2^{i q^mm} (zeta1^j b_u)^{r v},
    # d = degree / D, lowest first; None where glog holds them
    rows: np.ndarray | None
    # read-only, per coefficient g[k]: its discrete log (2(q - 1) for
    # zero), and if period > 1 the exponent r v (d - k) mod (q - 1) of
    # lambda in its c_v^{d - k} (0 for zero)
    glog: np.ndarray | None
    expo: np.ndarray | None
    # read-only, per row of rows if period > 1: the index of its
    # c_v^{d - k} in the tables of c_v powers end to end, tlen[v] of them
    # per v
    tix: np.ndarray | None
    tlen: tuple


@functools.lru_cache(maxsize=4096)
def _minpoly_entry(sk: _Skeleton, u: int) -> _Entry:
    """The _Entry of skeleton sk for the units of order sk.ord_a whose root
    b has b^{q-1} = zeta1^u.

    b_u = 1 for u = 0.  Otherwise zeta1^u = b^{q-1} has norm 1 to F_q, so
    by Hilbert's Theorem 90 the kernel of x -> x^q - zeta1^u x on W is an
    F_q-line, and b_u is its first null-space basis vector; b_u^{q-1} =
    zeta1^u is checked.  y = b_u^{d1_s} lies in F_q, and the entry keeps
    y^{-1}.  The j-classes, the orbits of j -> j q + u mod d1_s, are
    numth.coset_table's representatives, each orbit checked to have s1
    members.
    The minimal polynomials of every kept cell for b_u are read from
    spin.minpolys, which spins each distinct stack of constants in W once,
    and each must have the cell's degree.  A unit's
    lambda = b / b_u has lambda^{d1_s} = a / b_u^{d1_s}, both in F_q, so
    the period gcd(q - 1, d1_s lcm(ord(a), ord(b_u^{d1_s}))) is a multiple
    of ord(lambda), ord(a) when d1_s = 1.  Coefficient g[k] of a cell of v
    is multiplied by c_v^{d - k}, c_v = lambda^{r v}.  With log tables the
    entry keeps per coefficient log g[k] and, if period > 1, r v (d - k)
    mod (q - 1), the exponent of lambda; otherwise it keeps the rows, and
    if period > 1 each v's powers of c_v are a table of min(period, its
    largest d + 1) of them, and tix gives each row its c_v^{d - k} in the
    tables end to end.  Each array is in the smallest dtype that holds it.
    """
    emb, W, d1s = sk.emb, sk.W, sk.d1s
    ctx = emb.sub
    q = ctx.order
    jt = numth.coset_table(q, d1s, u)
    _invariant(all(len(c) == sk.s1 for c in jt.cosets),
               "a j-class has not exactly s1 members")
    j_classes = jt.reps
    bu, y_inv, ord_y = sk.rows[0], ctx.one(), 1  # b_u = zeta1^0 = 1
    if u:
        zu = sk.rows[u]  # zeta1^u
        # the kernel of x -> x^q - zeta1^u x, eliminated on its transpose
        MT = W.frob_matrix(ctx.m).T - W.y_shifts(zu)
        bu = ff._nullspace_basis(MT.T, ctx.p)[0]
        _invariant(np.array_equal(W.vpow(bu, q - 1), zu),
                   "b_u^(q-1) is not zeta_{d1_s}^u")
        bu.setflags(write=False)
        # (b_u^{d1_s})^{q-1} = zeta1^{u d1_s} = 1: b_u^{d1_s} lies in F_q
        y = ctx.from_vec(emb.preimage(W.vpow(bu, d1s)[None])[0])
        y_inv, ord_y = y ** -1, ff.element_order(y)
    # the distinct constants are one shared stack: with d1_s = 1 every v
    # shares Z, and every order of a the same rows
    rows, lens = spin.minpolys(emb, _cell_constants(
        sk, j_classes, [W.vpow(bu, sk.r * v) for v in sk.vs] if u else None))
    ds = [deg // D for D, deg in zip(sk.Ds, sk.degs)]
    _invariant(lens == [d + 1 for d in ds], "spin degree off the formula")
    nz = len(sk.rows) - d1s
    period = gcd(q - 1, d1s * lcm(sk.ord_a, ord_y))
    # the factors run through the kept cells once per j-class
    vi = [k // nz for k in sk.sel]
    if ctx.log_tables() is not None:
        glog, expo = ctx.vlog(rows), None
        glog.setflags(write=False)
        if period > 1:
            rv = [sk.r * v % (q - 1) for v in sk.vs]
            expo = np.concatenate([rv[i] * np.arange(d, -1, -1) % (q - 1)
                                   for i, d in zip(cycle(vi), ds)])
            expo[glog == 2 * (q - 1)] = 0
            expo = expo.astype(np.min_scalar_type(q - 2))
            expo.setflags(write=False)
        return _Entry(j_classes, bu, y_inv, period, None, glog, expo, None, ())
    rows.setflags(write=False)
    if period == 1:
        return _Entry(j_classes, bu, y_inv, 1, rows, None, None, None, ())
    # per v: the table length, then per coefficient row its table index
    dmax = [0] * len(sk.vs)
    for i, d in zip(vi, ds):
        dmax[i] = max(dmax[i], d)
    tlen = tuple(min(period, d + 1) for d in dmax)
    base = np.cumsum((0,) + tlen)
    tix = np.concatenate([base[i] + np.arange(d, -1, -1) % period
                          for i, d in zip(cycle(vi), ds)])
    tix = tix.astype(np.min_scalar_type(base[-1]))
    tix.setflags(write=False)
    return _Entry(j_classes, bu, y_inv, period, rows, None, None, tix, tlen)


# every lru_cache of the library, taken at import, so that a module
# attribute patched later does not hide one from clear_caches
_LRU_CACHES = (numth.factorize, numth.prime_power,
               numth._factored_cyclotomic_value,
               numth.factored_power_minus_one, numth.coset_table, ff._field,
               ff._checked_field, ff._lex_modulus, ff._tower_modulus,
               ff.embed, ff.element_order, ff.primitive_root_of_unity,
               ff.dth_root, _read_only, _plan_skeleton, _minpoly_entry,
               spin._spun_minpolys)


def clear_caches() -> None:
    """Empty every cache of the library, the lru_caches above.  Outputs do
    not change: the next calls rebuild what they need, as in a fresh
    process."""
    for fn in _LRU_CACHES:
        fn.cache_clear()


def _binomial_core(a: FieldElem, n: int, char_power: int = 1):
    """Plan + factor entries for X^n - a over a's field, gcd(n, q) = 1.

    The one formula engine of every factor_*: factor_cyclotomic keeps the
    entries of order n of its a = 1 call.  The a-free part comes from the
    cached _plan_skeleton; each call takes the rest from a, in a's field
    F_q, and its plan takes the skeleton's read-only mapping of every
    a-free field as it is.  With g = gcd(d1_s, q - 1),
    every root b has a^{(q-1)/g} = (b^{q-1})^{d1_s/g} = zeta_g^u, and the
    roots zeta1^j b take every u of the class u + gZ mod d1_s: so
    a^{(q-1)/g}, looked up among the skeleton's g powers of zeta_g, gives
    the canonical u < g.  The cached _minpoly_entry of
    (skeleton, u) holds the j-classes, the minimal polynomials for the
    reference root b_u and y = b_u^{d1_s} in F_q.  Any d1_s-th root lambda
    of a / y in F_q makes b = lambda b_u a root with that u (lambda = a
    when d1_s = 1), and _rescaled_minpolys rescales the minimal polynomials
    by the powers of lambda, with no spin.  Each factor's degree is checked
    against the formula, and their sum against the input's.
    """
    ctx = a.ctx
    q = ctx.order
    ord_a = ff.element_order(a)
    sk = _plan_skeleton(ctx, n, ord_a)
    W, d1s, g = sk.W, sk.d1s, len(sk.zg)
    u = 0
    if g > 1:
        hit = np.flatnonzero(
            (sk.zg == ctx.vpow(a.vec(), (q - 1) // g)).all(axis=1))
        _invariant(len(hit) == 1, "a^((q-1)/g) is not a power of zeta_g")
        u = int(hit[0])
    ent = _minpoly_entry(sk, u)
    lam = (a if d1s == 1 else ff.dth_root(a * ent.y_inv, d1s)).vec()
    lw = sk.emb.apply_vec(lam)
    b = W.from_vec(W.vmul(lw, ent.bu) if u else lw)
    spins = _rescaled_minpolys(sk, ent, ctx, lam)
    plan = BinomialPlan(a=a, b=b, j_classes=ent.j_classes,
                        char_power=char_power, **sk.plan)

    entries = []
    for S, deg, o in zip(spins, sk.degs, sk.orders):
        _invariant(S.degree == deg, "spin degree off the formula")
        entries.append(FactorEntry(S, char_power, deg, o))
    _invariant(sum(sk.degs) == n,
               "factor degrees do not sum to the input degree")
    return plan, entries


def _rescaled_minpolys(sk: _Skeleton, ent: _Entry, ctx: FieldCtx,
                       lam: np.ndarray) -> list[Poly]:
    """The factors of X^n - a, j-class by j-class in cell order: cell
    (v, i) is sum_k g[k] c_v^{d - k} X^{D k}, the minimal polynomial of
    lambda^{r v} beta over F_q evaluated at X^D, for g the entry's minimal
    polynomial of beta and c_v = lambda^{r v} in F_q.  With log tables
    every coefficient is one gather, exp[glog + expo log(lambda) mod
    (q - 1)], zeros kept by their log 2(q - 1); otherwise each v's powers of
    c_v are one table, ctx.power_matrix(c_v, L).T, and all coefficients
    are multiplied in one row-wise product.  They are written at stride D
    into one zeroed buffer: each factor is its own slice of it."""
    if ent.glog is not None:
        idx = ent.glog
        if ent.expo is not None:
            idx = idx + np.multiply(ent.expo, ctx.vlog(lam),
                                    dtype=np.int64) % ctx.units
        g = ctx.log_tables()[0][idx]
    else:
        g = ent.rows
        if ent.tix is not None:
            T = [ctx.power_matrix(ctx.vpow(lam, sk.r * v % ent.period), L).T
                 for v, L in zip(sk.vs, ent.tlen)]
            g = ctx.vmul_rows(g, np.concatenate(T)[ent.tix])
    buf = np.zeros((sum(sk.degs) + len(sk.degs), ctx.m), dtype=ctx._dtype)
    spins, lo, at = [], 0, 0
    for D, deg in zip(sk.Ds, sk.degs):
        hi, end = lo + deg // D + 1, at + deg + 1
        buf[at:end:D] = g[lo:hi]
        spins.append(Poly(ctx, buf[at:end]))
        lo, at = hi, end
    return spins


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
    """The n-th cyclotomic polynomial: the factors of X^n - 1 of order n.

    They are the order-n entries of _binomial_core's X^n - 1, in its order,
    so Phi_n shares X^n - 1's skeleton, entry and spin stack; their degrees
    must sum to deg Phi_n = phi(n), the degree of the base built
    independently by _cyclotomic_poly."""
    _require_input(n)
    if n % ctx.p == 0:
        raise NotCoprimeToChar(f"n = {n} shares a factor with the characteristic")
    phi = _cyclotomic_poly(ctx, n)
    _, entries = _binomial_core(ctx.one(), n)
    entries = [e for e in entries if e.order == n]
    _invariant(sum(e.degree for e in entries) == phi.degree,
               "order-n factor degrees do not sum to deg Phi_n")
    return Factorization(phi, entries, plan=None)


def _cyclotomic_poly(ctx: FieldCtx, n: int) -> Poly:
    """Phi_n over ctx as Phi_r(X^{n/r}), r = rad(n).

    Phi_r = prod_{d | r} (1 - X^d)^{mu(r/d)} for r > 1 (the signs cancel, as
    the mu(r/d) sum to 0), and a power series modulo X^{phi(r)+1} holds it
    whole: each factor 1 - X^d is one shifted subtraction, each inverse
    1/(1 - X^d) = sum_j X^{jd} one running sum over blocks of d, and terms
    with d > phi(r) drop out.  The coefficients lie in Z_p, coordinate 0.
    """
    p, r = ctx.p, numth.radical(n)
    k = numth.euler_phi(r)
    c = np.zeros(k + 1, dtype=ctx._dtype)
    c[0] = 1
    for d in numth.divisors(r):
        mu = numth.mobius(r // d)
        if d > k or mu == 0:
            continue
        if mu == 1:
            c[d:] = (c[d:] - c[:-d]) % p
        else:
            blocks = np.zeros(-(-(k + 1) // d) * d, dtype=c.dtype)
            blocks[: k + 1] = c
            c = blocks.reshape(-1, d).cumsum(axis=0).reshape(-1)[: k + 1] % p
    if r == 1:
        c = (-c) % p  # Phi_1 = X - 1 = -(1 - X)
    _invariant(c[k] == 1, "Moebius series for Phi_n is not monic of degree phi(n)")
    arr = np.zeros((k * (n // r) + 1, ctx.m), dtype=ctx._dtype)
    arr[:: n // r, 0] = c
    return Poly(ctx, arr)


def factor_composition(f: Poly, n: int) -> Factorization:
    """Complete factorization of f(X^n) for irreducible f."""
    _require_input(n, max(f.degree, 1))
    ctx = f.ctx
    if f.degree < 1:
        raise NotIrreducible("f must be nonconstant")
    scale = f.lead()
    fm = f.monic()
    base = Poly.spread(ctx, f.a, n)  # f(X^n)
    if fm == Poly.x(ctx):
        entry = FactorEntry(Poly.x(ctx), n, 1, None)
        return Factorization(base, [entry], plan=None, scale=scale)
    # an irreducible f of this degree needs F_{q^k} for its root: refuse
    # before a Rabin test that costs far more than the refusal
    ff._check_degree(ctx.m * f.degree)
    if not rabin_irreducible(fm):
        raise NotIrreducible("f must be irreducible")
    # strip the characteristic power of n: f(X^n) = (f_red(X^n_red))^{p^l}
    # with f_red the coefficient-wise p^l-th root of f
    l = numth.p_adic(n, ctx.p) if n % ctx.p == 0 else 0
    cpow = ctx.p**l
    n_red = n // cpow
    f_red = coeff_frobenius(fm, (-l) % ctx.m, ctx.p)
    k = f_red.degree
    # ctx.p is prime and ctx.m * k passed _check_degree: no test on either
    K = ff._field(ctx.p, ctx.m * k, ff._lex_modulus(ctx.p, ctx.m * k))
    emb = ff.embed(ctx, K)
    coeffs = [emb(f_red.coeff(i)) for i in range(k + 1)]
    # alpha: the smallest-index root, of the k conjugates x -> x^q of any one
    alpha = root = find_root(coeffs, K)
    for _ in range(k - 1):
        root = root.conj(ctx.m)
        alpha = min(alpha, root, key=K.index_of)
    _invariant(Poly.from_coeffs(K, coeffs).eval(alpha).is_zero(),
               "split-off root is not a root of f")
    plan_inner, entries = _binomial_core(alpha, n_red, char_power=cpow)
    # each factor g of X^n - alpha over K divides one factor of f(X^n) over
    # F_q, its norm prod_{j<k} sigma^j(g), of degree k deg g
    down = []
    for e in entries:
        P = conjugate_product(e.poly, k, ctx)
        _invariant(P.degree == k * e.degree, "norm degree is not k deg g")
        try:
            P = Poly(ctx, emb.preimage(P.a))
        except NotASubfield:
            raise InvariantViolated("norm coefficients lie outside F_q") from None
        down.append(FactorEntry(P, e.mult, P.degree, e.order))
    plan = CompositionPlan(f=f, k=k, alpha=alpha, inner=plan_inner,
                           char_power=cpow, scale=scale)
    return Factorization(base, down, plan=plan, scale=scale)


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
    """X^n - a when a has an n-th root in its own field, else None (the
    power criterion fails).  Such an X^n - a is X^n - 1 under X -> X/beta,
    beta^n = a, and factor_binomial already gives its factors and orders,
    with the plan that verify() proves by the census.
    """
    if a.is_zero():
        raise ZeroElement("a must be nonzero")
    _require_input(n)
    q = a.ctx.order
    if (a ** ((q - 1) // gcd(n, q - 1))) != a.ctx.one():
        return None
    return factor_binomial(a, n)


def butler_profile(f: Poly, n: int) -> list[tuple[int, int, int, int]]:
    """Census (d, count, degree, order) of the factors of f(X^n), per d | n2."""
    _require_positive(n)
    if n % f.ctx.p == 0:
        raise NotCoprimeToChar(f"n = {n} shares a factor with the characteristic")
    try:
        e = poly_order(f)  # its one Rabin test; RootAtZero for f = X
    except NotIrreducible:
        raise NotIrreducible("f must be irreducible") from None
    return _butler_rows(f, n, e)


def _butler_rows(f: Poly, n: int, e: int) -> list[tuple[int, int, int, int]]:
    """butler_profile's census for irreducible f of order e, p not dividing n."""
    k, q = f.degree, f.ctx.order
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


class _Reduced(NamedTuple):
    """fz.base = scale * g(X^n)^cpow with g(X^n) squarefree."""

    g: Poly  # monic irreducible, g(0) != 0
    n: int  # prime to the characteristic
    cpow: int  # a power of the characteristic
    e: int  # ord(g)


def _reduced_input(fz: Factorization) -> Optional[_Reduced]:
    """verify's one reader of fz.plan: the squarefree reduced input, g =
    X - a_red for a binomial, g = f_red for a composition.  None without a
    plan, or when the plan does not describe fz.base (its field, N and cpow,
    then g.degree * N * cpow = deg fz.base before g(X^N)^cpow is built, then
    g(X^N)^cpow itself and ord g), so a forged plan proves nothing."""
    plan, base = fz.plan, fz.base
    ctx, p = base.ctx, base.ctx.p
    if isinstance(plan, BinomialPlan):
        n, cpow, src = plan.n, plan.char_power, plan.a.ctx
    elif isinstance(plan, CompositionPlan):
        n, cpow, src = plan.inner.n, plan.char_power, plan.f.ctx
    else:
        return None
    if src != ctx or n < 1 or n % p == 0 or cpow < 1 or fz.scale.is_zero():
        return None
    l = 0 if cpow == 1 else numth.p_adic(cpow, p)
    if cpow != p**l:
        return None
    if isinstance(plan, BinomialPlan):
        g = Poly.from_coeffs(ctx, [-plan.a, ctx.one()])
    else:
        g = coeff_frobenius(plan.f.monic(), (-l) % ctx.m, p)
    step = n * cpow
    if g.degree * step != base.degree:
        return None
    # g(X^n)^cpow = sum_i g_i^cpow X^{i n cpow} in characteristic p
    gp = [(g.coeff(i) ** cpow).vec() for i in range(g.degree + 1)]
    if Poly.spread(ctx, gp, step).scaled(fz.scale) != base:
        return None
    try:
        e = ff.element_order(-g.coeff(0)) if g.degree == 1 else poly_order(g)
    except (NotIrreducible, RootAtZero, ZeroElement):
        return None
    return _Reduced(g, n, cpow, e)


def _census_proves(fz: Factorization, red: _Reduced, rows) -> bool:
    """Every multiplicity is cpow, the (degree, declared order) pairs are the
    census rows of g(X^N), and X^o = 1 mod every factor declared o."""
    want = Counter({(deg, o): count for _, count, deg, o in rows})
    if (any(e.mult != red.cpow for e in fz)
            or Counter((e.poly.degree, e.order) for e in fz) != want):
        return False
    powers = _y_powers(red.g, red.e)
    return all(_x_power_test(QuotientRing(e.poly), red.n, powers)(e.order)
               for e in fz)


def _y_powers(g: Poly, e: int):
    """j -> the coefficients of Y^j mod g, lowest first, for ord(Y mod g) = e;
    a single scalar a^j for g = Y - a."""
    if g.degree == 1:
        a = -g.coeff(0)
        return lambda j: [a ** (j % e)]
    ring = QuotientRing(g)
    y = ring.x()

    def h(j: int) -> list:
        r = ring.to_poly(ring.pow(y, j % e))
        return [r.coeff(i) for i in range(r.degree + 1)]

    return h


def _x_power_test(ring: QuotientRing, n: int, powers):
    """The predicate E -> X^E = 1 in F_q[X]/(S) for S | g(X^n), where
    powers(j) gives Y^j mod g: X^E = X^{E mod n} h(X^n), h = Y^{E // n} mod g,
    so the ring power's exponent stays below n."""
    ctx = ring.ctx
    x = ring.x()
    xn = []  # X^n mod S, taken once when some h is not a constant

    def is_one(E: int) -> bool:
        h, rem = powers(E // n), E % n
        if len(h) == 1:  # X^rem h_0 = 1 iff X^rem is a constant c, c h_0 = 1
            if rem == 0:
                return h[0] == ctx.one()
            xr = ring.pow(x, rem)
            return not xr[1:].any() and bool(np.array_equal(
                ctx.vmul(xr[0], h[0].vec()), ctx.vone()))
        if not xn:
            xn.append(ring.pow(x, n))
        hx = np.zeros_like(x)  # h(X^n) by Horner
        for c in reversed(h):
            hx = ring.mul(hx, xn[0])
            hx[0] = ctx.vadd(hx[0], c.vec())
        return ring.is_one(ring.mul(ring.pow(x, rem), hx))

    return is_one


def verify(fz: Factorization) -> VerifyReport:
    """Independent cross-check of a factorization; never raises on mismatch.

    Checks, in order: the product, irreducibility, degrees, orders and the
    Butler census.  _reduced_input, the one reader of the plan, gives the
    squarefree reduced input g(X^N)^cpow (g = X - a_red, or f_red) and
    e = ord(g) once per factorization, or None for a plan that does not
    describe fz.base.  When the product holds, irreducibility and exact
    orders are proved together by the census, not per factor: the rows of
    _butler_rows(g, N, e), which the butler check reuses, give for each
    order o the number M(o) of roots of g(X^N) of exact order o and their
    degree ord_o(q), from integers alone.  The proof passes when every
    multiplicity is cpow, the multiset of (actual degree, declared order) of
    the factors equals the rows', and X^o = 1 mod every factor S declared o,
    by the relation X^N = root of g (one ring power of exponent below N for
    a binomial).

    Why that proves irreducibility and exact orders: prod S = g(X^N) is
    squarefree, so its roots are split among the factors without overlap.
    Let C(o) be the total degree of the factors declared o; the multiset
    gives C = M.  For every o, the roots of order dividing o number
    sum_{d | o} M(d) = sum_{d | o} C(d), and by the powers every root of a
    factor declared d | o is among them, so they are exactly the roots of
    the factors declared d | o.  A root of S declared o whose order o'' is a
    proper divisor of o would then also lie in a factor declared d | o'', a
    second factor, which cannot be.  So every root of S has exact order o
    and degree ord_o(q) = deg S over F_q: S is irreducible of order o.

    When any of that fails, and for plan-less factorizations
    (factor_cyclotomic) or rejected plans, every factor takes
    rabin_irreducible and has its order checked as exact on X^t = 1 mod S
    itself, which holds for any S, not only one dividing g(X^N); when the
    plan was accepted and the product holds, a mismatch is named by the
    actual order, found by dividing primes out of N ord(g), so the FAIL
    text is the per-factor one.  A rejected plan FAILs butler: "plan does
    not describe the input".
    """
    report = VerifyReport()
    base = fz.base

    product_ok = fz.product() == base
    report.checks.append(VerifyCheck(
        "product", product_ok,
        "" if product_ok else "factors do not multiply back to the input"))

    red = _reduced_input(fz)
    rows = None if red is None else _butler_rows(red.g, red.n, red.e)
    if product_ok and rows is not None and _census_proves(fz, red, rows):
        bad, mism, skipped = [], [], 0
    else:
        bad, mism, skipped = _per_factor_checks(fz, red if product_ok else None)
    report.checks.append(VerifyCheck(
        "irreducible", not bad,
        "" if not bad else f"{len(bad)} reducible factor(s), first: {bad[0].poly!r}"))

    bad_deg = [e for e in fz if e.degree != e.poly.degree]
    report.checks.append(VerifyCheck(
        "degrees", not bad_deg,
        "" if not bad_deg else f"declared {bad_deg[0].degree} != {bad_deg[0].poly.degree}"))

    detail = "" if not mism else (
        f"{len(mism)} wrong order(s), first: declared {mism[0][0].order}"
        + (f" actual {mism[0][1]}" if mism[0][1] else ""))
    if skipped and not detail:
        detail = f"{skipped} factor(s) without declared order skipped"
    report.checks.append(VerifyCheck("orders", not mism, detail))

    report.checks.append(_butler_check(fz, red, rows))
    return report


def _per_factor_checks(fz: Factorization, rel: Optional[_Reduced]):
    """(reducible entries, order mismatches as (entry, actual or None),
    entries without declared order) by rabin_irreducible and an exact-order
    check per factor, on X^t = 1 mod S itself: verify's fallback when the
    census proves nothing.  rel, the checked reduced input when the product
    holds, only names a mismatch: its actual order, when X^T = 1 mod S for
    T = N ord(g), is found by dividing primes out of T."""
    T = None if rel is None else rel.n * rel.e
    mism = []
    skipped = 0
    for e in fz:
        S = e.poly
        if e.order is None:
            skipped += 1
        elif S.degree < 1:
            mism.append((e, None))
        else:
            is_one = _x_power_is_one(S)
            if e.order < 1 or not numth.is_exact_order(e.order, is_one):
                mism.append((e, numth.least_order(T, numth.factorize(T).primes(), is_one)
                             if T and is_one(T) else None))
    return [e for e in fz if not rabin_irreducible(e.poly)], mism, skipped


def _butler_check(fz: Factorization, red: Optional[_Reduced], rows) -> VerifyCheck:
    """The census rows of the checked reduced input against the factors'
    (degree, order) histogram, counted with multiplicity."""
    if fz.plan is None:
        return VerifyCheck("butler", True, "not applicable (no plan)")
    if red is None:
        return VerifyCheck("butler", False, "plan does not describe the input")
    if red.cpow > 1:
        return VerifyCheck("butler", True, "not applicable (characteristic divides n)")
    expected = {(deg, order): count for _, count, deg, order in rows}
    got: dict = {}
    for e in fz:
        got[(e.degree, e.order)] = got.get((e.degree, e.order), 0) + e.mult
    ok = got == expected
    return VerifyCheck("butler", ok,
                       "" if ok else f"profile mismatch: {got} != {expected}")
