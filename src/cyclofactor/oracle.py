"""Brute-force factorization oracle, independent of the closed formulas.

brute_factor runs squarefree decomposition (with p-th-power extraction),
distinct-degree factorization on a cached Frobenius matrix, and seeded
Cantor-Zassenhaus equal-degree splitting (norm chain for odd q, trace sums
in characteristic 2).  Deterministic for a fixed OracleConfig.

The distinct-degree search takes one gcd per block of isqrt(deg f) degrees
(von zur Gathen-Shoup 1992): the X^{q^d} - X of a block are multiplied in
the quotient ring first, and only a block that shares a factor with f is
split by d.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import DegreeGuard, DivByZero
from .poly import (
    Factorization,
    FactorEntry,
    Poly,
    QuotientRing,
    poly_gcd,
    rabin_irreducible,
)


@dataclass(frozen=True)
class OracleConfig:
    rng_seed: int = 0
    max_total_degree: int = 512


_DEFAULT = OracleConfig()


def is_irreducible(f: Poly, config: OracleConfig | None = None) -> bool:
    config = config or _DEFAULT
    if f.degree > config.max_total_degree:
        raise DegreeGuard(
            f"degree {f.degree} exceeds the oracle cap {config.max_total_degree}"
        )
    return rabin_irreducible(f)


def brute_factor(f: Poly, config: OracleConfig | None = None) -> Factorization:
    config = config or _DEFAULT
    if f.is_zero():
        raise DivByZero("cannot factor the zero polynomial")
    if f.degree > config.max_total_degree:
        raise DegreeGuard(
            f"degree {f.degree} exceeds the oracle cap {config.max_total_degree}"
        )
    scale = f.lead()
    work = f.monic()
    rng = random.Random(config.rng_seed)
    entries = []
    for part, mult in _squarefree_parts(work):
        for prod, d in _distinct_degree(part):
            for irr in _equal_degree(prod, d, rng):
                entries.append(FactorEntry(irr, mult, irr.degree, None))
    return Factorization(f, entries, plan=None, scale=scale)


# -- squarefree decomposition --------------------------------------------------------

def _pth_root(f: Poly) -> Poly:
    """g with g^p = f, for f with zero derivative (all exponents divisible by p)."""
    ctx = f.ctx
    # coefficient p-th roots: inverse Frobenius is x -> x^{p^{m-1}}
    return Poly(ctx, ctx.vconj(f.a[:: ctx.p], ctx.m - 1))


def _squarefree_parts(f: Poly):
    """Pairs (g, mult) with f = prod g^mult, g squarefree, pairwise coprime."""
    out = []
    stack = [(f, 1)]
    while stack:
        g, mult = stack.pop()
        if g.degree < 1:
            continue
        d = g.derivative()
        if d.is_zero():
            stack.append((_pth_root(g), mult * g.ctx.p))
            continue
        u = poly_gcd(g, d)
        v = g // u
        i = 1
        while v.degree > 0:
            y = poly_gcd(v, u)
            z = v // y
            if z.degree > 0:
                out.append((z, mult * i))
            v, u = y, u // y
            i += 1
        if u.degree > 0:
            # leftover is a p-th power (every remaining multiplicity divisible by p)
            stack.append((u, mult))
    return out


# -- distinct-degree factorization ---------------------------------------------------

def _distinct_degree(f: Poly):
    """Pairs (g, d): g = product of the irreducible factors of f of degree d.

    The d run in blocks of isqrt(deg f): one gcd of the unsplit rest with
    the product of the block's X^{q^d} - X mod f takes every factor whose
    degree lies in the block (smaller degrees are gone, so a degree dividing
    some d of the block is one of them).  Only a block that shares a factor
    is split by d, against that small part.  The pairs come out by
    increasing d, as one gcd per d would give them.
    """
    ctx = f.ctx
    if f.degree < 1:
        return []
    ring = QuotientRing(f)
    x = cur = ring.x()
    block = math.isqrt(f.degree)
    out = []
    rem = f
    d = 0
    while rem.degree >= 2 * (d + 1):
        hs = []
        prod = None
        for d in range(d + 1, min(d + block, rem.degree // 2) + 1):
            cur = ring.frob(cur)
            h = (cur - x) % ctx.p
            hs.append((h, d))
            prod = h if prod is None else ring.mul(prod, h)
        g = poly_gcd(rem, ring.to_poly(prod))
        if g.degree < 1:
            continue
        rem = rem // g
        for h, dh in hs:
            if g.degree < dh:
                break
            gd = poly_gcd(g, ring.to_poly(h))
            if gd.degree > 0:
                out.append((gd, dh))
                g = g // gd
    if rem.degree > 0:
        out.append((rem, rem.degree))
    return out


# -- equal-degree factorization ------------------------------------------------------

def _random_poly(ctx, deg_below: int, rng: random.Random) -> Poly:
    coeffs = [
        ctx.element_from_index(rng.randrange(ctx.order)) for _ in range(deg_below)
    ]
    return Poly.from_coeffs(ctx, coeffs)


def _equal_degree(f: Poly, d: int, rng: random.Random):
    """Split f (squarefree, all factors of degree d) into its irreducibles."""
    ctx = f.ctx
    out = []
    stack = [f]
    while stack:
        g = stack.pop()
        if g.degree == d:
            out.append(g)
            continue
        ring = QuotientRing(g)
        while True:
            r = _random_poly(ctx, g.degree, rng)
            if r.degree < 0:
                continue
            h = _splitter(ring, r, d)
            gg = poly_gcd(g, h)
            if 0 < gg.degree < g.degree:
                stack.append(gg)
                stack.append(g // gg)
                break
    return out


def _splitter(ring: QuotientRing, r: Poly, d: int) -> Poly:
    """A polynomial whose gcd with the modulus is a nontrivial split w.h.p."""
    ctx = ring.ctx
    u = ring.lift(r)
    if ctx.p == 2:
        # trace to F_2: r + r^2 + ... + r^{2^{ed-1}}, e = log2 q
        e = ctx.m * d
        acc = u
        sq = u
        for _ in range(e - 1):
            sq = ring.mul(sq, sq)
            acc = (acc + sq) % 2
        return ring.to_poly(acc)
    # odd q: norm r^{1 + q + ... + q^{d-1}} into F_q, then a Legendre power
    v = u
    w = u
    for _ in range(d - 1):
        w = ring.frob(w)
        v = ring.mul(v, w)
    s = ring.pow(v, (ctx.order - 1) // 2)
    one = ring.one()
    return ring.to_poly((s - one) % ctx.p)
