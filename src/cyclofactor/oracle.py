"""Brute-force factorization oracle, independent of the closed formulas.

brute_factor splits f into squarefree parts (with p-th-power extraction) and
factors each part g by Berlekamp's algorithm (1970).  The u in F_q[X]/(g)
with u^q = u, the F_p null space of Q - I for the Frobenius matrix Q, form
an algebra isomorphic to F_q^r, one coordinate per irreducible factor of g.
Its F_p dimension m*r counts the factors, so r = 1 proves g irreducible
without a gcd.  Otherwise random elements v of the algebra, drawn from a
seeded rng, split g as in Cantor-Zassenhaus (1981), with no distinct-degree
stage: the gcd with v^((q-1)/2) - 1 for odd q, or with the trace
v + v^2 + ... + v^(2^(m-1)) for q = 2^m, takes the factors where that
element vanishes.  Each round forms one such element in g's ring and reads
it mod every piece off the algebra basis reduced mod that piece, by the
piece's QuotientRing.reduce, the ring's one reduction; mod a piece with one
factor it is a constant, which takes no gcd.  The rounds stop at r
pieces, or raise InvariantViolated after a bound that chance reaches with
probability below 2^-64.  Deterministic for a fixed OracleConfig.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import ff
from .errors import DegreeGuard, DivByZero, InvariantViolated
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
        for irr in _berlekamp(part, rng):
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


# -- Berlekamp's algorithm -----------------------------------------------------------

def _berlekamp(g: Poly, rng: random.Random) -> list[Poly]:
    """The irreducible factors of the monic squarefree g."""
    if g.degree == 1:
        return [g]
    ctx, p, m = g.ctx, g.ctx.p, g.ctx.m
    ring = QuotientRing(g)
    # Q's dtype holds a sum of g.degree * m products of residues: the
    # elimination leaves an entry a residue minus one product per pivot, and
    # every sum below has at most that many terms.  The ring applies no
    # Frobenius after this, so its Q turns into Q - I and is eliminated in place.
    QI = ring.frob_matrix()
    dt = QI.dtype
    QI[np.diag_indices(len(QI))] -= 1
    B = np.array(ff._nullspace_basis(QI.T, p), dtype=dt)
    r = len(B) // m
    if r == 1:
        return [g]
    # a null vector is 1 at its own free column, which is its last nonzero,
    # and 0 at the others: an element of the algebra has its coordinates there
    free = [int(np.flatnonzero(b)[-1]) for b in B]
    # each piece h keeps the basis mod h, so an element reduces to h linearly
    done, pieces = [], [(g, B)]
    # each round keeps a given pair of factors together with probability
    # at most 5/9 < 2^(-3/4) (q = 3 is the worst), so after this many the
    # r^2/2 pairs are all apart but with probability below 2^-64
    rounds = 86 + 3 * r.bit_length()
    for _ in range(rounds):
        c = np.array([rng.randrange(p) for _ in B], dtype=dt)
        v = (c @ B % p).reshape(g.degree, m).astype(ctx._dtype)
        t = _split_element(ring, v).reshape(-1)[free]
        rest = []
        for h, Bh in pieces:
            sh = (t @ Bh % p).reshape(-1, m)
            # a constant, such as any element mod an irreducible piece, is
            # equal at every factor: it splits nothing and takes no gcd
            d = poly_gcd(h, ring.to_poly(sh.astype(ctx._dtype))) if sh[1:].any() else h
            parts = (d, h // d) if 0 < d.degree < h.degree else (h,)
            for part in parts:
                if part.degree == 1:
                    done.append(part)
                elif part is h:
                    rest.append((h, Bh))
                else:  # the basis mod the new piece, block by block
                    Bp = QuotientRing(part).reduce(Bh.reshape(len(Bh), -1, m))
                    rest.append((part, Bp.reshape(len(Bh), -1)))
        pieces = rest
        if len(done) + len(pieces) == r:
            return done + [h for h, _ in pieces]
    degrees = ", ".join(str(h.degree) for h, _ in pieces)
    raise InvariantViolated(
        f"{len(done) + len(pieces)} of the r = {r} factors after {rounds} rounds;"
        f" open pieces of degree {degrees}"
    )


def _split_element(ring: QuotientRing, v: np.ndarray) -> np.ndarray:
    """v^((q-1)/2) - 1 for odd q, the trace to F_2 of v for q = 2^m."""
    ctx = ring.ctx
    if ctx.p == 2:
        acc = sq = v
        for _ in range(ctx.m - 1):
            sq = ring.mul(sq, sq)
            acc = (acc + sq) % 2
        return acc
    return (ring.pow(v, (ctx.order - 1) // 2) - ring.one()) % ctx.p

