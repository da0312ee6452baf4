"""The q-spin engine: minimal polynomials over a subfield, a stack at once.

Binomials X + c in W are spun as one stack, spin_binomials: the q-orbits of
all constants are walked together, one Frobenius step for the whole stack,
and each orbit length d is read off where its row returns.  An orbit over
F_q = F_{p^e} with d <= 4e is multiplied out in one pass over the stack,
one FieldCtx.vmul_rows per step, each row still out times its own
conjugate; a longer one becomes one F_p linear solve on the d * e Krylov
vectors beta^l * rho^i, rho = -c, which yields the minimal polynomial of
rho in F_q's coordinates.  The crossover is the module constant
_SPIN_SOLVE_RATIO.  The solve runs on ff._nullspace_basis, with the Krylov
vectors built as rows.  The stack takes one ff.EmbeddingMap F_q -> W, the
route its caller reached W by: beta is its root, and the products of a
whole stack return to F_q through its one preimage.  The one output is the
coefficient rows over F_q of every minimal polynomial, end to end, with
their ends; X^D + c spins to g(X^D), which poly.q_spin spreads itself.
minpolys serves factor's entries from _spun_minpolys, an lru_cache keyed
by the embedding and the distinct constants, so each stack is spun once per
process; q_spin calls spin_binomials uncached.
"""

from __future__ import annotations

import functools
from itertools import accumulate, chain

import numpy as np

from . import ff
from .errors import InvariantViolated

# spins solve for orbits longer than this many times e = [F_q : F_p]: the
# conjugate product costs about d^2/2 field products, the solve d * e pivots.
# Spins run only where factor builds a shared stack of minimal polynomials,
# so the ratio was re-timed on the cold seed-0 grid pass (perfbench grid
# setup_s, 10 alternating pairs against 4 each, 2 vCPUs): ratio 2 read a
# median 1.47 s against 1.41 s (3 of 10 pairs won), ratio 8 1.42 s against
# 1.42 s (5 of 10), so neither beats 4
_SPIN_SOLVE_RATIO = 4


def spin_binomials(emb: ff.EmbeddingMap, C) -> tuple[np.ndarray, tuple]:
    """(stack, ends): for every row c of C, a constant in W = emb.sup, the
    coefficient rows over F_q = emb.sub of the minimal polynomial g of
    rho = -c, lowest first, end to end, the k-th ending at row ends[k]; emb
    fixes which of F_q's Frobenius conjugates each coefficient is.

    Sorted longest first, the short orbits (d <= 4e, every d = 1 among
    them) still out at step u are a prefix of one array, whose blocks take
    one vmul_rows by their c_u, one per row.  For a long one the d * e
    vectors beta^l * rho^i, beta the image of F_q's variable, are an
    F_p-basis of F_q(rho), and the one null vector of
    [ ... beta^l rho^i ... | rho^d ] holds g in F_q's own coordinates.
    """
    W, out_ctx = emb.sup, emb.sub
    p, m, e = W.p, W.m, out_ctx.m
    short = _SPIN_SOLVE_RATIO * e
    C = np.asarray(C, dtype=W._dtype).reshape(-1, m)
    d = np.zeros(len(C), dtype=np.int64)
    live, cur, start = np.arange(len(C)), C, C
    walk = [(live, cur)]  # per step t: the rows still out, their c^{q^t}
    for t in range(1, m // e + 1):
        if not len(live):
            break
        cur = W.vconj(cur, e)
        back = (cur == start).all(axis=1)
        if back.any():
            d[live[back]] = t
            out = ~back
            live, cur, start = live[out], cur[out], start[out]
        if t < short:
            walk.append((live, cur))
    if len(live):
        raise InvariantViolated(
            f"a q-orbit does not close within [W : F_q] = {m // e} steps")
    sr = np.flatnonzero(d <= short)
    sr = sr[np.argsort(-d[sr], kind="stable")]  # longest orbit first
    ds = d[sr]
    g = np.zeros((len(sr), ds.max(initial=1) + 1, m), dtype=W._dtype)
    g[:, 0], g[:, 1] = C[sr], W.vone()  # Y + c_0
    for u in range(1, g.shape[1] - 1):  # times Y + c_u: the rows sr[:k], d > u
        k = np.count_nonzero(ds > u)
        step_rows, conj = walk[u]
        cu = conj[np.searchsorted(step_rows, sr[:k])]
        prod = W.vmul_rows(g[:k, : u + 1], cu)
        g[:k, 1 : u + 2] = g[:k, : u + 1]
        g[:k, 0] = 0
        g[:k, : u + 1] = (g[:k, : u + 1] + prod) % p
    flat = g.reshape(-1, m)
    if out_ctx != W:
        flat = emb.preimage(flat)
    g = flat.reshape(g.shape[:2] + (out_ctx.m,))
    g_of = dict(zip(sr.tolist(), g))  # each short row -> its g
    rows = [g_of[k][: dk + 1] if k in g_of else
            _minpoly_by_solve(emb, W.vneg(C[k]), dk)
            for k, dk in enumerate(d.tolist())]
    return np.concatenate(rows), tuple(accumulate(map(len, rows)))


def _minpoly_by_solve(emb: ff.EmbeddingMap, rho, d: int) -> np.ndarray:
    """Rows of the monic degree-d minimal polynomial over emb.sub of rho in
    emb.sup, in emb.sub's coordinates.

    The Krylov vectors are rows: row i*e + l of KT is beta^l * rho^i, beta =
    emb.root, and the last row is rho^d, each step one product with the
    stack of Y^u * rho.
    The null space of the Krylov matrix K = KT.T is one vector (g_{0,0},
    ..., g_{d-1,e-1}, 1), the base coordinates g_{i,l} of the coefficients
    of g; ff._eliminate works on KT in place, so K is never copied.
    """
    ctx, out_ctx = emb.sup, emb.sub
    p, e = ctx.p, out_ctx.m
    KT = np.empty((d * e + 1, ctx.m), dtype=ctx._dtype)
    KT[:e] = emb._E.T  # rows beta^l, l < e
    Y = ctx.y_shifts(rho)  # v @ Y = rho * v
    for i in range(e, d * e, e):
        KT[i : i + e] = KT[i - e : i] @ Y % p
    KT[-1] = KT[-1 - e] @ Y % p  # rho * rho^{d-1} beta^0
    del Y  # the elimination below is the peak; keep it to KT and one temporary
    null = ff._nullspace_basis(KT.T, p)
    if len(null) != 1 or null[0][-1] != 1:
        raise InvariantViolated(
            f"Krylov matrix of a degree-{d} spin lacks a pivot: rho^{d} is not"
            " a unique combination of the lower powers")
    g = np.zeros((d + 1, e), dtype=out_ctx._dtype)
    g.flat[: d * e + 1] = null[0]  # its final 1 lands on g[d, 0]
    return g


def minpolys(emb: ff.EmbeddingMap, C: np.ndarray) -> tuple[np.ndarray, list]:
    """(rows, lens): per row c of C, the rows of the minimal polynomial of
    -c, end to end, and their number, read from the cached stack of the
    distinct rows of C in first-seen order."""
    keys = list(map(tuple, C.tolist()))
    first = dict.fromkeys(keys)
    stack, ends = _spun_minpolys(emb, tuple(chain.from_iterable(first)))
    span = dict(zip(first, zip((0,) + ends, ends)))
    rows = [stack[slice(*span[key])] for key in keys]
    return np.concatenate(rows), list(map(len, rows))


@functools.lru_cache(maxsize=4096)
def _spun_minpolys(emb: ff.EmbeddingMap, consts: tuple) -> tuple:
    """spin_binomials of consts, W.m ints per constant end to end, its
    stack read-only: a pure function of the cached embedding and the
    constants, so every entry with these constants in W shares it."""
    W = emb.sup
    stack, ends = spin_binomials(
        emb, np.array(consts, dtype=W._dtype).reshape(-1, W.m))
    stack.setflags(write=False)
    return stack, ends
