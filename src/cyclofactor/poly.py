"""Dense polynomials over a FieldCtx and the coefficient-field toolbox.

A Poly stores its coefficients as a 2-D integer array (rows = exponents,
columns = coordinates over Z_p, no trailing zero rows).  On top of the
exact ring arithmetic this module provides the coefficient Frobenius map,
the coefficient degree over a subfield, the q-spin (minimal polynomial over
the subfield of any root; a binomial is one row of spin.spin_binomials),
polynomial orders via quotient-ring powering, and the rational Q-transform
h^{deg f} * f(g/h).  QuotientRing.pow and Poly.__pow__ run ff.power, the
one square-and-multiply loop; poly_order and has_order hand the predicate
X^t = 1 mod f to numth's order search, and the coefficient maps apply
Frobenius through FieldCtx.vconj.

A product of two polynomials is one np.convolve: Kronecker substitution
Y -> X^L, with L the length of the product, lays the coordinates of every
coefficient out on one integer sequence; past int64 that sequence is packed
into one Python int and multiplied once.  Division is one row-level
routine, _divmod_rows, by a divisor whose leading coefficient is 1: each step
is one vector-matrix product against the stacked shifts Y^u * divisor.
Poly.__divmod__ divides by the monic associate (the leading coefficient is
inverted once per call, never for a monic divisor) and poly_gcd runs the
whole Euclid loop on coefficient rows, keeping only remainders.

QuotientRing precomputes a flat reduction matrix for F_q[X]/(f) so that a
ring product is one convolution plus one matrix product; big Frobenius powers
ride on an F_p-linear matrix of x -> x^q.  Both come from one shift-by-X
recurrence, _x_shifts: from X^D it gives the reduction rows X^{D+i} mod f,
from X^q the matrix of multiplication by X^q, whose powers applied to 1 are
the Frobenius matrix's blocks X^{qj}.

find_root, Berlekamp's trace split (1970), is the one root finder: ff.embed
places subfields with it (Lenstra 1991) and factor_composition roots f.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

from . import ff, numth, spin
from .errors import (
    BaseNotSubfield,
    CtxMismatch,
    DivByZero,
    ImproperCoefficients,
    NoRoot,
    NotASubfield,
    NotIrreducible,
    ParseError,
    PreconditionViolated,
    RootAtZero,
)
from .ff import FieldCtx, FieldElem


def _as_elem(ctx: FieldCtx, c) -> FieldElem:
    if isinstance(c, FieldElem):
        if c.ctx != ctx:
            raise CtxMismatch("coefficient from a different field context")
        return c
    if isinstance(c, int):
        return ctx.from_int(c)
    raise TypeError(f"cannot use {type(c).__name__} as a coefficient")


class Poly:
    """Immutable dense polynomial; coeffs[i] is the coordinate row of X^i."""

    __slots__ = ("ctx", "a", "_key")

    def __init__(self, ctx: FieldCtx, arr: np.ndarray):
        self.ctx = ctx
        self.a = arr
        self._key = None

    # -- construction --

    @classmethod
    def from_coeffs(cls, ctx: FieldCtx, coeffs: Iterable) -> "Poly":
        rows = [_as_elem(ctx, c).coords for c in coeffs]
        arr = np.array(rows, dtype=ctx._dtype).reshape(len(rows), ctx.m)
        return cls(ctx, _trim_rows(arr))

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, np.zeros((0, ctx.m), dtype=ctx._dtype))

    @classmethod
    def one(cls, ctx: FieldCtx) -> "Poly":
        return cls.from_coeffs(ctx, [1])

    @classmethod
    def x(cls, ctx: FieldCtx) -> "Poly":
        return cls.from_coeffs(ctx, [0, 1])

    @classmethod
    def monomial(cls, ctx: FieldCtx, k: int, coeff=1) -> "Poly":
        c = _as_elem(ctx, coeff)
        arr = np.zeros((k + 1, ctx.m), dtype=ctx._dtype)
        arr[k] = c.vec()
        return cls(ctx, _trim_rows(arr))

    @classmethod
    def binomial(cls, ctx: FieldCtx, n: int, a) -> "Poly":
        """X^n - a, with -a written from a's coordinates."""
        p = ctx.p
        arr = np.zeros((n + 1, ctx.m), dtype=ctx._dtype)
        arr[0] = [-c % p for c in _as_elem(ctx, a).coords]
        arr[n, 0] = (arr[n, 0] + 1) % p
        return cls(ctx, _trim_rows(arr))

    @classmethod
    def spread(cls, ctx: FieldCtx, rows, D: int) -> "Poly":
        """sum_k rows[k] X^{D k}, for coefficient rows whose last is nonzero."""
        arr = np.zeros(((len(rows) - 1) * D + 1, ctx.m), dtype=ctx._dtype)
        arr[::D] = rows
        return cls(ctx, arr)

    # -- basic views --

    @property
    def degree(self) -> int:
        return len(self.a) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return len(self.a) == 0

    def coeff(self, i: int) -> FieldElem:
        if i < 0 or i > self.degree:
            return self.ctx.zero()
        return self.ctx.from_vec(self.a[i])

    def lead(self) -> FieldElem:
        if self.is_zero():
            raise DivByZero("zero polynomial has no leading coefficient")
        return self.ctx.from_vec(self.a[-1])

    def is_monic(self) -> bool:
        return _lead_is_one(self.a)

    def key(self):
        """Hashable canonical key, which orders the polynomials of one field
        by degree, then by their rows from the top, each from its last
        coordinate: (length, the big-endian bytes of the reversed rows) for
        int64 rows, with no tuples built, and (degree, the reversed rows as
        tuples) for object rows."""
        if self._key is None:
            a = self.a
            if self.ctx._dtype is object:
                ser = tuple(tuple(row[::-1]) for row in a[::-1].tolist())
                self._key = (self.degree, ser)
            else:
                self._key = (len(a), a[::-1, ::-1].astype(">i8").tobytes())
        return self._key

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.ctx == other.ctx
            and np.array_equal(self.a, other.a)
        )

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return poly_text(self)

    # -- arithmetic --

    def _peer(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.ctx != self.ctx:
                raise CtxMismatch("polynomials from different field contexts")
            return other
        if isinstance(other, (FieldElem, int)):
            return Poly.from_coeffs(self.ctx, [_as_elem(self.ctx, other)])
        return NotImplemented

    def _plus(self, other, sign: int):
        """self + sign * other."""
        o = self._peer(other)
        if o is NotImplemented:
            return o
        n = max(len(self.a), len(o.a))
        arr = np.zeros((n, self.ctx.m), dtype=self.ctx._dtype)
        arr[: len(self.a)] += self.a
        arr[: len(o.a)] += sign * o.a
        return Poly(self.ctx, _trim_rows(arr % self.ctx.p))

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        o = self._peer(other)
        if o is NotImplemented:
            return o
        return o - self

    def __neg__(self):
        return Poly(self.ctx, (-self.a) % self.ctx.p)

    def __mul__(self, other):
        o = self._peer(other)
        if o is NotImplemented:
            return o
        return Poly(self.ctx, _trim_rows(_mul_arr(self.ctx, self.a, o.a)))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise PreconditionViolated("negative polynomial powers are not defined")
        return ff.power(self, e, operator.mul, lambda: Poly.one(self.ctx))

    def __divmod__(self, other):
        """Long division by the monic associate b of the divisor.

        The leading coefficient is inverted at most once (never for a monic
        divisor), _divmod_rows divides by b, and the quotient by b is scaled
        back at the end.
        """
        o = self._peer(other)
        if o is NotImplemented:
            return o
        if o.is_zero():
            raise DivByZero("polynomial division by zero")
        ctx = self.ctx
        if self.degree < o.degree:
            return Poly.zero(ctx), self
        b = o.a
        inv = None
        if not o.is_monic():
            inv = ctx.vinv(b[-1])
            b = ctx.vmul_rows(b, inv)
        quot, rem = _divmod_rows(ctx, self.a, b)
        if inv is not None:
            quot = ctx.vmul_rows(quot, inv)
        return Poly(ctx, _trim_rows(quot)), Poly(ctx, _trim_rows(rem))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def scaled(self, c) -> "Poly":
        """Scalar multiple c * self."""
        e = _as_elem(self.ctx, c)
        if e.is_zero():
            return Poly.zero(self.ctx)
        return Poly(self.ctx, _trim_rows(self.ctx.vmul_rows(self.a, e.vec())))

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        return self.scaled(self.ctx.from_vec(self.ctx.vinv(self.a[-1])))

    def eval(self, x: FieldElem) -> FieldElem:
        e = _as_elem(self.ctx, x)
        ctx = self.ctx
        acc = ctx.vzero()
        xv = e.vec()
        for i in range(len(self.a) - 1, -1, -1):
            acc = (ctx.vmul(acc, xv) + self.a[i]) % ctx.p
        return ctx.from_vec(acc)

    def derivative(self) -> "Poly":
        if self.degree < 1:
            return Poly.zero(self.ctx)
        mult = np.arange(1, len(self.a), dtype=np.int64).reshape(-1, 1)
        return Poly(self.ctx, _trim_rows(self.a[1:] * mult % self.ctx.p))


def _trim_rows(arr: np.ndarray) -> np.ndarray:
    n = len(arr)
    while n > 0 and not arr[n - 1].any():
        n -= 1
    return arr[:n]


def _lead_is_one(a: np.ndarray) -> bool:
    """True when the coefficient rows a end in the row of 1."""
    return len(a) > 0 and bool(a[-1, 0] == 1) and not a[-1, 1:].any()


def _divmod_rows(ctx: FieldCtx, a: np.ndarray, b: np.ndarray, quot: bool = True):
    """Long division of the rows a by the rows b, whose leading row is 1.

    The shifts Y^u * b are stacked once and each step removes the top row of
    the remainder with one vector-matrix product.  Returns the quotient rows
    (None when quot is false) and the untrimmed remainder rows, at most
    len(b) - 1 of them; a is left as it was.
    """
    p, m, db = ctx.p, ctx.m, len(b) - 1
    if not db:  # b = 1
        return a.copy() if quot else None, a[:0]
    # row u: Y^u times the coefficients of b below its leading 1, flattened
    W = ctx.y_shifts(b[:db]).reshape(m, db * m)
    r = a.copy()
    q = np.zeros((max(len(a) - db, 0), m), dtype=ctx._dtype) if quot else None
    for k in range(len(a) - 1 - db, -1, -1):
        top = r[k + db]  # a zero row subtracts zero
        if quot:
            q[k] = top
        r[k : k + db] = (r[k : k + db] - (top @ W).reshape(db, m)) % p
    return q, r[:db]


def _mul_arr(ctx: FieldCtx, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact product of coefficient arrays; result length la+lb-1, reduced.

    One convolution (Kronecker substitution): with L = la + lb - 1, the
    coordinate u of row i becomes the coefficient of X^{u*L + i}, and since a
    product row is below L, row i, coordinate u + v of the product is read
    back off X^{(u+v)*L + i}.  A coordinate of the convolution still sums at
    most min(la, lb) * m products of residues, so the product is formed in
    ff.exact_dtype for that many; where that is object dtype, the same
    layout is one big-int product, _bigint_convolve.
    """
    la, lb = len(A), len(B)
    p, m = ctx.p, ctx.m
    if la == 0 or lb == 0:
        return np.zeros((0, m), dtype=ctx._dtype)
    L = la + lb - 1
    k = min(la, lb) * m
    dt = ff.exact_dtype(p, k)
    flat = []
    for X in (A, B):
        padded = np.zeros((m, L), dtype=dt)
        padded[:, : len(X)] = X.T
        flat.append(padded.reshape(-1)[: (m - 1) * L + len(X)])
    if dt is object:
        conv = _bigint_convolve(*flat, (k * (p - 1) ** 2).bit_length())
    else:
        conv = np.convolve(*flat)
    out = (conv % p).reshape(2 * m - 1, L).T
    lo, hi = out[:, :m], out[:, m:]
    if hi.size:
        lo = (lo + hi @ ctx._red) % p
    return lo.astype(ctx._dtype, copy=False)


def _bigint_convolve(a: np.ndarray, b: np.ndarray, bits: int) -> np.ndarray:
    """Convolution of two sequences of nonnegative ints whose result entries
    stay below 2^bits, as one Python big-int product (Kronecker substitution
    Y -> 2^{8w}, w bytes per slot): each sequence is packed slot by slot,
    multiplied once, and the product's bytes are cut back into slots."""
    w = bits // 8 + 1
    A, B = (int.from_bytes(b"".join(int(c).to_bytes(w, "little") for c in x),
                           "little") for x in (a, b))
    n = len(a) + len(b) - 1
    raw = (A * B).to_bytes(n * w, "little")
    out = np.empty(n, dtype=object)
    out[:] = [int.from_bytes(raw[i : i + w], "little") for i in range(0, n * w, w)]
    return out


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor, by Euclid on coefficient rows: each
    round makes the divisor monic and keeps only the remainder."""
    if f.ctx != g.ctx:
        raise CtxMismatch("polynomials from different field contexts")
    ctx, a, b = f.ctx, f.a, g.a
    while len(b):
        if not _lead_is_one(b):
            b = ctx.vmul_rows(b, ctx.vinv(b[-1]))
        a, b = b, _trim_rows(_divmod_rows(ctx, a, b, quot=False)[1])
    return Poly(ctx, a).monic()


class QuotientRing:
    """F_q[X]/(f) on fixed-length coefficient blocks with matrix reduction."""

    def __init__(self, f: Poly):
        if f.degree < 1:
            raise DivByZero("quotient modulus must have degree >= 1")
        f = f.monic()
        self.f = f
        self.ctx = f.ctx
        self.D = f.degree
        ctx, D, m = self.ctx, f.degree, f.ctx.m
        # row u: Y^u times the coefficients of f below its leading 1
        self._W = ctx.y_shifts(f.a[:D]).reshape(m, D * m)
        blocks = self._x_shifts((-f.a[:D]) % ctx.p, D - 1)  # X^{D+i} mod f
        self._dt = ff.exact_dtype(ctx.p, D * m)  # a product sums <= D*m terms
        # flat reduction matrix: row (i*m + u) = X^{D+i} * Y^u mod f, flattened
        self._R = self._y_rows(blocks).astype(self._dt, copy=False)
        self._frob: np.ndarray | None = None

    def _x_shifts(self, start: np.ndarray, k: int) -> np.ndarray:
        """Blocks start * X^i mod f for i < k: the one shift-by-X recurrence,
        each block the last moved up one row with its top row reduced
        through _W."""
        ctx, D, m = self.ctx, self.D, self.ctx.m
        out = np.zeros((k, D, m), dtype=ctx._dtype)
        out[:1] = start  # nothing when k = 0
        for i in range(1, k):
            top = out[i - 1, D - 1]
            out[i, 1:] = out[i - 1, : D - 1]
            out[i] = (out[i] - (top @ self._W).reshape(D, m)) % ctx.p
        return out

    def _y_rows(self, blocks: np.ndarray) -> np.ndarray:
        """Row i*m + u: block i times Y^u, flattened over the F_p basis."""
        k, m = len(blocks), self.ctx.m
        shifts = self.ctx.y_shifts(blocks).reshape(m, k, self.D * m)
        return shifts.transpose(1, 0, 2).reshape(k * m, self.D * m)

    def lift(self, g: Poly) -> np.ndarray:
        """Fixed (D, m) block of g mod f."""
        r = (g % self.f).a
        out = np.zeros((self.D, self.ctx.m), dtype=self.ctx._dtype)
        out[: len(r)] = r
        return out

    def to_poly(self, block: np.ndarray) -> Poly:
        return Poly(self.ctx, _trim_rows(block.copy()))

    def one(self, k: int = 0) -> np.ndarray:  # the block of X^k, k < D
        out = np.zeros((self.D, self.ctx.m), dtype=self.ctx._dtype)
        out[k] = self.ctx.vone()
        return out

    def x(self) -> np.ndarray:
        return self.one(1) if self.D > 1 else self.lift(Poly.x(self.ctx))

    def mul(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        ctx, D = self.ctx, self.D
        prod = _mul_arr(ctx, u, v)
        out = np.zeros((D, ctx.m), dtype=ctx._dtype)
        out[: min(D, len(prod))] = prod[:D]
        hi = prod[D:]
        if len(hi):
            flat = hi.reshape(-1) @ self._R[: hi.size]
            out = (out + flat.reshape(D, ctx.m)) % ctx.p
        return out.astype(ctx._dtype, copy=False)

    def pow(self, u: np.ndarray, e: int) -> np.ndarray:
        return ff.power(u.copy(), e, self.mul, self.one)

    def frob_matrix(self) -> np.ndarray:
        """F_p-linear matrix of r -> r^q on flattened blocks."""
        if self._frob is None:
            ctx, D, m = self.ctx, self.D, self.ctx.m
            # M multiplies by X^q: row (i*m + u) is Y^u * X^{q+i} mod f
            xq = self.pow(self.x(), ctx.order)
            M = self._y_rows(self._x_shifts(xq, D)).astype(self._dt, copy=False)
            flat = np.zeros((D, D * m), dtype=self._dt)
            flat[0, 0] = 1
            for j in range(1, D):
                flat[j] = flat[j - 1] @ M % ctx.p
            del M  # keep the peak to the matrix below and its one temporary
            # coefficients lie in F_q = the full ctx, so x -> x^q fixes them:
            # the column for basis (j, Y^u) is Y^u * (X^q)^j
            blocks = flat.reshape(D, D, m)
            self._frob = self._y_rows(blocks).astype(self._dt, copy=False)
        return self._frob

    def frob(self, u: np.ndarray) -> np.ndarray:
        """u^q via the cached Frobenius matrix."""
        ctx = self.ctx
        flat = u.reshape(-1) @ self.frob_matrix() % ctx.p
        return flat.reshape(self.D, ctx.m).astype(ctx._dtype, copy=False)

    def is_one(self, u: np.ndarray) -> bool:
        return bool(np.array_equal(u, self.one()))


def find_root(coeffs: Iterable, K: FieldCtx) -> FieldElem:
    """A root in K of the polynomial g with ascending coefficients `coeffs`;
    NoRoot unless g | X^{|K|} - X, i.e. g splits into distinct linear factors.

    Berlekamp's trace split (1970): T = Tr_{K/F_p}(Y^i X) mod g is Tr(Y^i r)
    at each root r, and as the trace form is nondegenerate two roots differ
    in T for some i < K.m; then gcd(g, T + a) for p = 2, or
    gcd(g, (T + a)^{(p-1)/2} - 1) for odd p, splits g for some a < p.  A pair
    (i, a) that leaves g whole leaves its factors whole, so each is tried
    once as g shrinks to its smaller factor: at most K.m * p gcds.
    """
    p = K.p
    g = Poly.from_coeffs(K, coeffs).monic()
    ring = QuotientRing(g) if g.degree >= 2 else None  # one ring per g
    Y = K.x_class()
    for i in range(K.m):
        if g.degree < 2:
            break
        yx = z = T = ring.lift(Poly.monomial(K, 1, Y ** i))
        for _ in range(K.m - 1):
            z = ring.pow(z, p)
            T = (T + z) % p
        if i == 0 and not np.array_equal(ring.pow(z, p), yx):  # X^{|K|} = X
            raise NoRoot(f"no split into linear factors over {ff.field_text(K)}")
        for a in range(p):
            if g.degree < 2 or not T[1:].any():
                break
            h = (T + a * ring.one()) % p
            if p > 2:
                h = (ring.pow(h, (p - 1) // 2) - ring.one()) % p
            d = poly_gcd(g, ring.to_poly(h))
            if 0 < d.degree < g.degree:
                g = min(d, g // d, key=lambda f: f.degree)
                if g.degree < 2:
                    break
                ring = QuotientRing(g)
                T = ring.lift(ring.to_poly(T))
    if g.degree != 1:
        raise NoRoot(f"no linear factor split off over {ff.field_text(K)}")
    return K.from_vec(K.vneg(g.a[0]))


# -- irreducibility (Rabin) --------------------------------------------------------

def rabin_irreducible(f: Poly) -> bool:
    """Exact irreducibility over f's context.

    f of degree k is irreducible iff X^{q^k} = X mod f and
    gcd(f, X^{q^{k/t}} - X) = 1 for every prime t | k.
    """
    k = f.degree
    if k < 1:
        return False
    if k == 1:
        return True
    f = f.monic()
    ring = QuotientRing(f)
    x = cur = ring.x()
    need = {k // t for t in numth.factorize(k).primes()}
    xp = Poly.x(f.ctx)
    for i in range(1, k + 1):
        cur = ring.frob(cur)
        if i in need:
            g = poly_gcd(f, ring.to_poly(cur) - xp)
            if g.degree > 0:
                return False
    return bool(np.array_equal(cur, x))


# -- coefficient-field maps ---------------------------------------------------------

def _base_degree(ctx: FieldCtx, base_q) -> int:
    """Degree e over F_p of the coefficient subfield F_q, q = p^e."""
    if isinstance(base_q, FieldCtx):
        if base_q.p != ctx.p or ctx.m % base_q.m != 0:
            raise BaseNotSubfield(f"F_{base_q.p}^{base_q.m} is not a subfield")
        return base_q.m
    q = int(base_q)
    p, e = numth.prime_power(q) or (0, 0)
    if not p:
        raise BaseNotSubfield(f"{q} is not a prime power")
    if p != ctx.p or ctx.m % e != 0:
        raise BaseNotSubfield(f"F_{q} is not a subfield of F_{ctx.p}^{ctx.m}")
    return e


def coeff_frobenius(h: Poly, j: int, base_q) -> Poly:
    """Apply x -> x^{q^j} to every coefficient."""
    e = _base_degree(h.ctx, base_q)
    if j < 0:
        raise PreconditionViolated("j must be >= 0")
    ctx = h.ctx
    if ctx.m == 1 or h.is_zero():
        return h
    return Poly(ctx, ctx.vconj(h.a, e * j))


def coeff_degree(h: Poly, base_q) -> int:
    """Least j >= 1 with h^(j) = h; divides ctx.m/e."""
    e = _base_degree(h.ctx, base_q)
    ctx = h.ctx
    top = ctx.m // e
    # zero coefficient rows are fixed by any Frobenius; test only the rest
    sub = h.a[h.a.any(axis=1)] if len(h.a) else h.a
    for j in numth.divisors(top):
        if np.array_equal(ctx.vconj(sub, e * j), sub):
            return j
    return top  # j = top always fixes F_{p^m}


def q_spin(h: Poly, base_q) -> Poly:
    """Minimal polynomial over F_q of any root of h: prod_{j<d} h^(j).

    The result is re-expressed over the F_q context (the given FieldCtx, or
    the canonical context for integer base_q).  A binomial X^D + c0 is the
    one-row call of spin.spin_binomials, along ff.embed(F_q, h.ctx), its
    row spread by X^D; any other h is the conjugate_product over its
    coefficient degree, the norm that factor_composition takes of each
    factor over F_{q^k}.
    """
    if h.is_zero() or h.degree < 1 or not h.is_monic():
        raise ImproperCoefficients("spin needs a monic nonconstant polynomial")
    e = _base_degree(h.ctx, base_q)  # BaseNotSubfield before any embedding
    if isinstance(base_q, FieldCtx):
        out = base_q
    else:
        out = h.ctx if e == h.ctx.m else ff.make_extension(h.ctx.p, e)
    if not _trim_rows(h.a[1:-1]).size:  # a binomial
        g, _ = spin.spin_binomials(ff.embed(out, h.ctx), h.a[:1])
        return Poly.spread(out, g, h.degree)  # the map's sub may only equal out
    return _express_over(conjugate_product(h, coeff_degree(h, base_q), base_q),
                         out)


def conjugate_product(h: Poly, c: int, base_q) -> Poly:
    """prod_{j<c} h^(j) for nonconstant h, over h's own field: for h with
    coefficients in F_{q^c}, its norm to F_q.  An h = h0(X^G), G the gcd of
    its exponents, takes the product of h0's conjugates, spread by X^G."""
    G = math.gcd(*np.flatnonzero(h.a.any(axis=1)).tolist())
    h0 = S = Poly(h.ctx, h.a[::G])
    for j in range(1, c):
        S = S * coeff_frobenius(h0, j, base_q)
    return Poly.spread(h.ctx, S.a, G)


def _express_over(S: Poly, out_ctx: FieldCtx) -> Poly:
    """Rewrite S (coefficients lying in the subfield) over out_ctx."""
    if out_ctx == S.ctx:
        return S
    try:
        return Poly(out_ctx, ff.embed(out_ctx, S.ctx).preimage(S.a))
    except NotASubfield:
        raise ImproperCoefficients("spin does not land in the base field") from None


# -- polynomial order ---------------------------------------------------------------

def poly_order(f: Poly) -> int:
    """Least e with f | X^e - 1, for irreducible f with f(0) != 0.

    This is the multiplicative order of the residue class of X in the field
    F_q[X]/(f), i.e. the element order of a root of f in F_{q^{deg f}};
    computed by dividing primes out of q^{deg f} - 1.
    """
    if f.degree < 1 or not rabin_irreducible(f):
        raise NotIrreducible("polynomial order needs an irreducible polynomial")
    if not f.a[0].any():
        raise RootAtZero("polynomial order undefined when X divides f")
    ctx = f.ctx
    primes = numth.factored_power_minus_one(ctx.p, ctx.m * f.degree).primes()
    return numth.least_order(ctx.order ** f.degree - 1, primes, _x_power_is_one(f))


def has_order(f: Poly, e: int) -> bool:
    """Exact predicate poly_order(f) == e for irreducible f, without the
    full divide-out: checks X^e = 1 and X^{e/l} != 1 for every prime l | e."""
    return numth.is_exact_order(e, _x_power_is_one(f))


def _x_power_is_one(f: Poly):
    """The predicate t -> X^t = 1 mod f that numth's order search takes."""
    ring = QuotientRing(f.monic())
    x = ring.x()
    return lambda t: ring.is_one(ring.pow(x, t))


# -- Q-transform --------------------------------------------------------------------

def q_transform(f: Poly, g: Poly, h: Poly) -> Poly:
    """h^{deg f} * f(g/h), exact."""
    if f.ctx != g.ctx or f.ctx != h.ctx:
        raise CtxMismatch("polynomials from different field contexts")
    if h.is_zero():
        raise DivByZero("Q-transform denominator is zero")
    n = f.degree
    if n < 0:
        return f
    acc = Poly.from_coeffs(f.ctx, [f.coeff(n)])
    hp = Poly.one(f.ctx)
    for i in range(n - 1, -1, -1):
        hp = hp * h
        acc = acc * g + hp.scaled(f.coeff(i))
    return acc


# -- factorizations ------------------------------------------------------------------

class FactorEntry(NamedTuple):
    poly: Poly
    mult: int
    degree: int
    order: Union[int, None]


class Factorization:
    """base = scale * prod(factor^mult); factors canonically sorted."""

    def __init__(
        self,
        base: Poly,
        factors: Sequence[FactorEntry],
        plan=None,
        scale: FieldElem | None = None,
    ):
        self.base = base
        self.factors = sorted(factors, key=lambda e: e.poly.key())
        self.plan = plan
        self.scale = base.ctx.one() if scale is None else scale

    def __iter__(self):
        return iter(self.factors)

    def __len__(self):
        return len(self.factors)

    def product(self) -> Poly:
        """scale * prod(factor^mult), multiplied through a balanced tree:
        neighbours in the sorted list, of similar degree, pair up level by
        level, so no long product is multiplied by one short factor at a
        time."""
        level = [e.poly ** e.mult for e in self.factors] or [Poly.one(self.base.ctx)]
        while len(level) > 1:
            odd = level[-1:] if len(level) % 2 else []
            level = [f * g for f, g in zip(level[::2], level[1::2])] + odd
        return level[0].scaled(self.scale)

    def multiset(self) -> dict:
        """Factor multiset (poly key -> total multiplicity)."""
        out: dict = {}
        for entry in self.factors:
            out[entry.poly.key()] = out.get(entry.poly.key(), 0) + entry.mult
        return out

    def __repr__(self):
        inner = ", ".join(
            f"({poly_text(e.poly)})^{e.mult}" if e.mult > 1 else poly_text(e.poly)
            for e in self.factors
        )
        return f"Factorization({poly_text(self.base)} = {inner})"


# -- text format --------------------------------------------------------------------

def poly_text(f: Poly) -> str:
    """'c_k*x^k + ... + c_0', omitting zero terms and unit coefficients."""
    if f.is_zero():
        return "0"
    one = f.ctx.one()
    parts = []
    for i in range(f.degree, -1, -1):
        c = f.coeff(i)
        if c.is_zero():
            continue
        cs = ff.element_text(c)
        if i == 0:
            parts.append(cs)
        else:
            xs = "x" if i == 1 else f"x^{i}"
            parts.append(xs if c == one else f"{cs}*{xs}")
    return " + ".join(parts)


def parse_poly(ctx: FieldCtx, s: str) -> Poly:
    """Inverse of poly_text; accepts any '+'-joined monomial list."""
    s = s.strip()
    if not s:
        raise ParseError("empty polynomial")
    if s == "0":
        return Poly.zero(ctx)
    # split on '+' outside coordinate brackets
    terms, depth, cur = [], 0, []
    for ch in s:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "+" and depth == 0:
            terms.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    terms.append("".join(cur))
    coeffs: dict[int, FieldElem] = {}
    for term in terms:
        term = term.strip()
        if not term:
            raise ParseError(f"empty term in {s!r}")
        if "x" in term:
            head, _, tail = term.partition("x")
            head = head.strip()
            if head:
                if not head.endswith("*"):
                    raise ParseError(f"missing '*' in term {term!r}")
                head = head[:-1].strip()
            c = ff.parse_element(ctx, head) if head else ctx.one()
            tail = tail.strip()
            if tail.startswith("^"):
                try:
                    k = int(tail[1:])
                except ValueError:
                    raise ParseError(f"bad exponent in term {term!r}") from None
            elif tail == "":
                k = 1
            else:
                raise ParseError(f"bad exponent in term {term!r}")
        else:
            c = ff.parse_element(ctx, term)
            k = 0
        if k < 0:
            raise ParseError("negative exponent")
        coeffs[k] = coeffs.get(k, ctx.zero()) + c
    deg = max(coeffs)
    return Poly.from_coeffs(ctx, [coeffs.get(i, ctx.zero()) for i in range(deg + 1)])
