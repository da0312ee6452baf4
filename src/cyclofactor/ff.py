"""Prime fields and their extensions with deterministic construction.

A field F_{p^m} is realized as F_p[Y]/(modulus).  Construction is fully
deterministic: make_extension's auto-selected modulus is the
lexicographically smallest monic irreducible of degree m (comparing the tuple
(a_{m-1}, ..., a_0) ascending), found by a search with poly.rabin_irreducible,
which also checks an explicit modulus.  make_tower builds
the fields whose elements are never printed, the factorizer's towers: their
modulus is the minimal polynomial of a Gauss period (Gao 1993; Wassermann
1993), irreducible by theorem and read off one Krylov null vector, so no
search runs; only degrees without a period fall back to the lex search.
Every field and tower stays within MAX_EXTENSION_DEGREE, checked before
anything is allocated.  Every element of a given order comes from one finder,
primitive_root_of_unity, which scans elements in coordinate-lex order and
needs only the primes of the order it looks for; the generator is its
order-(p^m - 1) case.  dth_root and embed return the coordinate-lex
smallest root; embed splits in a small copy of the subfield (Lenstra 1991)
with poly.find_root (Berlekamp's trace split, 1970).  Element coordinates
are length-m vectors over Z_p with index = power of the field variable.

The numeric kernel keeps coordinates in numpy vectors of exact_dtype, int64
unless a sum of products could pass 2^62; products reduce through a matrix of
X^{m+i} mod modulus rows, _red, so a field multiplication is one convolution
plus one matrix product; FieldCtx.fold is that reduction, and the only reader
of _red.  FieldCtx is the one mod-p multiply, power and Frobenius
kernel: FieldCtx(p, m, mod) is the ring Z_p[Y]/(mod) for any monic mod;
only make_extension and make_tower guarantee a field.
An inverse goes through the norm
(Itoh-Tsujii 1988): m - 2 products and m - 1 Frobenius steps give
a^{p + ... + p^{m-1}}, whose product with a lies in F_p.  FieldCtx.y_shifts
is the one multiply-by-Y^u mechanism: a site where one fixed element
multiplies many stacks keeps the stack of its shifts (polynomial division,
QuotientRing, the spin solve, the Hilbert 90 kernel).  vmul_rows is the one
product of a stack by field elements: by one element, its matrix of shifts;
by one element per row, vmul's convolution and reduction over the whole
stack at once, with no stack of shifts.  For m = 1 an element is one
residue, and vmul, vpow and vinv take a scalar form: one product, or Python
ints for a power, with no convolution and no shifts.  power is
the one square-and-multiply loop (QuotientRing.pow, Poly.__pow__, and vpow
for m > 1); vconj, the one Frobenius application, acts on one element or on
a stack of them, one per row.  vpow adds the base-p digit form: from e >= p^2
on, where it needs fewer products, Frobenius steps replace the squarings
(von zur Gathen-Shoup 1992) and power supplies the digit powers.
Element orders run numth's order search on the predicate x^t = 1, once
per element, over p^e - 1 for the element's own subfield F_{p^e}:
element_order is cached, as the root finders are.  A root of unity whose
order divides p^w - 1 for a proper divisor w of m is raised through its
candidates' norms to F_{p^w}.

A field of at most LOG_TABLE_LIMIT elements also has discrete-log tables
to the base of its generator (Zech's logarithms; Huber 1990),
FieldCtx.log_tables, built on first use and kept on the field as its
Frobenius matrices are; the factorizer rescales its factors through them.
Towers never build them: they are asked of the fields of the inputs only.
Above LOG_TABLE_LIMIT, a tower in practice, the cached Frobenius matrices
are stored read-only in the smallest unsigned dtype that holds p - 1, and
vconj, vadd, vsub and vneg widen to the compute dtype before they compute,
so a narrow array never wraps.  What a warm call reads stays at the compute
dtype: a small field's Frobenius matrices (vinv), _red (fold) and
EmbeddingMap._E (apply_vec).  An embedding keeps only the rows of its
inverse that preimage returns, and preimage tests membership by E y = x.

Every cache here is a functools.lru_cache: fields (_field, and
_checked_field, which tests an explicit modulus once), lex and tower
moduli and embeddings unbounded, one entry per distinct argument; orders
and roots bounded.  No lock guards them, so two threads that build the
same field or embedding at once may each build it, and get equal objects.

The F_p linear algebra has one elimination, _eliminate: _nullspace_basis
(subfield bases, the spin solve, the Gauss-period modulus) and
EmbeddingMap's inverse T both use it.  It runs on the contiguous transpose
of its matrix, which every caller builds directly (one Krylov vector per
row), so a pivot column is one contiguous row and each pivot's rank-1
update one contiguous block.  Rows are tracked in a permutation instead of
being swapped, and one gather at the end leaves them in the order the swaps
would have given, so callers read the same result as before.  Entries are
reduced lazily: the pivot column and the pivot row are reduced before use,
so every other entry is a residue minus one product of residues per pivot.
EmbeddingMap.preimage is the one way back from a field into a subfield.
"""

from __future__ import annotations

import functools
import math
import threading
from typing import Iterable, Sequence

import numpy as np

from . import numth
from .errors import (
    CtxMismatch,
    DegreeGuard,
    DegreeMismatch,
    InvariantViolated,
    NoRoot,
    NotASubfield,
    NotPrime,
    OrderNotDividing,
    ParseError,
    PreconditionViolated,
    ReducibleModulus,
    ZeroElement,
)


def power(x, e: int, mul, one):
    """x^e, e >= 0, by square-and-multiply; one() is returned for e = 0 and
    x itself for e = 1, so a caller handing out mutable arrays passes a copy."""
    acc = None
    while e:
        if e & 1:
            acc = x if acc is None else mul(acc, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return one() if acc is None else acc


def exact_dtype(p: int, k: int):
    """int64 while a sum of k products of residues mod p stays below 2^62,
    else object: the one dtype rule for every accumulation over Z_p."""
    return np.int64 if (p - 1) * (p - 1) * k < (1 << 62) else object


class FieldCtx:
    """Immutable field context F_{p^m}; equality and hash by (p, m, modulus).

    For a reducible monic modulus the same object is the ring Z_p[Y]/(modulus):
    vadd, vsub, vmul and vpow stay exact there, while vinv, orders and roots
    assume a field.  Only make_extension and make_tower give a field: the
    first tests an explicit modulus with poly.rabin_irreducible, the
    second's is irreducible by theorem.
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.modulus = modulus
        self.order = p ** m
        self.units = self.order - 1
        self._dtype = exact_dtype(p, m + 1)
        self._mod_arr = np.array(modulus, dtype=self._dtype)
        self._ym = (-self._mod_arr[:m]) % p  # Y^m mod modulus
        # rows i < m - 1: Y^{m+i} mod modulus
        self._red = self.y_shifts(self._ym)[: m - 1].copy()  # not a view
        self._frob: dict[int, np.ndarray] = {}
        self._logs: tuple[np.ndarray, np.ndarray] | None = None
        # p^i for i < m, the weights of the coordinates in an element's index
        self._place = p ** np.arange(m) if self.order <= LOG_TABLE_LIMIT else None
        self._lock = threading.Lock()

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return f"FieldCtx({field_text(self)})"

    # -- coordinate-vector kernel (arrays of length m, ascending powers) --

    def vzero(self) -> np.ndarray:
        return np.zeros(self.m, dtype=self._dtype)

    def vone(self) -> np.ndarray:
        v = self.vzero()
        v[0] = 1
        return v

    # vadd, vsub and vneg widen to the compute dtype first, so a stored
    # narrow array (frob_matrix) cannot wrap: -uint8(3) is 253
    def vadd(self, a, b):
        return np.add(a, b, dtype=self._dtype) % self.p

    def vsub(self, a, b):
        return np.subtract(a, b, dtype=self._dtype) % self.p

    def vneg(self, a):
        return np.negative(a, dtype=self._dtype) % self.p

    def vmul(self, a, b):
        if self.m == 1:
            return a * b % self.p
        return self.fold(np.convolve(a, b) % self.p)

    def fold(self, conv):
        """Elements from coordinate rows (..., 2m - 1) of residues, such as a
        product's convolution: coordinate m + i folds through _red's row i."""
        m = self.m
        if m == 1:
            return conv
        out = conv[..., m:] @ self._red
        out += conv[..., :m]
        out %= self.p
        return out

    def vmul_rows(self, a: np.ndarray, c: np.ndarray) -> np.ndarray:
        """The one product of a stack by field elements.  c is one element,
        which multiplies every element of a, or a stack of them, one per
        leading row of a: a is then a row (n, m) or a block (n, k, m) of
        elements, and a block (1, k, m) stands for itself at every row.

        One element is one product by its m x m matrix of shifts, y_shifts.
        One per row is vmul over the whole stack at once, with no stack of
        shifts: the convolution adds a times each coordinate c_j of c in at
        offset j, and fold reduces it.
        """
        m, p = self.m, self.p
        c = np.asarray(c, dtype=self._dtype)
        if c.ndim == 1:
            return a @ self.y_shifts(c) % p
        c = c.reshape(c.shape[:1] + (1,) * (a.ndim - 2) + (m,))
        conv = np.zeros(np.broadcast(a, c).shape[:-1] + (2 * m - 1,),
                        dtype=self._dtype)
        for j in range(m):
            conv[..., j:j + m] += a * c[..., j, None]
        conv %= p
        return self.fold(conv)

    def vpow(self, a, e: int):
        """a^e; a negative e inverts first (a field only).

        Square-and-multiply is power.  In characteristic p a p-th power is
        linear, vconj(., 1), so for e >= p^2 the base-p digits e_j of e can
        replace the squarings (von zur Gathen-Shoup 1992): Horner's rule
        acc <- acc^p * a^{e_j}, with the powers a^r, r < p, chained from
        power over the gaps between the distinct digits.  That form is taken
        only where it needs fewer products, a Frobenius step counted as half
        of one, which is about its cost.  x -> x^p is a ring endomorphism of
        Z_p[Y]/(mod), so both forms are exact for a reducible modulus too.
        """
        if e < 0:
            a, e = self.vinv(a), -e
        p = self.p
        if self.m == 1:
            return np.array([pow(int(a[0]), e, p)], dtype=self._dtype)
        if e < p * p:
            return power(a.copy(), e, self.vmul, self.vone)
        digits, rest = [], e  # least significant first
        while rest:
            rest, r = divmod(rest, p)
            digits.append(r)
        cost = lambda g: g.bit_length() + g.bit_count() - 2  # products of power
        chain = sorted(set(digits) - {0})
        gaps = [r - s for r, s in zip(chain, [0] + chain)]
        digit_cost = (sum(map(cost, gaps)) + len(gaps) - 1
                      + sum(map(bool, digits[:-1])) + (len(digits) - 1) / 2)
        if cost(e) <= digit_cost:
            return power(a.copy(), e, self.vmul, self.vone)
        small, acc = {}, None
        for r, g in zip(chain, gaps):
            step = power(a, g, self.vmul, None)
            acc = small[r] = step if acc is None else self.vmul(acc, step)
        acc = small[digits[-1]]
        for r in reversed(digits[:-1]):
            acc = self.vconj(acc, 1)
            if r:
                acc = self.vmul(acc, small[r])
        return acc

    def vinv(self, a):
        """a^{-1} through the norm (Itoh-Tsujii 1988).

        The chain t <- a * t^p gives c = a^{p + ... + p^{m-1}} in m - 2
        products and m - 1 Frobenius steps vconj(., 1); N = a * c is the
        norm of a, an element of F_p, and a^{-1} = c * N^{-1}, against about
        2 log2(q) products for a^{q-2}.  A field only.
        """
        if not a.any():
            raise ZeroElement("zero has no inverse")
        p = self.p
        if self.m == 1:
            return self.vpow(a, p - 2)
        t = a
        for _ in range(self.m - 2):
            t = self.vmul(a, self.vconj(t, 1))
        c = self.vconj(t, 1)
        norm = int(self.vmul(a, c)[0])
        return c * pow(norm, p - 2, p) % p

    def y_shifts(self, rows) -> np.ndarray:
        """Stack out[u] = Y^u * rows for u < m; rows is one element or an
        array of them along its last axis.

        The one multiply-by-Y^u mechanism, for a site where one fixed
        element multiplies many stacks: polynomial division, QuotientRing,
        the spin solve and the Hilbert 90 kernel read their shifts from it.
        """
        m, p = self.m, self.p
        rows = np.asarray(rows, dtype=self._dtype)
        out = np.empty((m,) + rows.shape, dtype=self._dtype)
        out[0] = rows
        for u in range(1, m):
            prev, cur = out[u - 1], out[u]
            np.multiply(prev[..., -1:], self._ym, out=cur)
            cur[..., 1:] += prev[..., :-1]
            cur %= p
        return out

    def power_matrix(self, s, k: int) -> np.ndarray:
        """Matrix with columns s^0, ..., s^{k-1}: the F_p-linear map Y^i -> s^i."""
        cols = [self.vone()]
        for _ in range(1, k):
            cols.append(self.vmul(cols[-1], s))
        return np.array(cols).T.copy()  # np.stack's per-array steps cost more

    def frob_matrix(self, j: int = 1, keep: bool = True) -> np.ndarray:
        """Matrix of x -> x^{p^j} on coordinates, j taken mod m.

        It is the power matrix of x_class^{p^j}, built on the first request
        for this j and cached per j, read-only, so a field keeps only the
        powers its callers use; keep=False builds a matrix not cached yet
        without caching it, for a caller that needs it only once.  A field
        of more than LOG_TABLE_LIMIT elements, a tower in practice, stores
        it in the smallest unsigned dtype that holds p - 1 (int64 fields
        only), an eighth of the int64 bytes for p < 256: its matrices are
        read while a spin is built, not by a warm op, and each reader
        widens them (vconj, or a difference with an int64 matrix).  A
        smaller field keeps the compute dtype, as vinv applies its
        frob_matrix(1) on every Euclid round and would pay a cast each
        time.  The build runs outside the lock, as for j >= 2 vpow applies
        frob_matrix(1); the lock guards only the insert, and every caller
        gets the matrix that was stored first.
        """
        j %= self.m
        got = self._frob.get(j)
        if got is None:
            xpj = self.vpow(self.x_class().vec(), self.p ** j)
            got = self.power_matrix(xpj, self.m)
            if keep:
                if self.order > LOG_TABLE_LIMIT and self._dtype is np.int64:
                    got = got.astype(np.min_scalar_type(self.p - 1))
                got.setflags(write=False)
                with self._lock:
                    got = self._frob.setdefault(j, got)
        return got

    def vconj(self, a, j: int, frob: np.ndarray | None = None):
        """a^{p^j} through the cached Frobenius matrix, or through frob,
        frob_matrix(j) already taken, for one element or a 2-D array of
        them, one per row: the one Frobenius application.  A matrix stored
        narrow is widened to the compute dtype first."""
        F = self.frob_matrix(j) if frob is None else frob
        return a @ F.T.astype(self._dtype, copy=False) % self.p

    def log_tables(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(exp, log), the discrete-log tables of the field to the base g =
        generator, for q <= LOG_TABLE_LIMIT; None above it.

        exp[k] is the coordinate row of g^(k mod (q - 1)) for k < 2(q - 1),
        and exp[2(q - 1)] is zero; log[i] is the log of the element of
        coordinate index i (element_from_index), 2(q - 1) for zero.  So
        exp[log x] = x for every x, and a sum of two logs below q - 1 reads
        its product with no reduction.  Both are read-only, in the smallest
        unsigned dtypes that hold them.  They are built on the first request
        by doubling, the rows below k times g^k giving those below 2k, one
        vmul_rows by g^k per step, and kept on the field as the
        Frobenius matrices are: the build runs outside the lock, and every
        caller gets the tables that were stored first.
        """
        if self.order > LOG_TABLE_LIMIT:
            return None
        got = self._logs
        if got is None:
            built = self._build_log_tables()
            with self._lock:
                if self._logs is None:
                    self._logs = built
                got = self._logs
        return got

    def _build_log_tables(self) -> tuple[np.ndarray, np.ndarray]:
        q1, p = self.units, self.p
        exp = np.zeros((2 * q1 + 1, self.m), dtype=self._dtype)
        exp[0, 0] = 1
        k, gk = 1, self.generator.vec()  # gk = g^k
        while k < q1:
            t = min(k, q1 - k)
            exp[k:k + t] = self.vmul_rows(exp[:t], gk)
            k, gk = k + t, self.vmul(gk, gk)
        exp[q1:2 * q1] = exp[:q1]
        log = np.full(self.order, 2 * q1, dtype=np.min_scalar_type(2 * q1))
        idx = exp[:q1] @ self._place
        log[idx] = np.arange(q1)
        if log[0] != 2 * q1 or not np.array_equal(log[idx], np.arange(q1)):
            raise InvariantViolated(f"the powers of the generator of {self!r} "
                                    "are not q - 1 distinct units")
        exp = exp.astype(np.min_scalar_type(p - 1))
        exp.setflags(write=False)
        log.setflags(write=False)
        return exp, log

    def vlog(self, rows):
        """The discrete log of one element, or of each row of a stack, read
        from log_tables (q <= LOG_TABLE_LIMIT); 2(q - 1) for zero."""
        return self.log_tables()[1][rows @ self._place]

    # -- elements --

    def el(self, coords: Iterable[int]) -> "FieldElem":
        c = tuple(int(v) % self.p for v in coords)
        if len(c) != self.m:
            raise DegreeMismatch(f"expected {self.m} coordinates, got {len(c)}")
        return FieldElem(self, c)

    def from_vec(self, v) -> "FieldElem":
        vals = v.tolist()  # Python ints, except numpy ints an object array holds
        return FieldElem(self, tuple(map(int, vals) if v.dtype == object else vals))

    def from_int(self, c: int) -> "FieldElem":
        v = self.vzero()
        v[0] = c % self.p
        return self.from_vec(v)

    def zero(self) -> "FieldElem":
        return self.from_vec(self.vzero())

    def one(self) -> "FieldElem":
        return self.from_vec(self.vone())

    def x_class(self) -> "FieldElem":
        """The residue class of the field variable itself."""
        if self.m == 1:
            return self.from_int(-self.modulus[0])
        v = self.vzero()
        v[1] = 1
        return self.from_vec(v)

    def element_from_index(self, idx: int) -> "FieldElem":
        """Elements enumerated in coordinate-lex order; index in [0, p^m)."""
        coords = []
        for _ in range(self.m):
            coords.append(idx % self.p)
            idx //= self.p
        return FieldElem(self, tuple(coords))

    def index_of(self, x: "FieldElem") -> int:
        idx = 0
        for c in reversed(x.coords):
            idx = idx * self.p + c
        return idx

    @property
    def generator(self) -> "FieldElem":
        """The coordinate-lex smallest element of full multiplicative order."""
        return primitive_root_of_unity(self, self.units)


class FieldElem:
    """Immutable element of a FieldCtx; coords ascending, values in [0, p)."""

    __slots__ = ("ctx", "coords")

    def __init__(self, ctx: FieldCtx, coords: tuple[int, ...]):
        self.ctx = ctx
        self.coords = coords

    def vec(self) -> np.ndarray:
        return np.array(self.coords, dtype=self.ctx._dtype)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def _peer(self, other) -> "FieldElem":
        if isinstance(other, FieldElem):
            if other.ctx != self.ctx:
                raise CtxMismatch("elements from different field contexts")
            return other
        if isinstance(other, int):
            return self.ctx.from_int(other)
        return NotImplemented

    def __add__(self, other):
        o = self._peer(other)
        if o is NotImplemented:
            return o
        return self.ctx.from_vec(self.ctx.vadd(self.vec(), o.vec()))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._peer(other)
        if o is NotImplemented:
            return o
        return self.ctx.from_vec(self.ctx.vsub(self.vec(), o.vec()))

    def __rsub__(self, other):
        o = self._peer(other)
        if o is NotImplemented:
            return o
        return self.ctx.from_vec(self.ctx.vsub(o.vec(), self.vec()))

    def __mul__(self, other):
        o = self._peer(other)
        if o is NotImplemented:
            return o
        return self.ctx.from_vec(self.ctx.vmul(self.vec(), o.vec()))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._peer(other)
        if o is NotImplemented:
            return o
        return self.ctx.from_vec(self.ctx.vmul(self.vec(), self.ctx.vinv(o.vec())))

    def __neg__(self):
        return self.ctx.from_vec(self.ctx.vneg(self.vec()))

    def __pow__(self, e: int):
        return self.ctx.from_vec(self.ctx.vpow(self.vec(), e))

    def conj(self, j: int) -> "FieldElem":
        return self.ctx.from_vec(self.ctx.vconj(self.vec(), j))

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ctx.from_int(other)
        return (
            isinstance(other, FieldElem)
            and self.ctx == other.ctx
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.coords, self.ctx.order))

    def __repr__(self):
        return element_text(self)


# -- construction ---------------------------------------------------------------

# Largest field order q that gets discrete-log tables (FieldCtx.log_tables).
# Measured on one 2-vCPU host: F_10007, the largest field of the large-field
# inputs, keeps 59 KiB built in 0.4 ms; F_{3^6}, the largest composition field
# of the verify inputs, 10 KiB in 0.4 ms; F_{2^14}, the largest any field can
# keep, 480 KiB in 10 ms.
LOG_TABLE_LIMIT = 2**14

# Largest extension degree of any field or tower: each of a FieldCtx's
# m x m matrices takes 32 MiB at this size.
MAX_EXTENSION_DEGREE = 2048
# Gauss periods of type (N, k) are tried for k up to this bound only; the
# towers of the acceptance grid (q <= 13, n <= 60) need k <= 17.
_GAUSS_PERIOD_MAX_K = 32


def _is_irreducible(mod: tuple[int, ...], p: int) -> bool:
    """poly.rabin_irreducible on the monic mod over F_p."""
    from .poly import Poly, rabin_irreducible  # poly builds on ff

    return rabin_irreducible(Poly.from_coeffs(_field(p, 1, (0, 1)), mod))


@functools.lru_cache(maxsize=None)
def _lex_modulus(p: int, m: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree m, ordering (a_{m-1},...,a_0).

    The first p candidates are the binomials Y^m + a_0.  By Serret's
    criterion none of them is irreducible when rad(m) does not divide p - 1,
    or when 4 | m and p = 3 (mod 4); the scan then starts past them.
    """
    start = 0
    if m > 1 and ((p - 1) % numth.radical(m) or (m % 4 == 0 and p % 4 == 3)):
        start = p
    # idx counts (a_{m-1}, ..., a_0) lexicographically
    for idx in range(start, p ** m):
        low = []
        k = idx
        for _ in range(m):
            low.append(k % p)
            k //= p
        cand = tuple(low) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise InvariantViolated(f"no irreducible of degree {m} over F_{p}")


def _gauss_period_modulus(p: int, N: int) -> tuple[int, ...] | None:
    """Minimal polynomial over F_p of a Gauss period of type (N, k), or None
    when no k <= _GAUSS_PERIOD_MAX_K admits one (Gao 1993; Wassermann 1993).

    k is the least with r = Nk + 1 prime, r != p and gcd(Nk / ord_r(p), N)
    = 1, so p generates (Z/r)^* modulo its order-k subgroup H, and the
    period eta = sum_{h in H} zeta_r^h has the N conjugates of the cosets
    p^i H: its minimal polynomial is irreducible of degree N, with no test.
    The Krylov sequence of eta starts from the idempotent 1 - (1/r) sum X^i
    of the Phi_r part of F_p[X]/(X^r - 1).  Each vector there is constant on
    the cosets of H, so it is kept at the representatives p^i mod r and at
    0, and a product with eta is one gather over H.  The N x (N + 1) matrix
    of its values at the representatives, built as its transpose with one
    Krylov vector per row, has one null vector, the modulus.
    """
    for k in range(1, _GAUSS_PERIOD_MAX_K + 1):
        r = N * k + 1
        if (r != p and numth.is_prime(r)
                and math.gcd(N * k // numth.ord_mod(p, r), N) == 1):
            break
    else:
        return None
    in_H = np.zeros(r, dtype=bool)  # H is the set of N-th powers
    in_H[power(np.arange(1, r), N, lambda a, b: a * b % r, None)] = True
    H = np.flatnonzero(in_H)
    reps = np.array([pow(p, i, r) for i in range(N)] + [0], dtype=np.int64)
    coset = np.full(r, N)  # class of each residue; 0 is its own class, N
    coset[np.outer(reps[:N], H) % r] = np.arange(N)[:, None]
    gather = coset[(reps[:, None] - H) % r]  # classes of rep - h, h in H
    dt = exact_dtype(p, N + 1)
    inv_r = pow(r, -1, p)
    u = np.full(N + 1, -inv_r % p, dtype=dt)
    u[N] = (1 - inv_r) % p
    KT = np.empty((N + 1, N), dtype=dt)  # Krylov vectors as rows
    for i in range(N + 1):
        KT[i] = u[:N]
        u = u[gather].sum(axis=1) % p
    null = _nullspace_basis(KT.T, p)
    if len(null) != 1 or null[0][N] != 1:
        raise InvariantViolated(
            f"Gauss period of type ({N}, {k}) over F_{p} is not of degree {N}")
    return tuple(int(c) for c in null[0])


@functools.lru_cache(maxsize=None)
def _tower_modulus(p: int, N: int) -> tuple[int, ...]:
    """A Gauss-period modulus of degree N, else the lex-smallest one."""
    mod = _gauss_period_modulus(p, N)
    return _lex_modulus(p, N) if mod is None else mod


def _check_degree(m: int) -> None:
    if m < 1:
        raise DegreeMismatch("extension degree must be >= 1")
    if m > MAX_EXTENSION_DEGREE:
        raise DegreeGuard(f"extension degree {m} exceeds the limit "
                          f"MAX_EXTENSION_DEGREE = {MAX_EXTENSION_DEGREE}")


@functools.lru_cache(maxsize=None)
def _field(p: int, m: int, mod: tuple[int, ...]) -> FieldCtx:
    """The cached FieldCtx per (p, m, mod)."""
    return FieldCtx(p, m, mod)


@functools.lru_cache(maxsize=None)
def _checked_field(p: int, m: int, mod: tuple[int, ...]) -> FieldCtx:
    """_field for an explicit modulus, tested once by Rabin's test."""
    if not _is_irreducible(mod, p):
        raise ReducibleModulus(f"modulus {mod} is reducible over F_{p}")
    return _field(p, m, mod)


def make_extension(
    p: int, m: int, modulus: Sequence[int] | None = None
) -> FieldCtx:
    """Deterministic field context; `modulus` coefficients ascending, monic."""
    if not numth.is_prime(p):
        raise NotPrime(f"{p} is not prime")
    _check_degree(m)
    if modulus is None:
        return _field(p, m, _lex_modulus(p, m))
    mod = tuple(int(c) % p for c in modulus)
    if len(mod) != m + 1:
        raise DegreeMismatch(f"modulus needs {m + 1} coefficients, got {len(mod)}")
    if mod[-1] != 1:
        raise DegreeMismatch("modulus must be monic")
    return _checked_field(p, m, mod)


def make_tower(p: int, N: int) -> FieldCtx:
    """F_{p^N} for work that never prints its elements: the paper's tower W.

    Its modulus is a Gauss-period minimal polynomial, one linear solve with
    no search, and the lex-smallest one only for degrees without a period.
    p must be prime.
    """
    _check_degree(N)
    return _field(p, N, _tower_modulus(p, N))


# -- orders and roots of unity ----------------------------------------------------

def _power_is_one(x: FieldElem):
    """The predicate t -> x^t = 1 that numth's order search takes."""
    if x.is_zero():
        raise ZeroElement("order of zero is undefined")
    ctx, v, one = x.ctx, x.vec(), x.ctx.vone()
    return lambda t: np.array_equal(ctx.vpow(v, t), one)


@functools.lru_cache(maxsize=4096)
def element_order(x: FieldElem) -> int:
    """Least t >= 1 with x^t = 1, by dividing primes out of p^e - 1 for
    F_{p^e} the element's own subfield: e is the least with x^{p^e} = x,
    found by steps of vconj(., 1) (none for an element of F_p), and it
    divides m.  So 1 and the elements of F_p factor nothing of p^m - 1.
    Cached per element, as dth_root is."""
    is_one = _power_is_one(x)
    ctx, v = x.ctx, x.vec()
    e, y = 1, ctx.vconj(v, 1) if v[1:].any() else v
    while not np.array_equal(y, v):
        e, y = e + 1, ctx.vconj(y, 1)
    primes = numth.factored_power_minus_one(ctx.p, e).primes()
    return numth.least_order(ctx.p ** e - 1, primes, is_one)


def element_has_order(x: FieldElem, d: int) -> bool:
    """Exact predicate ord(x) == d without computing the full order."""
    return numth.is_exact_order(d, _power_is_one(x))


@functools.lru_cache(maxsize=4096)
def primitive_root_of_unity(ctx: FieldCtx, d: int) -> FieldElem:
    """zeta_d: the first x^{(p^m - 1)/d} of order exactly d.

    x runs through the field in coordinate-lex order, from the field
    variable on when m > 1 (prime-subfield elements only reach orders
    dividing p - 1).  Testing the order factors d alone, never p^m - 1.  For
    d = p^m - 1 this is the coordinate-lex smallest generator.

    When d divides p^w - 1 for a proper divisor w of m, every candidate's
    power is taken through its norm to F_{p^w}: x^{(p^m - 1)/d} =
    N(x)^{(p^w - 1)/d}, N(x) = x^{1 + p^w + ... + p^{m - w}} by m/w - 1
    steps acc <- acc^{p^w} x of frob_matrix(w), against about m Frobenius
    steps for vpow's digit form.  w is the multiple of ord_d(p) dividing m
    that is closest to sqrt(m), where the steps and the final power cost
    about the same.  The scan builds frob_matrix(w) at the cost of about
    one candidate's digit-form power, and does not keep it on the field.
    """
    if d < 1 or ctx.units % d != 0:
        raise OrderNotDividing(f"{d} does not divide {ctx.units}")
    if d == 1:
        return ctx.one()
    m, p = ctx.m, ctx.p
    k = numth.ord_mod(p, d) if m > 1 else m
    ws = [w for w in range(k, m, k) if m % w == 0]
    if ws:
        w = min(ws, key=lambda w: m // w + w)
        dw, frob = (p ** w - 1) // d, ctx.frob_matrix(w, keep=False)

        def raise_e(x):
            acc = x
            for _ in range(m // w - 1):
                acc = ctx.vmul(ctx.vconj(acc, w, frob), x)
            return ctx.from_vec(ctx.vpow(acc, dw))
    else:
        e = ctx.units // d
        raise_e = lambda x: ctx.from_vec(ctx.vpow(x, e))
    for idx in range(p if m > 1 else 1, ctx.order):
        z = raise_e(ctx.element_from_index(idx).vec())
        if element_has_order(z, d):
            return z
    raise InvariantViolated(f"no element of order {d}; modulus not irreducible?")


# -- d-th roots -------------------------------------------------------------------

def _bsgs(ctx: FieldCtx, base_v, target_v, n: int) -> int:
    """Log of target in the cyclic group <base> of known order n."""
    if n == 1:
        return 0
    B = math.isqrt(n - 1) + 1
    table = {}
    cur = ctx.vone()
    for j in range(B):
        table.setdefault(tuple(int(c) for c in cur), j)
        cur = ctx.vmul(cur, base_v)
    giant = ctx.vpow(base_v, n - B)  # base^{-B}, as base has order n
    cur = target_v
    for i in range(B + 1):
        j = table.get(tuple(int(c) for c in cur))
        if j is not None:
            return (i * B + j) % n
        cur = ctx.vmul(cur, giant)
    raise NoRoot("element not in the expected cyclic subgroup")


def _crt(pairs: list[tuple[int, int]]) -> int:
    r, m = 0, 1
    for r2, m2 in pairs:
        d = pow(m % m2, -1, m2)
        r = r + m * ((r2 - r) % m2 * d % m2)
        m *= m2
    return r % m


@functools.lru_cache(maxsize=4096)
def dth_root(a: FieldElem, d: int) -> FieldElem:
    """The coordinate-lex smallest b with b^d = a.

    Split N = p^m - 1 as A*B, where B is the part of N made of the primes of
    d.  On the order-A subgroup d is invertible, so a power of a is a root
    there.  On the order-B subgroup, take the discrete log of a's component
    base zeta_B, digit by digit per prime (Pohlig-Hellman, one small BSGS per
    digit), and divide it by d.  The product x0 is one root; the others are
    x0 * zeta_c^k for c = gcd(d, N), and the one with the smallest index is
    returned.  Only d is factored (Adleman-Manders-Miller).  The root is
    raised back to a before it is returned (InvariantViolated otherwise):
    callers rest on b^d = a, and the cache makes that one power per root.
    """
    if a.is_zero():
        raise ZeroElement("zero has no d-th root here")
    if d < 1:
        raise PreconditionViolated("d must be >= 1")
    ctx = a.ctx
    N = ctx.units
    if N == 1 or d == 1:
        return a if d == 1 else ctx.one()
    c = math.gcd(d, N)
    if not np.array_equal(ctx.vpow(a.vec(), N // c), ctx.vone()):
        raise NoRoot(f"no {d}-th root exists")
    ells = [ell for ell in numth.factorize(d).primes() if N % ell == 0]
    B = math.prod(ell ** numth.p_adic(N, ell) for ell in ells)
    A = N // B
    a_v = a.vec()
    one = ctx.vone()
    if A > 1:
        cA = B * pow(B, -1, A) % N if B > 1 else 1
        xA = ctx.vpow(ctx.vpow(a_v, cA), pow(d % A, -1, A))
    else:
        xA = one
    if B > 1:
        cB = A * pow(A, -1, B) % N if A > 1 else 1
        aB = ctx.vpow(a_v, cB)
        h = primitive_root_of_unity(ctx, B).vec()
        pairs = []
        for ell in ells:
            v = numth.p_adic(B, ell)
            # digit-lift inside the ell-part of the subgroup
            e = 0
            gamma = ctx.vpow(h, B // ell)
            for t in range(v):
                rhs = ctx.vpow(ctx.vmul(aB, ctx.vpow(h, B - e % B)), B // ell ** (t + 1))
                e += _bsgs(ctx, gamma, rhs, ell) * ell ** t
            pairs.append((e, ell ** v))
        eB = _crt(pairs)
        gB = math.gcd(d, B)
        yB = (eB // gB) * pow(d // gB, -1, B // gB) % (B // gB)
        xB = ctx.vpow(h, yB)
    else:
        xB = one
    x0 = ctx.vmul(xA, xB)
    omega = primitive_root_of_unity(ctx, c).vec()
    best = None
    cur = x0
    for _ in range(c):
        key = ctx.index_of(ctx.from_vec(cur))
        if best is None or key < best[0]:
            best = (key, cur)
        cur = ctx.vmul(cur, omega)
    if not np.array_equal(ctx.vpow(best[1], d), a_v):
        raise InvariantViolated(f"the {d}-th root does not raise back to a")
    return ctx.from_vec(best[1])


# -- embeddings -------------------------------------------------------------------

def _eliminate(A: np.ndarray, p: int, ncols: int) -> list[int]:
    """Gauss-Jordan over Z_p on the first ncols columns of A, in place.

    Returns the pivot columns; mod p, pivot row k has 1 at pivots[k] and the
    other rows 0 there.  The work runs on the view AT = A.T, which is
    C-contiguous when A is the transpose of a C-contiguous array, as every
    caller hands it over: a pivot column is then one contiguous row of AT
    and each pivot's outer product updates the contiguous block AT[c:]; any
    other layout gives the same result through strided views.  Rows are
    never swapped; perm[k] names the row that sits at position k, and one
    gather at the end puts the rows in the order the swaps would have
    given, so the result mod p is that of row-swapping Gauss-Jordan, row
    order included.  The pivot column and the pivot row are reduced before
    use (the row before it is scaled by the pivot's inverse), so every other
    entry is a residue minus one product of two residues per pivot, within
    FieldCtx's rule of m + 1 products per sum for at most m rows.
    """
    AT = A.T
    AT %= p
    n = AT.shape[1]
    perm = np.arange(n)
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == n:
            break
        col = AT[c] % p
        pr = int(perm[r])
        if not col[pr]:  # swap in the first row below r with a nonzero
            nz = np.flatnonzero(col[perm[r:]])
            if not nz.size:
                continue
            sel = r + int(nz[0])
            pr = int(perm[sel])
            perm[sel] = perm[r]
            perm[r] = pr
        # the pivot row is 0 mod p left of c, so only columns c.. change
        row = AT[c:, pr] % p
        inv = pow(int(col[pr]), p - 2, p)
        if inv != 1:
            row = row * inv % p
        AT[c:] -= np.multiply.outer(row, col)
        AT[c:, pr] = row
        pivots.append(c)
    if (perm != np.arange(n)).any():
        AT[...] = AT[:, perm]
    return pivots


def _nullspace_basis(M: np.ndarray, p: int) -> list[np.ndarray]:
    """Basis of the null space of M over Z_p (column vectors); M is consumed."""
    n_cols = M.shape[1]
    pivots = _eliminate(M, p, n_cols)
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        v = np.zeros(n_cols, dtype=M.dtype)
        v[fc] = 1
        v[pivots] = (-M[: len(pivots), fc]) % p
        basis.append(v)
    return basis


class EmbeddingMap:
    """Field homomorphism F_{p^{m0}} -> F_{p^m1} fixed by a root choice.

    `root` is the image of the residue class of sub's variable, i.e. the
    coordinate-lex smallest root of sub.modulus inside sup (the natural
    identity map when sub and sup are the same context).  `_E` holds the
    powers of root as columns, at the compute dtype, as apply_vec reads it
    on every op.  Eliminating [E | I] gives T with T @ E = [I; 0]; the map
    keeps only the sub.m rows of T that preimage returns, `_T` with _T @ E
    = I, a sub.m x sup.m matrix in place of a sup.m x sup.m one.  The
    dropped rows only tested membership (they vanish on the subfield), and
    preimage tests it by E y = x instead, the same condition: x = E y for
    some y exactly when E (_T x) = x.  The identity map of a field onto
    itself has E = T = I, with no powers and no elimination.
    """

    def __init__(self, sub: FieldCtx, sup: FieldCtx, root: FieldElem):
        self.sub = sub
        self.sup = sup
        self.root = root
        if sub == sup:
            self._E = self._T = np.eye(sup.m, dtype=sup._dtype)
            return
        self._E = sup.power_matrix(root.vec(), sub.m)
        AT = np.vstack([self._E.T, np.eye(sup.m, dtype=sup._dtype)])
        _eliminate(AT.T, sup.p, sub.m)  # [E | I], eliminated on its transpose
        self._T = AT[sub.m :, : sub.m].T % sup.p

    def apply_vec(self, v) -> np.ndarray:
        return self._E @ v % self.sup.p

    def preimage(self, rows: np.ndarray) -> np.ndarray:
        """Sub coordinates of each row of sup coordinates; NotASubfield if a
        row lies outside the embedded subfield."""
        p = self.sup.p
        w = rows @ self._T.T % p
        if (w @ self._E.T % p != rows % p).any():
            raise NotASubfield("element is not in the embedded subfield")
        return w.astype(self.sub._dtype)

    def __call__(self, x: FieldElem) -> FieldElem:
        if x.ctx != self.sub:
            raise CtxMismatch("element does not belong to the embedding's subfield")
        return self.sup.from_vec(self.apply_vec(x.vec()))


@functools.lru_cache(maxsize=None)
def embed(sub: FieldCtx, sup: FieldCtx) -> EmbeddingMap:
    """Embedding along the coordinate-lex smallest root of sub.modulus,
    cached per (sub, sup)."""
    if sub.p != sup.p or sup.m % sub.m != 0:
        raise NotASubfield(f"F_{sub.p}^{sub.m} does not embed in F_{sup.p}^{sup.m}")
    if sub == sup:
        root = sup.x_class()
    elif sub.m == 1:
        root = sup.from_int(-sub.modulus[0])  # the only root of a linear modulus
    else:
        root = _subfield_root(sub, sup)
    return EmbeddingMap(sub, sup, root)


def _subfield_root(sub: FieldCtx, sup: FieldCtx) -> FieldElem:
    """Coordinate-lex smallest root of sub.modulus inside sup (Lenstra 1991).

    The first basis vector theta of degree k = sub.m in the kernel of
    x -> x^{p^k} - x exists, as the proper subfields span less than F_{p^k};
    its minimal polynomial mu is the null vector of [1, theta, ..., theta^k].
    poly.find_root splits sub.modulus in F_p[Y]/(mu), and the root's k
    conjugates there map back to sup through the powers of theta.
    """
    from .poly import find_root  # poly builds on ff

    p, k = sup.p, sub.m
    FT = sup.frob_matrix(k).T - np.eye(sup.m, dtype=sup._dtype)
    basis = _nullspace_basis(FT.T, p)  # the p^k-element subfield
    if len(basis) != k:
        raise InvariantViolated(
            f"x -> x^(p^{k}) fixes {p}^{len(basis)} elements, not {sub.order}")
    for theta in basis[1:]:  # basis[0] is 1: column 0 of F is zero
        P = sup.power_matrix(theta, k + 1)
        null = _nullspace_basis(P.copy(order="F"), p)
        if len(null) == 1:
            break
    else:
        raise InvariantViolated(f"no basis vector of F_{p}^{k} has degree {k}")
    rho = find_root(sub.modulus, FieldCtx(p, k, tuple(int(c) for c in null[0])))
    return min((sup.from_vec(P[:, :k] @ rho.conj(j).vec() % p) for j in range(k)),
               key=sup.index_of)


# -- text formats -----------------------------------------------------------------

def field_text(ctx: FieldCtx) -> str:
    """'p' for prime fields, else 'p^m/c_m,...,c_0'."""
    if ctx.m == 1:
        return str(ctx.p)
    coeffs = ",".join(str(c) for c in reversed(ctx.modulus))
    return f"{ctx.p}^{ctx.m}/{coeffs}"


def parse_field(spec: str) -> FieldCtx:
    """Parse 'p', a prime power 'q', 'p^m' (auto modulus) or 'p^m/c_m,...,c_0'."""
    spec = spec.strip()
    try:
        mod_part = None
        if "/" in spec:
            spec, mod_part = spec.split("/", 1)
        if "^" in spec:
            p_s, m_s = spec.split("^", 1)
            p, m = int(p_s), int(m_s)
        else:
            p, m = numth.prime_power(int(spec)) or (0, 0)
            if not p:
                raise ValueError("order is not a prime power")
        modulus = None
        if mod_part is not None:
            modulus = [int(c) for c in mod_part.split(",")][::-1]
    except (ValueError, IndexError) as exc:
        raise ParseError(f"bad field spec {spec!r}") from exc
    return make_extension(p, m, modulus)


def element_text(x: FieldElem) -> str:
    """Decimal for prime fields, '[c_{m-1},...,c_0]' otherwise."""
    if x.ctx.m == 1:
        return str(x.coords[0])
    return "[" + ",".join(str(c) for c in reversed(x.coords)) + "]"


def parse_element(ctx: FieldCtx, s: str) -> FieldElem:
    s = s.strip()
    try:
        if s.startswith("["):
            if not s.endswith("]"):
                raise ValueError("unbalanced brackets")
            coords = [int(c) for c in s[1:-1].split(",")] if s[1:-1].strip() else []
            if len(coords) != ctx.m:
                raise ValueError("coordinate count mismatch")
            return ctx.el(coords[::-1])
        return ctx.from_int(int(s))
    except ValueError as exc:
        raise ParseError(f"bad element {s!r} for {field_text(ctx)}") from exc
