"""Benchmark inputs, generated from a seed as plain data.

Every op spec is a tuple of ints and strings, so the same seed gives the same
inputs in every process.  The library only ever sees the values built from
these specs; this module never imports it.

Op specs:
  ("binomial", q, n, a_index)           factor_binomial over F_q
  ("verify_binomial", q, n, a_index)    factor_binomial, verify, oracle
  ("verify_compose", q, n, f_indices)   factor_composition, verify, oracle
  ("cli", argv...)                      one `python -m cyclofactor.cli` call

Field elements are given by their index in the library's coordinate-lex
enumeration (`FieldCtx.element_from_index`); polynomials by the indices of
their coefficients, lowest degree first.
"""

import random

WORKLOADS = ("grid", "verify", "large_field", "cli")
DEFAULT_SEED = 0

# the acceptance grid: all units when q <= 9, ten sampled units above
GRID_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13)
GRID_MAX_N = 60
GRID_SAMPLED_UNITS = 10

VERIFY_Q = (4, 9, 25, 49)
VERIFY_MAX_N = 60
COMPOSE_Q = 9
COMPOSE_DEGREES = (1, 2, 3)
COMPOSE_MAX_N = 24

# prime fields between 10^3 and 10^4 whose tower degree s is at least 2, so
# a cold op pays for a modulus search, a generator scan and an embedding
LARGE_FIELDS = ((1009, 11), (4001, 3), (7919, 4), (10007, 3))
LARGE_UNITS_PER_FIELD = 30

# A warm pass runs every WARM_STRIDE-th op of the cold pass, at least
# MIN_WARM_PASSES times, so each op has several warm latencies to pick the
# least disturbed one from; the strides keep those passes short.
WARM_STRIDE = {"grid": 3, "verify": 2, "large_field": 1, "cli": 1}
MIN_WARM_PASSES = 3


def grid_ops(seed):
    """The q <= 13, n <= 60 sweep; seed 0 is the acceptance test's grid.

    The per-cell sample uses the same rule as `cyclofactor sweep --seed`.
    """
    ops = []
    for q in GRID_Q:
        for n in range(1, GRID_MAX_N + 1):
            if q <= 9:
                idxs = range(1, q)
            else:
                rng = random.Random(seed * 1_000_003 + q * 1000 + n)
                idxs = rng.sample(range(1, q), GRID_SAMPLED_UNITS)
            ops.extend(("binomial", q, n, idx) for idx in idxs)
    return ops


def _f9_mul(x, y):
    """Product in F_9 = F_3[y]/(y^2 + 1), elements as indices c0 + 3*c1."""
    a0, a1 = x % 3, x // 3
    b0, b1 = y % 3, y // 3
    return (a0 * b0 - a1 * b1) % 3 + 3 * ((a0 * b1 + a1 * b0) % 3)


def _f9_add(x, y):
    return (x % 3 + y % 3) % 3 + 3 * ((x // 3 + y // 3) % 3)


def _f9_has_root(coeffs):
    """Whether the polynomial with F_9 coefficient indices has a root in F_9."""
    for x in range(9):
        acc = 0
        for c in reversed(coeffs):
            acc = _f9_add(_f9_mul(acc, x), c)
        if acc == 0:
            return True
    return False


def _irreducible_f9(rng, deg):
    """Seeded monic irreducible over F_9 of degree <= 3, never X itself.

    Below degree 4 a polynomial without a root is irreducible.
    """
    while True:
        coeffs = [rng.randrange(9) for _ in range(deg)] + [1]
        if coeffs[0] == 0:
            continue
        if deg == 1 or not _f9_has_root(coeffs):
            return tuple(coeffs)


def verify_ops(seed):
    """Binomials over q in {4, 9, 25, 49} and compositions over F_9."""
    ops = []
    for q in VERIFY_Q:
        for n in range(1, VERIFY_MAX_N + 1):
            rng = random.Random(f"verify:{seed}:{q}:{n}")
            ops.append(("verify_binomial", q, n, rng.randrange(1, q)))
    for deg in COMPOSE_DEGREES:
        for n in range(1, COMPOSE_MAX_N + 1):
            rng = random.Random(f"compose:{seed}:{deg}:{n}")
            ops.append(("verify_compose", COMPOSE_Q, n,
                        _irreducible_f9(rng, deg)))
    return ops


def large_field_ops(seed):
    ops = []
    for p, n in LARGE_FIELDS:
        rng = random.Random(f"large:{seed}:{p}:{n}")
        for _ in range(LARGE_UNITS_PER_FIELD):
            ops.append(("binomial", p, n, rng.randrange(2, p)))
    return ops


def _elem_text(q, idx):
    """CLI text of the element with index idx: decimal, or [c_{m-1},...,c_0]."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    if p == q:
        return str(idx)
    coords = []
    while q > 1:
        coords.append(idx % p)
        idx //= p
        q //= p
    return "[" + ",".join(str(c) for c in reversed(coords)) + "]"


def _f9_poly_text(coeffs):
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        x = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
        if not x:
            terms.append(_elem_text(9, c))
        else:
            terms.append(x if c == 1 else f"{_elem_text(9, c)}*{x}")
    return " + ".join(terms)


# (command, q, n choices, operand, output, show_plan); the n choices keep
# the tower degree s small, so a call costs about the same whichever n the
# seed picks
CLI_MIX = (
    ("binomial", 9, (6, 8, 10, 12, 16, 20), "a", "text", False),
    ("binomial", 13, (4, 6, 12, 14, 21, 28), "a", "json", True),
    ("unity", 8, (7, 9, 14, 21, 27, 30), None, "text", True),
    ("unity", 11, (5, 10, 12, 15, 20, 25), None, "json", False),
    ("cyclotomic", 7, (8, 12, 16, 18, 24, 30), None, "text", False),
    ("cyclotomic", 4, (5, 9, 15, 17, 21, 27), None, "json", True),
    ("compose", 9, (2, 4, 5, 8, 10, 16), "f", "text", True),
    ("compose", 5, (3, 4, 6, 8, 12, 13), "f", "json", False),
    ("verify", 4, (3, 5, 9, 15, 17, 21), "a", "text", False),
    ("verify", 9, (2, 4, 5, 8, 10, 16), "f", "text", False),
)

# x^2 + x + 2 is irreducible over F_5 (its discriminant 3 is no square)
_F5_IRREDUCIBLE = "x^2 + x + 2"


def cli_ops(seed):
    ops = []
    for k, (cmd, q, ns, operand, output, show_plan) in enumerate(CLI_MIX):
        rng = random.Random(f"cli:{seed}:{k}")
        argv = [cmd, "--field", str(q), "--n", str(rng.choice(ns))]
        if operand == "a":
            argv += ["--a", _elem_text(q, rng.randrange(1, q))]
        elif operand == "f":
            f = (_f9_poly_text(_irreducible_f9(rng, 2)) if q == 9
                 else _F5_IRREDUCIBLE)
            argv += ["--f", f]
        if output != "text":
            argv += ["--output", output]
        if show_plan:
            argv.append("--show-plan")
        ops.append(("cli", *argv))
    return ops


def ops_for(workload, seed):
    return {
        "grid": grid_ops,
        "verify": verify_ops,
        "large_field": large_field_ops,
        "cli": cli_ops,
    }[workload](seed)
