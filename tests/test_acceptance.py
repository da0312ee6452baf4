"""End-to-end acceptance checks for the closed-formula factorizer.

One test per numbered contract point.  Each prints a single summary line so
a log scrape shows the outcome of every check in one place; the assertion
carries the same text.
"""

import itertools
import json
import random
import time
from math import gcd

import pytest

from cyclofactor import ff, numth
from cyclofactor.cli import Request, run
from cyclofactor.factor import (butler_profile, factor_binomial,
                                factor_composition, factor_cyclotomic,
                                factor_unity, serret_irreducible,
                                step_irreducible_tp, unity_shortcut)
from cyclofactor.oracle import brute_factor, is_irreducible
from cyclofactor.poly import (Poly, coeff_degree, has_order, q_spin,
                              rabin_irreducible)

GRID_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13)
MAX_N = 60
FACTOR_TIME_BUDGET = 300.0  # seconds for the full reconstruction sweep


def _report(num, desc, ok, detail=""):
    tail = f" [{detail}]" if detail else ""
    line = f"acceptance {num:02d} {'PASS' if ok else 'FAIL'}: {desc}{tail}"
    print(line)
    assert ok, line


def _monic_irreducibles(ctx, deg):
    out = []
    for idxs in itertools.product(range(ctx.order), repeat=deg):
        coeffs = [ctx.element_from_index(i) for i in reversed(idxs)]
        f = Poly.from_coeffs(ctx, coeffs + [ctx.one()])
        if rabin_irreducible(f):
            out.append(f)
    return out


@pytest.fixture(scope="module")
def grid():
    """(ctx, n, a, factorization) for the whole sweep, plus pure factor time.

    All units when q <= 9; ten seeded-random units per (q, n) cell above.
    """
    instances = []
    elapsed = 0.0
    for q in GRID_Q:
        ctx = ff.parse_field(str(q))
        for n in range(1, MAX_N + 1):
            if q <= 9:
                idxs = list(range(1, q))
            else:
                rng = random.Random(q * 1000 + n)
                idxs = rng.sample(range(1, q), 10)
            for idx in idxs:
                a = ctx.element_from_index(idx)
                t0 = time.perf_counter()
                fz = factor_binomial(a, n)
                elapsed += time.perf_counter() - t0
                instances.append((ctx, n, a, fz))
    return instances, elapsed


def test_01_reconstruction_sweep(grid):
    instances, elapsed = grid
    bad = sum(1 for ctx, n, a, fz in instances
              if fz.product() != Poly.binomial(ctx, n, a))
    ok = bad == 0 and elapsed < FACTOR_TIME_BUDGET
    _report(1, "every grid factorization multiplies back to X^n - a", ok,
            f"{len(instances)} instances, {bad} mismatches, "
            f"factor time {elapsed:.1f}s < {FACTOR_TIME_BUDGET:.0f}s")


def test_02_oracle_equivalence(grid):
    instances, _ = grid
    checked = bad = 0
    for ctx, n, a, fz in instances:
        if fz.base.degree > 200:
            continue
        checked += 1
        if fz.multiset() != brute_factor(fz.base).multiset():
            bad += 1
    _report(2, "factor multisets equal the brute-force oracle's", bad == 0,
            f"{checked} instances compared, {bad} mismatches")


def test_03_irreducibility_and_metadata(grid):
    instances, _ = grid
    factors = bad = 0
    for ctx, n, a, fz in instances:
        for e in fz:
            factors += 1
            if not is_irreducible(e.poly):
                bad += 1
            elif e.degree != e.poly.degree:
                bad += 1
            elif not has_order(e.poly, e.order):
                bad += 1
    _report(3, "every factor irreducible with exact degree and order",
            bad == 0, f"{factors} factors checked, {bad} bad")


def test_04_butler_profile():
    checked = bad = 0
    for q in (2, 3, 5):
        ctx = ff.parse_field(str(q))
        fs = [f for deg in (1, 2, 3) for f in _monic_irreducibles(ctx, deg)
              if not f.coeff(0).is_zero()]
        for f in fs:
            for n in range(1, 25):
                if gcd(n, q) != 1:
                    continue
                checked += 1
                got: dict = {}
                for e in factor_composition(f, n):
                    key = (e.degree, e.order)
                    got[key] = got.get(key, 0) + e.mult
                want: dict = {}
                for _, count, deg, order in butler_profile(f, n):
                    want[(deg, order)] = want.get((deg, order), 0) + count
                if got != want:
                    bad += 1
    _report(4, "composition factor census equals the closed-form profile",
            bad == 0, f"{checked} (f, n) pairs, {bad} mismatches")


def test_05_cyclotomic_consistency():
    checked = bad = 0
    for q in (2, 3, 5, 7):
        ctx = ff.parse_field(str(q))
        for n in range(1, 41):
            if gcd(n, q) != 1:
                continue
            checked += 1
            combined: dict = {}
            for d in numth.divisors(n):
                for key, mult in factor_cyclotomic(ctx, d).multiset().items():
                    combined[key] = combined.get(key, 0) + mult
            if combined != factor_unity(ctx, n).multiset():
                bad += 1
                continue
            fz = factor_cyclotomic(ctx, n)
            w = numth.ord_mod(q, numth.radical(n))
            s = w if (n % 4 != 0 or pow(q, w, 4) == 1) else 2 * w
            ds = gcd(n, q**s - 1)
            if len(fz) != numth.euler_phi(ds) // s:
                bad += 1
            elif any(e.degree != (n // ds) * s or e.order != n for e in fz):
                bad += 1
    _report(5, "cyclotomic pieces assemble X^n - 1 with the stated shape",
            bad == 0, f"{checked} (q, n) pairs, {bad} mismatches")


def test_06_irreducibility_predicates():
    checked = bad = 0
    for q in (3, 5, 7, 9, 13):
        ctx = ff.parse_field(str(q))
        units = [ctx.element_from_index(i) for i in range(1, q)]
        for a in units:
            for t in range(1, 17):
                checked += 1
                if serret_irreducible(a, t) != is_irreducible(
                        Poly.binomial(ctx, t, a)):
                    bad += 1
            for t in range(1, 17):
                if not serret_irreducible(a, t):
                    continue
                for p in numth.factorize(q - 1).primes():
                    if t * p > 16:
                        continue
                    if t * p % 4 == 0 and q % 4 != 1:
                        continue
                    checked += 1
                    if step_irreducible_tp(a, t, p) != is_irreducible(
                            Poly.binomial(ctx, t * p, a)):
                        bad += 1
    _report(6, "binomial irreducibility predicates match the oracle",
            bad == 0, f"{checked} verdicts compared, {bad} disagreements")


def test_07_shortcut_differential(grid):
    instances, _ = grid
    applied = bad = 0
    for ctx, n, a, fz in instances:
        # the shortcut's power criterion holds exactly when X^n - a has a
        # root in F_q, i.e. when the main engine finds a linear factor
        sc = unity_shortcut(a, n)
        if (sc is not None) != any(e.degree == 1 for e in fz):
            bad += 1
        if sc is None:
            continue
        applied += 1
        if sc.multiset() != fz.multiset():
            bad += 1
    _report(7, "shortcut applies where the main engine finds a root, and agrees",
            bad == 0, f"applies to {applied} instances, {bad} mismatches")


def test_08_number_theory_lemmas():
    bad = []

    checked = 0
    for q in range(2, 14):
        for p in numth.factorize(q - 1).primes() if q > 2 else []:
            for m in range(1, 13):
                checked += 1
                if numth.beyl_valuation(q, p, m) != numth.p_adic(q**m - 1, p):
                    bad.append(("valuation", q, p, m))
    val_n = checked

    checked = 0
    for q in (3, 5, 7, 9):
        for n in range(1, 41):
            if (q - 1) % numth.radical(n) != 0:
                continue
            for k in range(1, 6):
                if gcd(n, k) != 1:
                    continue
                for m in range(1, 4):
                    checked += 1
                    if gcd(n, q**(k * m) - 1) != gcd(n, q**m - 1):
                        bad.append(("descent", q, n, k, m))
    desc_n = checked

    checked = 0
    for q in (3, 7, 11):
        for n in range(4, 65, 4):
            if (q - 1) % numth.radical(n) != 0:
                continue
            checked += 1
            want = gcd(n, q - 1) * 2**(
                1 + min(numth.p_adic(n // 4, 2), numth.p_adic((q + 1) // 2, 2)))
            if gcd(n, q**2 - 1) != want:
                bad.append(("gcd-fact", q, n))
    fact_n = checked

    _report(8, "valuation, gcd-descent and mod-4 gcd identities hold",
            not bad, f"{val_n}+{desc_n}+{fact_n} cases, "
            f"{len(bad)} failures{': ' + repr(bad[:3]) if bad else ''}")


def test_09_spin_identities():
    rng = random.Random(90)
    pairs = [
        (ff.make_extension(2, 4), ff.parse_field("2")),
        (ff.make_extension(2, 6), ff.parse_field("2")),
        (ff.make_extension(2, 6), ff.make_extension(2, 2)),
        (ff.make_extension(3, 4), ff.parse_field("3")),
        (ff.make_extension(3, 4), ff.make_extension(3, 2)),
        (ff.make_extension(5, 2), ff.parse_field("5")),
        (ff.make_extension(7, 2), ff.parse_field("7")),
    ]
    sum_bad = 0
    for count in range(200):
        W, base = pairs[count % len(pairs)]
        c = W.element_from_index(rng.randrange(1, W.order))
        E = rng.randrange(1, 5)
        h = Poly.binomial(W, E, c)
        d = coeff_degree(h, base)
        conj = [c.conj(base.m * u % W.m) for u in range(d)]
        coeffs = [W.zero()] * (E * d + 1)
        for l in range(d + 1):
            e_l = W.zero()
            for combo in itertools.combinations(conj, l):
                term = W.one()
                for z in combo:
                    term = term * z
                e_l = e_l + term
            sign = W.one() if l % 2 == 0 else -W.one()
            coeffs[E * (d - l)] = sign * e_l
        assembled = Poly.from_coeffs(W, coeffs)
        spin = q_spin(h, base)
        emb = ff.embed(base, W)
        lifted = Poly.from_coeffs(
            W, [emb(spin.coeff(i)) for i in range(spin.degree + 1)])
        if lifted != assembled:
            sum_bad += 1

    trans_bad = 0
    for p, k, s in ((2, 2, 2), (3, 2, 2), (3, 1, 3)):
        W = ff.make_extension(p, k * s)
        mid = ff.make_extension(p, k)
        base = ff.parse_field(str(p))
        rng = random.Random(91 + p * 10 + k)
        done = 0
        while done < 100:
            deg = rng.randrange(1, 4)
            coeffs = [W.element_from_index(rng.randrange(W.order))
                      for _ in range(deg)] + [W.one()]
            g = Poly.from_coeffs(W, coeffs)
            # transitivity is a statement about irreducible inputs: for a
            # reducible g the two-step orbit product can collapse repeated
            # conjugate blocks that the one-step product keeps
            if not rabin_irreducible(g):
                continue
            done += 1
            if q_spin(g, base) != q_spin(q_spin(g, mid), base):
                trans_bad += 1
    ok = sum_bad == 0 and trans_bad == 0
    _report(9, "symmetric-sum expansion and spin transitivity hold", ok,
            f"200 binomials ({sum_bad} bad), 300 transitivity ({trans_bad} bad)")


def test_10_sweep_determinism():
    first = run(Request("sweep", output="json", seed=0))
    second = run(Request("sweep", output="json", seed=0))
    same = first[1].encode() == second[1].encode()
    doc = json.loads(first[1])
    ok = first[0] == 0 and second[0] == 0 and same and doc["failures"] == 0
    _report(10, "full sweep output is byte-identical across reruns", ok,
            f"{doc['count']} records, failures {doc['failures']}, "
            f"identical {same}")
