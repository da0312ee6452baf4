"""Command line front end.

Subcommands factor binomials, unity, cyclotomics and compositions, verify a
factorization against the brute-force oracle, or sweep the whole (q, n, a)
grid.  Exit codes: 0 success, 1 verification failure, 2 parse error, 3
mathematical domain error, 4 internal error (any other CyclofactorError,
such as InvariantViolated).
"""

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass
from typing import Optional

from . import ff, oracle
from .errors import CyclofactorError, MathDomainError, ParseError
from .factor import (BinomialPlan, CompositionPlan, factor_binomial,
                     factor_composition, factor_cyclotomic, factor_unity,
                     verify)
from .poly import Factorization, FactorEntry, Poly, parse_poly, poly_text

GRID_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13)
RANDOM_A_COUNT = 10  # elements sampled per (q, n) cell when q > 9


@dataclass
class Request:
    command: str
    field_spec: str = ""
    a: Optional[str] = None
    n: Optional[int] = None
    f: Optional[str] = None
    output: str = "text"
    seed: int = 0
    show_plan: bool = False
    max_n: int = 60


def _entry_line(e: FactorEntry) -> str:
    bits = [f"degree {e.degree}"]
    if e.order is not None:
        bits.append(f"order {e.order}")
    if e.mult > 1:
        bits.append(f"multiplicity {e.mult}")
    return f"{poly_text(e.poly)}  ({', '.join(bits)})"


def _plan_fields(plan: BinomialPlan) -> dict:
    return {
        "n1": plan.n1,
        "n2": plan.n2,
        "w": plan.w,
        "s": plan.s,
        "d1_s": plan.d1[plan.s],
        "d2_s": plan.d2[plan.s],
        "s1": plan.s1,
        "r": plan.r,
        "coset_reps": list(plan.coset_reps.reps),
    }


def _plan_json(plan) -> dict:
    if isinstance(plan, CompositionPlan):
        return {
            "k": plan.k,
            "alpha": ff.element_text(plan.alpha),
            "char_power": plan.char_power,
            "inner": _plan_fields(plan.inner),
        }
    return _plan_fields(plan)


def _plan_text(plan) -> str:
    if isinstance(plan, CompositionPlan):
        head = (f"plan: k={plan.k} alpha={ff.element_text(plan.alpha)}"
                f" char_power={plan.char_power}")
        return head + "\n" + _plan_text(plan.inner).replace("plan:", "inner:", 1)
    d = _plan_fields(plan)
    reps = d.pop("coset_reps")
    parts = " ".join(f"{k}={v}" for k, v in d.items())
    return f"plan: {parts} coset_reps={reps}"


def _json_doc(fz: Factorization, req: Request) -> dict:
    ctx = fz.base.ctx
    doc = {
        "field": ff.field_text(ctx),
        "input": poly_text(fz.base),
        "factors": [
            {"poly": poly_text(e.poly), "mult": e.mult,
             "degree": e.degree, "order": e.order}
            for e in fz
        ],
    }
    if req.show_plan and fz.plan is not None:
        doc["plan"] = _plan_json(fz.plan)
    return doc


def _render(fz: Factorization, req: Request) -> str:
    if req.output == "json":
        return json.dumps(_json_doc(fz, req), indent=2)
    lines = [_entry_line(e) for e in fz]
    if req.show_plan and fz.plan is not None:
        lines.append(_plan_text(fz.plan))
    return "\n".join(lines)


def _need_n(req: Request) -> int:
    if req.n is None:
        raise ParseError("--n is required")
    return req.n


def _factorize(req: Request, ctx: ff.FieldCtx) -> Factorization:
    if req.command == "binomial":
        if req.a is None:
            raise ParseError("--a is required for binomial")
        return factor_binomial(ff.parse_element(ctx, req.a), _need_n(req))
    if req.command == "unity":
        return factor_unity(ctx, _need_n(req))
    if req.command == "cyclotomic":
        return factor_cyclotomic(ctx, _need_n(req))
    if req.command == "compose":
        if req.f is None:
            raise ParseError("--f is required for compose")
        return factor_composition(parse_poly(ctx, req.f), _need_n(req))
    raise ParseError(f"unknown command {req.command!r}")


def _run_verify(req: Request, ctx: ff.FieldCtx) -> tuple:
    sub = dict(req.__dict__)
    sub["command"] = "compose" if req.f is not None else (
        "binomial" if req.a is not None else "unity")
    fz = _factorize(Request(**sub), ctx)
    rep = verify(fz)
    lines = [str(rep)]
    ok = rep.passed
    cfg = oracle.OracleConfig(rng_seed=req.seed)
    if fz.base.degree <= cfg.max_total_degree:
        same = fz.multiset() == oracle.brute_factor(fz.base, cfg).multiset()
        lines.append(("PASS" if same else "FAIL")
                     + " oracle: factor multiset vs brute force")
        ok = ok and same
    else:
        lines.append(f"SKIP oracle: degree {fz.base.degree} beyond"
                     f" brute-force budget {cfg.max_total_degree}")
    return (0 if ok else 1), "\n".join(lines)


def _run_sweep(req: Request) -> tuple:
    records = []
    failures = 0
    for q in GRID_Q:
        ctx = ff.parse_field(str(q))
        ftext = ff.field_text(ctx)
        for n in range(1, req.max_n + 1):
            if q <= 9:
                idxs = list(range(1, q))
            else:
                rng = random.Random(req.seed * 1_000_003 + q * 1000 + n)
                idxs = rng.sample(range(1, q), RANDOM_A_COUNT)
            for idx in idxs:
                a = ctx.element_from_index(idx)
                try:
                    fz = factor_binomial(a, n)
                    ok = (fz.product() == Poly.binomial(ctx, n, a)
                          and sum(e.degree * e.mult for e in fz) == n)
                except CyclofactorError:
                    ok = False
                if not ok:
                    failures += 1
                records.append({"field": ftext, "n": n,
                                "a": ff.element_text(a), "ok": ok})
    doc = {
        "grid": {"q": list(GRID_Q), "max_n": req.max_n},
        "seed": req.seed,
        "count": len(records),
        "failures": failures,
        "records": records,
    }
    if req.output == "json":
        out = json.dumps(doc, indent=2)
    else:
        out = f"sweep: {len(records)} instances, {failures} failures"
    return (0 if failures == 0 else 1), out


def run(req: Request) -> tuple:
    """Execute a request; returns (exit_code, output_text)."""
    try:
        if req.command == "sweep":
            return _run_sweep(req)
        ctx = ff.parse_field(req.field_spec)
        if req.command == "verify":
            return _run_verify(req, ctx)
        return 0, _render(_factorize(req, ctx), req)
    except ParseError as exc:
        return 2, f"parse error: {exc}"
    except MathDomainError as exc:
        return 3, f"domain error: {exc}"
    except CyclofactorError as exc:
        return 4, f"internal error: {exc}"


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cyclofactor",
        description="Factor X^n - a over finite fields by closed formula.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, field=True, n=True):
        if field:
            sp.add_argument("--field", required=True,
                            help="field spec: p, prime power q, p^m or p^m/mod")
        if n:
            sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--output", choices=("text", "json"), default="text")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--show-plan", action="store_true")

    sp = sub.add_parser("binomial", help="factor X^n - a")
    sp.add_argument("--a", required=True, help="element of the field")
    common(sp)
    sp = sub.add_parser("unity", help="factor X^n - 1")
    common(sp)
    sp = sub.add_parser("cyclotomic", help="factor the n-th cyclotomic polynomial")
    common(sp)
    sp = sub.add_parser("compose", help="factor f(X^n) for irreducible f")
    sp.add_argument("--f", required=True, help="polynomial in x over the field")
    common(sp)
    sp = sub.add_parser("verify", help="factor and cross-check against the oracle")
    sp.add_argument("--a", help="element for the binomial form")
    sp.add_argument("--f", help="polynomial for the composition form")
    common(sp)
    sp = sub.add_parser("sweep", help="factor the whole (q, n, a) grid")
    sp.add_argument("--max-n", type=int, default=60, dest="max_n")
    common(sp, field=False, n=False)
    return ap


def main(argv=None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    req = Request(
        command=ns.command,
        field_spec=getattr(ns, "field", ""),
        a=getattr(ns, "a", None),
        n=getattr(ns, "n", None),
        f=getattr(ns, "f", None),
        output=ns.output,
        seed=ns.seed,
        show_plan=ns.show_plan,
        max_n=getattr(ns, "max_n", 60),
    )
    env = os.environ.get("CYCLOFACTOR_SEED")
    if env is not None:
        try:
            req.seed = int(env)
        except ValueError:
            print(f"parse error: bad CYCLOFACTOR_SEED {env!r}", file=sys.stderr)
            return 2
    code, out = run(req)
    if out:
        print(out, file=sys.stderr if code in (2, 3, 4) else sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
