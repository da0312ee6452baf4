import hashlib
import json
import random

import pytest

from cyclofactor import cli, factor, ff, oracle
from cyclofactor.cli import Request, main, run
from cyclofactor.errors import InvariantViolated
from cyclofactor.factor import factor_binomial, factor_unity
from cyclofactor.poly import Poly, parse_poly, poly_text

F3 = ff.make_extension(3, 1)
F5 = ff.make_extension(5, 1)


class TestTextOutput:
    def test_cyclotomic_line(self):
        code, out = run(Request("cyclotomic", field_spec="3", n=4))
        assert code == 0
        assert out == "x^2 + 1  (degree 2, order 4)"

    def test_linear_binomial(self):
        code, out = run(Request("binomial", field_spec="5", a="3", n=1))
        assert code == 0
        assert out.startswith("x + 2")

    def test_multiplicity_shown(self):
        code, out = run(Request("binomial", field_spec="3", a="2", n=6))
        assert code == 0
        assert out == "x^2 + 1  (degree 2, order 4, multiplicity 3)"

    def test_unity_lines(self):
        code, out = run(Request("unity", field_spec="3", n=8))
        assert code == 0
        assert out.splitlines() == [
            "x + 1  (degree 1, order 2)",
            "x + 2  (degree 1, order 1)",
            "x^2 + 1  (degree 2, order 4)",
            "x^2 + x + 2  (degree 2, order 8)",
            "x^2 + 2*x + 2  (degree 2, order 8)",
        ]

    def test_plan_line(self):
        code, out = run(Request("unity", field_spec="3", n=8, show_plan=True))
        assert code == 0
        line = out.splitlines()[-1]
        assert line.startswith("plan: n1=")
        for key in ("n2=", "w=", "s=", "d1_s=", "d2_s=", "s1=", "r=",
                    "coset_reps=["):
            assert key in line

    def test_compose_plan_lines(self):
        code, out = run(Request("compose", field_spec="3", f="x^2 + 1", n=2,
                                show_plan=True))
        assert code == 0
        lines = out.splitlines()
        assert any(l.startswith("plan: k=2 alpha=") for l in lines)
        assert any(l.startswith("inner: n1=") for l in lines)


class TestJsonOutput:
    def test_unity_document(self):
        code, out = run(Request("unity", field_spec="3", n=8, output="json"))
        assert code == 0
        doc = json.loads(out)
        assert list(doc.keys()) == ["field", "input", "factors"]
        assert doc["field"] == "3"
        assert doc["input"] == "x^8 + 2"
        assert [list(f.keys()) for f in doc["factors"]] == [
            ["poly", "mult", "degree", "order"]] * 5
        assert sorted(f["degree"] for f in doc["factors"]) == [1, 1, 2, 2, 2]
        assert sorted(f["order"] for f in doc["factors"]) == [1, 2, 4, 8, 8]

    def test_round_trip(self):
        cases = [
            Request("unity", field_spec="3", n=8, output="json"),
            Request("binomial", field_spec="5", a="2", n=12, output="json"),
            Request("binomial", field_spec="9", a="[1,1]", n=4, output="json"),
            Request("cyclotomic", field_spec="7", n=9, output="json"),
            Request("compose", field_spec="3", f="x^2 + 1", n=5, output="json"),
        ]
        for req in cases:
            code, out = run(req)
            assert code == 0
            doc = json.loads(out)
            ctx = ff.parse_field(doc["field"])
            prod = Poly.one(ctx)
            for f in doc["factors"]:
                prod = prod * parse_poly(ctx, f["poly"]) ** f["mult"]
            assert prod == parse_poly(ctx, doc["input"])

    def test_nonmonic_compose_round_trip(self):
        code, out = run(Request("compose", field_spec="5", f="3*x + 3", n=2,
                                output="json"))
        assert code == 0
        doc = json.loads(out)
        ctx = ff.parse_field(doc["field"])
        prod = Poly.one(ctx)
        for f in doc["factors"]:
            prod = prod * parse_poly(ctx, f["poly"]) ** f["mult"]
        base = parse_poly(ctx, doc["input"])
        assert prod.scaled(base.lead()) == base

    def test_plan_keys(self):
        code, out = run(Request("binomial", field_spec="5", a="2", n=8,
                                output="json", show_plan=True))
        doc = json.loads(out)
        assert list(doc.keys()) == ["field", "input", "factors", "plan"]
        assert list(doc["plan"].keys()) == [
            "n1", "n2", "w", "s", "d1_s", "d2_s", "s1", "r", "coset_reps"]

    def test_compose_plan_keys(self):
        code, out = run(Request("compose", field_spec="3", f="x^2 + 1", n=2,
                                output="json", show_plan=True))
        doc = json.loads(out)
        assert list(doc["plan"].keys()) == ["k", "alpha", "char_power", "inner"]
        assert list(doc["plan"]["inner"].keys()) == [
            "n1", "n2", "w", "s", "d1_s", "d2_s", "s1", "r", "coset_reps"]

    def test_grid_plans_are_pinned(self):
        # the printed plan, text and JSON, of every grid binomial: every
        # unit for q <= 9, the seed-0 sweep sample for q = 11 and 13, n <= 60
        h, count = hashlib.sha256(), 0
        for q in cli.GRID_Q:
            ctx = ff.parse_field(str(q))
            for n in range(1, 61):
                idxs = range(1, q) if q <= 9 else random.Random(
                    q * 1000 + n).sample(range(1, q), cli.RANDOM_A_COUNT)
                for idx in idxs:
                    plan = factor_binomial(ctx.element_from_index(idx), n).plan
                    h.update((cli._plan_text(plan) + "\n").encode())
                    h.update((json.dumps(cli._plan_json(plan)) + "\n").encode())
                    count += 1
        assert count == 3060
        assert h.hexdigest() == (
            "eeea3f95ed4a4bfb3e37171c30d65180c7ef4aa480c9a488f8e729d7285a8587")

    def test_x_composition_null_order(self):
        code, out = run(Request("compose", field_spec="5", f="x", n=3,
                                output="json"))
        doc = json.loads(out)
        assert doc["factors"] == [
            {"poly": "x", "mult": 3, "degree": 1, "order": None}]


class TestVerifyCommand:
    def test_unity_pass(self):
        code, out = run(Request("verify", field_spec="3", n=8))
        assert code == 0
        assert "PASS product" in out
        assert "PASS oracle: factor multiset vs brute force" in out

    def test_binomial_and_compose_dispatch(self):
        code, out = run(Request("verify", field_spec="5", a="2", n=8))
        assert code == 0 and "PASS oracle" in out
        code, out = run(Request("verify", field_spec="3", f="x^2 + 1", n=4))
        assert code == 0 and "PASS oracle" in out

    def test_oracle_budget_skip(self):
        code, out = run(Request("verify", field_spec="2", n=600))
        assert code == 0
        assert "SKIP oracle: degree 600" in out

    def test_mismatch_exits_one(self, monkeypatch):
        wrong = oracle.brute_factor(Poly.binomial(F3, 4, F3.one()))
        monkeypatch.setattr(cli.oracle, "brute_factor",
                            lambda base, cfg=None: wrong)
        code, out = run(Request("verify", field_spec="3", n=8))
        assert code == 1
        assert "FAIL oracle" in out


class TestSweep:
    def test_small_sweep_json(self):
        code, out = run(Request("sweep", output="json", seed=3, max_n=2))
        assert code == 0
        doc = json.loads(out)
        assert list(doc.keys()) == ["grid", "seed", "count", "failures",
                                    "records"]
        assert doc["grid"] == {"q": [2, 3, 4, 5, 7, 8, 9, 11, 13], "max_n": 2}
        assert doc["seed"] == 3
        assert doc["failures"] == 0
        assert doc["count"] == len(doc["records"])
        assert doc["records"][0] == {"field": "2", "n": 1, "a": "1", "ok": True}
        assert all(r["ok"] for r in doc["records"])

    def test_deterministic(self):
        first = run(Request("sweep", output="json", seed=3, max_n=2))
        second = run(Request("sweep", output="json", seed=3, max_n=2))
        assert first == second

    def test_text_summary(self):
        code, out = run(Request("sweep", seed=0, max_n=1))
        assert code == 0
        assert out == f"sweep: {31 + 20} instances, 0 failures"

    def test_failed_cell_is_counted(self, monkeypatch):
        # an internal fault in one cell fails that cell only: the sweep runs
        # on, counts it and exits 1
        real = cli.factor_binomial

        def faulty(a, n):
            if ff.field_text(a.ctx) == "5" and n == 2 and ff.element_text(a) == "3":
                raise InvariantViolated("forged fault")
            return real(a, n)

        monkeypatch.setattr(cli, "factor_binomial", faulty)
        code, out = run(Request(command="sweep", output="json", max_n=2))
        assert code == 1
        doc = json.loads(out)
        assert doc["failures"] == 1
        bad = [r for r in doc["records"] if not r["ok"]]
        assert bad == [{"field": "5", "n": 2, "a": "3", "ok": False}]
        code, out = run(Request(command="sweep", max_n=2))
        assert code == 1
        assert out.endswith(", 1 failures")


class TestExitCodes:
    def test_parse_errors(self):
        assert run(Request("binomial", field_spec="5", a="z", n=2))[0] == 2
        assert run(Request("unity", field_spec="6", n=2))[0] == 2
        assert run(Request("unity", field_spec="3"))[0] == 2
        assert run(Request("binomial", field_spec="5", n=2))[0] == 2
        assert run(Request("compose", field_spec="5", n=2))[0] == 2

    def test_domain_errors(self):
        assert run(Request("binomial", field_spec="5", a="0", n=3))[0] == 3
        assert run(Request("cyclotomic", field_spec="3", n=6))[0] == 3
        assert run(Request("compose", field_spec="3", f="x^2 + 2", n=2))[0] == 3

    def test_huge_degree_is_a_domain_error(self, monkeypatch):
        def spy(self, p, m, modulus):
            pytest.fail(f"FieldCtx built at degree {m}")

        monkeypatch.setattr(ff.FieldCtx, "__init__", spy)
        code, out = run(Request("unity", field_spec="5^549360", n=3))
        assert code == 3
        assert "MAX_EXTENSION_DEGREE = 2048" in out


class TestMain:
    def test_success_stdout(self, capsys):
        assert main(["cyclotomic", "--field", "3", "--n", "4"]) == 0
        cap = capsys.readouterr()
        assert cap.out.strip() == "x^2 + 1  (degree 2, order 4)"
        assert cap.err == ""

    def test_parse_error_stderr(self, capsys):
        assert main(["binomial", "--field", "5", "--a", "z", "--n", "2"]) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert "parse error" in cap.err

    def test_domain_error_stderr(self, capsys):
        assert main(["cyclotomic", "--field", "3", "--n", "6"]) == 3
        cap = capsys.readouterr()
        assert "domain error" in cap.err

    def test_internal_error_stderr(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise InvariantViolated("spin degree 3 != 2")

        monkeypatch.setattr(cli, "factor_cyclotomic", broken)
        assert main(["cyclotomic", "--field", "3", "--n", "4"]) == 4
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err.strip() == "internal error: spin degree 3 != 2"

    def test_huge_input_degree_fails_fast(self, capsys):
        limit = f"MAX_INPUT_DEGREE = {factor.MAX_INPUT_DEGREE}"
        for argv in (["unity", "--field", "3", "--n", str(2**40)],
                     ["binomial", "--field", "7", "--a", "3", "--n", str(10**12)],
                     ["cyclotomic", "--field", "3", "--n", str(2**40)],
                     ["compose", "--field", "3", "--f", "x^2 + 1",
                      "--n", str(2**40)]):
            assert main(argv) == 3
            cap = capsys.readouterr()
            assert cap.out == ""
            assert limit in cap.err

    def test_cyclotomic_show_plan_prints_no_plan(self, capsys):
        # the factors come from a BinomialPlan of X^n - 1 that is not printed
        for extra in ([], ["--output", "json"]):
            argv = ["cyclotomic", "--field", "11", "--n", "28"] + extra
            assert main(argv) == 0
            plain = capsys.readouterr().out
            assert main(argv + ["--show-plan"]) == 0
            assert capsys.readouterr().out == plain
            assert "plan" not in plain

    def test_usage_error(self, capsys):
        assert main([]) == 2
        assert main(["binomial", "--field", "5"]) == 2
        capsys.readouterr()

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("CYCLOFACTOR_SEED", "7")
        assert main(["sweep", "--max-n", "1", "--output", "json",
                     "--seed", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 7

    def test_env_seed_invalid(self, capsys, monkeypatch):
        monkeypatch.setenv("CYCLOFACTOR_SEED", "xyz")
        assert main(["sweep", "--max-n", "1"]) == 2
        assert "CYCLOFACTOR_SEED" in capsys.readouterr().err

    def test_json_flag(self, capsys):
        assert main(["unity", "--field", "3", "--n", "8",
                     "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["factors"]) == 5
