"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They check the harness, not the library: inputs are a function of the seed,
the output gates catch an altered factor, the span wrappers change no output,
and the names the benchmark prints are the ones BENCHMARK.json declares.
"""

import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from cyclofactor import ff, poly  # noqa: E402
from cyclofactor.factor import factor_binomial  # noqa: E402
from cyclofactor.poly import Factorization, Poly  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    assert workloads.ops_for(workload, 3) == workloads.ops_for(workload, 3)
    assert workloads.ops_for(workload, 3) != workloads.ops_for(workload, 4)
    for spec in workloads.ops_for(workload, 3):
        assert all(isinstance(x, (int, str, tuple)) for x in spec)


def test_grid_at_the_default_seed_is_the_acceptance_grid():
    ops = workloads.ops_for("grid", workloads.DEFAULT_SEED)
    assert len(ops) == 3060
    assert {(q, n) for _, q, n, _ in ops} == {
        (q, n) for q in workloads.GRID_Q for n in range(1, 61)}


def test_generated_compositions_are_irreducible():
    ctx = ff.parse_field("9")
    fs = [spec[3] for seed in (0, 1)
          for spec in workloads.ops_for("verify", seed)
          if spec[0] == "verify_compose"]
    for coeffs in fs:
        f = Poly.from_coeffs(ctx, [ctx.element_from_index(i) for i in coeffs])
        assert poly.rabin_irreducible(f), coeffs


def test_cli_text_round_trips_through_the_library_parsers():
    for seed in range(5):
        for _, *argv in workloads.ops_for("cli", seed):
            opts = dict(zip(argv[1::2], argv[2::2]))
            ctx = ff.parse_field(opts["--field"])
            if "--a" in opts:
                assert not ff.parse_element(ctx, opts["--a"]).is_zero()
            if "--f" in opts:
                f = poly.parse_poly(ctx, opts["--f"])
                assert poly.poly_text(f) == opts["--f"]
                assert poly.rabin_irreducible(f)


def _altered(fz, **change):
    first = fz.factors[0]._replace(**change)
    return Factorization(fz.base, [first, *fz.factors[1:]], plan=fz.plan)


def test_an_altered_factor_trips_the_gates():
    ctx = ff.parse_field("9")
    fz = factor_binomial(ctx.element_from_index(4), 10)
    assert child.structure_ok(fz)
    # a wrong coefficient fails the product check
    bumped = fz.factors[0].poly + Poly.one(ctx)
    assert not child.structure_ok(_altered(fz, poly=bumped))
    # a wrong order still multiplies back: only the digest catches it
    wrong_order = _altered(fz, order=fz.factors[0].order + 1)
    assert child.structure_ok(wrong_order)
    assert child.canonical(wrong_order) != child.canonical(fz)

    def digest(f):  # of a pass with this one op
        return hashlib.sha256(child.output_hash(f)).hexdigest()

    bench = run.Run("verify", workloads.DEFAULT_SEED, deadline=0)
    bench.passes.append((0, 0, digest(wrong_order), False))
    run.check_digests(bench, {"verify": digest(fz)})
    assert bench.failures and "recorded" in bench.failures[0]


def test_a_wrong_recorded_digest_fails_the_run(monkeypatch, tmp_path, capsys):
    wrong = tmp_path / "digests.json"
    wrong.write_text(json.dumps({"cli": "0" * 64}))
    monkeypatch.setattr(run, "DIGESTS", wrong)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    monkeypatch.setitem(run.SETUP_PROCESSES, "cli", 1)
    code = run.main(["--workload", "cli", "--seed", str(workloads.DEFAULT_SEED),
                     "--seconds", "0", "--trace", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["failed"] >= 1


def test_a_stalled_op_is_a_timeout_failure(monkeypatch):
    op = {"ev": "op", "k": 0, "ms": 1.0, "t": 0.0, "ok": True, "why": None}
    script = ("import json, time\n"
              f"for i in range(2): print(json.dumps({{**{op!r}, 'i': i}}),"
              " flush=True)\n"
              "time.sleep(60)\n")
    monkeypatch.setattr(run, "child_cmd", lambda *_: [sys.executable, "-c", script])
    monkeypatch.setattr(run, "OP_TIMEOUT_S", 1.0)
    bench = run.Run("grid", 0, deadline=time.perf_counter() + 30)
    start = time.perf_counter()
    assert run.run_child(bench, "warm", 1) is None
    assert time.perf_counter() - start < 10
    assert bench.attempted == 3  # the two finished ops and the stalled one
    assert len(bench.failures) == 1 and bench.failures[0].startswith("timeout")


def test_wrappers_leave_outputs_byte_identical():
    specs = (workloads.ops_for("grid", 0)[2000:2040]
             + workloads.ops_for("verify", 0)[::40])
    ops = [child.bind(spec) for spec in specs]
    plain = [child.canonical(op()[0]) for op in ops]
    tracer = spans.Tracer()
    originals = [(owner, attr, original)
                 for owner, attr, original, _ in tracer._patches]
    tracer.install()
    try:
        traced = [op() for op in ops]
    finally:
        tracer.uninstall()
    assert [child.canonical(fz) for fz, _ in traced] == plain
    assert all(ok for _, ok in traced)
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original
    snap = tracer.snapshot()
    assert snap["spans"]["factor.factor_binomial"]["calls"] >= 40
    assert snap["spans"]["oracle.brute_factor"]["calls"] == len(specs) - 40
    assert snap["counts"]["ff.vmul"] > 0


def test_wrappers_reach_names_imported_elsewhere():
    from cyclofactor import factor
    original = poly.q_spin
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert factor.q_spin is poly.q_spin is not original
    finally:
        tracer.uninstall()
    assert factor.q_spin is poly.q_spin is original


def test_printed_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    bench = run.Run("grid", 0, deadline=0)
    bench.setup = [(1.0, 0.0, 1.0)]
    bench.warm = {0: [(1.0, 1.0), (3.0, 2.0)], 1: [(2.0, 3.0)]}
    metrics, _ = run.end_to_end(bench)
    assert {k: u for k, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = run.per_layer(spans.Tracer().snapshot(), [0.1], 1.0)
    assert {k: u for k, (_, u) in layer.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_tail_is_nearest_rank_with_samples_beyond():
    samples = list(range(1, 101))
    assert run.tail(samples, 90) == (90, 10)
    assert run.tail(samples, 50) == (50, 50)


def test_without_the_library_the_command_fails(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""
