"""The cyclofactor benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload grid --seed 0 --seconds 3 --trace 0

Run it from the root of a source checkout; the library is imported from
`src`, never from an installed copy.  With `--trace 0` the run measures the
end-to-end metrics; with `--trace 1` it installs the span wrappers and reports
the per-layer metrics instead.  Every output is checked.  The last line of
stdout is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`; the full record, raw samples included, goes to
`perfbench/results/`.  The exit code is 0 only when every op succeeded and
every output was correct.  See perfbench/README.md.
"""

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import queue
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from child import REFERENCE_S, calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
DIGESTS = BENCH / "digests.json"

# fresh processes that each time a cold pass (on cli: `import cyclofactor`);
# setup_s is their median.  A cold grid pass is 25 s of work and a cold
# verify pass 11 s, so those get one within the run's time.
SETUP_PROCESSES = {"grid": 1, "verify": 1, "large_field": 2, "cli": 15}
# the tail percentile of each workload: the highest of p50, p90, p99 with at
# least ten of the warm ops beyond it (cli has ten commands, too few for any)
TAIL_PERCENTILE = {"grid": 99, "verify": 90, "large_field": 90, "cli": 50}
# an op is scaled by the calibrations within this many seconds of it: the
# machine's speed changes within seconds
CAL_WINDOW_S = 0.25
OP_TIMEOUT_S = 60.0  # an op that runs longer is a failure and ends the run
RUN_BUDGET_S = 170.0  # no child is waited for beyond this point of the run

CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]]
                      if os.environ.get("PYTHONPATH") else [])),
    # one thread per process, whatever numpy links against
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class Run:
    """What one run observed: samples, failures and per-process facts."""

    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.attempted = 0
        self.failures = []
        self.setup = []  # (seconds, start, end) of each cold pass or import
        self.import_s = []
        self.warm = {}  # op index -> (ms, end time) of each warm pass
        self.cals = []  # (end time, seconds) of each calibration, in order
        self.passes = []  # (process, pass index, digest, traced)
        self.pass_ms = {}  # (process, pass index) -> summed op latency
        self.traces = []
        self.processes = 0

    def fail(self, why):
        self.failures.append(why)

    def remaining(self):
        return self.deadline - time.perf_counter()

    def calibrate(self):
        self.cals.append((time.perf_counter(), calibrate()))

    def scale(self, start, end):
        """REFERENCE_S over the median calibration time around [start, end].

        The window reaches CAL_WINDOW_S beyond the interval on each side, so
        a short op is scaled by several calibrations, not one noisy sample.
        """
        times = [t for t, _ in self.cals]
        lo = bisect.bisect_left(times, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(times, end + CAL_WINDOW_S)
        near = [s for _, s in self.cals[lo:hi]]
        return REFERENCE_S / statistics.median(near) if near else 1.0


class Child:
    """A child.py process whose JSON-line events are read with a timeout."""

    def __init__(self, cmd):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=CHILD_ENV,
                                     cwd=ROOT, text=True)
        self.lines = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put((time.perf_counter(), line))
        self.lines.put((time.perf_counter(), None))

    def events(self, run):
        """Yield (time, event) until the child ends; a stall kills it."""
        while True:
            wait = min(OP_TIMEOUT_S, run.remaining())
            try:
                stamp, line = self.lines.get(timeout=max(wait, 0.0))
            except queue.Empty:
                self.close()
                run.attempted += 1
                run.fail(f"timeout: no op finished within {wait:.0f} s")
                return
            if line is None:
                return
            yield stamp, json.loads(line)

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.reader.join()
        self.proc.stdout.close()


def child_cmd(run, mode, seconds):
    return [sys.executable, str(BENCH / "child.py"), run.workload,
            str(run.seed), mode, str(seconds)]


def run_child(run, mode, seconds):
    """One child.py process; returns its `done` event, or None if it failed."""
    child = Child(child_cmd(run, mode, seconds))
    proc_no = run.processes
    run.processes += 1
    done = None
    try:
        for stamp, ev in child.events(run):
            if ev["ev"] == "import":
                run.import_s.append(ev["s"])
            elif ev["ev"] == "cal":
                run.cals.append((ev["t"], ev["s"]))
            elif ev["ev"] == "op":
                run.attempted += 1
                key = (proc_no, ev["k"])
                run.pass_ms[key] = run.pass_ms.get(key, 0.0) + ev["ms"]
                if not ev["ok"]:
                    run.fail(f"{mode} pass {ev['k']} op {ev['i']}: {ev['why']}")
                elif ev["k"] > 0 and mode == "warm":
                    run.warm.setdefault(ev["i"], []).append((ev["ms"], ev["t"]))
            elif ev["ev"] == "pass":
                if ev["k"] == 0:
                    run.setup.append(
                        (stamp - child.t0 - ev["bench_s"], child.t0, stamp))
                run.passes.append((proc_no, ev["k"], ev["digest"], ev["traced"]))
            elif ev["ev"] == "done":
                done = ev
    finally:
        child.close()
    if done is None and child.proc.returncode != -9:
        run.fail(f"{mode} child ended early with code {child.proc.returncode}")
    return done


def check_digests(run, digests):
    """All cold passes share one digest, the recorded one if there is one,
    and all warm passes share one; traced or not."""
    cold = {d for _, k, d, _ in run.passes if k == 0}
    warm = {d for _, k, d, _ in run.passes if k > 0}
    for name, seen in (("cold", cold), ("warm", warm)):
        if len(seen) > 1:
            run.fail(f"{name} pass digests differ: {sorted(seen)}")
    want = digests.get(run.workload) if run.seed == workloads.DEFAULT_SEED else None
    if want is not None and cold and cold != {want}:
        run.fail(f"cold pass digest {sorted(cold)} != recorded {want}")


# -- the cli workload: every op is a fresh `python -m cyclofactor.cli` ----------

def time_imports(run, count):
    """Seconds `import cyclofactor` takes in each of `count` fresh processes."""
    code = ("import time; t = time.perf_counter(); import cyclofactor; "
            "print(time.perf_counter() - t)")
    for _ in range(count):
        run.calibrate()
        start = time.perf_counter()
        res = subprocess.run([sys.executable, "-c", code], env=CHILD_ENV,
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=OP_TIMEOUT_S)
        run.attempted += 1
        if res.returncode != 0:
            run.fail(f"import cyclofactor failed: {res.stderr.strip()}")
        else:
            run.setup.append((float(res.stdout), start, time.perf_counter()))
    run.calibrate()


def cli_call(run, argv, traced):
    """Wall seconds, exit code, stdout and span record of one CLI process."""
    if traced:
        rfd, wfd = os.pipe()
        cmd = [sys.executable, str(BENCH / "child.py"), "cli", str(wfd), *argv]
        fds = (wfd,)
    else:
        cmd = [sys.executable, "-m", "cyclofactor.cli", *argv]
        fds = ()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=CHILD_ENV, cwd=ROOT, text=True, pass_fds=fds)
    if traced:
        os.close(wfd)
    try:
        out, err = proc.communicate(timeout=min(OP_TIMEOUT_S, run.remaining()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        out, err = None, "timeout"
    wall = time.perf_counter() - t0
    record = None
    if traced:
        with os.fdopen(rfd) as fh:
            text = fh.read()
        record = json.loads(text) if text else None
    return wall, proc.returncode, out, err, record


def _cyclotomic(ctx, n, memo):
    """Phi_n as X^n - 1 divided by Phi_d for every proper divisor d."""
    from cyclofactor.poly import Poly

    if n not in memo:
        f = Poly.binomial(ctx, n, 1)
        for d in range(1, n):
            if n % d == 0:
                f = f // _cyclotomic(ctx, d, memo)
        memo[n] = f
    return memo[n]


def _poly_product(polys):
    out = None
    for f, mult in polys:
        for _ in range(mult):
            out = f if out is None else out * f
    return out


def check_cli_output(argv, code, out):
    """Why the CLI output is wrong, or None: factors must multiply back."""
    from cyclofactor import ff
    from cyclofactor.poly import Poly, parse_poly

    if code != 0:
        return f"exit code {code}"
    opts = dict(zip(argv[1::2], argv[2::2]))
    cmd, n = argv[0], int(opts["--n"])
    ctx = ff.parse_field(opts["--field"])
    if cmd == "verify":
        lines = out.splitlines()
        ok = lines and all(l.startswith(("PASS", "SKIP")) for l in lines)
        return None if ok else "verify reported a failure"
    if "--output" in opts:
        factors = [(f["poly"], f["mult"], f["degree"])
                   for f in json.loads(out)["factors"]]
    else:
        factors = []
        for line in out.splitlines():
            if line.startswith(("plan:", "inner:")):
                continue
            text, _, attrs = line.partition("  (")
            bits = dict(b.split(" ") for b in attrs.rstrip(")").split(", "))
            factors.append((text, int(bits.get("multiplicity", 1)),
                            int(bits["degree"])))
    polys = [(parse_poly(ctx, t), m) for t, m, _ in factors]
    if any(f.degree != d for (f, _), (_, _, d) in zip(polys, factors)):
        return "a declared degree differs from the factor's degree"
    if cmd == "binomial":
        base = Poly.binomial(ctx, n, ff.parse_element(ctx, opts["--a"]))
    elif cmd == "unity":
        base = Poly.binomial(ctx, n, 1)
    elif cmd == "cyclotomic":
        base = _cyclotomic(ctx, n, {})
    else:
        f = parse_poly(ctx, opts["--f"])
        coeffs = [ctx.zero()] * (f.degree * n + 1)
        for i in range(f.degree + 1):
            coeffs[i * n] = f.coeff(i)
        base = Poly.from_coeffs(ctx, coeffs)
    return None if _poly_product(polys) == base else "factors do not multiply back"


def run_cli(run, seconds, traced, digests):
    """Closed loop of CLI processes in whole passes over the command mix.

    Traced: one pass, each command once untraced and once under the span
    wrappers; returns the traced-to-untraced wall time ratio.
    """
    ops = [list(spec[1:]) for spec in workloads.ops_for("cli", run.seed)]
    if not traced:
        time_imports(run, SETUP_PROCESSES["cli"])
    first = {}
    untraced_s = traced_s = 0.0
    start, k = time.perf_counter(), 0
    while True:
        digest = hashlib.sha256()
        for i, argv in enumerate(ops):
            if run.remaining() <= 0:
                run.fail("the run's time budget ended inside a pass")
                return None
            run.calibrate()
            wall, code, out, err, _ = cli_call(run, argv, False)
            run.attempted += 1
            if out is None:
                run.fail(f"pass {k} op {i}: timeout")
                return None
            if k == 0:
                first[i] = (code, out)
                why = check_cli_output(argv, code, out)
            else:
                why = None if (code, out) == first[i] else "differs from pass 0"
            if why:
                run.fail(f"pass {k} op {i} {' '.join(argv)}: {why}; {err!r}")
            else:
                run.warm.setdefault(i, []).append(
                    (wall * 1000, time.perf_counter()))
            untraced_s += wall
            if traced:
                t_wall, t_code, t_out, _, record = cli_call(run, argv, True)
                run.attempted += 1
                traced_s += t_wall
                if (t_code, t_out) != (code, out) or record is None:
                    run.fail(f"op {i}: traced output differs from untraced")
                else:
                    run.import_s.append(record["import_s"])
                    run.traces.append(record["trace"])
            digest.update(hashlib.sha256(
                json.dumps([argv, code, out]).encode()).digest())
        run.passes.append((0, k, digest.hexdigest(), traced))
        run.calibrate()
        k += 1
        if traced or (k >= workloads.MIN_WARM_PASSES
                      and time.perf_counter() - start >= seconds):
            break
    check_digests(run, digests)
    return traced_s / untraced_s if traced else None


# -- metrics ----------------------------------------------------------------------

def tail(samples, percentile):
    """Nearest-rank percentile value and how many samples lie beyond it."""
    ordered = sorted(samples)
    idx = max(math.ceil(percentile / 100 * len(ordered)) - 1, 0)
    return ordered[idx], len(ordered) - idx - 1


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def end_to_end(run, scaled=True):
    """The metrics; an op's warm latency is its median over the warm passes.

    Each time is scaled to the reference speed (see child.py) measured around
    it, unless `scaled` is false.
    """
    def scale(start, end):
        return run.scale(start, end) if scaled else 1.0

    setup = [s * scale(a, b) for s, a, b in run.setup] or [0.0]
    warm = [statistics.median(ms * scale(t - ms / 1000, t) for ms, t in v)
            for v in run.warm.values()] or [0.0]
    pct = TAIL_PERCENTILE[run.workload]
    tail_ms, beyond = tail(warm, pct)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (1000 * len(warm) / sum(warm) if sum(warm) else 0.0, "1/s"),
        "op_p50_ms": (statistics.median(warm), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    facts = {"tail_percentile": pct, "tail_samples_beyond": beyond,
             "warm_ops": len(run.warm),
             "warm_passes": max(map(len, run.warm.values()), default=0)}
    return metrics, facts


def merge_traces(traces):
    """Sum span aggregates over several traced processes."""
    merged = {"spans": {}, "counts": {}, "caches": {}}
    for tr in traces:
        for name, s in tr["spans"].items():
            m = merged["spans"].setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0,
                       "out_degree": 0, "kernels": {}})
            for key in ("calls", "total_s", "self_s", "errors", "out_degree"):
                m[key] += s[key]
            for kname, c in s["kernels"].items():
                m["kernels"][kname] = m["kernels"].get(kname, 0) + c
        for name, c in tr["counts"].items():
            merged["counts"][name] = merged["counts"].get(name, 0) + c
        for name, c in tr["caches"].items():
            m = merged["caches"].setdefault(name, {"hits": 0, "misses": 0})
            m["hits"] += c["hits"]
            m["misses"] += c["misses"]
    return merged


def per_layer(trace, import_s, overhead):
    """The per-layer metrics; a layer the run never entered reads 0."""
    spans, counts, caches = trace["spans"], trace["counts"], trace["caches"]

    def span(name):
        return spans.get(name, {"calls": 0, "self_s": 0.0, "errors": 0,
                                "out_degree": 0, "kernels": {}})

    def hit_ratio(name):
        c = caches.get(name, {"hits": 0, "misses": 0})
        total = c["hits"] + c["misses"]
        return (c["hits"] / total if total else 0.0, "ratio")

    def calls(name):
        return (span(name)["calls"], "count")

    def self_s(name):
        return (span(name)["self_s"], "s")

    def count(name):
        return (counts.get(name, 0), "count")

    return {
        "numth.factorize.calls": calls("numth.factorize"),
        "numth.factorize.self_s": self_s("numth.factorize"),
        "numth.factorize.hit_ratio": hit_ratio("numth.factorize"),
        "numth.factored_power_minus_one.self_s":
            self_s("numth.factored_power_minus_one"),
        "numth.factored_power_minus_one.hit_ratio":
            hit_ratio("numth.factored_power_minus_one"),
        "numth.ord_mod.calls": count("numth.ord_mod"),
        "numth.coset_table.self_s": self_s("numth.coset_table"),
        "ff.make_extension.calls": calls("ff.make_extension"),
        "ff.make_extension.self_s": self_s("ff.make_extension"),
        "ff.make_extension.fields_built": count("ff.fields_built"),
        "ff.generator.self_s": self_s("ff.generator"),
        "ff.generator.vpow_calls":
            (span("ff.generator")["kernels"].get("ff.vpow", 0), "count"),
        "ff.embed.calls": calls("ff.embed"),
        "ff.embed.self_s": self_s("ff.embed"),
        "ff.primitive_root_of_unity.self_s":
            self_s("ff.primitive_root_of_unity"),
        "ff.primitive_root_of_unity.hit_ratio":
            hit_ratio("ff.primitive_root_of_unity"),
        "ff.dth_root.self_s": self_s("ff.dth_root"),
        "ff.dth_root.hit_ratio": hit_ratio("ff.dth_root"),
        "ff.element_order.self_s": self_s("ff.element_order"),
        "ff.vmul.calls": count("ff.vmul"),
        "ff.vpow.calls": count("ff.vpow"),
        "poly.q_spin.calls": calls("poly.q_spin"),
        "poly.q_spin.self_s": self_s("poly.q_spin"),
        "poly.q_spin.out_degree": (span("poly.q_spin")["out_degree"], "count"),
        "poly.Poly.mul.calls": count("poly.Poly.mul"),
        "poly.QuotientRing.mul.calls": count("poly.QuotientRing.mul"),
        "poly.rabin_irreducible.self_s": self_s("poly.rabin_irreducible"),
        "poly.Factorization.product.self_s":
            self_s("poly.Factorization.product"),
        "factor.factor_binomial.self_s": self_s("factor.factor_binomial"),
        "factor.factor_composition.self_s": self_s("factor.factor_composition"),
        "factor.verify.self_s": self_s("factor.verify"),
        "oracle.brute_factor.calls": calls("oracle.brute_factor"),
        "oracle.brute_factor.self_s": self_s("oracle.brute_factor"),
        "cli.import_s": (statistics.median(import_s) if import_s else 0.0, "s"),
        "cli.run.self_s": self_s("cli.run"),
        "trace.overhead_ratio": (overhead or 0.0, "ratio"),
        "trace.errors": (sum(s["errors"] for s in spans.values()), "count"),
    }


# -- provenance -------------------------------------------------------------------

def provenance():
    def git(*args):
        res = subprocess.run(["git", "-C", str(ROOT), *args],
                             capture_output=True, text=True)
        return res.stdout.strip() if res.returncode == 0 else None

    sha = dirty = None
    if (ROOT / ".git").exists():
        sha = git("rev-parse", "HEAD")
        status = git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    try:
        from importlib.metadata import version
        numpy_version = version("numpy")
    except ImportError:
        numpy_version = None
    return {"git_sha": sha, "git_dirty": dirty,
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def report(run, args, metrics, facts, trace, raw=None):
    """Print the summary and the result line, and write the full record."""
    failed = len(run.failures)
    attempted = max(run.attempted, 1)
    correct = failed == 0
    for name, (value, unit) in metrics.items():
        unscaled = f" (unscaled {raw[name][0]:.6g})" if raw else ""
        print(f"{run.workload} {name} = {value:.6g} {unit}{unscaled}")
    print(f"{run.workload} failed_ratio = {failed / attempted:.6g} fraction"
          f" ({failed} of {attempted} ops)")
    if "tail_percentile" in facts:
        print(f"{run.workload} op_tail_ms is p{facts['tail_percentile']} with"
              f" {facts['tail_samples_beyond']} of {facts['warm_ops']} warm ops"
              f" beyond it; each op's median of {facts['warm_passes']} passes")
    print(f"{run.workload} waited: not measured; no op waits on a queue or lock")
    for why in run.failures[:20]:
        print(f"FAILED {why}")
    record = {
        "workload": run.workload, "seed": run.seed, "seconds": args.seconds,
        "trace": args.trace, **provenance(),
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted, "failures": run.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "unscaled_metrics": raw and {k: v for k, (v, _) in raw.items()},
        "reference_s": REFERENCE_S, **facts,
        "samples": {"setup": run.setup, "import_s": run.import_s,
                    "warm_ms_and_end": run.warm, "calibrations": run.cals,
                    "pass_ms": [[p, k, ms] for (p, k), ms in run.pass_ms.items()]},
        "digests": [{"process": p, "pass": k, "digest": d, "traced": t}
                    for p, k, d, t in run.passes],
        "spans": trace,
    }
    RESULTS.mkdir(exist_ok=True)
    name = f"{run.workload}-seed{run.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "cyclofactor" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the output checks use the library too

    run = Run(args.workload, args.seed, time.perf_counter() + RUN_BUDGET_S)
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    if args.workload == "cli":
        overhead = run_cli(run, args.seconds, bool(args.trace), digests)
        trace = merge_traces(run.traces) if run.traces else None
    elif args.trace:
        done = run_child(run, "traced", args.seconds)
        check_digests(run, digests)
        trace = done["trace"] if done else None
        untraced, traced = run.pass_ms.get((0, 1)), run.pass_ms.get((0, 2))
        overhead = traced / untraced if traced and untraced else None
    else:
        overhead = trace = None
        for _ in range(SETUP_PROCESSES[args.workload] - 1):
            run_child(run, "cold", args.seconds)
        run_child(run, "warm", args.seconds)
        check_digests(run, digests)
    if args.trace:
        if trace is None:
            run.fail("the traced run produced no spans")
            trace = merge_traces([])
        return report(run, args, per_layer(trace, run.import_s, overhead), {},
                      trace)
    metrics, facts = end_to_end(run)
    raw, _ = end_to_end(run, scaled=False)
    return report(run, args, metrics, facts, None, raw)


if __name__ == "__main__":
    sys.exit(main())
