"""One benchmark process: runs a workload's ops in a closed loop.

    python3 perfbench/child.py <workload> <seed> <mode> <seconds>

with the library's `src` directory on PYTHONPATH.  Modes:

  cold    one cold pass, then exit
  warm    one cold pass, then whole warm passes over the workload's warm
          ops, at least MIN_WARM_PASSES and until `seconds` have passed
  traced  one cold pass with the span wrappers installed, then one warm
          pass that runs each warm op untraced and then traced

The process reports to stdout, one JSON object per line: the import time,
every op's latency, end time and outcome, each pass's output digest and the
time the harness itself spent in it (hashing, checks, calibrations), every
calibration, and at the end, when traced, the span aggregates.  An op's latency
covers only the library call; building its inputs, hashing its output and
checking it happen outside the timed region.

    python3 perfbench/child.py cli <fd> <cyclofactor cli arguments...>

runs one CLI call with the span wrappers installed, exactly as
`python -m cyclofactor.cli` would, and writes its import time and span
aggregates as JSON to the inherited file descriptor fd.
"""

import hashlib
import json
import os
import sys
import time

import workloads

# A shared host's speed drifts by up to 1.8x within seconds.  A fixed
# calibration kernel, run between ops about every CAL_EVERY_S, measures that
# speed alongside the ops; run.py scales each time to the speed at which one
# calibration takes REFERENCE_S.
CAL_EVERY_S = 0.2
REFERENCE_S = 0.0025


def calibrate():
    """Seconds one run of a fixed mix of small numpy calls and Python takes."""
    import numpy as np  # here, so that it never precedes the timed import

    a = np.arange(1, 6, dtype=np.int64)
    b = a + 1
    acc = 0
    t = time.perf_counter()
    for i in range(600):
        a = np.convolve(a, b)[:5] % 7 + 1
        for j in range(24):
            acc += i * j % 7
    return time.perf_counter() - t


def _emit(**event):
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


def canonical(fz):
    """Canonical text of a factorization: one line per factor."""
    from cyclofactor.poly import poly_text
    return "\n".join(f"{poly_text(e.poly)};{e.mult};{e.degree};{e.order}"
                     for e in fz)


def output_hash(fz, why=None):
    """Digest of an op's canonical output, or of its error when it raised."""
    text = canonical(fz) if fz is not None else f"error {why}"
    return hashlib.sha256(text.encode()).digest()


def structure_ok(fz):
    """Factors multiply back to the input and their degrees add up."""
    return (fz.product() == fz.base
            and all(e.degree == e.poly.degree for e in fz)
            and sum(e.degree * e.mult for e in fz) == fz.base.degree)


def bind(spec):
    """Callable for one op spec; returns (factorization, verified)."""
    from cyclofactor import factor, ff, oracle
    from cyclofactor.poly import Poly

    kind, q, n, arg = spec
    ctx = ff.parse_field(str(q))
    if kind == "binomial":
        a = ctx.element_from_index(arg)
        return lambda: (factor.factor_binomial(a, n), True)
    if kind == "verify_binomial":
        a = ctx.element_from_index(arg)
        make = lambda: factor.factor_binomial(a, n)  # noqa: E731
    elif kind == "verify_compose":
        f = Poly.from_coeffs(ctx, [ctx.element_from_index(i) for i in arg])
        make = lambda: factor.factor_composition(f, n)  # noqa: E731
    else:
        raise ValueError(f"unknown op kind {kind!r}")

    def verified():
        # what `cyclofactor verify` does: verify(), then the oracle multiset
        fz = make()
        report = factor.verify(fz)
        same = fz.multiset() == oracle.brute_factor(fz.base).multiset()
        return fz, report.passed and same

    return verified


def run_workload(workload, seed, mode, seconds):
    t0 = time.perf_counter()
    import cyclofactor  # noqa: F401
    _emit(ev="import", s=time.perf_counter() - t0)

    tracer = None
    if mode == "traced":
        import spans
        tracer = spans.Tracer()
        tracer.install()
    ops = [bind(spec) for spec in workloads.ops_for(workload, seed)]
    if tracer:
        tracer.uninstall()

    cold_hashes = []
    digests = {}
    last_cal = 0.0
    bench_s = 0.0  # the harness's own time in the current pass

    def calibrate_if_due(force=False):
        nonlocal last_cal, bench_s
        t = time.perf_counter()
        if force or t - last_cal >= CAL_EVERY_S:
            dt = calibrate()
            last_cal = time.perf_counter()
            _emit(ev="cal", t=last_cal, s=dt)
            bench_s += last_cal - t

    def timed(op, traced):
        calibrate_if_due()
        if traced:
            tracer.install()
        t = time.perf_counter()
        try:
            fz, ok = op()
            why = None if ok else "verify or oracle check failed"
        except Exception as exc:  # an op that raises is a failure
            fz, why = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if traced:
            tracer.uninstall()
        return fz, why, end - t, end

    def finish(k, i, fz, why, dt, end):
        """Hash and check an op's output outside the timed region."""
        nonlocal bench_s
        t = time.perf_counter()
        h = output_hash(fz, why)
        if k == 0:
            cold_hashes.append(h)
            if why is None and not structure_ok(fz):
                why = "factors do not multiply back to the input"
        elif why is None and h != cold_hashes[i]:
            why = "output differs from the cold pass"
        digests.setdefault(k, hashlib.sha256()).update(h)
        _emit(ev="op", k=k, i=i, ms=dt * 1000, t=end, ok=why is None,
              why=why)
        bench_s += time.perf_counter() - t

    def end_pass(k, traced):
        nonlocal bench_s
        _emit(ev="pass", k=k, digest=digests.pop(k).hexdigest(), traced=traced,
              bench_s=bench_s)
        bench_s = 0.0
        calibrate_if_due(force=True)

    calibrate_if_due(force=True)
    traced = mode == "traced"
    for i, op in enumerate(ops):
        finish(0, i, *timed(op, traced))
    end_pass(0, traced)
    warm = list(enumerate(ops))[::workloads.WARM_STRIDE[workload]]
    if traced:
        # each op untraced (pass 1), then traced (pass 2): slow drifts of the
        # machine's speed fall on both sides of the overhead ratio alike
        for i, op in warm:
            finish(1, i, *timed(op, False))
            finish(2, i, *timed(op, True))
        end_pass(1, False)
        end_pass(2, True)
    elif mode == "warm":
        start, k = time.perf_counter(), 1
        while (k <= workloads.MIN_WARM_PASSES
               or time.perf_counter() - start < seconds):
            for i, op in warm:
                finish(k, i, *timed(op, False))
            end_pass(k, False)
            k += 1
    _emit(ev="done", trace=tracer.snapshot() if tracer else None)


def run_traced_cli(fd, argv):
    t0 = time.perf_counter()
    import cyclofactor.cli
    import_s = time.perf_counter() - t0
    import spans
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cyclofactor.cli.main(argv)
    finally:
        tracer.uninstall()
    with os.fdopen(fd, "w") as out:
        json.dump({"import_s": import_s, "trace": tracer.snapshot()}, out)
    return code


def main(argv):
    if argv[0] == "cli":
        return run_traced_cli(int(argv[1]), argv[2:])
    workload, seed, mode, seconds = argv
    run_workload(workload, int(seed), mode, float(seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
