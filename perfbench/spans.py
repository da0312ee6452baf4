"""Span recorder that wraps the library's public functions from outside.

A `Tracer` replaces each target with a wrapper wherever the target is looked
up: on its class for methods, and in every loaded `cyclofactor` module that
holds the same object, because modules import names such as `q_spin` directly.
`uninstall` puts the original objects back, so an untraced phase runs the
library's own code.

Timed targets become spans.  A span's self time is its duration minus the
time its child spans cover.  Counted targets (the vector kernels and the ring
products) are not timed: each call adds one to a total and one to the span
that encloses it.  Spans are aggregated in memory per name and read out once
with `snapshot()`.
"""

import importlib
import sys
import time

# (module, attribute, metric name); timed targets become spans
TIMED = (
    ("numth", "factorize", "numth.factorize"),
    ("numth", "factored_power_minus_one", "numth.factored_power_minus_one"),
    ("numth", "coset_table", "numth.coset_table"),
    ("ff", "make_extension", "ff.make_extension"),
    ("ff", "FieldCtx.generator", "ff.generator"),
    ("ff", "embed", "ff.embed"),
    ("ff", "primitive_root_of_unity", "ff.primitive_root_of_unity"),
    ("ff", "dth_root", "ff.dth_root"),
    ("ff", "element_order", "ff.element_order"),
    ("poly", "q_spin", "poly.q_spin"),
    ("poly", "rabin_irreducible", "poly.rabin_irreducible"),
    ("poly", "Factorization.product", "poly.Factorization.product"),
    ("factor", "factor_binomial", "factor.factor_binomial"),
    ("factor", "factor_composition", "factor.factor_composition"),
    ("factor", "verify", "factor.verify"),
    ("oracle", "brute_factor", "oracle.brute_factor"),
    ("cli", "run", "cli.run"),
)

COUNTED = (
    ("numth", "ord_mod", "numth.ord_mod"),
    ("ff", "FieldCtx.vmul", "ff.vmul"),
    ("ff", "FieldCtx.vpow", "ff.vpow"),
    ("ff", "FieldCtx.__init__", "ff.fields_built"),
    ("poly", "Poly.__mul__", "poly.Poly.mul"),
    ("poly", "QuotientRing.mul", "poly.QuotientRing.mul"),
)

ROOT = "(outside spans)"


class _Agg:
    __slots__ = ("calls", "total", "self_time", "errors", "out_degree",
                 "kernels")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.errors = 0
        self.out_degree = 0
        self.kernels = {}


def _resolve(module, attr):
    mod = importlib.import_module(f"cyclofactor.{module}")
    owner, _, name = attr.rpartition(".")
    return (getattr(mod, owner) if owner else mod), name


class Tracer:
    def __init__(self):
        self.aggs = {}
        self.counts = {name: 0 for _, _, name in COUNTED}
        self._stack = []  # [agg, child seconds] per open span
        self._root = _Agg()
        self._patches = []  # (owner, attribute, original, wrapper)
        self._caches = {}  # metric name -> lru_cache'd original
        self._cache_delta = {}  # metric name -> [hits, misses]
        for targets, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for module, attr, name in targets:
                owner, key = _resolve(module, attr)
                original = owner.__dict__[key]
                self._plan(owner, key, original, make(name, original))
        self._installed = False
        self._cache_mark = None

    def _plan(self, owner, key, original, wrapper):
        if isinstance(owner, type):
            self._patches.append((owner, key, original, wrapper))
            return
        # module-level function: patch every cyclofactor module that holds it
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "cyclofactor" or mod is None:
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original, wrapper))

    def _timed(self, name, original):
        fn = original.fget if isinstance(original, property) else original
        if hasattr(fn, "cache_info"):
            self._caches[name] = fn
            self._cache_delta[name] = [0, 0]
        agg = self.aggs.setdefault(name, _Agg())
        stack = self._stack
        clock = time.perf_counter
        with_degree = name == "poly.q_spin"

        def wrapper(*args, **kwargs):
            frame = [agg, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                agg.errors += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                agg.calls += 1
                agg.total += dt
                agg.self_time += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if with_degree:
                agg.out_degree += out.degree
            return out

        return property(wrapper) if isinstance(original, property) else wrapper

    def _counted(self, name, fn):
        counts = self.counts
        stack = self._stack
        root = self._root

        def wrapper(*args, **kwargs):
            counts[name] += 1
            kernels = (stack[-1][0] if stack else root).kernels
            kernels[name] = kernels.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        if self._installed:
            return
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._cache_mark = {n: f.cache_info() for n, f in self._caches.items()}
        self._installed = True

    def uninstall(self):
        if not self._installed:
            return
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        for n, f in self._caches.items():
            now, then = f.cache_info(), self._cache_mark[n]
            self._cache_delta[n][0] += now.hits - then.hits
            self._cache_delta[n][1] += now.misses - then.misses
        self._installed = False

    def snapshot(self):
        """Plain-data view of every span aggregate, counter and cache delta."""
        spans = {}
        for name, agg in [*self.aggs.items(), (ROOT, self._root)]:
            spans[name] = {
                "calls": agg.calls,
                "total_s": agg.total,
                "self_s": agg.self_time,
                "errors": agg.errors,
                "out_degree": agg.out_degree,
                "kernels": dict(agg.kernels),
            }
        return {
            "spans": spans,
            "counts": dict(self.counts),
            "caches": {n: {"hits": h, "misses": m}
                       for n, (h, m) in self._cache_delta.items()},
        }
