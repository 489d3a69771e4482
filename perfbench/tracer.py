"""Span tracer wrapped around eulerlab's public functions from outside.

``Tracer.install()`` replaces each traced function by a wrapper under
every name that binds it: the defining module, each eulerlab module that
imported it (``checks.eulerian_st``, ``symmetry.trivariate``, ...), the
package namespace and the ``CHECKS`` table.  Methods are replaced on
their class.  ``uninstall()`` puts every original back.

A span is ``[name id, start, end, parent span, op id]``; spans stay in
memory until ``dump()``.  Hot functions that only need a call count
(``perms.stats``, ``perms.inverse``) get a counting wrapper, no span.
``aggregate()`` turns dumps into the per-layer metrics: ``busy_s`` is
the summed duration of spans not nested in a span of the same name,
``self_s`` is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from math import factorial

from workloads import SUITES

# builders of the distributions layer; all but xi_transposed are cached
_BUILDERS = ("eulerian_st", "classic_eulerian", "derangement_poly",
             "trivariate", "derangement_lhs", "xi", "xi_transposed")

# (module, attribute or Class.method, span name)
_SPANS = (
    ("mpoly", "MPoly.__mul__", "mpoly.mul"),
    ("mpoly", "MPoly.__rmul__", "mpoly.mul"),
    ("mpoly", "exact_divide", "mpoly.exact_divide"),
    ("mpoly", "MPoly.subs", "mpoly.subs"),
    ("mpoly", "MPoly.dumps", "mpoly.serialize"),
    ("mpoly", "MPoly.text", "mpoly.serialize"),
    ("mpoly", "MPoly.latex", "mpoly.serialize"),
    ("detformula", "det_bareiss", "detformula.det_bareiss"),
    ("detformula", "reconstruct_a", "detformula.reconstruct_a"),
    ("series", "USeries.__mul__", "series.mul"),
    ("series", "USeries.inverse", "series.inverse"),
    ("univariate", "poly_gcd", "univariate.poly_gcd"),
    ("gfengine", "verify_foata", "gfengine.verify_foata"),
    ("gfengine", "binom_resum", "gfengine.binom_resum"),
    ("symmetry", "sym_decompose", "symmetry.sym_decompose"),
    ("symmetry", "gamma_expand", "symmetry.gamma_expand"),
    ("symmetry", "conjecture_scan", "symmetry.conjecture_scan"),
)

_COUNTS = (("perms", "stats", "perms.stats.calls"),
           ("perms", "inverse", "perms.inverse.calls"))

#: per-layer metrics in report order, with units
LAYER_METRICS = (
    ("distributions.build.calls", "count"),
    ("distributions.build.busy_s", "s"),
    ("distributions.perms_folded", "count"),
    ("distributions.perms_per_s", "1/s"),
    ("distributions.cache_hit_ratio", "ratio"),
    ("perms.stats.calls", "count"),
    ("perms.inverse.calls", "count"),
    ("mpoly.mul.calls", "count"),
    ("mpoly.mul.self_s", "s"),
    ("mpoly.mul.term_products", "count"),
    ("mpoly.exact_divide.calls", "count"),
    ("mpoly.exact_divide.self_s", "s"),
    ("mpoly.exact_divide.errors", "count"),
    ("mpoly.subs.self_s", "s"),
    ("mpoly.serialize.self_s", "s"),
    ("detformula.det_bareiss.calls", "count"),
    ("detformula.det_bareiss.self_s", "s"),
    ("detformula.reconstruct_a.self_s", "s"),
    ("series.mul.self_s", "s"),
    ("series.inverse.self_s", "s"),
    ("univariate.poly_gcd.calls", "count"),
    ("univariate.poly_gcd.self_s", "s"),
    ("gfengine.verify_foata.self_s", "s"),
    ("gfengine.binom_resum.self_s", "s"),
    ("symmetry.sym_decompose.self_s", "s"),
    ("symmetry.gamma_expand.self_s", "s"),
    ("symmetry.conjecture_scan.calls", "count"),
) + tuple((f"checks.{s}.busy_s", "s") for s in SUITES) + (
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "eulerlab"
                                  or name.startswith("eulerlab."))]


def namespace_snapshot() -> dict:
    """Every binding the tracer may touch, for restore checks."""
    import eulerlab.checks
    import eulerlab.mpoly
    import eulerlab.series
    snap = {}
    for mod in _modules():
        for key, value in vars(mod).items():
            snap[(mod.__name__, key)] = value
    for cls in (eulerlab.mpoly.MPoly, eulerlab.series.USeries):
        for key, value in vars(cls).items():
            snap[(cls.__qualname__, key)] = value
    for key, value in eulerlab.checks.CHECKS.items():
        snap[("CHECKS", key)] = value
    return snap


def unchanged(before: dict) -> bool:
    """True when every binding in ``before`` is bound to the same object."""
    after = namespace_snapshot()
    return after.keys() == before.keys() and all(
        after[key] is value for key, value in before.items())


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._caches: list = []

    # ------------------------------------------------------------------
    # recording

    def count(self, name: str, k: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + k

    def wrap(self, name: str, fn, before=None):
        """``fn`` recording one span per call; ``before(args)`` runs first."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            sid = len(spans)
            rec = [nid, clock(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(rec)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.count(name + ".errors")
                raise
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def _counting(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return counted

    def _builder(self, fn):
        """Span every call; count a miss when the builder's cache grew."""
        info = getattr(fn, "cache_info", None)
        inner = self.wrap("distributions.build", fn)

        @functools.wraps(fn)
        def built(*args, **kwargs):
            misses = info().misses if info else None
            out = inner(*args, **kwargs)
            if info is None or info().misses > misses:
                self.count("distributions.build.calls")
                self.count("distributions.perms_folded", factorial(args[0]))
            return out

        return built

    # ------------------------------------------------------------------
    # installing

    def _patch(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def _patch_everywhere(self, original, replacement) -> None:
        for mod in _modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, replacement)

    def install(self) -> None:
        import eulerlab
        import eulerlab.checks as checks
        from eulerlab import distributions
        from eulerlab.mpoly import MPoly
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name in _BUILDERS:
            fn = getattr(distributions, name)
            if hasattr(fn, "cache_info"):
                self._caches.append(fn)
            self._patch_everywhere(fn, self._builder(fn))
        for mod, attr, name in _COUNTS:
            fn = getattr(getattr(eulerlab, mod), attr)
            self._patch_everywhere(fn, self._counting(name, fn))

        def term_products(args):
            a, b = args
            self.count("mpoly.mul.term_products",
                       len(a.terms) * (len(b.terms)
                                       if isinstance(b, MPoly) else 1))

        wrapped = {}
        for mod, attr, name in _SPANS:
            module = getattr(eulerlab, mod)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(module, cls_name)
                fn = vars(cls)[meth]
                if fn not in wrapped:
                    before = term_products if name == "mpoly.mul" else None
                    wrapped[fn] = self.wrap(name, fn, before)
                self._patch(cls, meth, wrapped[fn])
            else:
                fn = getattr(module, attr)
                self._patch_everywhere(fn, self.wrap(name, fn))
        for token, (fn, desc) in list(checks.CHECKS.items()):
            traced = self.wrap(f"checks.{token}", fn)
            self._patch_everywhere(fn, traced)
            self._patch(checks.CHECKS, token, (traced, desc))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, value = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    def dump(self) -> dict:
        """Spans and counters, plus the builder caches' hit/miss totals."""
        counters = dict(self.counters)
        infos = [fn.cache_info() for fn in self._caches]
        counters["cache.hits"] = sum(i.hits for i in infos)
        counters["cache.misses"] = sum(i.misses for i in infos)
        return {"names": self.names, "spans": self.spans, "counters": counters}


# ----------------------------------------------------------------------
# aggregation

def aggregate(dumps: list[dict]) -> dict:
    """Sum calls, busy and self time per span name, and all counters.

    ``op_busy`` is ``busy`` restricted to spans inside an op, leaving out
    set-up work recorded with op id -1.
    """
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    op_busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, int] = {}
    for d in dumps:
        names, spans = d["names"], d["spans"]
        covered = [0.0] * len(spans)
        for nid, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (nid, start, end, parent, op) in enumerate(spans):
            name = names[nid]
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - covered[i]
            while parent >= 0 and spans[parent][0] != nid:
                parent = spans[parent][3]
            if parent < 0:
                busy[name] = busy.get(name, 0.0) + dur
                if op >= 0:
                    op_busy[name] = op_busy.get(name, 0.0) + dur
        for key, value in d["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return {"calls": calls, "busy": busy, "op_busy": op_busy, "self": self_s,
            "counters": counters}


def layer_metrics(agg: dict, overhead_frac: float, scale: float) -> dict:
    """The per-layer metric values, keyed as in ``LAYER_METRICS``.

    Span times are multiplied by ``scale`` (normalised over raw seconds).
    """
    calls, counters = agg["calls"], agg["counters"]
    busy = {k: v * scale for k, v in agg["busy"].items()}
    self_s = {k: v * scale for k, v in agg["self"].items()}
    folded = counters.get("distributions.perms_folded", 0)
    build_busy = busy.get("distributions.build", 0.0)
    lookups = counters.get("cache.hits", 0) + counters.get("cache.misses", 0)
    values = {
        "distributions.build.calls": counters.get("distributions.build.calls", 0),
        "distributions.build.busy_s": build_busy,
        "distributions.perms_folded": folded,
        "distributions.perms_per_s": folded / build_busy if build_busy else 0.0,
        "distributions.cache_hit_ratio":
            counters.get("cache.hits", 0) / lookups if lookups else 0.0,
        "mpoly.mul.term_products": counters.get("mpoly.mul.term_products", 0),
        "mpoly.exact_divide.errors": counters.get("mpoly.exact_divide.errors", 0),
        "trace.overhead_frac": overhead_frac,
    }
    for name, _ in LAYER_METRICS:
        if name in values:
            continue
        span, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = counters.get(name, calls.get(span, 0))
        elif kind == "self_s":
            values[name] = self_s.get(span, 0.0)
        elif kind == "busy_s":
            values[name] = busy.get(span, 0.0)
    return {name: values[name] for name, _ in LAYER_METRICS}
