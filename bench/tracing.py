"""Per-layer tracing for the benchmark's traced runs.

The tracer replaces the module-level names through which one expsumlab
module calls another (``registry.power_mean``, ``poly_search.legendre``,
``char_sums.legendre_table``, ...) with timing wrappers.  Nothing under
``src/`` changes: the wrappers are installed from the benchmark's own
files, inside the child process, before the first CLI call.

Each wrapper records, per metric name, the call count, the busy time
(time inside the call) and the self time (busy time minus the busy time
of wrapped calls made while it ran, on the same thread).  The records
are per thread, so the wrappers take no lock on the hot path and stay
correct under the registry's ``--workers`` thread pool; they are summed
when the run ends.  Only aggregates are kept: a pair search makes about
a million ``legendre`` calls, too many to keep a span for each.

A name the program no longer has is skipped and listed in
``Tracer.missing``; the metrics it fed read 0.
"""

from __future__ import annotations

import threading
from time import perf_counter

from expsumlab import char_sums, cli, conjecture, exp_sums, poly_search, registry, reporting


class _ThreadState:
    __slots__ = ("stack", "acc", "extra", "cold_terms")

    def __init__(self):
        self.stack: list[float] = []  # wrapped-child time of each open call
        self.acc: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self.extra: dict[str, float] = {}  # name -> summed value
        self.cold_terms = 0  # terms of table builds inside the open call


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self.missing: list[str] = []

    def state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def wrap(self, name: str, fn, on_result=None):
        """Timing wrapper for fn; on_result(state, result, dt) runs after
        each call that returns."""
        state = self.state

        def wrapper(*args, **kwargs):
            st = state()
            stack = st.stack
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                acc = st.acc.get(name)
                if acc is None:
                    acc = st.acc[name] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += dt
                acc[2] += dt - child
                if stack:
                    stack[-1] += dt
            if on_result is not None:
                on_result(st, result, dt)
            return result

        return wrapper

    def patch(self, module, attr: str, make) -> None:
        """Replace module.attr by make(original), if the name exists."""
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
        else:
            setattr(module, attr, make(fn))

    def totals(self) -> tuple[dict[str, list], dict[str, float]]:
        acc: dict[str, list] = {}
        extra: dict[str, float] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, (calls, busy, self_s) in st.acc.items():
                a = acc.setdefault(name, [0, 0.0, 0.0])
                a[0] += calls
                a[1] += busy
                a[2] += self_s
            for name, v in st.extra.items():
                extra[name] = extra.get(name, 0.0) + v
        return acc, extra


def _add(st: _ThreadState, name: str, value: float) -> None:
    st.extra[name] = st.extra.get(name, 0.0) + value


def _cache_counts(module, attr: str) -> tuple[int, int]:
    info = getattr(getattr(module, attr, None), "cache_info", None)
    if info is None:
        return 0, 0
    i = info()
    return i.hits, i.misses


# the lru caches whose hit ratios are reported: |S_t|^2 tables and the
# exact kernel's root-of-unity tables
_CACHES = {
    "exp_sums.table_cache": (exp_sums, "_abs_sq_table"),
    "exp_sums.root_cache": (exp_sums, "_fixed_root_table"),
}


class LayerTrace:
    """The wrappers for one traced child process, and its metrics."""

    def __init__(self):
        t = self.tracer = Tracer()
        w = t.wrap
        self.cache_start = {k: _cache_counts(*v) for k, v in _CACHES.items()}

        # exp_sums: a power_mean call is cold when it built its |S_t|^2
        # table, which is the only path that calls _family_vectors
        def family_vectors(fn):
            def probe(family, q):
                u, v = fn(family, q)
                t.state().cold_terms += q * len(u)
                return u, v
            return probe

        def power_mean_done(st, result, dt):
            if st.cold_terms:
                _add(st, "exp_sums.terms", st.cold_terms)
                _add(st, "exp_sums.power_mean.cold_busy_s", dt)
                st.cold_terms = 0
            else:
                _add(st, "exp_sums.power_mean.warm_busy_s", dt)

        t.patch(exp_sums, "_family_vectors", family_vectors)
        for mod in (registry, conjecture):
            t.patch(mod, "power_mean", lambda fn: w("exp_sums.power_mean", fn, power_mean_done))
        t.patch(exp_sums, "abs_two_term_all_m", lambda fn: w("exp_sums.abs_two_term_all_m", fn))

        # arith
        for mod in (registry, poly_search):
            t.patch(mod, "legendre", lambda fn: w("arith.legendre", fn))

        # char_sums: module-internal callers look the names up in char_sums
        for mod in (char_sums, poly_search):
            t.patch(mod, "char_sum_poly", lambda fn: w("char_sums.char_sum_poly", fn))
            t.patch(mod, "legendre_table", lambda fn: w("char_sums.legendre_table", fn))
        t.patch(char_sums, "corollary1_check", lambda fn: w("char_sums.corollary1_check", fn))
        t.patch(char_sums, "salie_twisted_char_sum", lambda fn: w("char_sums.salie_twisted_char_sum", fn))

        # poly_search: the enumeration is a generator, so it is drained
        # inside the timed call; the search consumes it whole anyway
        def polys_done(st, result, dt):
            _add(st, "poly_search.polys", len(result))

        t.patch(poly_search, "enumerate_polys",
                lambda fn: w("poly_search.enumerate", lambda *a, **k: list(fn(*a, **k)), polys_done))
        t.patch(poly_search, "signature", lambda fn: w("poly_search.signature", fn))

        def different_done(st, result, dt):
            _add(st, "poly_search.fundamentally_different.true", bool(result))

        t.patch(poly_search, "fundamentally_different",
                lambda fn: w("poly_search.fundamentally_different", fn, different_done))

        def search_done(st, result, dt):
            _add(st, "poly_search.hits", len(result.hits))

        t.patch(poly_search, "search_constant_pairs", lambda fn: w("poly_search.search", fn, search_done))

        # registry
        def evaluate_done(st, outcome, dt):
            _add(st, f"registry.outcomes.{outcome.status}", 1)

        t.patch(registry, "sweep", lambda fn: w("registry.sweep", fn))
        t.patch(registry, "evaluate", lambda fn: w("registry.evaluate", fn, evaluate_done))

        # conjecture
        t.patch(conjecture, "conjecture_report", lambda fn: w("conjecture.report", fn))

        # reporting and cli
        def emit_done(st, payload, dt):
            _add(st, "reporting.bytes_out", len(payload))

        for attr in ("emit_json", "emit_csv", "emit_text"):
            t.patch(reporting, attr, lambda fn: w("reporting.emit", fn, emit_done))
        self.main = w("cli.main", cli.main)

    def metrics(self) -> dict[str, float]:
        acc, extra = self.tracer.totals()

        def calls(name):
            return acc.get(name, [0, 0.0, 0.0])[0]

        def busy(name):
            return acc.get(name, [0, 0.0, 0.0])[1]

        def self_s(name):
            return acc.get(name, [0, 0.0, 0.0])[2]

        def ratio(num, den):
            return num / den if den else 0.0

        m = {
            "exp_sums.power_mean.calls": calls("exp_sums.power_mean"),
            "exp_sums.power_mean.busy_s": busy("exp_sums.power_mean"),
            "exp_sums.power_mean.cold_busy_s": extra.get("exp_sums.power_mean.cold_busy_s", 0.0),
            "exp_sums.power_mean.warm_busy_s": extra.get("exp_sums.power_mean.warm_busy_s", 0.0),
            "exp_sums.terms": int(extra.get("exp_sums.terms", 0)),
            "exp_sums.terms_per_s": ratio(extra.get("exp_sums.terms", 0),
                                          extra.get("exp_sums.power_mean.cold_busy_s", 0.0)),
        }
        for key, (mod, attr) in _CACHES.items():
            h0, m0 = self.cache_start[key]
            h1, m1 = _cache_counts(mod, attr)
            m[f"{key}.hit_ratio"] = ratio(h1 - h0, (h1 - h0) + (m1 - m0))
        m.update({
            "exp_sums.abs_two_term_all_m.busy_s": busy("exp_sums.abs_two_term_all_m"),
            "arith.legendre.calls": calls("arith.legendre"),
            "arith.legendre.busy_s": busy("arith.legendre"),
            "poly_search.enumerate.busy_s": busy("poly_search.enumerate"),
            "poly_search.polys": int(extra.get("poly_search.polys", 0)),
            "poly_search.signature.calls": calls("poly_search.signature"),
            "poly_search.signature.busy_s": busy("poly_search.signature"),
            "poly_search.fundamentally_different.calls": calls("poly_search.fundamentally_different"),
            "poly_search.fundamentally_different.busy_s": busy("poly_search.fundamentally_different"),
            "poly_search.fundamentally_different.true_ratio": ratio(
                extra.get("poly_search.fundamentally_different.true", 0),
                calls("poly_search.fundamentally_different")),
            "poly_search.search.self_s": self_s("poly_search.search"),
            "poly_search.hits": int(extra.get("poly_search.hits", 0)),
            "char_sums.char_sum_poly.calls": calls("char_sums.char_sum_poly"),
            "char_sums.char_sum_poly.busy_s": busy("char_sums.char_sum_poly"),
            "char_sums.legendre_table.calls": calls("char_sums.legendre_table"),
            "char_sums.legendre_table.busy_s": busy("char_sums.legendre_table"),
            "char_sums.corollary1_check.busy_s": busy("char_sums.corollary1_check"),
            "char_sums.salie_twisted_char_sum.busy_s": busy("char_sums.salie_twisted_char_sum"),
            "registry.sweep.calls": calls("registry.sweep"),
            "registry.sweep.busy_s": busy("registry.sweep"),
            "registry.evaluate.calls": calls("registry.evaluate"),
            "registry.evaluate.self_s": self_s("registry.evaluate"),
        })
        for status in ("pass", "fail", "skip", "numeric"):
            m[f"registry.outcomes.{status}"] = int(extra.get(f"registry.outcomes.{status}", 0))
        m.update({
            "conjecture.report.busy_s": busy("conjecture.report"),
            "conjecture.report.self_s": self_s("conjecture.report"),
            "reporting.emit.busy_s": busy("reporting.emit"),
            "reporting.bytes_out": int(extra.get("reporting.bytes_out", 0)),
            "cli.main.busy_s": busy("cli.main"),
        })
        return m
