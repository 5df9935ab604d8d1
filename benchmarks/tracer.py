"""Span tracing of quatsym's public functions, installed from outside.

install() wraps each function in TRACED and rebinds every name in every
loaded quatsym module that refers to it, so calls through `from`-imports
(classifier and local_symbols import their kernels that way) are traced
too.  Each call records a span (function, parent span, operation index,
start, end) in flat arrays; save() writes them to an .npz file at the end
of the pass and summarize() turns span files into per-layer metrics.

Counters kept at the same boundaries:
  classifier  verdicts returned, fast-path tags, certificate places
  oracle      searches, witnesses found
  caches      cache_info() deltas of rational's factor cache and split_prime
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

TRACED: dict[str, tuple[str, ...]] = {
    "rational": ("factor", "is_prime", "legendre", "squarefree_part",
                 "multiplicative_order", "qth_power_residue"),
    "gaussian": ("split_prime", "gaussian_legendre"),
    "local_symbols": ("hilbert_odd", "hilbert_two", "hilbert_real", "hasse_qi_odd",
                      "hasse_qi_dyadic", "tame_q_symbol"),
    "classifier": ("classify_quaternion_q", "classify_quaternion_qi", "classify_symbol"),
    "oracle": ("conic_search", "isotropy_search", "norm_search_quadratic"),
    "report": ("reproduce_paper",),
    "cli": ("main",),
}
# symbol kernels: one call should serve one certificate place
KERNELS = tuple(f"local_symbols.{f}" for f in TRACED["local_symbols"])
FUNCTIONS = tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.opid = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.op = 0
        self.counters = {"verdicts": 0, "fast_path_hits": 0, "places": 0,
                         "searches": 0, "witnesses_found": 0}
        self._caches: dict[str, object] = {}
        self._cache0: dict[str, tuple[int, int]] = {}

    def watch_cache(self, label: str, cached) -> None:
        info = cached.cache_info()
        self._caches[label] = cached
        self._cache0[label] = (info.hits, info.misses)

    def wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        name, parent, opid, start, end, stack = (
            self.name, self.parent, self.opid, self.start, self.end, self.stack)
        perf = time.perf_counter_ns
        tracer = self

        def span(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            opid.append(tracer.op)
            end.append(0)
            stack.append(idx)
            start.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf()
                stack.pop()

        module = qualname.split(".")[0]
        if module == "classifier":
            def classified(*args, **kwargs):
                verdict = span(*args, **kwargs)
                c = tracer.counters
                c["verdicts"] += 1
                c["fast_path_hits"] += verdict.fast_path is not None
                cert = verdict.certificate or {}
                c["places"] += len(cert.get("symbols") or cert.get("witnesses") or ())
                return verdict
            return classified
        if module == "oracle":
            def searched(*args, **kwargs):
                witness = span(*args, **kwargs)
                c = tracer.counters
                c["searches"] += 1
                c["witnesses_found"] += witness is not None
                return witness
            return searched
        return span

    def save(self, path: str) -> None:
        import numpy as np

        cache = {}
        for label, cached in self._caches.items():
            info = cached.cache_info()
            h0, m0 = self._cache0[label]
            cache[label] = [info.hits - h0, info.misses - m0]
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.opid, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            names=np.array(self.names),
            meta=np.array(json.dumps({"counters": self.counters, "cache": cache})),
        )


def install() -> Tracer:
    """Wrap every TRACED function of the loaded quatsym package."""
    for mod_name in TRACED:
        importlib.import_module(f"quatsym.{mod_name}")
    from quatsym import gaussian, rational

    tracer = Tracer()
    tracer.watch_cache("rational.factor", rational._factor_positive)
    tracer.watch_cache("gaussian.split_prime", gaussian.split_prime)
    modules = [m for n, m in list(sys.modules.items()) if n == "quatsym" or n.startswith("quatsym.")]
    for mod_name, fnames in TRACED.items():
        home = sys.modules[f"quatsym.{mod_name}"]
        for fname in fnames:
            original = getattr(home, fname)
            wrapped = tracer.wrap(f"{mod_name}.{fname}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
    return tracer


def summarize(paths: list[str]) -> dict:
    """Per-function calls and self time, counters and span sanity over span files."""
    import numpy as np

    calls = dict.fromkeys(FUNCTIONS, 0)
    self_ns = dict.fromkeys(FUNCTIONS, 0.0)
    counters: dict[str, int] = {}
    cache: dict[str, list[int]] = {}
    spans = 0
    root_ns = 0.0
    min_self_ns = 0.0
    for path in paths:
        with np.load(path) as z:
            names = [str(n) for n in z["names"]]
            name, parent = z["name"], z["parent"]
            dur = z["end"] - z["start"]
            meta = json.loads(str(z["meta"]))
        if (dur < 0).any():
            raise ValueError(f"{path}: a span was never closed")
        nested = parent >= 0
        own = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        min_self_ns = min(min_self_ns, float(own.min(initial=0)))
        root_ns += float(dur[~nested].sum())
        spans += len(name)
        per_calls = np.bincount(name, minlength=len(names))
        per_self = np.bincount(name, weights=own, minlength=len(names))
        for i, n in enumerate(names):
            calls[n] += int(per_calls[i])
            self_ns[n] += float(per_self[i])
        for k, v in meta["counters"].items():
            counters[k] = counters.get(k, 0) + v
        for k, (h, m) in meta["cache"].items():
            acc = cache.setdefault(k, [0, 0])
            acc[0] += h
            acc[1] += m
    return {"calls": calls, "self_ns": self_ns, "counters": counters, "cache": cache,
            "spans": spans, "root_ns": root_ns, "min_self_ns": min_self_ns}
