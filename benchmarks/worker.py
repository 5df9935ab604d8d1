"""One benchmark pass in a fresh interpreter: a closed loop with one caller.

Invoked by run.py as

    python3 benchmarks/worker.py WORKLOAD SEED OPS MODE [SPAN_DIR]

and writes JSON lines to stdout: a "setup" record, one record per
operation, and an "end" record.  The pass runs the first OPS operations of
the seeded stream, so every pass of one seed runs the same operations from
the same cold start.  Between windows of operations the worker times the
calibration units (speed.py) and adds each operation's scaled time.  MODE
is "plain"; "spans", which traces every call and writes the spans to
SPAN_DIR; or "alloc", which records each operation's tracemalloc peak
(kept out of the span pass, whose times it would inflate) and skips the
calibration.

The process pins itself to one CPU first.  Operation records are
serialized between windows, outside the timed intervals, so the summed
operation time excludes the benchmark's own work.
"""
from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc

import speed
from cli_child import peak_rss_kb
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def _verdict(v) -> dict:
    return {
        "status": v.status,
        "ramified": [str(p) for p in v.ramified],
        "disc": v.discriminant,
        "fast_path": v.fast_path,
        "cert": v.certificate,
    }


def _witness(w):
    return None if w is None else [str(x) for x in w]


def _runner(workload: str, trace_dir: str | None, child_peaks: list[int]):
    """(call, encode): call(spec) runs one operation, encode(result) makes it JSON-able.

    CLI children started untraced append their peak resident size (kB) to
    child_peaks."""
    if workload == "cli-cold":
        env = dict(os.environ)
        if trace_dir is not None:
            prefix = [sys.executable, os.path.join(HERE, "traced_cli.py"), trace_dir]

            def call(spec):
                return subprocess.run(prefix + list(spec[1:]), capture_output=True, text=True,
                                      env=env, timeout=60)
        else:
            prefix = [sys.executable, os.path.join(HERE, "cli_child.py")]

            def call(spec):
                r, w = os.pipe()
                try:
                    proc = subprocess.run(prefix + [str(w), *spec[1:]], capture_output=True,
                                          text=True, env=env, timeout=60, pass_fds=(w,))
                finally:
                    os.close(w)
                with os.fdopen(r) as fh:
                    child_peaks.append(int(fh.read() or 0))
                return proc

        def encode(proc):
            return {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}

        return call, encode

    from quatsym import classifier, oracle

    fns = {
        "q": classifier.classify_quaternion_q,
        "qi": classifier.classify_quaternion_qi,
        "sym": classifier.classify_symbol,
        "conic": oracle.conic_search,
        "norm": oracle.norm_search_quadratic,
        "iso": oracle.isotropy_search,
    }

    def call(spec):
        kind, *args = spec
        if kind in ("q", "qi", "sym"):
            return fns[kind](*args)
        a, b, h_q, h_qi = args
        return fns[kind](a, b, "q", h_q), fns[kind](a, b, "qi", h_qi)

    def encode(result):
        if isinstance(result, tuple):
            return {"q": _witness(result[0]), "qi": _witness(result[1])}
        return _verdict(result)

    return call, encode


def main(argv: list[str]) -> int:
    workload, seed, ops, mode, *span_dir = argv
    seed, ops = int(seed), int(ops)
    trace_dir = span_dir[0] if mode == "spans" else None
    alloc = mode == "alloc"
    out = sys.stdout

    speed.pin_to_one_cpu()
    meter = speed.Meter(["python"])
    cal0 = meter.measure()
    t0 = time.perf_counter_ns()
    import quatsym  # noqa: F401  (set-up: the import is what setup_s measures)
    import_ns = time.perf_counter_ns() - t0
    import_s = import_ns * meter.factor(cal0, meter.measure(), "python") / 1e9
    import numpy

    tracer = None
    if trace_dir is not None and workload != "cli-cold":
        import tracer as tracing
        tracer = tracing.install()
    child_peaks: list[int] = []
    call, encode = _runner(workload, trace_dir, child_peaks)

    out.write(json.dumps({"type": "setup", "import_s": import_s, "import_wall_s": import_ns / 1e9,
                          "numpy": numpy.__version__,
                          "python": sys.version.split()[0]}) + "\n")

    perf = time.perf_counter_ns
    busy_ns = scaled_ns = 0.0
    window: list[dict] = []
    window_ns = 0
    specs = list(itertools.islice(workloads.specs(workload, seed), ops))
    units = [workloads.calibration_unit(spec) for spec in specs]
    meter = speed.Meter(units) if not alloc else None
    cal = meter.measure() if meter else {}
    for i, spec in enumerate(specs):
        if tracer is not None:
            tracer.op = i
        err = None
        if alloc:
            tracemalloc.start()
        t = perf()
        try:
            result = call(spec)
        except Exception as exc:  # a raising operation is a measured outcome
            result, err = None, f"{type(exc).__name__}: {exc}"
        dt = perf() - t
        busy_ns += dt
        window_ns += dt
        rec = {"spec": spec, "ns": dt}
        if alloc:
            rec["peak_bytes"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        if err is None:
            rec["out"] = encode(result)
        else:
            rec["err"] = err
        window.append(rec)
        if window_ns >= speed.WINDOW_NS or i == len(specs) - 1:
            if meter:
                before, cal = cal, meter.measure()
                for r, unit in zip(window, units[i + 1 - len(window):i + 1]):
                    r["scaled_ns"] = r["ns"] * meter.factor(before, cal, unit)
                    scaled_ns += r["scaled_ns"]
            for r in window:
                out.write(json.dumps(r) + "\n")
            window, window_ns = [], 0

    end = {"type": "end", "busy_s": busy_ns / 1e9, "scaled_busy_s": scaled_ns / 1e9,
           "attempted": len(specs),
           "peak_kb": peak_rss_kb(), "children_peak_kb": max(child_peaks, default=0)}
    if tracer is not None:
        tracer.save(os.path.join(trace_dir, "worker.npz"))
    out.write(json.dumps(end) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
