"""quatsym benchmark: one command, four workloads, seeded inputs, checked outputs.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S

Run from anywhere inside a source checkout; the package is imported from
the checkout's src/ directory and nothing is installed.  A timed run
repeats one pass, the first workloads.PASS_OPS operations of the seeded
stream, each in a fresh interpreter (worker.py) as a closed loop with one
caller, until the passes' summed operation time reaches --seconds.  The
first pass's outputs are checked by check.py, which does not import
quatsym; every later pass must return the same outputs.  `attempted` and
`failed` count the operations of one pass, so they depend on the seed only.

Times are wall times scaled by two calibration units timed between windows
of operations (speed.py), which takes the host's changing core speed out
of them; the unscaled figures are printed beside them.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced pass plus the tracing overhead.  The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}.  `failed`
counts operations that raised or failed the check, the known defects
included; `correct` is false when any failure is not one of the known
defects named in check.py, or when the trace is inconsistent.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

import check
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# A timed run repeats one pass (workloads.PASS_OPS operations, the same for
# every pass of a seed) in fresh interpreters until the passes' summed
# operation time reaches --seconds, or RUN_CAP_S of real time passed.
RUN_CAP_S = 100.0
WORKER_TIMEOUT_S = 120
# setup_s is the median over every pass's own import and this many fresh
# interpreters, half started before the timed passes and half after them.
SETUP_PROBES = 6
IMPORTTIME_PROBES = 3
# Traced passes run a fixed number of operations, so counts repeat exactly
# for a given seed; sized to take a few seconds untraced.
TRACE_OPS = {"classify-small": 4000, "classify-large": 150,
             "oracle-crosscheck": 100, "cli-cold": 24}
# oracle.peak_alloc_mb comes from a separate pass with tracemalloc on, over
# the first ALLOC_OPS operations (five oracle-crosscheck pairs).
ALLOC_OPS = 25
# Self times on classify-small must cover at least this share of the
# operations' wall time (the rest is wrapper and loop overhead).
COVERAGE_MIN = 0.9

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("passed_share", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    tuple((f"{fn}.{kind}", unit) for fn in tracer.FUNCTIONS
          for kind, unit in (("calls", "count"), ("self_ms", "ms")))
    + (
        ("rational.factor.cache_hit_ratio", "ratio"),
        ("rational.factor.cache_lookups", "count"),
        ("gaussian.split_prime.cache_hit_ratio", "ratio"),
        ("gaussian.split_prime.cache_lookups", "count"),
        ("local_symbols.evals_per_place", "ratio"),
        ("local_symbols.places", "count"),
        ("classifier.fast_path_hit_ratio", "ratio"),
        ("classifier.verdicts", "count"),
        ("oracle.witness_found_ratio", "ratio"),
        ("oracle.searches", "count"),
        ("oracle.peak_alloc_mb", "MB"),
        ("cli.interpreter_ms", "ms"),
        ("cli.import_ms", "ms"),
        ("cli.import_numpy_ms", "ms"),
        ("trace.ops", "count"),
        ("trace.spans", "count"),
        ("trace.untraced_ops_per_s", "ops/s"),
        ("trace.traced_ops_per_s", "ops/s"),
        ("trace.slowdown", "ratio"),
        ("trace.self_time_coverage", "ratio"),
    )
)


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _python(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env=_env(), cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(args[:3])} exceeded {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:3])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


_IMPORT_PROBE = (f"import sys, time; sys.path.insert(0, {HERE!r}); import speed; "
                 "speed.pin_to_one_cpu(); m = speed.Meter(['python']); c = m.measure(); "
                 "t = time.perf_counter_ns(); import quatsym; d = time.perf_counter_ns() - t; "
                 "print(d * m.factor(c, m.measure(), 'python') / 1e9)")


def import_seconds(n: int) -> list[float]:
    """Scaled import time of quatsym in n fresh interpreters."""
    return [float(_python(["-c", _IMPORT_PROBE], 60).stdout) for _ in range(n)]


def importtime_ms() -> dict[str, float]:
    """Interpreter start, quatsym import and numpy import, medians over probes."""
    start, quatsym_ms, numpy_ms = [], [], []
    for _ in range(IMPORTTIME_PROBES):
        t = time.perf_counter()
        _python(["-c", "pass"], 60)
        start.append((time.perf_counter() - t) * 1e3)
        cumulative = {}
        for line in _python(["-X", "importtime", "-c", "import quatsym"], 60).stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e3)
        quatsym_ms.append(cumulative["quatsym"])
        numpy_ms.append(cumulative.get("numpy", 0.0))
    return {"cli.interpreter_ms": statistics.median(start),
            "cli.import_ms": statistics.median(quatsym_ms),
            "cli.import_numpy_ms": statistics.median(numpy_ms)}


def run_pass(workload: str, seed: int, ops: int, mode: str = "plain",
             trace_dir: str | None = None) -> dict:
    """One worker process; returns its setup record, operation records and end record."""
    args = [os.path.join(HERE, "worker.py"), workload, str(seed), str(ops), mode,
            *([trace_dir] if trace_dir else [])]
    proc = _python(args, WORKER_TIMEOUT_S)
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    setup, end = lines[0], lines[-1]
    if setup.get("type") != "setup" or end.get("type") != "end":
        raise BenchError("worker output is truncated")
    records = lines[1:-1]
    for rec in records:
        rec["spec"] = tuple(rec["spec"])
    if len(records) != end["attempted"]:
        raise BenchError("worker lost operation records")
    return {"setup": setup, "records": records, "end": end}


def timed_passes(workload: str, seed: int, seconds: float) -> list[dict]:
    """Passes of one seed until their summed operation time reaches `seconds`."""
    passes: list[dict] = []
    busy = 0.0
    start = time.perf_counter()
    while not passes or (busy < seconds and time.perf_counter() - start < RUN_CAP_S):
        passes.append(run_pass(workload, seed, workloads.PASS_OPS[workload]))
        busy += passes[-1]["end"]["busy_s"]
    return passes


def _result(rec: dict):
    """What a pass must reproduce: the output, less the CLI's own "ms" timing."""
    out = rec.get("out")
    if rec["spec"][0] == "cli" and out:
        try:
            doc = json.loads(out["stdout"])
        except ValueError:
            doc = out["stdout"]
        if isinstance(doc, dict):
            doc.pop("ms", None)
        out = (out["rc"], doc, out["stderr"])
    return out, rec.get("err")


def differing(passes: list[dict]) -> list[dict]:
    """Records of later passes whose output differs from the first pass's."""
    first = passes[0]["records"]
    return [rec for p in passes[1:] for rec, ref in zip(p["records"], first)
            if _result(rec) != _result(ref)]


def evaluate(records: list[dict]) -> Counter:
    """Check every record in place; returns outcome counts."""
    outcomes = Counter()
    for rec in records:
        rec["outcome"], rec["detail"] = check.check(rec["spec"], rec)
        outcomes[rec["outcome"]] += 1
    return outcomes


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end_metrics(workload: str, passes: list[dict], passed: int,
                       setup_s: list[float]) -> dict[str, float]:
    """passed: operations of one pass that passed the check (every pass runs
    the same operations with the same outputs, which differing() checks)."""
    lat = sorted(r["scaled_ns"] / 1e6 for p in passes for r in p["records"])
    rss = "children_peak_kb" if workload == "cli-cold" else "peak_kb"
    return {
        "ops_per_s": passed * len(passes) / sum(p["end"]["scaled_busy_s"] for p in passes),
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": _quantile(lat, 0.9),
        "passed_share": passed / len(passes[0]["records"]),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": max(p["end"][rss] for p in passes) / 1024,
    }


def wall_metrics(passes: list[dict], passed: int) -> dict[str, float]:
    """The unscaled wall-time figures, and the median speed factor applied."""
    lat = sorted(r["ns"] / 1e6 for p in passes for r in p["records"])
    return {
        "wall_ops_per_s": passed * len(passes) / sum(p["end"]["busy_s"] for p in passes),
        "wall_latency_p50_ms": statistics.median(lat),
        "wall_latency_p90_ms": _quantile(lat, 0.9),
        "speed_factor_p50": statistics.median(
            r["scaled_ns"] / r["ns"] for p in passes for r in p["records"] if r["ns"]),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(plain: dict, traced: dict, spans: dict, imports: dict[str, float],
                      peak_alloc_bytes: int) -> dict[str, float]:
    m: dict[str, float] = {}
    for fn in tracer.FUNCTIONS:
        m[f"{fn}.calls"] = spans["calls"][fn]
        m[f"{fn}.self_ms"] = spans["self_ns"][fn] / 1e6
    for label in ("rational.factor", "gaussian.split_prime"):
        hits, misses = spans["cache"].get(label, (0, 0))
        m[f"{label}.cache_hit_ratio"] = _ratio(hits, hits + misses)
        m[f"{label}.cache_lookups"] = hits + misses
    c = spans["counters"]
    evals = sum(spans["calls"][k] for k in tracer.KERNELS)
    m["local_symbols.evals_per_place"] = _ratio(evals, c.get("places", 0))
    m["local_symbols.places"] = c.get("places", 0)
    m["classifier.fast_path_hit_ratio"] = _ratio(c.get("fast_path_hits", 0), c.get("verdicts", 0))
    m["classifier.verdicts"] = c.get("verdicts", 0)
    m["oracle.witness_found_ratio"] = _ratio(c.get("witnesses_found", 0), c.get("searches", 0))
    m["oracle.searches"] = c.get("searches", 0)
    m["oracle.peak_alloc_mb"] = peak_alloc_bytes / 2**20
    m.update(imports)
    traced_s = traced["end"]["busy_s"]
    m["trace.ops"] = len(traced["records"])
    m["trace.spans"] = spans["spans"]
    # scaled times, as the two passes may meet different core speeds
    m["trace.untraced_ops_per_s"] = len(plain["records"]) / plain["end"]["scaled_busy_s"]
    m["trace.traced_ops_per_s"] = len(traced["records"]) / traced["end"]["scaled_busy_s"]
    m["trace.slowdown"] = m["trace.untraced_ops_per_s"] / m["trace.traced_ops_per_s"]
    m["trace.self_time_coverage"] = spans["root_ns"] / 1e9 / traced_s
    return m


def profile(workload: str, records: list[dict]) -> dict:
    """Measured properties of the generated inputs and their reference outcomes."""
    kinds = Counter()
    statuses = Counter()
    seen_b: set[int] = set()
    reused = with_b = overflow = qpairs = 0
    for rec in records:
        spec = rec["spec"]
        vspec = check.cli_verdict_spec(spec) if spec[0] == "cli" else spec
        kinds[vspec[0] if vspec else spec[1]] += 1
        if workload == "oracle-crosscheck" and spec[0] != "q":
            continue  # one status per pair
        if not vspec or vspec[0] not in ("q", "qi", "sym"):
            continue
        statuses[check.reference_status(vspec)] += 1
        b = vspec[-1]
        with_b += 1
        reused += b in seen_b
        seen_b.add(b)
        if vspec[0] in ("q", "qi"):
            qpairs += 1
            overflow += check.product_exceeds_contract(vspec[1], vspec[2])
    n = len(records)
    out = {
        "kind_share": {k: round(v / n, 4) for k, v in sorted(kinds.items())},
        "status_share": {k: round(v / sum(statuses.values()), 4) for k, v in sorted(statuses.items())},
        "b_reuse_share": round(_ratio(reused, with_b), 4),
    }
    if workload == "classify-large":
        out["product_over_2_63_share"] = round(_ratio(overflow, qpairs), 4)
    return out


def _commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    _python(["-c", "import quatsym"], 60)  # compile bytecode before anything is timed
    wall = {}
    if not trace:
        setup_s = import_seconds(SETUP_PROBES // 2)
        passes = timed_passes(workload, seed, seconds)
        setup_s += import_seconds(SETUP_PROBES - SETUP_PROBES // 2)
        setup_s += [p["setup"]["import_s"] for p in passes]
        run = passes[0]
        outcomes = evaluate(run["records"])
        metrics = end_to_end_metrics(workload, passes, outcomes[check.PASS], setup_s)
        wall = wall_metrics(passes, outcomes[check.PASS])
        unstable = differing(passes)
        correct = not unstable
        wall["passes"] = len(passes)
        wall["differing_outputs"] = len(unstable)
    else:
        imports = importtime_ms()
        trace_dir = os.path.join(OUT_DIR, "trace", workload)
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        n = TRACE_OPS[workload]
        plain = run_pass(workload, seed, n)
        run = run_pass(workload, seed, n, mode="spans", trace_dir=trace_dir)
        plain_outcomes = evaluate(plain["records"])
        outcomes = evaluate(run["records"])
        files = sorted(os.path.join(trace_dir, f) for f in os.listdir(trace_dir))
        spans = tracer.summarize(files)
        peak_bytes = 0
        if any(r["spec"][0] in workloads.ORACLE_KINDS for r in run["records"]):
            alloc = run_pass(workload, seed, min(n, ALLOC_OPS), mode="alloc")
            peak_bytes = max(r["peak_bytes"] for r in alloc["records"]
                             if r["spec"][0] in workloads.ORACLE_KINDS)
        metrics = per_layer_metrics(plain, run, spans, imports, peak_bytes)
        coverage = metrics["trace.self_time_coverage"]
        correct = (spans["min_self_ns"] >= 0 and coverage <= 1.0
                   and not plain_outcomes[check.UNEXPECTED])
        if workload == "classify-small":
            correct = correct and coverage >= COVERAGE_MIN
    attempted = len(run["records"])
    failed = attempted - outcomes[check.PASS]
    unexpected = [r for r in run["records"] if r["outcome"] == check.UNEXPECTED]
    correct = correct and not unexpected
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "outcomes": dict(outcomes),
        "unexpected_examples": [(list(r["spec"]), r["detail"][:300]) for r in unexpected[:5]],
        "metrics": metrics,
        "wall": wall,
        "profile": profile(workload, run["records"]),
        "env": {
            "python": run["setup"]["python"],
            "numpy": run["setup"]["numpy"],
            "nproc": os.cpu_count(),
            "commit": _commit(),
        },
    }


def _units() -> dict[str, str]:
    return dict(END_TO_END + PER_LAYER)


def report(result: dict) -> None:
    units = _units()
    print(f"== {result['workload']}  seed {result['seed']}  seconds {result['seconds']}  "
          f"trace {result['trace']}")
    for name, value in result["metrics"].items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    print(f"  failed_share {result['failed_share']:.6f} = {result['failed']} failed / "
          f"{result['attempted']} attempted; outcomes {result['outcomes']}")
    if not result["trace"]:
        wall = result["wall"]
        samples = wall["passes"] * result["attempted"]
        print(f"  {wall['passes']} passes of {result['attempted']} operations, outputs of "
              f"{wall['differing_outputs']} differing from the first pass; latency samples "
              f"{samples}, {samples - math.ceil(0.9 * samples)} beyond p90")
        print("  unscaled " + json.dumps({k: round(v, 6) for k, v in wall.items()}))
    for spec, detail in result["unexpected_examples"]:
        print(f"  UNEXPECTED {spec}: {detail}")
    print("  profile " + json.dumps(result["profile"]))
    print("  env " + json.dumps(result["env"]))


def _save(result: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a") as fh:
        fh.write(json.dumps(result) + "\n")


def _final(results: list[dict], prefix: bool) -> dict:
    units = _units()
    metrics = {}
    for r in results:
        for name, value in r["metrics"].items():
            key = f"{r['workload']}/{name}" if prefix else name
            metrics[key] = {"value": value, "unit": units[name]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quatsym", "__init__.py")):
        print(f"no quatsym sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            report(result)
            _save(result)
            results.append(result)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(_final(results, prefix=len(names) > 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
