"""Tests of the benchmark itself: seeded inputs, the checker, the tracer.

    PYTHONPATH=src python -m pytest -q benchmarks/test_benchmark.py
"""
import json
import os
import subprocess
import sys
from itertools import islice

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from quatsym import (  # noqa: E402
    classify_quaternion_q,
    classify_quaternion_qi,
    classify_symbol,
    conic_search,
    isotropy_search,
    norm_search_quadratic,
)
from worker import _verdict, _witness  # noqa: E402


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_same_seed_same_inputs(workload):
    first = list(islice(workloads.specs(workload, 7), 300))
    assert first == list(islice(workloads.specs(workload, 7), 300))
    assert first != list(islice(workloads.specs(workload, 8), 300))


def test_classify_small_shape():
    specs = list(islice(workloads.specs("classify-small", 3), 3000))
    a_values = [s[2] if s[0] == "sym" else s[1] for s in specs]
    assert len(set(map(abs, a_values))) == len(a_values)
    pool = {s[-1] for s in specs}
    assert len(pool) <= workloads.POOL_PRIMES + workloads.POOL_COMPOSITES
    assert all(abs(v) <= workloads.SMALL_MAX for s in specs for v in s[1:])


def test_classify_large_inputs_distinct_and_in_contract():
    specs = list(islice(workloads.specs("classify-large", 3), 500))
    a_values = [s[2] if s[0] == "sym" else s[1] for s in specs]
    assert len(set(a_values)) == len(a_values)
    assert len({s[-1] for s in specs}) == len(specs)
    assert all(abs(v) <= workloads.LARGE_MAX for s in specs for v in s[1:])


def _record(fn, *args):
    try:
        return {"out": _verdict(fn(*args))}
    except ValueError as exc:
        return {"err": f"ValueError: {exc}"}


def test_checker_passes_real_verdicts():
    for spec in islice(workloads.specs("classify-small", 11), 400):
        fn = {"q": classify_quaternion_q, "qi": classify_quaternion_qi, "sym": classify_symbol}[spec[0]]
        outcome, detail = check.check(spec, _record(fn, *spec[1:]))
        assert outcome in (check.PASS, check.KNOWN_WITNESS), (spec, detail)


def test_checker_flags_planted_wrong_verdict():
    spec = ("q", 33, 29)
    rec = _record(classify_quaternion_q, 33, 29)
    assert check.check(spec, rec)[0] == check.PASS
    wrong = json.loads(json.dumps(rec))
    wrong["out"]["status"] = "Split"
    wrong["out"]["ramified"] = []
    wrong["out"]["disc"] = 1
    assert check.check(spec, wrong)[0] == check.UNEXPECTED
    flipped = json.loads(json.dumps(rec))
    flipped["out"]["cert"]["symbols"]["p=3"] *= -1
    assert check.check(spec, flipped)[0] == check.UNEXPECTED
    qi_spec = ("qi", 10, 29)
    qi = _record(classify_quaternion_qi, 10, 29)
    assert check.check(qi_spec, qi)[0] == check.PASS
    qi["out"]["status"] = "Split"
    assert check.check(qi_spec, qi)[0] == check.UNEXPECTED


def test_checker_flags_planted_wrong_symbol_value():
    spec = ("sym", 3, 7, 19)
    rec = _record(classify_symbol, 3, 7, 19)
    assert check.check(spec, rec)[0] == check.PASS
    rec["out"]["cert"]["witnesses"]["ell=7,f=1"] = 4
    assert check.check(spec, rec)[0] == check.UNEXPECTED


def test_known_defects_are_named_failures():
    # p^(-1) used where the tame formula needs p^(-m): witness 2, reference 4
    assert check.check(("sym", 3, 49, 19), _record(classify_symbol, 3, 49, 19))[0] == check.KNOWN_WITNESS
    a, b = 10**10 + 19, 10**10 + 33
    rec = _record(classify_quaternion_q, a, b)
    assert "err" in rec
    assert check.check(("q", a, b), rec)[0] == check.KNOWN_OVERFLOW
    assert check.check(("q", 3, 5), {"err": "ValueError: magnitude exceeds 2**63"})[0] == check.UNEXPECTED


def _oracle_record(kind, a, b, h_q, h_qi):
    fn = {"conic": conic_search, "norm": norm_search_quadratic, "iso": isotropy_search}[kind]
    return {"out": {"q": _witness(fn(a, b, "q", h_q)), "qi": _witness(fn(a, b, "qi", h_qi))}}


def test_oracle_checks():
    for a, b in ((3, -7), (2, 7), (-3, -5), (5, 13)):
        for kind, h_q in (("conic", 200), ("norm", 100), ("iso", 100)):
            spec = (kind, a, b, h_q, 8)
            assert check.check(spec, _oracle_record(*spec))[0] == check.PASS, spec
    split_pair = ("conic", 2, 7, 200, 8)
    assert check.check(split_pair, {"out": {"q": None, "qi": None}})[0] == check.UNEXPECTED
    assert check.check(split_pair, {"out": {"q": ["1", "1", "2"], "qi": None}})[0] == check.UNEXPECTED
    iso = ("iso", 5, 7, 100, 8)
    rec = _oracle_record(*iso)
    rec["out"]["qi"] = ["1", "i", "0", "0"]
    assert check.check(iso, rec)[0] == check.UNEXPECTED


def test_reference_hilbert_reciprocity():
    values = workloads.squarefree_values(40) + [1, -1]
    for a in values:
        for b in values:
            prod = 1
            for v in check.q_symbols(a, b).values():
                prod *= v
            assert prod == 1, (a, b)


def test_gaussian_parser_round_trip():
    from quatsym import GaussianInt, format_gaussian

    for re_ in range(-3, 4):
        for im in range(-3, 4):
            assert check.parse_gaussian(format_gaussian(GaussianInt(re_, im))) == (re_, im)


def test_speed_factor_scales_to_reference():
    meter = speed.Meter(["python", "numpy"])
    ref = {unit: int(speed.REF_NS[unit]) for unit in meter.units}
    slow = {unit: 2 * ns for unit, ns in ref.items()}
    assert meter.factor(ref, ref, "python") == 1.0
    assert meter.factor(slow, slow, "numpy") == 0.5
    assert meter.factor(ref, {"python": 3 * ref["python"], "numpy": ref["numpy"]}, "python") == 0.5
    assert meter.factor(ref, {"python": 3 * ref["python"], "numpy": ref["numpy"]}, "numpy") == 1.0
    assert all(ns > 0 for ns in meter.measure().values())


def test_later_passes_must_repeat_outputs():
    cli = ("cli", "classify", "quaternion", "--field=q", "3", "5", "--json")

    def one_pass(status, ms):
        stdout = json.dumps({"status": status, "ms": ms})
        return {"records": [
            {"spec": ("q", 3, 5), "out": {"status": status.title()}},
            {"spec": cli, "out": {"rc": 0, "stdout": stdout, "stderr": ""}},
        ]}

    first = one_pass("split", 0.2)
    assert run.differing([first, one_pass("split", 0.3)]) == []  # the CLI's own timing
    assert len(run.differing([first, one_pass("split", 0.2), one_pass("division", 0.2)])) == 2
    raised = {"records": [{"spec": ("q", 3, 5), "err": "ValueError: x"}, first["records"][1]]}
    assert len(run.differing([first, raised])) == 1


def test_benchmark_json_matches_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    assert names == [n for n in workloads.WORKLOADS if n in names]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_tracer_counts_calls_through_from_imports(tmp_path):
    path = tmp_path / "spans.npz"
    code = (
        "import tracer; t = tracer.install(); import quatsym.classifier as c; "
        f"c.classify_quaternion_qi(10, 29); t.save({str(path)!r})"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env, check=True, timeout=60)
    spans = tracer.summarize([str(path)])
    # 5 and 29 split: four odd places, each evaluated by the classifier and
    # again inside hasse_qi_dyadic
    assert spans["calls"]["local_symbols.hasse_qi_odd"] == 8
    assert spans["calls"]["local_symbols.hasse_qi_dyadic"] == 1
    assert spans["counters"]["places"] == 5
    assert spans["min_self_ns"] >= 0
    assert spans["root_ns"] >= sum(spans["self_ns"].values()) - 1
