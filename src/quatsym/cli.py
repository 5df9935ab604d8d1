"""Command-line surface: one-shot queries and the fixture report.

Exit codes: 0 success, 1 Undetermined verdict / inconclusive search /
fixture mismatch, 2 usage or domain error, 3 internal invariant failure (a
bug, e.g. a fast-path rule contradicting the local symbols).  With --json,
output follows the stable schema {"schema": 1, ...}; otherwise a small
aligned table or a bare value is printed.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from . import rational
from .classifier import (
    UNDETERMINED,
    InvariantError,
    Verdict,
    classify_quaternion_q,
    classify_quaternion_qi,
    classify_symbol,
)
from .gaussian import factor_gaussian, parse_gaussian
from .local_symbols import hilbert_odd, hilbert_real, hilbert_two
from .oracle import (
    DEFAULT_BOUND_Q,
    DEFAULT_BOUND_QI,
    conic_search,
    isotropy_search,
    kummer_norm_eval,
    norm_search_quadratic,
    parse_cyclo_poly,
)
from .report import reproduce_paper


def _print_table(rows: list[tuple[str, str]]) -> None:
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        print(f"{key:<{width}}  {value}")


def _verdict_payload(spec_echo: dict, verdict: Verdict, ms: float) -> dict:
    return {
        "schema": 1,
        "spec": spec_echo,
        "status": verdict.status.lower(),
        "ramified": [str(p) for p in verdict.ramified],
        "discriminant": verdict.discriminant,
        "fast_path": verdict.fast_path,
        "certificate": verdict.certificate,
        "ms": ms,
    }


def _emit_verdict(args, spec_echo: dict, verdict: Verdict, ms: float) -> int:
    if args.json:
        print(json.dumps(_verdict_payload(spec_echo, verdict, ms)))
    else:
        rows = [("status", verdict.status)]
        if verdict.status == UNDETERMINED:
            rows.append(("reason", (verdict.certificate or {}).get("reason", "")))
        else:
            ram = ", ".join(str(p) for p in verdict.ramified) or "(none)"
            rows.append(("ramified", ram))
            if verdict.discriminant is not None:
                rows.append(("discriminant", str(verdict.discriminant)))
            rows.append(("fast_path", verdict.fast_path or "(none)"))
            if verdict.certificate is not None:
                rows.append(("certificate", json.dumps(verdict.certificate)))
        rows.append(("ms", f"{ms:.3f}"))
        _print_table(rows)
    return 1 if verdict.status == UNDETERMINED else 0


def _cmd_classify_quaternion(args) -> int:
    classify = classify_quaternion_q if args.field == "q" else classify_quaternion_qi
    echo = {"kind": "quaternion", "field": args.field, "a": args.a, "b": args.b}
    t0 = time.perf_counter()
    verdict = classify(args.a, args.b)
    ms = round((time.perf_counter() - t0) * 1000, 3)
    return _emit_verdict(args, echo, verdict, ms)


def _cmd_classify_symbol(args) -> int:
    echo = {"kind": "symbol", "q": args.q, "alpha": args.alpha, "p": args.p}
    t0 = time.perf_counter()
    verdict = classify_symbol(args.q, args.alpha, args.p)
    ms = round((time.perf_counter() - t0) * 1000, 3)
    return _emit_verdict(args, echo, verdict, ms)


def _cmd_legendre(args) -> int:
    value = rational.legendre(args.a, args.p)
    if args.json:
        print(json.dumps({"schema": 1, "kind": "legendre", "a": args.a, "p": args.p, "value": value}))
    else:
        print(value)
    return 0


def _cmd_hilbert(args) -> int:
    if args.place == "real":
        value = hilbert_real(args.a, args.b)
    else:
        try:
            p = int(args.place)
        except ValueError:
            raise ValueError(f"place must be an odd prime, 2, or 'real', got {args.place!r}")
        value = hilbert_two(args.a, args.b) if p == 2 else hilbert_odd(args.a, args.b, p)
    if args.json:
        print(json.dumps({"schema": 1, "kind": "hilbert", "a": args.a, "b": args.b,
                          "place": args.place, "value": value}))
    else:
        print(value)
    return 0


def _cmd_gaussian_factor(args) -> int:
    z = parse_gaussian(args.n)
    unit, factors = factor_gaussian(z)
    if args.json:
        print(json.dumps({
            "schema": 1,
            "kind": "gaussian-factor",
            "input": args.n,
            "unit": str(unit),
            "factors": [
                {"pi": str(gp.element), "exp": e,
                 "residue_char": gp.residue_char, "kind": gp.kind}
                for gp, e in factors
            ],
        }))
    else:
        rows = [("unit", str(unit))]
        rows += [(str(gp.element), str(e)) for gp, e in factors]
        _print_table(rows)
    return 0


def _resolve_bound(args) -> int:
    if args.bound is not None:
        return args.bound
    return DEFAULT_BOUND_Q if args.field == "q" else DEFAULT_BOUND_QI


def _emit_witness(args, kind: str, echo: dict, witness: Optional[tuple], names: str) -> int:
    height = _resolve_bound(args)
    if args.json:
        payload = {"schema": 1, "kind": kind, **echo, "bound": height,
                   "witness": None if witness is None else [str(w) for w in witness]}
        print(json.dumps(payload))
    elif witness is None:
        print(f"no witness found within height {height}; inconclusive")
    else:
        print("  ".join(f"{n}={w}" for n, w in zip(names.split(), witness)))
    return 0 if witness is not None else 1


def _cmd_oracle_conic(args) -> int:
    witness = conic_search(args.alpha, args.beta, args.field, args.bound)
    echo = {"field": args.field, "alpha": args.alpha, "beta": args.beta}
    return _emit_witness(args, "conic", echo, witness, "x y z")


def _cmd_oracle_norm(args) -> int:
    witness = norm_search_quadratic(args.alpha, args.target, args.field, args.bound)
    echo = {"field": args.field, "alpha": args.alpha, "target": args.target}
    return _emit_witness(args, "norm", echo, witness, "x y")


def _cmd_oracle_isotropy(args) -> int:
    witness = isotropy_search(args.alpha, args.beta, args.field, args.bound)
    echo = {"field": args.field, "alpha": args.alpha, "beta": args.beta}
    return _emit_witness(args, "isotropy", echo, witness, "x1 x2 x3 x4")


def _cmd_kummer_norm(args) -> int:
    coeffs = parse_cyclo_poly(args.poly, args.q)
    norm = kummer_norm_eval(args.q, args.a, coeffs)
    if args.json:
        print(json.dumps({"schema": 1, "kind": "kummer-norm", "q": args.q, "a": args.a,
                          "poly": args.poly, "norm": str(norm),
                          "is_rational": norm.is_rational()}))
    else:
        print(norm)
    return 0


def _cmd_reproduce(args) -> int:
    t0 = time.perf_counter()
    results = reproduce_paper(only=args.only)
    ms = round((time.perf_counter() - t0) * 1000, 3)
    matches = sum(1 for r in results if r["ok"])
    all_ok = matches == len(results)
    if args.json:
        print(json.dumps({"schema": 1, "kind": "reproduction", "rows": results,
                          "matches": matches, "total": len(results),
                          "all_ok": all_ok, "ms": ms}))
    else:
        for r in results:
            mark = "OK  " if r["ok"] else "FAIL"
            print(f"{mark} {r['key']:<12} {r['description']:<55} "
                  f"expected {r['expected']:<9} computed {r['computed']}")
            for m in r["mismatches"]:
                print(f"       {m}")
        print(f"{matches}/{len(results)} rows match")
    return 0 if all_ok else 1


def _int_arg(text: str) -> int:
    return int(text, 10)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatsym",
        description="Split/division classification of quaternion and symbol "
                    "algebras via exact local symbols, with brute-force "
                    "search oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify an algebra")
    csub = p_classify.add_subparsers(dest="what", required=True)

    p_cq = csub.add_parser("quaternion", help="quaternion algebra over Q or Q(i)")
    p_cq.add_argument("--field", choices=["q", "qi"], required=True,
                      help="base field: q for the rationals, qi for the Gaussian rationals")
    p_cq.add_argument("a", type=_int_arg)
    p_cq.add_argument("b", type=_int_arg)
    p_cq.add_argument("--json", action="store_true")
    p_cq.set_defaults(func=_cmd_classify_quaternion)

    p_cs = csub.add_parser("symbol", help="degree-q symbol algebra over the q-th cyclotomic field")
    p_cs.add_argument("--q", type=_int_arg, required=True, help="odd prime degree")
    p_cs.add_argument("alpha", type=_int_arg)
    p_cs.add_argument("p", type=_int_arg)
    p_cs.add_argument("--json", action="store_true")
    p_cs.set_defaults(func=_cmd_classify_symbol)

    p_leg = sub.add_parser("legendre", help="Legendre symbol (a/p)")
    p_leg.add_argument("a", type=_int_arg)
    p_leg.add_argument("p", type=_int_arg)
    p_leg.add_argument("--json", action="store_true")
    p_leg.set_defaults(func=_cmd_legendre)

    p_hil = sub.add_parser("hilbert", help="Hilbert symbol (a,b) at a place of Q")
    p_hil.add_argument("a", type=_int_arg)
    p_hil.add_argument("b", type=_int_arg)
    p_hil.add_argument("place", help="an odd prime, 2, or 'real'")
    p_hil.add_argument("--json", action="store_true")
    p_hil.set_defaults(func=_cmd_hilbert)

    p_g = sub.add_parser("gaussian", help="Gaussian integer utilities")
    gsub = p_g.add_subparsers(dest="what", required=True)
    p_gf = gsub.add_parser("factor", help="factor a Gaussian integer")
    p_gf.add_argument("n", help="integer or a+bi, e.g. 29 or -2+5i")
    p_gf.add_argument("--json", action="store_true")
    p_gf.set_defaults(func=_cmd_gaussian_factor)

    p_o = sub.add_parser("oracle", help="brute-force witness searches")
    osub = p_o.add_subparsers(dest="what", required=True)

    def _oracle_common(p):
        p.add_argument("--field", choices=["q", "qi"], default="q")
        p.add_argument("--bound", type=_int_arg, default=None,
                       help=f"search height (default {DEFAULT_BOUND_Q} over Q, "
                            f"{DEFAULT_BOUND_QI} over Q(i))")
        p.add_argument("--json", action="store_true")

    p_oc = osub.add_parser("conic", help="point on alpha*x^2 + beta*y^2 = z^2")
    p_oc.add_argument("alpha", type=_int_arg)
    p_oc.add_argument("beta", type=_int_arg)
    _oracle_common(p_oc)
    p_oc.set_defaults(func=_cmd_oracle_conic)

    p_on = osub.add_parser("norm", help="witness of x^2 - alpha*y^2 = target")
    p_on.add_argument("alpha", type=_int_arg)
    p_on.add_argument("target", type=_int_arg)
    _oracle_common(p_on)
    p_on.set_defaults(func=_cmd_oracle_norm)

    p_oi = osub.add_parser("isotropy", help="nonzero zero of the reduced norm form")
    p_oi.add_argument("alpha", type=_int_arg)
    p_oi.add_argument("beta", type=_int_arg)
    _oracle_common(p_oi)
    p_oi.set_defaults(func=_cmd_oracle_isotropy)

    p_kn = sub.add_parser("kummer-norm",
                          help="relative norm from the degree-q Kummer extension")
    p_kn.add_argument("--q", type=_int_arg, required=True, help="odd prime degree")
    p_kn.add_argument("--a", type=_int_arg, required=True, help="the q-th power of the generator")
    p_kn.add_argument("--poly", required=True,
                      help='element as a polynomial in the generator, e.g. '
                           '"(-zeta_3 - 1)*b^2 + (-2*zeta_3 - 2)*b - 2*zeta_3 - 2"')
    p_kn.add_argument("--json", action="store_true")
    p_kn.set_defaults(func=_cmd_kummer_norm)

    p_rp = sub.add_parser("reproduce-paper",
                          help="re-derive the published example table and compare")
    p_rp.add_argument("--only", default=None, metavar="ROW",
                      help="run a single row, e.g. qi:10:29")
    p_rp.add_argument("--json", action="store_true")
    p_rp.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal invariant failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
