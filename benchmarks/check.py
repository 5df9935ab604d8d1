"""Independent output check for every benchmark operation.

Nothing here imports quatsym.  Factoring and primality come from sympy;
Hilbert symbols are refsymbols.hilbert (Serre, Ch. III Thm 1);
Q(i) invariants are derived by base change from Q (a place over a split
prime p carries (a, b)_p, every other place of Q(i) has even local degree
and is trivial); tame symbols are t^((ell^f - 1)/q) mod ell with
t = (-1)^(mn) * alpha^n * p^(-m), Neukirch, Ch. V Sec. 3.

check() returns one outcome per operation:
    "pass"                          output verified
    "known:product-overflow"        in-contract pair rejected because the
                                    classifier factors a_sf * b_sf > 2**63
    "known:tame-witness"            symbol witness computed with p^(-1)
                                    where the tame formula needs p^(-m)
    "unexpected"                    any other failure
Known defects are failures: they count in `failed`, they are only named.
"""
from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache

from sympy import factorint, isprime
from sympy.ntheory import n_order

from refsymbols import hilbert

LIMIT = 1 << 63
PASS = "pass"
KNOWN_OVERFLOW = "known:product-overflow"
KNOWN_WITNESS = "known:tame-witness"
UNEXPECTED = "unexpected"

_STATUS = {"split": "Split", "division": "Division", "undetermined": "Undetermined"}

# reproduce-paper row keys encode the spec: "q:a:b", "qi:a:b", "sym<q>:alpha:p"
ROW_COUNT = 14


class CheckError(Exception):
    """An output that contradicts the reference."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


# ---------------------------------------------------------------------------
# Reference arithmetic
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _prime(n: int) -> bool:
    return isprime(n)


@lru_cache(maxsize=1 << 16)
def _factors(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(factorint(abs(n)).items()))


def squarefree(n: int) -> int:
    out = -1 if n < 0 else 1
    for p, e in _factors(n):
        if e & 1:
            out *= p
    return out


def _odd_primes(n: int) -> list[int]:
    return [p for p, _ in _factors(n) if p != 2]


def q_symbols(a: int, b: int) -> dict[str, int]:
    """Reference certificate symbols of (a, b) over Q."""
    a_sf, b_sf = squarefree(a), squarefree(b)
    places: list = [2] + sorted(set(_odd_primes(a_sf)) | set(_odd_primes(b_sf))) + ["real"]
    return {("real" if p == "real" else f"p={p}"): hilbert(a_sf, b_sf, p) for p in places}


def qi_invariants(a: int, b: int) -> dict[int, int]:
    """Odd rational prime p | a_sf*b_sf -> invariant at each place over p."""
    a_sf, b_sf = squarefree(a), squarefree(b)
    primes = set(_odd_primes(a_sf)) | set(_odd_primes(b_sf))
    return {p: hilbert(a_sf, b_sf, p) if p % 4 == 1 else 1 for p in primes}


def split_over_q(a: int, b: int) -> bool:
    return all(v == 1 for v in q_symbols(a, b).values())


def split_over_qi(a: int, b: int) -> bool:
    return all(v == 1 for v in qi_invariants(a, b).values())


def product_exceeds_contract(a: int, b: int) -> bool:
    return abs(squarefree(a) * squarefree(b)) > LIMIT


def symbol_precondition(q: int, alpha: int, p: int) -> str | None:
    """Why the degree-q pair (alpha, p) is outside the tame domain, if it is."""
    if p < 2 or not _prime(p):
        return "p not prime"
    if p == q:
        return "p = q"
    if alpha % p == 0:
        return "p divides alpha"
    if alpha % q == 0:
        return "q divides alpha"
    return None


def q_reduced(alpha: int, q: int) -> int:
    out = 1
    for ell, e in _factors(alpha):
        out *= ell ** (e % q)
    return out


def _tame_exponent(ell: int, f: int, q: int) -> int:
    return (ell**f - 1) // q


def tame_witnesses(q: int, alpha: int, p: int, *, inverse_power: bool = True) -> dict[str, int]:
    """Reference witnesses keyed like the certificate ("ell=7,f=1").

    inverse_power=False reproduces the known p^(-1)-for-p^(-m) defect so a
    mismatch can be named.
    """
    reduced = q_reduced(alpha, q)
    out = {}
    for ell in sorted({p} | {e for e, _ in _factors(reduced)}):
        f = n_order(ell, q)
        if ell == p:
            t = reduced % ell
        else:
            m = _valuation(reduced, ell)
            t = pow(p, -(m if inverse_power else 1), ell)
        out[f"ell={ell},f={f}"] = pow(t, _tame_exponent(ell, f, q), ell)
    return out


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def reference_status(spec: tuple) -> str:
    """Split / Division / Undetermined of a ("q"|"qi"|"sym", ...) spec."""
    kind = spec[0]
    if kind == "q":
        split = split_over_q(*spec[1:])
    elif kind == "qi":
        split = split_over_qi(*spec[1:])
    elif symbol_precondition(*spec[1:]) is not None:
        return "Undetermined"
    else:
        split = all(w == 1 for w in tame_witnesses(*spec[1:]).values())
    return "Split" if split else "Division"


# ---------------------------------------------------------------------------
# Parsing the program's place and witness strings
# ---------------------------------------------------------------------------

def parse_gaussian(text: str) -> tuple[int, int]:
    """Inverse of quatsym's compact a+bi format ("3", "-2+5i", "i", "-2i")."""
    if not text.endswith("i"):
        return int(text), 0
    body = text[:-1]
    k = max(body.rfind("+"), body.rfind("-"))
    if k > 0:
        re_text, im_text = body[:k], body[k:]
    else:
        re_text, im_text = "0", body
    im = {"": 1, "+": 1, "-": -1}.get(im_text)
    return int(re_text), int(im_text) if im is None else im


def parse_gaussian_rational(text: str) -> tuple[Fraction, Fraction]:
    if text.startswith("("):
        num, den = text[1:].split(")/")
        re, im = parse_gaussian(num)
        return Fraction(re, int(den)), Fraction(im, int(den))
    if "/" in text:
        return Fraction(text), Fraction(0)
    re, im = parse_gaussian(text)
    return Fraction(re), Fraction(im)


def _gsq(x: tuple[int, int]) -> tuple[int, int]:
    """(re + im*i)**2 as (re, im)."""
    return (x[0] * x[0] - x[1] * x[1], 2 * x[0] * x[1])


# ---------------------------------------------------------------------------
# Verdict checks
# ---------------------------------------------------------------------------

def _check_status(out: dict, ramified_ref: set[str]) -> None:
    _require(set(out["ramified"]) == ramified_ref,
             f"ramified {sorted(out['ramified'])} != reference {sorted(ramified_ref)}")
    _require(len(out["ramified"]) == len(ramified_ref), "duplicate ramified places")
    want = "Division" if ramified_ref else "Split"
    _require(out["status"] == want, f"status {out['status']} != reference {want}")


def check_q(a: int, b: int, out: dict) -> None:
    cert = out["cert"]
    _require(cert["reduced"] == [squarefree(a), squarefree(b)], f"reduced {cert['reduced']}")
    ref = q_symbols(a, b)
    _require(cert["symbols"] == ref, f"symbols {cert['symbols']} != reference {ref}")
    prod = 1
    for v in cert["symbols"].values():
        prod *= v
    _require(prod == 1, "Hilbert symbols violate reciprocity")
    ramified = {k for k, v in ref.items() if v == -1}
    _check_status(out, ramified)
    disc = 1
    for k in ramified:
        if k != "real":
            disc *= int(k[2:])
    _require(out["disc"] == disc, f"discriminant {out['disc']} != {disc}")


def check_qi(a: int, b: int, out: dict) -> None:
    cert = out["cert"]
    _require(cert["reduced"] == [squarefree(a), squarefree(b)], f"reduced {cert['reduced']}")
    ref = qi_invariants(a, b)
    symbols = dict(cert["symbols"])
    _require(symbols.pop("pi=1+i", None) == 1, "dyadic invariant missing or nontrivial")
    seen: dict[int, set] = {}
    ramified = set()
    for key, value in symbols.items():
        _require(key.startswith("pi="), f"bad place {key}")
        re, im = parse_gaussian(key[3:])
        _require(re > 0 and im >= 0, f"{key} is not canonical")
        p = re if im == 0 else re * re + im * im
        _require(p in ref, f"{key} lies over {p}, not a prime of a_sf*b_sf")
        _require((im == 0) == (p % 4 == 3), f"{key} has the wrong splitting type")
        _require(value == ref[p], f"{key}: {value} != reference {ref[p]}")
        seen.setdefault(p, set()).add((re, im))
        if value == -1:
            ramified.add(key)
    for p in ref:
        _require(len(seen.get(p, ())) == (2 if p % 4 == 1 else 1), f"places over {p} missing")
    _check_status(out, ramified)


def check_symbol(q: int, alpha: int, p: int, out: dict) -> str:
    reason = symbol_precondition(q, alpha, p)
    if reason is not None:
        _require(out["status"] == "Undetermined", f"{reason}, yet status {out['status']}")
        _require(bool((out["cert"] or {}).get("reason")), "Undetermined without a reason")
        return PASS
    cert = out["cert"]
    _require(cert["reduced_alpha"] == q_reduced(alpha, q), f"reduced_alpha {cert['reduced_alpha']}")
    ref = tame_witnesses(q, alpha, p)
    got = cert["witnesses"]
    _require(set(got) == set(ref), f"places {sorted(got)} != {sorted(ref)}")
    _check_status(out, {k for k, w in ref.items() if w != 1})
    if got != ref:
        defect = tame_witnesses(q, alpha, p, inverse_power=False)
        _require(got == defect, f"witnesses {got} != reference {ref}")
        return KNOWN_WITNESS
    return PASS


def check_verdict(spec: tuple, out: dict) -> str:
    kind = spec[0]
    _require(out["status"] in ("Split", "Division", "Undetermined"), f"status {out['status']}")
    _require((out["status"] == "Split") == (out["status"] != "Undetermined" and not out["ramified"]),
             "Split must mean an empty ramified list")
    if kind == "q":
        check_q(spec[1], spec[2], out)
    elif kind == "qi":
        check_qi(spec[1], spec[2], out)
    else:
        return check_symbol(spec[1], spec[2], spec[3], out)
    return PASS


# ---------------------------------------------------------------------------
# Oracle checks
# ---------------------------------------------------------------------------

def check_oracle(spec: tuple, out: dict) -> str:
    """One oracle check: the search over Q and the search over Q(i)."""
    kind, a, b, h_q, h_qi = spec
    check_search(kind, "q", a, b, h_q, out["q"])
    check_search(kind, "qi", a, b, h_qi, out["qi"])
    return PASS


def check_search(kind: str, field: str, a: int, b: int, h: int, witness) -> None:
    split = split_over_q(a, b) if field == "q" else split_over_qi(a, b)
    if witness is None:
        if kind == "conic" and field == "q":
            _require(not split, f"({a},{b}) splits over Q but no conic point of height {h}")
        return
    _require(split, f"witness {witness} for a pair that is division over {field}")
    if kind == "norm":
        if field == "q":
            x, y = (Fraction(w) for w in witness)
            _require(x * x - a * y * y == b, f"{witness} does not solve x^2 - {a}y^2 = {b}")
        else:
            (xr, xi), (yr, yi) = (parse_gaussian_rational(w) for w in witness)
            re = xr * xr - xi * xi - a * (yr * yr - yi * yi)
            im = 2 * xr * xi - 2 * a * yr * yi
            _require(re == b and im == 0, f"{witness} does not solve x^2 - {a}y^2 = {b}")
        return
    pts = [(int(w), 0) for w in witness] if field == "q" else [parse_gaussian(w) for w in witness]
    _require(any(pt != (0, 0) for pt in pts), "zero witness")
    _require(all(abs(c) <= h for pt in pts for c in pt), f"{witness} exceeds height {h}")
    if kind == "conic":
        x, y, z = (_gsq(pt) for pt in pts)
        lhs = (a * x[0] + b * y[0], a * x[1] + b * y[1])
        _require(lhs == z, f"{witness} is not on {a}x^2 + {b}y^2 = z^2")
    else:
        s1, s2, s3, s4 = (_gsq(pt) for pt in pts)
        total = [s1[k] - a * s2[k] - b * s3[k] + a * b * s4[k] for k in (0, 1)]
        _require(total == [0, 0], f"{witness} is not isotropic for ({a},{b})")


# ---------------------------------------------------------------------------
# CLI checks
# ---------------------------------------------------------------------------

def _row_spec(key: str) -> tuple:
    head, x, y = key.split(":")
    if head in ("q", "qi"):
        return (head, int(x), int(y))
    return ("sym", int(head[3:]), int(x), int(y))


def cli_verdict_spec(spec: tuple) -> tuple | None:
    """The ("q"|"qi"|"sym", ...) spec of a `classify` invocation, None otherwise."""
    argv = spec[1:]
    if argv[0] != "classify":
        return None
    if argv[1] == "quaternion":
        return (argv[2].split("=")[1], int(argv[3]), int(argv[4]))
    return ("sym", int(argv[2].split("=")[1]), int(argv[3]), int(argv[4]))


def check_cli(spec: tuple, out: dict) -> str:
    argv = spec[1:]
    _require(out["rc"] in (0, 1), f"exit code {out['rc']}: {out['stderr'][-300:]}")
    payload = json.loads(out["stdout"])
    _require(payload.get("schema") == 1, "schema is not 1")
    if argv[0] == "reproduce-paper":
        rows = payload["rows"]
        _require(len(rows) == ROW_COUNT and payload["total"] == ROW_COUNT, "row count")
        _require(payload["all_ok"] and payload["matches"] == ROW_COUNT and out["rc"] == 0,
                 "reproduce-paper reports mismatches")
        for row in rows:
            want = reference_status(_row_spec(row["key"]))
            _require(row["computed"] == want, f"row {row['key']}: {row['computed']} != {want}")
        return PASS
    vspec = cli_verdict_spec(spec)
    if vspec[0] == "sym":
        echo = {"kind": "symbol", "q": vspec[1], "alpha": vspec[2], "p": vspec[3]}
    else:
        echo = {"kind": "quaternion", "field": vspec[0], "a": vspec[1], "b": vspec[2]}
    _require(payload["spec"] == echo, f"spec echo {payload['spec']} != {echo}")
    verdict = {
        "status": _STATUS[payload["status"]],
        "ramified": payload["ramified"],
        "disc": payload["discriminant"],
        "fast_path": payload["fast_path"],
        "cert": payload["certificate"],
    }
    _require((out["rc"] == 1) == (verdict["status"] == "Undetermined"), "exit code/status mismatch")
    return check_verdict(vspec, verdict)


# ---------------------------------------------------------------------------

def check(spec: tuple, record: dict) -> tuple[str, str]:
    """(outcome, detail) for one operation record {"out": ...} or {"err": ...}."""
    kind = spec[0]
    err = record.get("err")
    if err is not None:
        if (kind in ("q", "qi") and "exceeds 2**63" in err
                and abs(spec[1]) <= LIMIT and abs(spec[2]) <= LIMIT
                and product_exceeds_contract(spec[1], spec[2])):
            return KNOWN_OVERFLOW, err
        return UNEXPECTED, err
    try:
        if kind in ("q", "qi", "sym"):
            return check_verdict(spec, record["out"]), ""
        if kind == "cli":
            return check_cli(spec, record["out"]), ""
        return check_oracle(spec, record["out"]), ""
    except (CheckError, KeyError, TypeError, ValueError) as exc:
        return UNEXPECTED, f"{type(exc).__name__}: {exc}"
