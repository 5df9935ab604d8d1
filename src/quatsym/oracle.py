"""Brute-force certificates independent of the symbol machinery.

Searches for conic points, norm-equation witnesses, and isotropic vectors
of the quaternion norm form, plus exact relative-norm evaluation in Kummer
extensions of cyclotomic fields.  Every returned witness is re-verified by
exact integer/rational arithmetic before it is returned; an absent result
is always inconclusive and never implies a division verdict.

numpy is used only to sweep candidate grids; all accepted witnesses are
confirmed with exact Python integers.
"""
from __future__ import annotations

import math
import re as _re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from . import rational
from .gaussian import GaussianInt

Number = Union[int, Fraction]

DEFAULT_BOUND_Q = 100
DEFAULT_BOUND_QI = 30

# Largest |value| the int64 sweep kernels may produce without overflow.
_INT64_SAFE = 1 << 61


@dataclass(frozen=True)
class SearchBound:
    """Height cap: max |numerator| / |denominator| / component enumerated."""

    height: int

    def __post_init__(self) -> None:
        if not isinstance(self.height, int) or isinstance(self.height, bool):
            raise ValueError("height must be an integer")
        if self.height < 1:
            raise ValueError("height must be >= 1")


def _height(bound: Union[int, SearchBound, None], field: str) -> int:
    if bound is None:
        return DEFAULT_BOUND_Q if field == "q" else DEFAULT_BOUND_QI
    if isinstance(bound, SearchBound):
        return bound.height
    return SearchBound(bound).height


def _check_field(field: str) -> str:
    if field not in ("q", "qi"):
        raise ValueError(f"field must be 'q' or 'qi', got {field!r}")
    return field


# ---------------------------------------------------------------------------
# Cyclotomic arithmetic
# ---------------------------------------------------------------------------


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise ValueError(f"expected an integer or Fraction, got {x!r}")


@dataclass(frozen=True)
class CycloElt:
    """Element of the q-th cyclotomic field, q an odd prime.

    Stored as c0 + c1*z + ... + c_{q-2}*z^{q-2} on the power basis of a
    primitive q-th root of unity z; the top power folds back through
    z^{q-1} = -(1 + z + ... + z^{q-2}).
    """

    q: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.q - 1:
            raise ValueError(f"need exactly {self.q - 1} coefficients")

    @classmethod
    def from_rational(cls, q: int, value) -> "CycloElt":
        c = [Fraction(0)] * (q - 1)
        c[0] = _as_fraction(value)
        return cls(q, tuple(c))

    @classmethod
    def zeta(cls, q: int, power: int = 1) -> "CycloElt":
        """z**power as a basis combination."""
        k = power % q
        c = [Fraction(0)] * (q - 1)
        if k < q - 1:
            c[k] += 1
        else:
            for j in range(q - 1):
                c[j] -= 1
        return cls(q, tuple(c))

    def _match(self, other: "CycloElt") -> None:
        if self.q != other.q:
            raise ValueError(f"mixed cyclotomic orders {self.q} and {other.q}")

    def __add__(self, other: "CycloElt") -> "CycloElt":
        self._match(other)
        return CycloElt(self.q, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycloElt") -> "CycloElt":
        self._match(other)
        return CycloElt(self.q, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycloElt":
        return CycloElt(self.q, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "CycloElt") -> "CycloElt":
        self._match(other)
        q = self.q
        # Convolve, fold exponents through z^q = 1, then eliminate z^{q-1}.
        folded = [Fraction(0)] * q
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    folded[(i + j) % q] += a * b
        top = folded[q - 1]
        return CycloElt(q, tuple(folded[j] - top for j in range(q - 1)))

    def __pow__(self, n: int) -> "CycloElt":
        if n < 0:
            return self.inverse() ** (-n)
        result = CycloElt.from_rational(self.q, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def inverse(self) -> "CycloElt":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        q = self.q
        phi = [Fraction(1)] * q  # 1 + x + ... + x^{q-1}, irreducible
        g, s = _poly_half_xgcd(list(self.coeffs), phi)
        # g is a nonzero constant (phi is irreducible), s*self = g mod phi
        inv = [c / g[0] for c in s]
        inv += [Fraction(0)] * (q - 1 - len(inv))
        # s has degree < q-1 already, but reduce defensively
        elt = CycloElt(q, tuple(inv[: q - 1]))
        return elt

    def __truediv__(self, other: "CycloElt") -> "CycloElt":
        return self * other.inverse()

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def __str__(self) -> str:
        parts: list[str] = []
        for k in range(self.q - 2, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                zeta = f"zeta_{self.q}" if k == 1 else f"zeta_{self.q}^{k}"
                body = zeta if abs(c) == 1 else f"{abs(c)}*{zeta}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts) if parts else "0"


def _poly_deg(p: Sequence[Fraction]) -> int:
    for i in range(len(p) - 1, -1, -1):
        if p[i]:
            return i
    return -1


def _poly_divmod_frac(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    db = _poly_deg(b)
    r = list(a)
    quo = [Fraction(0)] * max(_poly_deg(a) - db + 1, 1)
    while _poly_deg(r) >= db:
        dr = _poly_deg(r)
        c = r[dr] / b[db]
        quo[dr - db] = c
        for i in range(db + 1):
            r[dr - db + i] -= c * b[i]
    return quo, r


def _poly_half_xgcd(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """(g, s) with s*a = g (mod b) and g = gcd(a, b), over Q[x]."""
    r0, r1 = list(b), list(a)
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while _poly_deg(r1) >= 0:
        quo, rem = _poly_divmod_frac(r0, r1)
        r0, r1 = r1, rem
        # s_new = s0 - quo*s1
        prod = [Fraction(0)] * (len(quo) + len(s1))
        for i, qc in enumerate(quo):
            if qc:
                for j, sc in enumerate(s1):
                    if sc:
                        prod[i + j] += qc * sc
        width = max(len(s0), len(prod))
        s_new = [(s0[i] if i < len(s0) else Fraction(0)) - (prod[i] if i < len(prod) else Fraction(0)) for i in range(width)]
        s0, s1 = s1, s_new
    if _poly_deg(r0) < 0:
        raise ZeroDivisionError("gcd of zero polynomials")
    return r0[: _poly_deg(r0) + 1], s0


# ---------------------------------------------------------------------------
# Polynomials over CycloElt and the resultant
# ---------------------------------------------------------------------------


def _cp_deg(p: Sequence[CycloElt]) -> int:
    for i in range(len(p) - 1, -1, -1):
        if p[i]:
            return i
    return -1


def _cp_mod(a: Sequence[CycloElt], b: Sequence[CycloElt]) -> list[CycloElt]:
    db = _cp_deg(b)
    lead_inv = b[db].inverse()
    r = list(a)
    while _cp_deg(r) >= db:
        dr = _cp_deg(r)
        c = r[dr] * lead_inv
        for i in range(db + 1):
            r[dr - db + i] = r[dr - db + i] - c * b[i]
    return r


def _resultant(a: Sequence[CycloElt], b: Sequence[CycloElt], q: int) -> CycloElt:
    da, db = _cp_deg(a), _cp_deg(b)
    if da < 0 or db < 0:
        return CycloElt.from_rational(q, 0)
    if db == 0:
        return b[0] ** da
    r = _cp_mod(a, b)
    dr = _cp_deg(r)
    if dr < 0:
        return CycloElt.from_rational(q, 0)
    sign = -1 if (da * db) % 2 else 1
    lead_pow = b[db] ** (da - dr)
    tail = _resultant(list(b[: db + 1]), r[: dr + 1], q)
    out = lead_pow * tail
    return -out if sign < 0 else out


def kummer_norm_eval(q: int, a: int, f: Sequence[Union[CycloElt, int, Fraction]]) -> CycloElt:
    """Relative norm of f(b) from the Kummer extension K(b), b**q = a.

    K is the q-th cyclotomic field and f is given by its coefficients,
    constant term first, of degree < q.  The norm is the product of f over
    the roots of x**q - a, computed as a resultant with exact CycloElt
    coefficient arithmetic.
    """
    rational.check_magnitude(a)
    if q == 2 or not rational.is_prime(q):
        raise ValueError(f"degree must be an odd prime, got {q}")
    if a == 0:
        raise ValueError("a must be nonzero")
    coeffs: list[CycloElt] = []
    for c in f:
        if isinstance(c, CycloElt):
            if c.q != q:
                raise ValueError(f"coefficient in Q(zeta_{c.q}) inside a degree-{q} norm")
            coeffs.append(c)
        else:
            coeffs.append(CycloElt.from_rational(q, c))
    deg = _cp_deg(coeffs)
    if deg < 0:
        raise ValueError("the zero polynomial has no norm")
    if deg >= q:
        raise ValueError(f"polynomial degree must be < {q}, got {deg}")
    g = [CycloElt.from_rational(q, 0)] * (q + 1)
    g[0] = CycloElt.from_rational(q, -a)
    g[q] = CycloElt.from_rational(q, 1)
    return _resultant(g, coeffs[: deg + 1], q)


# ---------------------------------------------------------------------------
# Parser for MAGMA-style polynomials over Q(zeta_q)
# ---------------------------------------------------------------------------

_TOKEN = _re.compile(r"\s*(zeta_\d+|\d+|[A-Za-z]|\^|\*|\+|\-|\(|\))")

_Poly = dict  # degree -> CycloElt


class _PolyParser:
    """Recursive-descent parser for strings like
    "(-zeta_3 - 1)*b^2 + (-2*zeta_3 - 2)*b - 2*zeta_3 - 2".
    """

    def __init__(self, text: str, q: int):
        self.q = q
        self.tokens: list[str] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise ValueError(f"bad character in polynomial: {text[pos:].strip()[0]!r}")
                break
            self.tokens.append(m.group(1))
            pos = m.end()
        self.i = 0
        self.var: Optional[str] = None

    def peek(self) -> Optional[str]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of polynomial")
        self.i += 1
        return tok

    def _zero(self) -> _Poly:
        return {}

    def _const(self, value) -> _Poly:
        return {0: CycloElt.from_rational(self.q, value)}

    def _add(self, a: _Poly, b: _Poly, sign: int) -> _Poly:
        out = dict(a)
        for d, c in b.items():
            cur = out.get(d)
            nxt = (cur + c if sign > 0 else cur - c) if cur is not None else (c if sign > 0 else -c)
            if nxt:
                out[d] = nxt
            elif d in out:
                del out[d]
        return out

    def _mul(self, a: _Poly, b: _Poly) -> _Poly:
        out: _Poly = {}
        for da, ca in a.items():
            for db, cb in b.items():
                c = ca * cb
                if not c:
                    continue
                cur = out.get(da + db)
                nxt = cur + c if cur is not None else c
                if nxt:
                    out[da + db] = nxt
                elif da + db in out:
                    del out[da + db]
        return out

    def parse(self) -> _Poly:
        poly = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing input near {self.peek()!r}")
        return poly

    def expr(self) -> _Poly:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        acc = self._add(self._zero(), self.term(), sign)
        while self.peek() in ("+", "-"):
            sign = 1
            while self.peek() in ("+", "-"):
                if self.take() == "-":
                    sign = -sign
            acc = self._add(acc, self.term(), sign)
        return acc

    def term(self) -> _Poly:
        acc = self.factor()
        while self.peek() == "*":
            self.take()
            acc = self._mul(acc, self.factor())
        return acc

    def _exponent(self) -> int:
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if not tok.isdigit():
                raise ValueError(f"bad exponent {tok!r}")
            return int(tok)
        return 1

    def factor(self) -> _Poly:
        tok = self.take()
        if tok == "(":
            inner = self.expr()
            if self.take() != ")":
                raise ValueError("unbalanced parenthesis")
            if self.peek() == "^":
                e = self._exponent()
                out = self._const(1)
                for _ in range(e):
                    out = self._mul(out, inner)
                return out
            return inner
        if tok.isdigit():
            rational.check_magnitude(int(tok))
            return self._const(int(tok))
        if tok.startswith("zeta_"):
            order = int(tok[5:])
            if order != self.q:
                raise ValueError(f"zeta_{order} does not live in Q(zeta_{self.q})")
            e = self._exponent()
            return {0: CycloElt.zeta(self.q, e)}
        if len(tok) == 1 and tok.isalpha():
            if self.var is None:
                self.var = tok
            elif tok != self.var:
                raise ValueError(f"two variables {self.var!r} and {tok!r} in one polynomial")
            e = self._exponent()
            return {e: CycloElt.from_rational(self.q, 1)}
        raise ValueError(f"unexpected token {tok!r}")


def parse_cyclo_poly(text: str, q: int) -> tuple[CycloElt, ...]:
    """Coefficients (constant first) of a polynomial over Q(zeta_q).

    Accepts the MAGMA-flavoured syntax used for Kummer norm witnesses,
    e.g. "(-zeta_3 - 1)*b^2 + (-2*zeta_3 - 2)*b - 2*zeta_3 - 2".
    """
    if q == 2 or not rational.is_prime(q):
        raise ValueError(f"degree must be an odd prime, got {q}")
    poly = _PolyParser(text, q).parse()
    if not poly:
        raise ValueError("the zero polynomial has no norm")
    deg = max(poly)
    zero = CycloElt.from_rational(q, 0)
    return tuple(poly.get(d, zero) for d in range(deg + 1))


# ---------------------------------------------------------------------------
# The quaternion norm form and witness searches
# ---------------------------------------------------------------------------


def quaternion_norm(a1: Number, a2: Number, a3: Number, a4: Number, alpha: int, beta: int) -> Number:
    """a1**2 + alpha*a2**2 + beta*a3**2 + alpha*beta*a4**2."""
    return a1 * a1 + alpha * (a2 * a2) + beta * (a3 * a3) + alpha * beta * (a4 * a4)


def _check_coeffs(alpha: int, beta: int) -> None:
    rational.check_magnitude(alpha, beta)
    if alpha == 0 or beta == 0:
        raise ValueError("parameters must be nonzero")


def _guard_int64(worst: int) -> None:
    if worst >= _INT64_SAFE:
        raise ValueError(
            "search parameters too large for the exact vectorized sweep; "
            "reduce the coefficients or the bound"
        )


def _exact_isqrt_match(n: int) -> Optional[int]:
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def _np_isqrt(values: "np.ndarray") -> tuple["np.ndarray", "np.ndarray"]:
    """(root, is_perfect_square) for a nonnegative int64 array, exactly."""
    root = np.rint(np.sqrt(values.astype(np.float64))).astype(np.int64)
    # float sqrt may be off by one ulp on large inputs; test three candidates
    best = np.zeros_like(root)
    ok = np.zeros(values.shape, dtype=bool)
    for delta in (-1, 0, 1):
        cand = root + delta
        hit = (cand >= 0) & (cand * cand == values)
        best = np.where(hit & ~ok, cand, best)
        ok |= hit
    return best, ok


def _gaussian_sqrt(wre: int, wim: int) -> Optional[GaussianInt]:
    """The canonical square root of wre + wim*i in Z[i], if one exists."""
    t = _exact_isqrt_match(wre * wre + wim * wim)
    if t is None:
        return None
    h = wre + t
    if h % 2:
        return None
    r = _exact_isqrt_match(h // 2)
    if r is None:
        return None
    k = (t - wre) // 2
    s = _exact_isqrt_match(k)
    if s is None:
        return None
    if 2 * r * s == wim:
        z = GaussianInt(r, s)
    elif 2 * r * s == -wim:
        z = GaussianInt(r, -s)
    else:
        return None
    if z.re == 0 and z.im < 0:
        z = -z
    return z


def _canonical_components(h: int) -> list[tuple[int, int]]:
    """Sign-canonical Gaussian integers with |re|, |im| <= h.

    One representative of each {g, -g} pair: re > 0, or re = 0 and im >= 0;
    sorted by (norm, re, im).
    """
    comps = []
    for re_ in range(0, h + 1):
        lo = 0 if re_ == 0 else -h
        for im_ in range(lo, h + 1):
            comps.append((re_ * re_ + im_ * im_, re_, im_))
    comps.sort()
    return [(re_, im_) for _, re_, im_ in comps]


def conic_search(
    alpha: int,
    beta: int,
    field: str = "q",
    bound: Union[int, SearchBound, None] = None,
) -> Optional[tuple]:
    """Nonzero solution of alpha*x**2 + beta*y**2 = z**2, if found in range.

    Over Q the coordinates are integers in [0, bound] (signs are immaterial,
    the form is even in each variable), minimal under (max(x,y,z), x, y).
    Over Q(i) they are Gaussian integers with components bounded by `bound`,
    sign-canonical, minimal under ((norm,re,im) of x, then of y).  Absent
    means inconclusive.
    """
    _check_coeffs(alpha, beta)
    field = _check_field(field)
    h = _height(bound, field)
    if field == "q":
        return _conic_q(alpha, beta, h)
    return _conic_qi(alpha, beta, h)


def _conic_q(alpha: int, beta: int, h: int) -> Optional[tuple[int, int, int]]:
    _guard_int64((abs(alpha) + abs(beta)) * h * h)
    ys = np.arange(0, h + 1, dtype=np.int64)
    by2 = beta * ys * ys
    best = None
    for x in range(0, h + 1):
        z2 = alpha * x * x + by2
        nonneg = z2 >= 0
        z, ok = _np_isqrt(np.where(nonneg, z2, 0))
        ok &= nonneg & (z <= h)
        if x == 0:
            ok[0] = False  # the zero triple
        if not ok.any():
            continue
        for y in np.flatnonzero(ok):
            y = int(y)
            zz = int(z[y])
            key = (max(x, y, zz), x, y)
            if best is None or key < best[0]:
                best = (key, (x, y, zz))
    if best is None:
        return None
    x, y, zz = best[1]
    assert alpha * x * x + beta * y * y == zz * zz and (x, y, zz) != (0, 0, 0)
    return (x, y, zz)


def _conic_qi(alpha: int, beta: int, h: int) -> Optional[tuple[GaussianInt, GaussianInt, GaussianInt]]:
    worst = (abs(alpha) + abs(beta)) * 2 * h * h
    _guard_int64(worst * worst * 2)
    comps = _canonical_components(h)
    cre = np.array([c[0] for c in comps], dtype=np.int64)
    cim = np.array([c[1] for c in comps], dtype=np.int64)
    sq_re = cre * cre - cim * cim
    sq_im = 2 * cre * cim
    for xre, xim in comps:
        axre = alpha * (xre * xre - xim * xim)
        axim = alpha * (2 * xre * xim)
        wre = axre + beta * sq_re
        wim = axim + beta * sq_im
        n2 = wre * wre + wim * wim
        t, ok = _np_isqrt(n2)
        half = wre + t
        ok &= (half >= 0) & (half % 2 == 0)
        r, r_ok = _np_isqrt(np.where(ok, half // 2, 0))
        k = (t - wre) // 2
        s, s_ok = _np_isqrt(np.where(ok, np.where(k >= 0, k, 0), 0))
        ok &= r_ok & s_ok & (k >= 0)
        ok &= (2 * r * s == np.abs(wim)) & (r <= h) & (s <= h)
        if xre == 0 and xim == 0:
            ok[0] = False  # the zero triple
        if not ok.any():
            continue
        idx = int(np.argmax(ok))
        x = GaussianInt(xre, xim)
        y = GaussianInt(int(cre[idx]), int(cim[idx]))
        w = GaussianInt(int(wre[idx]), int(wim[idx]))
        z = _gaussian_sqrt(w.re, w.im)
        assert z is not None and abs(z.re) <= h and abs(z.im) <= h
        lhs = GaussianInt(alpha, 0) * x * x + GaussianInt(beta, 0) * y * y
        assert lhs == z * z and not (x.is_zero() and y.is_zero() and z.is_zero())
        return (x, y, z)
    return None


@dataclass(frozen=True)
class GaussianRational:
    """num/den with num in Z[i] and den a positive rational integer."""

    num: GaussianInt
    den: int = 1

    def __post_init__(self) -> None:
        if self.den <= 0:
            raise ValueError("denominator must be positive")
        g = math.gcd(math.gcd(abs(self.num.re), abs(self.num.im)), self.den)
        if g > 1:
            object.__setattr__(self, "num", GaussianInt(self.num.re // g, self.num.im // g))
            object.__setattr__(self, "den", self.den // g)

    def re(self) -> Fraction:
        return Fraction(self.num.re, self.den)

    def im(self) -> Fraction:
        return Fraction(self.num.im, self.den)

    def __str__(self) -> str:
        if self.den == 1:
            return str(self.num)
        if self.num.im == 0:
            return f"{self.num.re}/{self.den}"
        return f"({self.num})/{self.den}"


def norm_search_quadratic(
    alpha: int,
    target: int,
    field: str = "q",
    bound: Union[int, SearchBound, None] = None,
) -> Optional[tuple]:
    """Witness (x, y) with x**2 - alpha*y**2 = target, or absent.

    x and y range over the base field: fractions (over Q) or Gaussian
    fractions (over Q(i)) whose numerators and denominators are bounded by
    `bound`.  Enumeration: common denominator d ascending, then y ascending
    (by absolute value over Q, by (norm, re, im) over Q(i)); x is determined
    by y up to sign and is returned nonnegative/canonical.  alpha must not
    be a square in the base field, else the extension degenerates.
    """
    rational.check_magnitude(alpha, target)
    field = _check_field(field)
    h = _height(bound, field)
    if field == "q":
        if alpha >= 0 and rational.is_square(alpha):
            raise ValueError(f"alpha = {alpha} is a perfect square in Q")
        return _norm_search_q(alpha, target, h)
    if rational.is_square(abs(alpha)):
        raise ValueError(f"alpha = {alpha} is a perfect square in Q(i)")
    return _norm_search_qi(alpha, target, h)


def _norm_search_q(alpha: int, target: int, h: int) -> Optional[tuple[Fraction, Fraction]]:
    for d in range(1, h + 1):
        td2 = target * d * d
        best = None
        for yi in range(0, h + 1):
            xi2 = td2 + alpha * yi * yi
            xi = _exact_isqrt_match(xi2) if xi2 >= 0 else None
            if xi is None or xi > h:
                continue
            key = (max(xi, yi), yi, xi)
            if best is None or key < best[0]:
                best = (key, (xi, yi))
        if best is not None:
            xi, yi = best[1]
            x, y = Fraction(xi, d), Fraction(yi, d)
            assert x * x - alpha * y * y == target
            return (x, y)
    return None


def _norm_search_qi(alpha: int, target: int, h: int) -> Optional[tuple[GaussianRational, GaussianRational]]:
    for d in range(1, h + 1):
        td2 = target * d * d
        for yre, yim in _canonical_components(h):
            wre = td2 + alpha * (yre * yre - yim * yim)
            wim = alpha * (2 * yre * yim)
            x = _gaussian_sqrt(wre, wim)
            if x is None or abs(x.re) > h or abs(x.im) > h:
                continue
            gx, gy = GaussianRational(x, d), GaussianRational(GaussianInt(yre, yim), d)
            lhs_re = gx.re() ** 2 - gx.im() ** 2 - alpha * (gy.re() ** 2 - gy.im() ** 2)
            lhs_im = 2 * gx.re() * gx.im() - alpha * 2 * gy.re() * gy.im()
            assert lhs_re == target and lhs_im == 0
            return (gx, gy)
    return None


def isotropy_search(
    alpha: int,
    beta: int,
    field: str = "q",
    bound: Union[int, SearchBound, None] = None,
) -> Optional[tuple]:
    """Nonzero zero of the norm form x1**2 - alpha*x2**2 - beta*x3**2 + alpha*beta*x4**2.

    This is the reduced norm form of the algebra presented by (alpha, beta);
    it equals quaternion_norm evaluated with parameters (-alpha, -beta).
    Over Q the components are integers in [0, bound] (the form is even in
    each variable), and over Q(i) sign-canonical Gaussian integers with
    components bounded by `bound`.  Absent is inconclusive; over Q with
    alpha < 0 and beta < 0 the form is positive definite and the search
    is skipped (no nonzero zero exists at any bound).
    """
    _check_coeffs(alpha, beta)
    field = _check_field(field)
    h = _height(bound, field)
    if field == "q":
        if alpha < 0 and beta < 0:
            return None
        return _isotropy_q(alpha, beta, h)
    return _isotropy_qi(alpha, beta, h)


def _form_value(x1, x2, x3, x4, alpha: int, beta: int):
    return x1 * x1 - alpha * x2 * x2 - beta * x3 * x3 + alpha * beta * x4 * x4


def _isotropy_q(alpha: int, beta: int, h: int) -> Optional[tuple[int, int, int, int]]:
    # x1^2 - alpha*x2^2  ==  beta*(x3^2 - alpha*x4^2): meet in the middle.
    rhs: dict[int, tuple[int, int]] = {}
    for x3 in range(0, h + 1):
        for x4 in range(0, h + 1):
            v = beta * (x3 * x3 - alpha * x4 * x4)
            if v not in rhs:
                rhs[v] = (x3, x4)
    best = None
    for x1 in range(0, h + 1):
        for x2 in range(0, h + 1):
            v = x1 * x1 - alpha * x2 * x2
            hit = rhs.get(v)
            if hit is None:
                continue
            x3, x4 = hit
            if x1 == x2 == x3 == x4 == 0:
                continue
            key = (x1, x2, x3, x4)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    assert _form_value(*best, alpha, beta) == 0
    return best


def _isotropy_qi(alpha: int, beta: int, h: int) -> Optional[tuple[GaussianInt, ...]]:
    comps = _canonical_components(h)
    n = len(comps)
    if n * n > 12_000_000:
        raise ValueError("bound too large for the Gaussian isotropy search")
    worst = (1 + abs(alpha)) * (1 + abs(beta)) * 2 * h * h
    _guard_int64(worst << 33)
    cre = np.array([c[0] for c in comps], dtype=np.int64)
    cim = np.array([c[1] for c in comps], dtype=np.int64)
    sq_re, sq_im = cre * cre - cim * cim, 2 * cre * cim

    def plane(coef_a: int, coef_b: int) -> "np.ndarray":
        # values coef_a*u^2 + coef_b*v^2 over the component grid, packed
        vre = coef_a * sq_re[:, None] + coef_b * sq_re[None, :]
        vim = coef_a * sq_im[:, None] + coef_b * sq_im[None, :]
        return ((vre << 32) + vim).ravel()

    lhs = plane(1, -alpha)                     # x1^2 - alpha*x2^2
    rhs = plane(beta, -alpha * beta)           # beta*x3^2 - alpha*beta*x4^2
    matches = np.isin(lhs, rhs)
    for flat in np.flatnonzero(matches):
        value = lhs[flat]
        rs = np.flatnonzero(rhs == value)
        if flat == 0:
            rs = rs[rs != 0]
        if rs.size == 0:
            continue
        i, j = divmod(int(flat), n)
        k, m = divmod(int(rs[0]), n)
        quad = (
            GaussianInt(*comps[i]),
            GaussianInt(*comps[j]),
            GaussianInt(*comps[k]),
            GaussianInt(*comps[m]),
        )
        x1, x2, x3, x4 = quad
        a, b = GaussianInt(alpha, 0), GaussianInt(beta, 0)
        total = x1 * x1 - a * x2 * x2 - b * x3 * x3 + a * b * x4 * x4
        assert total.is_zero() and any(not g.is_zero() for g in quad)
        return quad
    return None
