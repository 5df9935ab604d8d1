"""Local symbols: Hilbert symbols over Q, Hasse invariants over Q(i), and
tame degree-q norm-residue symbols over cyclotomic fields.

Every symbol at an odd prime ell comes from one kernel, the tame unit
t = (-1)^(mn) * u^n * v^(-m) mod ell of a = ell^m * u and b = ell^n * v
(Serre, A Course in Arithmetic, Ch. III Thm 1; Neukirch, Algebraic Number
Theory, Ch. V Sec. 3):

* the Hilbert symbol (a, b)_ell over Q is t^((ell - 1)/2);
* over Q(i), by base change (Voight, Quaternion Algebras, Ch. 14), each
  place over ell carries (a, b)_ell when ell = 1 (mod 4) and +1 when
  ell = 3 (mod 4), whose place has even local degree; the archimedean
  place is complex, so the invariant at 1+i is the product of the odd ones;
* the degree-q witness at the places over ell is t^((ell^f - 1)/q), with
  (alpha, p) in place of (a, b).

`hilbert_at`, `qi_invariant` and `witness_at` evaluate these at a prime the
caller has already certified and re-prove nothing; the classifier feeds them
primes read off its factorizations.  The public kernels validate their input
and then call the same evaluators.  A quadratic symbol value is +1 exactly
when the quaternion algebra splits locally; a QTriviality is the analogous
statement for a degree-q symbol algebra, together with its witness.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import rational
from .gaussian import GaussianPrime, split_prime

# A quadratic local symbol: always -1 or +1.
QuadSymbol = int


@dataclass(frozen=True)
class Place:
    """A place of Q, Q(i) or Q(zeta_q), tagged by kind.

    Serialized forms: "p=3", "p=2", "real", "pi=5+2i", "pi=1+i",
    "ell=7,f=1".
    """

    kind: str
    p: int | None = None
    pi: GaussianPrime | None = None
    ell: int | None = None
    f: int | None = None

    @classmethod
    def q_odd(cls, p: int) -> "Place":
        return cls("q_odd", p=p)

    @classmethod
    def q_two(cls) -> "Place":
        return cls("q_two", p=2)

    @classmethod
    def q_real(cls) -> "Place":
        return cls("q_real")

    @classmethod
    def qi_odd(cls, pi: GaussianPrime) -> "Place":
        return cls("qi_odd", pi=pi)

    @classmethod
    def qi_dyadic(cls) -> "Place":
        return cls("qi_dyadic")

    @classmethod
    def cyclo(cls, ell: int, f: int) -> "Place":
        return cls("cyclo", ell=ell, f=f)

    def sort_key(self) -> tuple[int, ...]:
        if self.kind in ("q_odd", "q_two"):
            return (0, self.p or 0)
        if self.kind == "q_real":
            return (1, 0)
        if self.kind == "qi_odd":
            assert self.pi is not None
            return self.pi.sort_key()
        if self.kind == "qi_dyadic":
            return (2, 1, 1)
        return (self.ell or 0,)

    def __str__(self) -> str:
        if self.kind in ("q_odd", "q_two"):
            return f"p={self.p}"
        if self.kind == "q_real":
            return "real"
        if self.kind == "qi_odd":
            return f"pi={self.pi}"
        if self.kind == "qi_dyadic":
            return "pi=1+i"
        return f"ell={self.ell},f={self.f}"


@dataclass(frozen=True)
class QTriviality:
    """Triviality of a degree-q symbol at the places over one rational prime.

    witness is t**((ell**f - 1)/q) mod ell; the symbol is trivial exactly
    when the witness is 1.
    """

    trivial: bool
    witness: int


def _split_off(n: int, p: int) -> tuple[int, int]:
    """n = p**e * u with p not dividing u; returns (e, u)."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


def _tame_unit(a: int, b: int, ell: int) -> int:
    """The kernel: t = (-1)^(mn) * u^n * v^(-m) mod ell for a = ell^m u, b = ell^n v."""
    m, u = _split_off(a, ell)
    n, v = _split_off(b, ell)
    sign = -1 if (m * n) % 2 else 1
    return sign * pow(u, n, ell) * pow(v, -m, ell) % ell


def hilbert_at(a: int, b: int, ell: int) -> QuadSymbol:
    """(a, b)_ell at an odd prime ell the caller has certified: t^((ell-1)/2)."""
    return 1 if pow(_tame_unit(a, b, ell), (ell - 1) // 2, ell) == 1 else -1


def qi_invariant(symbol: QuadSymbol, ell: int) -> QuadSymbol:
    """The Hasse invariant over Q(i) at each place over the odd prime ell,
    given the rational symbol (a, b)_ell."""
    return symbol if ell % 4 == 1 else 1


def witness_at(alpha: int, p: int, q: int, ell: int, f: int) -> int:
    """t^((ell^f - 1)/q) mod ell at a certified prime ell != q of residue degree f.

    t lies in the prime field, so the exponent matters only mod ell - 1; as q
    divides ell^f - 1, reducing ell^f mod q*(ell - 1) first yields it
    without forming ell^f.
    """
    e = (pow(ell, f, q * (ell - 1)) - 1) // q
    return pow(_tame_unit(alpha, p, ell), e, ell)


def odd_support(fa: rational.FactoredInt, fb: rational.FactoredInt) -> list[int]:
    """The odd primes of the square-free parts of a and b, ascending: the
    only odd primes at which (a, b) can be nontrivial."""
    return sorted({p for p, e in fa.factors + fb.factors if e & 1 and p != 2})


def _check_nonzero(a: int, b: int) -> None:
    rational.check_magnitude(a, b)
    if a == 0 or b == 0:
        raise ValueError("symbol arguments must be nonzero")


def hilbert_odd(a: int, b: int, p: int) -> QuadSymbol:
    """Hilbert symbol (a, b)_p at an odd prime, by the tame formula.

    With a = p**alpha * u and b = p**beta * v:
    (a,b)_p = (-1)^(alpha*beta*(p-1)/2) * (u/p)^beta * (v/p)^alpha.
    """
    _check_nonzero(a, b)
    if p == 2 or not rational.is_prime(p):
        raise ValueError(f"hilbert_odd needs an odd prime, got {p}")
    return hilbert_at(a, b, p)


def hilbert_two(a: int, b: int) -> QuadSymbol:
    """Hilbert symbol (a, b)_2.

    With a = 2**alpha * u and b = 2**beta * v:
    (-1)^(eps(u)eps(v) + alpha*omega(v) + beta*omega(u)),
    where eps(u) = (u-1)/2 and omega(u) = (u^2-1)/8 taken mod 2.
    """
    _check_nonzero(a, b)
    alpha, u = _split_off(a, 2)
    beta, v = _split_off(b, 2)
    eps = lambda w: ((w - 1) // 2) % 2
    omega = lambda w: ((w * w - 1) // 8) % 2
    exponent = eps(u) * eps(v) + alpha * omega(v) + beta * omega(u)
    return -1 if exponent % 2 else 1


def hilbert_real(a: int, b: int) -> QuadSymbol:
    """Hilbert symbol at the real place: -1 only for two negatives."""
    _check_nonzero(a, b)
    return -1 if (a < 0 and b < 0) else 1


def hasse_qi_odd(a: int, b: int, pi: GaussianPrime) -> QuadSymbol:
    """Hasse invariant of (a, b) over Q(i) at an odd Gaussian prime.

    Base change from Q: (a, b)_p at a split prime over p = 1 (mod 4), and +1
    at an inert prime, whose residue field F_{p**2} makes every rational
    unit a square.
    """
    _check_nonzero(a, b)
    if pi.kind == "ramified":
        raise ValueError("use hasse_qi_dyadic for the place over 2")
    p = pi.residue_char
    return qi_invariant(hilbert_at(a, b, p), p)


def hasse_qi_dyadic(a: int, b: int) -> QuadSymbol:
    """Hasse invariant of (a, b) over Q(i) at the prime 1+i.

    The archimedean place of Q(i) is complex, so the product formula pins
    the dyadic invariant as the product of the odd-place invariants; only
    odd primes of the square-free parts of a and b can contribute.
    """
    _check_nonzero(a, b)
    return math.prod(
        qi_invariant(hilbert_at(a, b, p), p)
        for p in odd_support(rational.factor(a), rational.factor(b))
        for _ in split_prime(p)
    )


def tame_q_symbol(alpha: int, p: int, q: int, ell: int) -> QTriviality:
    """Triviality of the degree-q symbol (alpha, p) at the primes over ell.

    ell != q is unramified in Q(zeta_q) with residue degree
    f = ord(ell mod q), so the residue field is F_{ell**f} and the symbol is
    trivial iff the tame unit t = (-1)^(mn) * alpha^n * p^(-m) is a q-th
    power there, i.e. iff t^((ell**f - 1)/q) = 1.  Rational t lives in the
    prime field, so the witness is an ordinary residue mod ell.  One
    computation decides every prime of Q(zeta_q) over ell at once: rational
    data is Galois-invariant.
    """
    rational.check_magnitude(alpha, p, q, ell)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    if q == 2 or not rational.is_prime(q):
        raise ValueError(f"degree must be an odd prime, got {q}")
    if not rational.is_prime(p) or not rational.is_prime(ell):
        raise ValueError("p and ell must be prime")
    if ell == q:
        raise ValueError("the place over q is wild; only tame places are computed")
    if alpha % q == 0:
        raise ValueError(f"{q} divides alpha: the symbol is not tame at q")
    if alpha % p == 0:
        raise ValueError("alpha and p must be coprime")
    witness = witness_at(alpha, p, q, ell, rational.multiplicative_order(ell, q))
    return QTriviality(witness == 1, witness)
