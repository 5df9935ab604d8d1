"""Global split/division verdicts from local symbols.

A quaternion algebra presented by a pair (a, b) over Q or Q(i), or a
degree-q symbol algebra presented by (alpha, p) over the q-th cyclotomic
field, splits exactly when every local symbol is trivial.  classify() makes
one pass per spec: it factors each parameter once, reads the square-free
parts and the candidate primes off those factorizations, and evaluates the
(finitely many) possibly-nontrivial local symbols through local_symbols.
The ramified places, the discriminant, the certificate and the fast-path
tag of the first sufficient criterion that applies all come from that pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar, Union

from . import rational
from .gaussian import split_prime
from .local_symbols import (
    Place,
    hilbert_at,
    hilbert_real,
    hilbert_two,
    odd_support,
    qi_invariant,
    witness_at,
)
from .rational import FactoredInt

SPLIT = "Split"
DIVISION = "Division"
UNDETERMINED = "Undetermined"

# Fast-path tags, named for the sufficient condition they implement.
FP_QI_NONRESIDUE_DIVISION = "qi-nonresidue-division"
FP_QI_RESIDUE_SPLIT = "qi-residue-split"
FP_QI_CLASS_NUMBER_ONE_SPLIT = "qi-class-number-one-split"
FP_Q_ALL_DIVISORS_RESIDUES_SPLIT = "q-all-divisors-residues-split"
FP_CYCLO_NONRESIDUE_DIVISION = "cyclotomic-nonresidue-division"

_ZERO_MSG = "parameters must be nonzero"


class InvariantError(AssertionError):
    """An internal consistency check failed: a bug, never a property of the input."""


@dataclass(frozen=True)
class _Quaternion:
    """Quaternion algebra over `field` presented by the rational pair (a, b)."""

    field: ClassVar[str]
    a: int
    b: int

    def __post_init__(self) -> None:
        rational.check_magnitude(self.a, self.b)
        if self.a == 0 or self.b == 0:
            raise ValueError(_ZERO_MSG)


class QuaternionQ(_Quaternion):
    """Quaternion algebra over Q presented by the pair (a, b)."""

    field = "q"


class QuaternionQi(_Quaternion):
    """Quaternion algebra over Q(i) presented by a rational pair (a, b)."""

    field = "qi"


@dataclass(frozen=True)
class SymbolAlgebra:
    """Degree-q symbol algebra over the q-th cyclotomic field.

    q must be an odd prime and alpha nonzero; softer preconditions
    (p prime, p != q, gcd(alpha, p) = 1, q not dividing alpha) are checked
    by the classifier, which reports violations as Undetermined verdicts
    rather than exceptions.
    """

    q: int
    alpha: int
    p: int

    def __post_init__(self) -> None:
        rational.check_magnitude(self.q, self.alpha, self.p)
        if self.alpha == 0:
            raise ValueError(_ZERO_MSG)
        if self.q == 2 or self.q < 2 or not rational.is_prime(self.q):
            raise ValueError(f"degree must be an odd prime, got {self.q}")


AlgebraSpec = Union[QuaternionQ, QuaternionQi, SymbolAlgebra]


@dataclass(frozen=True)
class Verdict:
    """Classification result.

    ramified lists the places with nontrivial symbol, sorted; Split means
    the list is empty.  For symbol algebras only the tame places are
    listed (the wild place over q is never computed directly).
    discriminant is reported over Q only: the product of the finite
    ramified primes, 1 for a split algebra.  fast_path names the
    sufficient criterion that decided the verdict, when one applied.
    certificate carries the reduced parameters and every computed symbol.
    """

    status: str
    ramified: tuple[Place, ...] = ()
    discriminant: int | None = None
    fast_path: str | None = None
    certificate: dict | None = None


def brown_parry_alpha_set() -> tuple[int, ...]:
    """The 22 values d with Q(i, sqrt(d)) of class number one."""
    magnitudes = (2, 3, 5, 7, 11, 13, 19, 37, 43, 67, 163)
    return tuple(sorted([m for m in magnitudes] + [-m for m in magnitudes]))


def _undetermined_reason(q: int, alpha: int, p: int) -> str | None:
    if p < 2 or not rational.is_prime(p):
        return f"p = {p} is not prime"
    if p == q:
        return f"p = q = {q}: the place over q is wild and is not computed"
    if alpha % p == 0:
        return f"p = {p} divides alpha = {alpha}"
    if alpha % q == 0:
        return f"q = {q} divides alpha = {alpha}"
    return None


def _quaternion_pass(spec: _Quaternion) -> tuple[Verdict, FactoredInt, dict[int, int]]:
    """Verdict without tag, the factorization of a, and (a, b)_ell at each odd candidate ell."""
    fa, fb = rational.factor(spec.a), rational.factor(spec.b)
    a_sf, b_sf = fa.squarefree_part(), fb.squarefree_part()
    local = {ell: hilbert_at(a_sf, b_sf, ell) for ell in odd_support(fa, fb)}
    if spec.field == "q":
        symbols = [(Place.q_two(), hilbert_two(a_sf, b_sf))]
        symbols += [(Place.q_odd(ell), s) for ell, s in local.items()]
        symbols.append((Place.q_real(), hilbert_real(a_sf, b_sf)))
    else:
        symbols = [(Place.qi_odd(gp), qi_invariant(s, ell))
                   for ell, s in local.items() for gp, _ in split_prime(ell)]
        # the archimedean place is complex: the product formula pins 1+i
        symbols.insert(0, (Place.qi_dyadic(), math.prod(s for _, s in symbols)))
    ramified = tuple(pl for pl, s in symbols if s == -1)
    disc = math.prod(pl.p for pl in ramified if pl.p) if spec.field == "q" else None
    certificate = {
        "reduced": [a_sf, b_sf],
        "symbols": {str(pl): s for pl, s in symbols},
    }
    return Verdict(DIVISION if ramified else SPLIT, ramified, disc, None, certificate), fa, local


def _symbol_pass(spec: SymbolAlgebra) -> tuple[Verdict, FactoredInt, dict[int, int]]:
    """Verdict without tag, the factorization of alpha, and the witness at each candidate ell."""
    q, p = spec.q, spec.p
    falpha = rational.factor(spec.alpha)
    # alpha matters only up to q-th powers (and -1 is a q-th power).
    reduced = math.prod(ell ** (e % q) for ell, e in falpha.factors)
    candidates = sorted({p}.union(ell for ell, e in falpha.factors if e % q))
    witnesses = []
    local = {}
    for ell in candidates:
        f = rational.multiplicative_order(ell, q)
        local[ell] = witness_at(reduced, p, q, ell, f)
        witnesses.append((Place.cyclo(ell, f), local[ell]))
    ramified = tuple(pl for pl, w in witnesses if w != 1)
    certificate = {
        "reduced_alpha": reduced,
        "witnesses": {str(pl): w for pl, w in witnesses},
    }
    return Verdict(DIVISION if ramified else SPLIT, ramified, None, None, certificate), falpha, local


def _fast_path_rule(
    spec: AlgebraSpec, fa: FactoredInt, local: dict[int, int]
) -> tuple[str, str] | None:
    """The first applicable sufficient criterion: (tag, predicted status).

    Reads only what the pass computed: fa factors the first parameter, and
    local maps each candidate prime ell to (a, b)_ell over Q, or to the
    degree-q witness for a symbol spec.  Each rule is restricted to a
    subdomain on which it is actually sound; a spec outside every subdomain
    simply gets no tag.
    """
    if isinstance(spec, SymbolAlgebra):
        if spec.p % spec.q == 1 and local[spec.p] != 1:
            # alpha is not a q-th power in the residue field at p, so the
            # tame symbol at p is already nontrivial.
            return (FP_CYCLO_NONRESIDUE_DIVISION, DIVISION)
        return None
    a, p = spec.a, spec.b
    # local holds odd primes only, and holds b exactly when b is an odd prime
    if p not in local:
        return None
    if spec.field == "q":
        # legendre(ell, p) = (ell, p)_p for each prime ell != p of a
        if p % 4 == 1 and all(ell != p and hilbert_at(ell, p, p) == 1 for ell in fa.primes()):
            return (FP_Q_ALL_DIVISORS_RESIDUES_SPLIT, SPLIT)
        return None
    # legendre(a, p) is (a, p)_p when p does not divide a
    residue = local[p] if a % p else 0
    if p % 4 == 1:
        if residue == -1:
            # a is a non-residue mod a split p: the places over p ramify.
            return (FP_QI_NONRESIDUE_DIVISION, DIVISION)
        if residue == 1 and all(s == 1 for ell, s in local.items() if ell % 4 == 1):
            # a is a residue mod a split p, and p is a residue mod every
            # split prime ell of a, as (a, p)_ell = legendre(p, ell).
            return (FP_QI_RESIDUE_SPLIT, SPLIT)
    if (
        a in brown_parry_alpha_set()
        and residue == 1
        and not (a in (-5, -13, -37) and p % 4 == 3)
    ):
        # Class-number-one pairs: every prime of a is either even,
        # inert, or forced clean by reciprocity.  The excluded corner
        # (negative split discriminant, p = 3 mod 4) always ramifies
        # at the primes over |a|.
        return (FP_QI_CLASS_NUMBER_ONE_SPLIT, SPLIT)
    return None


def classify(spec: AlgebraSpec) -> Verdict:
    """Classify any AlgebraSpec in one pass over its local symbols.

    The pass factors each parameter once and evaluates the symbol at each
    candidate prime; the ramified places, discriminant and certificate come
    from those values, and so does the fast-path tag, whose predicted
    status must agree with them (InvariantError otherwise).
    """
    if isinstance(spec, SymbolAlgebra):
        reason = _undetermined_reason(spec.q, spec.alpha, spec.p)
        if reason is not None:
            return Verdict(UNDETERMINED, certificate={"reason": reason})
        verdict, fa, local = _symbol_pass(spec)
    else:
        verdict, fa, local = _quaternion_pass(spec)
    rule = _fast_path_rule(spec, fa, local)
    if rule is None:
        return verdict
    tag, predicted = rule
    if verdict.status != predicted:
        raise InvariantError(
            f"fast path {tag} predicted {predicted} but symbols say {verdict.status}"
        )
    return replace(verdict, fast_path=tag)


def fast_path(spec: AlgebraSpec) -> Verdict | None:
    """classify(spec) when a sufficient criterion decided it, else None."""
    verdict = classify(spec)
    return verdict if verdict.fast_path is not None else None


def classify_quaternion_q(a: int, b: int) -> Verdict:
    """Split/division verdict of the pair (a, b) over Q.

    Hilbert symbols are evaluated at 2, at every odd prime dividing the
    square-free parts, and at the real place; all other places are
    automatically trivial.
    """
    return classify(QuaternionQ(a, b))


def classify_quaternion_qi(a: int, b: int) -> Verdict:
    """Split/division verdict of the rational pair (a, b) over Q(i).

    Hasse invariants are evaluated at every odd Gaussian prime dividing the
    square-free parts (by base change from the Hilbert symbols over Q) and
    at 1+i (forced by the product formula; the archimedean place is
    complex, hence trivial).
    """
    return classify(QuaternionQi(a, b))


def classify_symbol(q: int, alpha: int, p: int) -> Verdict:
    """Split/division verdict of the degree-q pair (alpha, p) over Q(zeta_q).

    Tame norm-residue symbols are evaluated at p and at every prime of the
    q-th-power-reduced alpha.  If all of them are trivial the symbol at the
    wild place over q is trivial too (reciprocity: all remaining places are
    complex), so the algebra splits.  Violated preconditions produce an
    Undetermined verdict whose certificate names the failure.
    """
    return classify(SymbolAlgebra(q, alpha, p))
