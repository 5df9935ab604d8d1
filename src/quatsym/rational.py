"""Exact number theory over the rational integers.

Everything here is deterministic desk-scale arithmetic: primality is decided
by a fixed Miller-Rabin witness set that is provably correct below 2**64,
factoring is trial division backed by Pollard's rho, and square roots mod p
use Tonelli-Shanks with the smallest non-residue as the auxiliary, so equal
inputs always produce equal outputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

# Public API bound: inputs must fit signed 64-bit magnitude.  Python ints do
# not overflow, so this is a contract, not a hardware limit; the Miller-Rabin
# witness set below is only proven complete under 2**64.
MAX_MAGNITUDE = 1 << 63

_TRIAL_LIMIT = 10**6

# Deterministic witnesses: the primes 2..37 are proven complete for
# n < 3.18 * 10**23 (Sorenson-Webster, Math. Comp. 86, 2017), hence for every
# value this module accepts.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def check_magnitude(*values: int) -> None:
    """Reject anything outside the supported 2**63 magnitude."""
    for n in values:
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f"expected an integer, got {n!r}")
        if abs(n) > MAX_MAGNITUDE:
            raise ValueError(f"magnitude of {n} exceeds 2**63")


@dataclass(frozen=True)
class FactoredInt:
    """A nonzero integer as sign * product(p**e), primes ascending."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        return self.sign * reduce(lambda acc, pe: acc * pe[0] ** pe[1], self.factors, 1)

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def squarefree_part(self) -> int:
        """The square class representative: sign * product of odd-power primes."""
        out = self.sign
        for p, e in self.factors:
            if e & 1:
                out *= p
        return out


def _miller_rabin(n: int) -> bool:
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_WITNESSES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n <= 2**63."""
    check_magnitude(n)
    if n < 0:
        raise ValueError("is_prime expects n >= 0")
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == p:
            return True
        if n % p == 0:
            return False
    return _miller_rabin(n)


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # pragma: no cover


@lru_cache(maxsize=65536)
def _factor_positive(n: int) -> tuple[tuple[int, int], ...]:
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 7
    # trial division with a mod-30 wheel up to 10**6
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d <= _TRIAL_LIMIT and d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += wheel[i]
        i = (i + 1) & 7
    # what is left has no prime factor <= 10**6; split it with rho
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        g = _pollard_rho(m)
        stack.append(g)
        stack.append(m // g)
    return tuple(sorted(out.items()))


def factor(n: int) -> FactoredInt:
    """Full factorization of a nonzero integer."""
    check_magnitude(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = -1 if n < 0 else 1
    return FactoredInt(sign, _factor_positive(abs(n)))


def valuation(n: int, p: int) -> int:
    """v_p(n) for n != 0."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def squarefree_part(n: int) -> int:
    """The square class representative: sign * product of odd-power primes."""
    return factor(n).squarefree_part()


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, +1} by Euler's criterion."""
    check_magnitude(a, p)
    if p == 2 or not is_prime(p):
        raise ValueError(f"legendre needs an odd prime, got {p}")
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1, by quadratic reciprocity."""
    check_magnitude(a, n)
    if n <= 0 or n % 2 == 0:
        raise ValueError("jacobi needs odd n >= 1")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def sqrt_mod(a: int, p: int) -> int | None:
    """Square root of a mod p, or None when a is a non-residue.

    Tonelli-Shanks with the smallest quadratic non-residue as auxiliary;
    the returned root is always min(r, p - r), so the output is canonical.
    """
    check_magnitude(a, p)
    sym = legendre(a, p)
    if sym == 0:
        return 0
    if sym == -1:
        return None
    a %= p
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # write p - 1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return min(r, p - r)


def qth_power_residue(alpha: int, p: int, q: int) -> bool:
    """Whether alpha is a q-th power mod p, for odd prime q dividing p - 1."""
    check_magnitude(alpha, p, q)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if q == 2 or not is_prime(q):
        raise ValueError(f"degree must be an odd prime, got {q}")
    if (p - 1) % q != 0:
        raise ValueError(f"{q} does not divide {p} - 1; every unit is a {q}-th power")
    if alpha % p == 0:
        raise ValueError(f"{p} divides alpha")
    return pow(alpha, (p - 1) // q, p) == 1


def multiplicative_order(a: int, m: int) -> int:
    """Order of a in (Z/m)*."""
    check_magnitude(a, m)
    if m < 2:
        raise ValueError("modulus must be >= 2")
    a %= m
    if math.gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    # Euler phi from the factorization of m, then strip unnecessary primes.
    phi = 1
    for p, e in _factor_positive(m):
        phi *= (p - 1) * p ** (e - 1)
    order = phi
    for p, _ in _factor_positive(phi):
        while order % p == 0 and pow(a, order // p, m) == 1:
            order //= p
    return order


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n
