"""Reference Hilbert symbols over Q, standard library only.

Serre, *A Course in Arithmetic*, Ch. III Thm 1.  Shared by check.py (the
output check) and workloads.py (which stratifies oracle pairs by verdict).
"""


def legendre(u: int, p: int) -> int:
    """Euler's criterion; p is an odd prime."""
    t = pow(u % p, (p - 1) // 2, p)
    return 0 if t == 0 else (1 if t == 1 else -1)


def hilbert(a: int, b: int, p) -> int:
    """(a, b)_p for square-free a, b; p a prime or "real"."""
    if p == "real":
        return -1 if a < 0 and b < 0 else 1
    alpha, u = (1, a // p) if a % p == 0 else (0, a)
    beta, v = (1, b // p) if b % p == 0 else (0, b)
    if p == 2:
        eps = lambda w: ((w - 1) // 2) % 2
        omega = lambda w: ((w * w - 1) // 8) % 2
        e = eps(u) * eps(v) + alpha * omega(v) + beta * omega(u)
        return -1 if e % 2 else 1
    s = -1 if alpha and beta and p % 4 == 3 else 1
    if beta:
        s *= legendre(u, p)
    if alpha:
        s *= legendre(v, p)
    return s
