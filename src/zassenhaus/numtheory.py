"""Small integer helpers shared across the package."""
from __future__ import annotations


class NonIntegralW(ValueError):
    """w_n, or a power sum s_n behind it, came out non-integral: the input is
    not a group dimension series, or a closed formula is wrong."""

    def __init__(self, n: int, value, symbol: str = "w"):
        super().__init__(f"{symbol}_{n} = {value} is not an integer")
        self.degree = n
        self.value = value


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise ValueError("n must be positive")
    small, large = [], []
    f = 1
    while f * f <= n:
        if n % f == 0:
            small.append(f)
            if f != n // f:
                large.append(n // f)
        f += 1
    return small + large[::-1]


def moebius(n: int) -> int:
    """Moebius function: 0 on non-squarefree n, else (-1)^(number of prime factors)."""
    if n < 1:
        raise ValueError("n must be positive")
    result = 1
    f = 2
    while f * f <= n:
        if n % f == 0:
            n //= f
            if n % f == 0:
                return 0
            result = -result
        f += 1
    if n > 1:
        result = -result
    return result


def moebius_table(n: int) -> list[int]:
    """[mu(0), mu(1), ..., mu(n)] by a linear sieve, with mu(0) stored as 0.

    Each composite is struck once, by its least prime factor q: mu(i q) is 0
    when q already divides i, else -mu(i).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    mu = [0] * (n + 1)
    if n >= 1:
        mu[1] = 1
    composite = bytearray(n + 1)
    primes: list[int] = []
    for i in range(2, n + 1):
        if not composite[i]:
            primes.append(i)
            mu[i] = -1
        for q in primes:
            if i * q > n:
                break
            composite[i * q] = 1
            if i % q == 0:
                break  # mu(i q) = 0, already stored
            mu[i * q] = -mu[i]
    return mu


def w_free_closed(d: int, n: int) -> int:
    """Necklace count (1/n) sum_{m | n} mu(m) d^(n/m): free-group exponents."""
    if d < 0 or n < 1:
        raise ValueError("need d >= 0 and n >= 1")
    total = sum(mu * d ** (n // m) for m in divisors(n) if (mu := moebius(m)))
    w, r = divmod(total, n)
    if r:
        from fractions import Fraction  # the error path alone needs it

        raise NonIntegralW(n, Fraction(total, n))
    return w
