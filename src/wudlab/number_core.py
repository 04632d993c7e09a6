"""Integer and modular-arithmetic foundation.

Factorization into prime powers (trial division, then Pollard-Brent rho),
cyclic unit-group structure modulo odd prime powers, and the primes up
to SIEVE_GUARD. All values are immutable after construction and safe to
share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from wudlab.errors import GuardExceededError, InvalidConfigError

# Deterministic Miller-Rabin witnesses, valid for n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_LIMIT = 10**4  # trial-divide with primes below this; rho splits a composite cofactor

SIEVE_GUARD = 10**8  # the largest n any sieve runs to: primes_upto and iter_segments

TABLE_GUARD = 10**6  # the largest unit group given a discrete-log table


@lru_cache(maxsize=8)
def primes_upto(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (simple Eratosthenes)."""
    if n > SIEVE_GUARD:
        raise GuardExceededError(f"sieve guard {SIEVE_GUARD} exceeded by n={n}")
    if n < 2:
        return np.empty(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.nonzero(sieve)[0].astype(np.int64)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (valid far beyond word size)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FactoredModulus:
    """A positive integer with its canonical prime-power factorization."""

    q: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), primes increasing
    phi: int
    omega: int

    def __post_init__(self):
        prod, phi = 1, 1
        last = 1
        for ell, e in self.factors:
            assert ell > last and e >= 1, "factors must be sorted with e >= 1"
            last = ell
            prod *= ell**e
            phi *= ell ** (e - 1) * (ell - 1)
        assert prod == self.q and phi == self.phi
        assert self.omega == len(self.factors)

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)


def factor(n: int) -> FactoredModulus:
    """Canonical factorization of n >= 1. factor(1) has an empty factor list."""
    if n < 1:
        raise InvalidConfigError(f"cannot factor n={n}; need n >= 1")
    factors: list[tuple[int, int]] = []
    m = n
    for p in (2, 3, 5):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    p = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)  # step pattern coprime to 30
    i = 0
    while p * p <= m and p < _TRIAL_LIMIT:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += wheel[i]
        i = (i + 1) % 8
    if m > 1:  # every prime factor of m is >= p
        if p * p > m:  # the loop ran past sqrt(m): m is prime
            factors.append((m, 1))
        else:
            big = _prime_factors(m)
            factors.extend((ell, big.count(ell)) for ell in set(big))
    factors.sort()
    phi = 1
    for ell, e in factors:
        phi *= ell ** (e - 1) * (ell - 1)
    return FactoredModulus(q=n, factors=tuple(factors), phi=phi, omega=len(factors))


def _prime_factors(n: int) -> list[int]:
    """The prime factors of n > 1 with multiplicity, in no order."""
    if is_prime(n):
        return [n]
    d = _rho(n)
    return _prime_factors(d) + _prime_factors(n // d)


def _rho(n: int) -> int:
    """A factor 1 < d < n of the odd composite n (Pollard-Brent rho, with
    one gcd per batch of 128 steps)."""
    c, d = 0, n
    while d == n:  # the walk of x^2 + c met no proper factor: take the next c
        c += 1
        y, r, acc, d = 2, 1, 1, 1
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    acc = acc * abs(x - y) % n
                d = math.gcd(acc, n)
                if d != 1:
                    break
            r *= 2
        if d == n:  # the batch overshot: replay it one step at a time
            d = 1
            while d == 1:
                ys = (ys * ys + c) % n
                d = math.gcd(abs(x - ys), n)
    return d


@dataclass(frozen=True)
class UnitGroupView:
    """Cyclic unit group mod an odd prime power, with a discrete-log table.

    log_table[u] is the exponent r with g^r = u (mod ell^e), or -1 for
    non-units. The generator is the smallest one, for reproducibility.
    """

    ell: int
    e: int
    modulus: int
    generator: int
    phi: int
    log_table: np.ndarray

    def log(self, u: int) -> int:
        r = int(self.log_table[u % self.modulus])
        if r < 0:
            raise InvalidConfigError(f"{u} is not a unit mod {self.modulus}")
        return r


@lru_cache(maxsize=256)
def unit_group(ell: int, e: int) -> UnitGroupView:
    """UnitGroupView for (Z/ell^e)^* with ell an odd prime, e >= 1."""
    if ell == 2:
        raise InvalidConfigError("unit groups mod powers of 2 are not supported")
    if e < 1 or not is_prime(ell):
        raise InvalidConfigError(f"unit_group needs an odd prime and e >= 1, got ({ell}, {e})")
    m = ell**e
    phi = ell ** (e - 1) * (ell - 1)
    if phi > TABLE_GUARD:
        raise GuardExceededError(f"phi({ell}^{e}) = {phi} exceeds table guard {TABLE_GUARD}")
    cofactors = [phi // p for p, _ in factor(phi).factors]
    g = None
    for cand in range(2, m):
        if cand % ell == 0:
            continue
        if all(pow(cand, c, m) != 1 for c in cofactors):
            g = cand
            break
    assert g is not None, "cyclic group must have a generator"
    table = np.full(m, -1, dtype=np.int64)
    u = 1
    for r in range(phi):
        table[u] = r
        u = u * g % m
    assert u == 1, "generator order mismatch"
    return UnitGroupView(ell=ell, e=e, modulus=m, generator=g, phi=phi, log_table=table)
