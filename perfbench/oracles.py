"""Exact reference counts that share no code path with the program under test.

The counts are plain Python integer arithmetic: their own factorization,
primitive roots, discrete logs and Horner evaluation. The tuple counts use
an exact cyclic power (Kronecker substitution: pack the log-histogram into
one big integer, raise it to the J-th power, fold the coefficients mod
x^phi - 1), so no floating point is involved. Only the complex sums Z_chi
are floating point.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np


def poly_mod(coeffs: tuple[int, ...], v: int, m: int) -> int:
    """F(v) mod m for F given by its coefficients, constant term first."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * v + c) % m
    return acc


def prime_factors(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n >= 1 by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def discrete_logs(ell: int, e: int) -> tuple[int, list[int]]:
    """(g, logs) for the smallest generator g of (Z/ell^e)^*, ell odd;
    logs[u] = k with g^k = u, or -1 for non-units."""
    m = ell**e
    phi = m - m // ell
    cofactors = [phi // p for p, _ in prime_factors(phi)]
    g = next(c for c in range(2, m)
             if c % ell and all(pow(c, k, m) != 1 for k in cofactors))
    logs = [-1] * m
    u = 1
    for k in range(phi):
        logs[u] = k
        u = u * g % m
    return g, logs


def cyclic_power(c: list[int], J: int) -> list[int]:
    """The J-fold cyclic convolution of c with itself, exactly.

    Every coefficient of the plain J-th power of sum_k c_k x^k is at most
    (sum c)^J, so slots of that many bits never carry into each other.
    """
    n = len(c)
    width = ((sum(c) ** J).bit_length() + 8) // 8  # bytes per slot
    packed = int.from_bytes(b"".join(ck.to_bytes(width, "little") for ck in c), "little")
    raw = (packed**J).to_bytes(width * (J * (n - 1) + 1), "little")
    out = [0] * n
    for i in range(J * (n - 1) + 1):
        out[i % n] += int.from_bytes(raw[i * width:(i + 1) * width], "little")
    return out


def _v_double_prime_power(coeffs: tuple[int, ...], ell: int, e: int, J: int) -> dict[int, int]:
    m = ell**e
    g, logs = discrete_logs(ell, e)
    hist = [0] * (m - m // ell)
    for v in range(m):
        if v % ell:
            k = logs[poly_mod(coeffs, v, m)]
            if k >= 0:
                hist[k] += 1
    power = cyclic_power(hist, J)
    return {pow(g, k, m): n for k, n in enumerate(power)}


def v_double_all(coeffs: tuple[int, ...], q: int, J: int) -> dict[int, int]:
    """#{unit J-tuples v mod q : prod F(v_i) = w} for every unit w, q odd.

    Prime powers are counted by the exact cyclic power over discrete logs;
    a composite q is the product of its prime-power counts (CRT).
    """
    parts = [(ell**e, _v_double_prime_power(coeffs, ell, e, J))
             for ell, e in prime_factors(q)]
    out = {}
    for w in range(1, q):
        if math.gcd(w, q) == 1:
            out[w] = math.prod(counts[w % m] for m, counts in parts)
    return out


def v_double_brute(coeffs: tuple[int, ...], q: int, J: int) -> dict[int, int]:
    """The same counts by enumerating every J-tuple of units (tiny q, J only)."""
    units = [v for v in range(1, q) if math.gcd(v, q) == 1]
    out = dict.fromkeys(units, 0)
    for tup in itertools.product(units, repeat=J):
        w = math.prod(poly_mod(coeffs, v, q) for v in tup) % q
        if w in out:
            out[w] += 1
    return out


def curve_counts(coeffs: tuple[int, ...], ell: int) -> list[int]:
    """counts[w] = #{(x, y) mod ell : F(x) F(y) = w} for every w, by scanning
    every pair."""
    vals = [poly_mod(coeffs, x, ell) for x in range(ell)]
    counts = [0] * ell
    for a in vals:
        for b in vals:
            counts[a * b % ell] += 1
    return counts


def z_chi_logs(coeffs: tuple[int, ...], ell: int, e: int) -> tuple[int, list[int]]:
    """(phi, value logs): the discrete logs of F(v) over unit v with F(v) a
    unit, for the smallest generator. Z_t = sum over them of e(t k / phi)."""
    m = ell**e
    _, logs = discrete_logs(ell, e)
    ks = [logs[poly_mod(coeffs, v, m)] for v in range(m) if v % ell]
    return m - m // ell, [k for k in ks if k >= 0]


def z_chi_direct(phi: int, value_logs: list[int], t: int) -> complex:
    return sum(cmath.exp(2j * cmath.pi * (t * k % phi) / phi) for k in value_logs)


def z_chi_all(phi: int, value_logs: list[int]) -> np.ndarray:
    """Z_t for every t at once: the inverse DFT of the log histogram."""
    return np.fft.ifft(np.bincount(value_logs, minlength=phi)) * phi
