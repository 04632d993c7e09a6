"""Integer polynomials F(T): evaluation, admissibility, separability, and
the named presets that parse_poly reads.

A prime ell is admissible when it is odd and divides neither lc(F) nor
delta, which is disc(F) when F(0) = 0 and disc(T*F(T)) = F(0)^2 disc(F)
otherwise. Both questions, whether ell | delta and whether disc(F) != 0,
are answered mod primes by a gcd over F_ell; delta itself is never formed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from wudlab.errors import GuardExceededError, InvalidConfigError
from wudlab.number_core import is_prime, primes_upto

# the largest degree D of a counterexample preset; no cost forces it: the
# counterexample-i scenario at x = 1000 took 0.03 s at D = 40 and 0.19 s at
# D = 100 in process on a 2-vCPU Xeon VM
PRESET_DEGREE_GUARD = 40


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _repeated_factor_mod(c, ell: int) -> bool:
    """Whether c (c0..cd, cd prime to the prime ell) has a repeated factor
    over F_ell, that is whether ell | disc(c): gcd(c, c') mod ell is not
    constant. A zero c' (ell | i*c_i for every i) makes c an ell-th power."""
    a = [x % ell for x in c]
    b = [i * c[i] % ell for i in range(1, len(c))]
    while b and not b[-1]:
        b.pop()
    if not b:
        return len(a) > 1
    while len(b) > 1:  # Euclid: a <- a mod b, then swap
        inv, nb = pow(b[-1], -1, ell), len(b) - 1
        while len(a) > nb:
            k = a.pop() * inv % ell
            s = len(a) - nb
            for i in range(nb):
                a[s + i] = (a[s + i] - k * b[i]) % ell
            while a and not a[-1]:
                a.pop()
        if not a:
            return True
        a, b = b, a
    return False


@dataclass(frozen=True)
class IntPoly:
    """F(T) with integer coefficients, constant term first."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs or self.coeffs[-1] == 0:
            raise InvalidConfigError("coefficient list must be nonempty with nonzero lead")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    def require_separable(self) -> "IntPoly":
        """self, once a prime not dividing lc(F) leaves F squarefree, so that
        disc(F) != 0; disc(F) = 0 once the primes that fail (each divides it)
        multiply past the Hadamard bound of Sylvester(F, F')."""
        if self.degree < 1:
            raise InvalidConfigError("defining polynomial must be nonconstant")
        c, d = self.coeffs, self.degree
        h2 = sum(x * x for x in c) ** (d - 1) * sum((i * x) ** 2 for i, x in enumerate(c)) ** d
        failed = 1
        for ell in filter(is_prime, itertools.count(2)):
            if c[-1] % ell == 0:
                continue
            if not _repeated_factor_mod(c, ell):
                return self
            failed *= ell
            if failed * failed > h2:
                raise InvalidConfigError("polynomial has repeated roots (delta = 0)")

    def eval_int(self, v: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    @cached_property
    def derivative(self) -> "IntPoly | None":
        """F'(T), or None when F is constant."""
        if self.degree < 1:
            return None
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs))[1:])

    def eval_mod(self, v, m: int):
        """Horner evaluation of F(v) mod m, result in [0, m).

        v is a Python int (any size), or an int64 array of residues in
        [0, m) with m^2 < 2^63; the array result is int64. Each coefficient
        is reduced mod m before it enters. An array is reduced mod m only
        when an exact bound on the next intermediate reaches the limit of
        its width, and once at the end, so it never wraps, whatever the size
        of the coefficients. After a reduction the next step is at most
        (m - 1)^2 + (m - 1) = (m - 1) m, so the loop runs in int32 with limit
        2^31 when (m - 1) m < 2^31 (m <= 46341) and reduces there by
        x - x // m * m (numpy's scalar floor-divide is the cheap one);
        otherwise it runs in int64 with limit 2^63 and reduces by %.
        """
        if m < 1:
            raise InvalidConfigError(f"modulus must be >= 1, got {m}")
        acc = 0
        if isinstance(v, int):
            for c in reversed(self.coeffs):
                acc = (acc * v + c % m) % m
            return acc
        narrow = (m - 1) * m < 2**31
        limit, v = (2**31, v.astype(np.int32)) if narrow else (2**63, v)

        def reduce(x):
            return x - x // m * m if narrow else x % m

        bound = 0  # every entry of acc is in [0, bound]
        for c in reversed(self.coeffs):
            c %= m
            if bound * (m - 1) + c >= limit:
                acc, bound = reduce(acc), m - 1
            acc, bound = acc * v + c, bound * (m - 1) + c
        return reduce(acc).astype(np.int64, copy=False)

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                t = "T" if i == 1 else f"T^{i}"
                terms.append(t if c == 1 else (f"-{t}" if c == -1 else f"{c}*{t}"))
        return " + ".join(reversed(terms)).replace("+ -", "- ") or "0"


@lru_cache(maxsize=1 << 14)
def is_admissible_prime(F: IntPoly, ell: int) -> bool:
    """Structural admissibility of the prime ell: odd, not dividing lc(F) or
    delta = disc(T*F) = F(0)^2 disc(F) (disc(F) when F(0) = 0)."""
    c0 = F.coeffs[0]
    return (ell != 2 and F.leading % ell != 0 and (c0 == 0 or c0 % ell != 0)
            and not _repeated_factor_mod(F.coeffs, ell))


def admissible_primes(F: IntPoly, bound: int) -> list[int]:
    """All structurally admissible primes <= bound."""
    F.require_separable()
    return [int(p) for p in primes_upto(bound) if is_admissible_prime(F, int(p))]


# ---------------------------------------------------------------------------
# Named presets (CLI / config input format)

def _check_degree(name: str, D: int) -> None:
    """2 <= D <= PRESET_DEGREE_GUARD, checked before the preset is built."""
    if D < 2:
        raise InvalidConfigError(f"{name} needs D >= 2")
    if D > PRESET_DEGREE_GUARD:
        raise GuardExceededError(f"preset degree guard {PRESET_DEGREE_GUARD} exceeded by D={D}")


def _counterexample_i(D: int) -> IntPoly:
    """(T-2)(T-4)...(T-2D) + 2, Eisenstein at 2 so separable."""
    _check_degree("counterexample-i", D)
    c = [1]
    for k in range(1, D + 1):
        c = _poly_mul(c, [-2 * k, 1])
    c[0] += 2
    return IntPoly(tuple(c))


def _counterexample_ii(D: int) -> IntPoly:
    """(T-1)^D + 1, the defining polynomial of f(p) = (p-1)^D + 1."""
    _check_degree("counterexample-ii", D)
    c = [1]
    for _ in range(D):
        c = _poly_mul(c, [-1, 1])
    c[0] += 1
    return IntPoly(tuple(c))


def parse_poly(text: str) -> IntPoly:
    """Parse a polynomial spec: '[-1, 1]' (constant term first), or one of
    the presets 'phi', 'sigma', 'counterexample-i D=<d>', 'counterexample-ii D=<d>'.
    A constant or a polynomial with a repeated root is refused.
    """
    s = text.strip()
    if s in ("phi", "sigma"):
        F = IntPoly((-1, 1) if s == "phi" else (1, 1))
    elif s.startswith("counterexample-ii"):
        F = _counterexample_ii(_parse_degree(s[len("counterexample-ii"):]))
    elif s.startswith("counterexample-i"):
        F = _counterexample_i(_parse_degree(s[len("counterexample-i"):]))
    elif s.startswith("[") and s.endswith("]"):
        try:
            coeffs = tuple(int(tok) for tok in s[1:-1].split(",") if tok.strip())
        except ValueError as exc:
            raise InvalidConfigError(f"bad coefficient list {text!r}") from exc
        if not coeffs:
            raise InvalidConfigError("empty coefficient list")
        F = IntPoly(coeffs)
    else:
        raise InvalidConfigError(f"unrecognized polynomial spec {text!r}")
    return F.require_separable()


def _parse_degree(rest: str) -> int:
    rest = rest.strip()
    if rest.startswith("D="):
        try:
            return int(rest[2:])
        except ValueError:
            pass
    raise InvalidConfigError(f"expected 'D=<int>' after preset, got {rest!r}")
