"""Integer polynomials F(T): evaluation, the discriminant quantity used for
admissibility, and the admissible-prime scan.

The discriminant quantity delta is disc(F) when F(0) = 0 and disc(T*F(T))
otherwise; every admissibility decision is gated on it, so all arithmetic
here is exact integer (Sylvester resultants, no floating point).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from wudlab.errors import GuardExceededError, InvalidConfigError
from wudlab.number_core import primes_upto

# the largest degree D of a counterexample preset: the exact discriminant that
# require_separable computes before any count took 0.08 s at D = 30, 0.51 s at
# D = 40 and 2.3 s at D = 50 for counterexample-i on a 2-vCPU Xeon VM
PRESET_DEGREE_GUARD = 40


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _poly_deriv(c: list[int]) -> list[int]:
    return [i * c[i] for i in range(1, len(c))]


def _det_bareiss(m: list[list[int]]) -> int:
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    a = [row[:] for row in m]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _resultant(f: list[int], g: list[int]) -> int:
    """Res(f, g) via the Sylvester matrix. Coefficient lists are c0..cD."""
    df, dg = len(f) - 1, len(g) - 1
    n = df + dg
    rows = []
    frev = f[::-1]  # leading coefficient first
    grev = g[::-1]
    for i in range(dg):
        rows.append([0] * i + frev + [0] * (n - df - 1 - i))
    for i in range(df):
        rows.append([0] * i + grev + [0] * (n - dg - 1 - i))
    return _det_bareiss(rows)


def _discriminant(c: list[int]) -> int:
    """disc of the polynomial with coefficients c0..cD (cD != 0), exact."""
    d = len(c) - 1
    if d == 1:
        return 1
    dpoly = _poly_deriv(c)
    while dpoly and dpoly[-1] == 0:
        dpoly.pop()
    if not dpoly:
        return 0
    res = _resultant(c, dpoly)
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    num = sign * res
    assert num % c[-1] == 0
    return num // c[-1]


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

    @cached_property
    def delta(self) -> int:
        """disc(F) if F(0) = 0, else disc(T*F(T))."""
        c = list(self.coeffs)
        if c[0] != 0:
            c = [0] + c  # T * F(T)
        return _discriminant(c)

    def require_separable(self) -> "IntPoly":
        if self.degree < 1:
            raise InvalidConfigError("defining polynomial must be nonconstant")
        if self.delta == 0:
            raise InvalidConfigError("polynomial has repeated roots (delta = 0)")
        return self

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
        return IntPoly(tuple(_poly_deriv(list(self.coeffs))))

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


def is_admissible_prime(F: IntPoly, ell: int) -> bool:
    """Structural admissibility: odd, not dividing lc(F) or delta."""
    return ell != 2 and F.leading % ell != 0 and F.delta % ell != 0


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
    """
    s = text.strip()
    if s == "phi":
        return IntPoly((-1, 1))
    if s == "sigma":
        return IntPoly((1, 1))
    if s.startswith("counterexample-ii"):
        return _counterexample_ii(_parse_degree(s[len("counterexample-ii"):]))
    if s.startswith("counterexample-i"):
        return _counterexample_i(_parse_degree(s[len("counterexample-i"):]))
    if s.startswith("[") and s.endswith("]"):
        try:
            coeffs = tuple(int(tok) for tok in s[1:-1].split(",") if tok.strip())
        except ValueError as exc:
            raise InvalidConfigError(f"bad coefficient list {text!r}") from exc
        if not coeffs:
            raise InvalidConfigError("empty coefficient list")
        return IntPoly(coeffs)
    raise InvalidConfigError(f"unrecognized polynomial spec {text!r}")


def _parse_degree(rest: str) -> int:
    rest = rest.strip()
    if rest.startswith("D="):
        try:
            return int(rest[2:])
        except ValueError:
            pass
    raise InvalidConfigError(f"expected 'D=<int>' after preset, got {rest!r}")
