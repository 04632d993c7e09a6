"""Local root counts nu, coprime-value densities alpha(q), maximal root
counts xi(q), and reciprocal prime-sum diagnostics.

alpha(q) = (1/phi(q)) #{a mod q: gcd(a F(a), q) = 1}
         = prod_{ell | q} (1 - nu(ell)/(ell - 1)),

with nu(ell) the number of unit roots of F mod ell. alpha is kept as an
exact Fraction; floats appear only in report fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from wudlab.errors import GuardExceededError, InvalidConfigError
from wudlab.number_core import FactoredModulus, factor, primes_upto
from wudlab.poly import IntPoly, is_admissible_prime

BRUTE_ROOT_GUARD = 10**6
LIFT_GUARD = 10**9
XI_GUARD = 10**6


def brute_unit_roots(F: IntPoly, m: int) -> list[int]:
    """Unit roots of F mod m by full residue scan (m <= BRUTE_ROOT_GUARD)."""
    if m > BRUTE_ROOT_GUARD:
        raise GuardExceededError(f"brute root scan guard exceeded: {m}")
    v = np.arange(m, dtype=np.int64)
    vals = F.eval_mod(v, m)
    roots = np.nonzero(vals == 0)[0]
    return [int(a) for a in roots if math.gcd(int(a), m) == 1]


def count_unit_roots(F: IntPoly, ell: int, e: int = 1) -> tuple[int, list[int]]:
    """nu(ell^e) with the explicit unit-root list.

    Roots mod ell come from a scan; simple roots (F'(a) != 0 mod ell) lift
    uniquely by Hensel, non-simple roots branch exhaustively level by level.
    """
    if ell**e > LIFT_GUARD:
        raise GuardExceededError(f"{ell}^{e} exceeds lift guard {LIFT_GUARD}")
    deriv = F.derivative
    roots = brute_unit_roots(F, ell)
    mod = ell
    for _ in range(e - 1):
        nxt = []
        new_mod = mod * ell
        for a in roots:
            fp = deriv.eval_mod(a, ell) if deriv is not None else 0
            if fp % ell != 0:
                # unique Hensel lift
                fa = F.eval_mod(a, new_mod)
                t = (-(fa // mod)) * pow(fp, -1, ell) % ell
                nxt.append(a + t * mod)
            else:
                for t in range(ell):
                    cand = a + t * mod
                    if F.eval_mod(cand, new_mod) == 0:
                        nxt.append(cand)
        mod = new_mod
        roots = sorted(nxt)
    return len(roots), roots


@dataclass(frozen=True)
class LocalDensity:
    ell: int
    e: int
    nu: int           # unit roots of F mod ell
    nu_lifted: int | None  # unit roots of F mod ell^e; None past LIFT_GUARD
    alpha_local: Fraction  # 1 - nu(ell)/(ell - 1)
    admissible: bool


@dataclass(frozen=True)
class DensityProfile:
    q: FactoredModulus
    alpha: Fraction
    locals: tuple[LocalDensity, ...]


@lru_cache(maxsize=1 << 14)
def _local_density(F: IntPoly, ell: int, e: int) -> LocalDensity:
    """The factor of alpha at ell^e; it depends on q only through (ell, e)."""
    nu, _ = count_unit_roots(F, ell, 1)
    if e == 1:
        nu_lift = nu
    else:  # past the lift guard nu(ell^e) is unknown, not nu(ell)
        nu_lift = count_unit_roots(F, ell, e)[0] if ell**e <= LIFT_GUARD else None
    return LocalDensity(ell=ell, e=e, nu=nu, nu_lifted=nu_lift,
                        alpha_local=Fraction(ell - 1 - nu, ell - 1),
                        admissible=is_admissible_prime(F, ell))


def alpha(F: IntPoly, q: FactoredModulus | int) -> DensityProfile:
    """Exact alpha(q) with per-prime breakdown."""
    if isinstance(q, int):
        q = factor(q)
    locs = tuple(_local_density(F, ell, e) for ell, e in q.factors)
    a = Fraction(math.prod(ld.ell - 1 - ld.nu for ld in locs),
                 math.prod(ld.ell - 1 for ld in locs))
    return DensityProfile(q=q, alpha=a, locals=locs)


def alpha_direct_count(F: IntPoly, q: int) -> Fraction:
    """alpha(q) straight from the defining count (independent oracle)."""
    if q == 1:
        return Fraction(1)
    a = np.arange(q, dtype=np.int64)
    unit_a = np.gcd(a, q) == 1
    vals = F.eval_mod(a, q)
    unit_f = np.gcd(vals, q) == 1
    count = int(np.count_nonzero(unit_a & unit_f))
    return Fraction(count, factor(q).phi)


@dataclass(frozen=True)
class XiReport:
    q: int
    xi: int
    witness_class: int
    squarefree_bound_ok: bool | None  # xi <= D^omega(q); None if q not squarefree
    konyagin_ratio: float             # xi / q^(1 - 1/D)


def xi_max_roots(F: IntPoly, q: FactoredModulus | int) -> XiReport:
    """xi(q): max over classes a of #{unit v mod q: F(v) = a}, by bucketing."""
    if isinstance(q, int):
        q = factor(q)
    if q.q > XI_GUARD:
        raise GuardExceededError(f"xi bucket scan guard exceeded: {q.q}")
    m = q.q
    v = np.arange(m, dtype=np.int64)
    units = np.gcd(v, m) == 1
    vals = F.eval_mod(v[units], m)
    counts = np.bincount(vals, minlength=m)
    xi = int(counts.max())
    # prefer a unit witness when one attains the maximum (the classes of
    # interest downstream are the units)
    unit_hits = np.nonzero((counts == xi) & (np.gcd(np.arange(m), m) == 1))[0]
    witness = int(unit_hits[0]) if unit_hits.size else int(np.argmax(counts))
    D = F.degree
    sf_ok = xi <= D**q.omega if q.is_squarefree else None
    ratio = xi / m ** (1 - 1 / D) if D > 1 else xi / 1.0
    return XiReport(q=m, xi=xi, witness_class=witness,
                    squarefree_bound_ok=sf_ok, konyagin_ratio=ratio)


@dataclass(frozen=True)
class CoprimePrimeSumReport:
    q: int
    x: float
    sum: float
    alpha: Fraction
    prediction: float  # alpha * log log x
    residual: float


def coprime_value_prime_sum(F: IntPoly, q: int, x: float) -> CoprimePrimeSumReport:
    """S = sum_{p <= x, gcd(F(p), q) = 1} 1/p against alpha * log log x."""
    if x < 3 * q:
        raise InvalidConfigError(f"need x >= 3q, got x={x}, q={q}")
    prof = alpha(F, q)
    ps = primes_upto(int(x))
    if q == 1:
        keep = ps
    else:
        vals = F.eval_mod(ps % q, q)
        keep = ps[np.gcd(vals, q) == 1]
    s = math.fsum(1.0 / p for p in keep)
    pred = float(prof.alpha) * math.log(math.log(x))
    return CoprimePrimeSumReport(q=q, x=x, sum=s, alpha=prof.alpha,
                                 prediction=pred, residual=s - pred)
