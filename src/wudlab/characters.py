"""Dirichlet characters modulo odd prime powers, the character sums Z_chi
over unit polynomial values, Ramanujan sums, and point counts on the
affine curve F(x)F(y) = w.

Character values are held as exponents k mod phi(ell^e); complex numbers
appear only when a sum is actually formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from wudlab.errors import ConsistencyError, InvalidConfigError
from wudlab.number_core import UnitGroupView, is_prime, unit_group
from wudlab.poly import IntPoly, is_admissible_prime


@lru_cache(maxsize=128)
def build_character_table(ell: int, e: int) -> UnitGroupView:
    """The character group mod ell^e (ell odd) as the unit group's log table:
    chi_t(g^k) = e(t k / phi) for t = 0..phi-1 and the fixed smallest
    generator g; chi_0 is principal."""
    if ell == 2:
        raise InvalidConfigError("characters mod powers of 2 are out of scope")
    return unit_group(ell, e)


def conductor_exponent(view: UnitGroupView, t: int) -> int:
    """Smallest e0 with chi_t factoring through ell^{e0} (0 for chi_0,
    i.e. conductor 1)."""
    t %= view.phi
    if t == 0:
        return 0
    for e0 in range(1, view.e + 1):
        phi_e0 = view.ell ** (e0 - 1) * (view.ell - 1)
        # trivial on the index-phi(ell^e0) subgroup {g^(phi_e0 * k)}
        if (t * phi_e0) % view.phi == 0:
            return e0
    raise ConsistencyError("character must factor through its own modulus")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=32)
def unit_value_logs(F: IntPoly, ell: int, e: int) -> np.ndarray:
    """Discrete logs of the unit values F(v), over unit v mod ell^e in
    increasing order (v with F(v) a non-unit are skipped)."""
    m = ell**e
    view = build_character_table(ell, e)
    logs = view.log_table[F.eval_mod(np.arange(m, dtype=np.int64)[view.log_table >= 0], m)]
    # z_chi forms t * log <= (phi - 1)^2: int32 when that fits
    width = np.int32 if (view.phi - 1) ** 2 < 2**31 else np.int64
    return _read_only(logs[logs >= 0].astype(width))


@lru_cache(maxsize=32)
def _roots_of_unity(phi: int) -> np.ndarray:
    """e(k/phi) for k = 0..phi-1."""
    return _read_only(np.exp(2j * np.pi * np.arange(phi) / phi))


@dataclass(frozen=True)
class ZChiReport:
    t: int
    conductor: int
    value: complex
    abs: float
    d: int               # total degree entering the Weil/Cochrane bound
    bound: float         # the applicable bound: (d-1) ell^(e(1-1/d)) when chi is
                         # primitive mod ell^e, else bound_conductor
    bound_conductor: float  # (d-1) ell^(e-e0/d), valid for any nonprincipal chi
    binding: bool        # a bound applies (ell admissible, chi nonprincipal)
    within_bound: bool | None  # abs <= bound


def _weil_d(F: IntPoly, ell: int) -> int:
    """Total degree for the bound: deg F if ell | F(0), else deg(T) + deg F."""
    return F.degree if F.coeffs[0] % ell == 0 else F.degree + 1


def z_chi(F: IntPoly, view: UnitGroupView, t: int) -> ZChiReport:
    """Z_chi = sum over v mod ell^e of chi_0(v) chi_t(F(v)), exact sum.

    The unit-value logs and the roots of unity depend only on (F, ell^e)
    and are cached, so a sweep over all t pays for them once.
    """
    phi = view.phi
    tk = (t % phi) * unit_value_logs(F, view.ell, view.e)
    # the gather indexes with intp: an int32 index costs numpy a conversion
    ks = (tk - tk // phi * phi).astype(np.intp, copy=False)
    z = complex(_roots_of_unity(phi)[ks].sum())
    e0 = conductor_exponent(view, t)
    d = _weil_d(F, view.ell)
    bound_cond = (d - 1) * view.ell ** (view.e - max(e0, 1) / d)
    # the primitive-case shape only binds when chi is primitive mod ell^e;
    # an imprimitive chi factors through its conductor and obeys the
    # conductor-reduced form instead
    bound = (d - 1) * view.ell ** (view.e * (1 - 1 / d)) if e0 == view.e else bound_cond
    binding = is_admissible_prime(F, view.ell) and t % phi != 0
    within = abs(z) <= bound + 1e-9 if binding else None
    return ZChiReport(t=t % phi, conductor=view.ell**e0, value=z, abs=abs(z),
                      d=d, bound=bound, bound_conductor=bound_cond,
                      binding=binding, within_bound=within)


def ramanujan_sum(ell: int, e: int, r: int) -> int:
    """S_ell(r) = sum over units v mod ell^e of e(rv/ell^e), closed form.

    Equals -ell^(e-1) when ell^(e-1) exactly divides r, else 0, for
    0 < r < ell^e. (Valid for ell = 2 as well.)
    """
    m = ell**e
    if not 0 < r < m:
        raise InvalidConfigError(f"need 0 < r < {m}, got r={r}")
    lp = ell ** (e - 1)
    if r % lp == 0 and (r // lp) % ell != 0:
        return -lp
    return 0


@dataclass(frozen=True)
class CurveCountReport:
    ell: int
    w: int
    count: int
    hasse_weil_bound: int
    within_bound: bool


@lru_cache(maxsize=32)
def _value_counts(F: IntPoly, ell: int) -> np.ndarray:
    """c(u) = #{x in F_ell : F(x) = u} for u = 0..ell-1."""
    return _read_only(np.bincount(F.eval_mod(np.arange(ell, dtype=np.int64), ell), minlength=ell))


@lru_cache(maxsize=32)
def _inverses(ell: int) -> np.ndarray:
    """u^{-1} mod ell for u = 1..ell-1 (ell must be prime)."""
    if not is_prime(ell):
        raise InvalidConfigError(f"curve counts need a prime ell, got {ell}")
    return _read_only(np.array([pow(u, -1, ell) for u in range(1, ell)], dtype=np.int64))


def curve_point_count(F: IntPoly, ell: int, w: int) -> CurveCountReport:
    """#{(x, y) in F_ell^2 : F(x) F(y) = w} for unit w, by value bucketing.

    The value distribution c of F over F_ell is bucketed once per (F, ell)
    and cached; the pair count is then a sum over unit values u of
    c(u) c(u^{-1} w). The comparator is the Hasse-Weil shape
    ell + 1 + (2D-1)(2D-2) floor(2 sqrt(ell)) / 2.
    """
    if w % ell == 0:
        raise InvalidConfigError("w must be a unit mod ell (w = 0 is out of scope)")
    c = _value_counts(F, ell)
    w %= ell
    # c(u) c(w/u) over u = 1..ell-1; the sum is at most ell^2, exact in int64
    count = int(np.dot(c[1:], c[w * _inverses(ell) % ell]))
    D = F.degree
    bound = ell + 1 + ((2 * D - 1) * (2 * D - 2) * math.isqrt(4 * ell)) // 2
    return CurveCountReport(ell=ell, w=w, count=count,
                            hasse_weil_bound=bound, within_bound=count <= bound)
