"""Exact tuple counts over unit groups: V'_q (all F(v_i) coprime to q),
V''_q(w) (product of F(v_i) hitting a unit target w), the mixing ratio
phi(q) V''/V', and the additive J-tuple counts with their Ramanujan-sum
closed form.

Every count is an exact Python int. Multiplicative counts require odd q
(the moduli of interest are odd at every prime); the additive counts
accept every modulus, including even ones, where an exact parity factor
appears.

The brute counts form every tuple explicitly, in blocks of at most BLOCK
values, so their memory is O(q + BLOCK) whatever the number of tuples:
BRUTE_GUARD bounds their time only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from wudlab.characters import build_character_table, unit_value_logs
from wudlab.density import alpha
from wudlab.errors import ConsistencyError, GuardExceededError, InvalidConfigError
from wudlab.number_core import FactoredModulus, factor
from wudlab.poly import IntPoly
from wudlab.sieve import check_modulus

BRUTE_GUARD = 10**7  # tuples per brute table; bounds time only, memory is O(q + BLOCK)
BLOCK = 2**17  # most values in one brute block: the fastest of a 2^14..2^18 sweep
BIT_BUDGET = 2**20  # bits per packed operand; slowest admitted power measured: 1.5 s

METHODS = ("brute", "character", "linear", "auto")


def _good_values(F: IntPoly, m: int) -> np.ndarray:
    """F(v) mod m over unit v with F(v) also a unit."""
    v = np.arange(m, dtype=np.int64)
    units = np.gcd(v, m) == 1
    vals = F.eval_mod(v[units], m)
    return vals[np.gcd(vals, m) == 1]


def _require_odd(q: FactoredModulus) -> None:
    if q.q % 2 == 0:
        raise InvalidConfigError(
            "multiplicative tuple counts need odd q; even moduli are only "
            "supported by additive_tuple_counts"
        )


@dataclass(frozen=True)
class VPrimeReport:
    q: int
    J: int
    formula: int          # (phi(q) alpha(q))^J
    brute: int | None     # None when the brute guard was exceeded

    @property
    def count(self) -> int:
        return self.formula


def count_v_prime(F: IntPoly, q: FactoredModulus | int, J: int) -> VPrimeReport:
    """#V'_q by the exact formula, checked by a brute count when
    phi(q)^J <= BRUTE_GUARD."""
    if isinstance(q, int):
        q = factor(q)
    _require_odd(q)
    if J < 0:
        raise InvalidConfigError("J must be >= 0")
    prof = alpha(F, q)
    base = prof.alpha * q.phi
    if base.denominator != 1:
        raise ConsistencyError("phi(q) alpha(q) must be an integer")
    formula = int(base) ** J
    brute = None
    if q.phi**J <= BRUTE_GUARD:
        brute = int(_good_values(F, q.q).size) ** J
        if brute != formula:
            raise ConsistencyError(
                f"V' formula {formula} != brute {brute} for q={q.q}, J={J}"
            )
    return VPrimeReport(q=q.q, J=J, formula=formula, brute=brute)


def _tuple_table(cols: np.ndarray, q: int, op: np.ufunc) -> np.ndarray:
    """Count mod q of op(c_0, ..., c_{J-1}) over every tuple with c_j taken
    from row j of the (J, n) array `cols`; `op` is np.multiply or np.add.

    Every tuple is formed explicitly. The trailing b rows, b >= 1 the largest
    with n^b <= BLOCK, are combined once into one block; each combination u
    of the leading J - b rows is applied to that block in a reused buffer,
    which is reduced and bincounted, so memory is O(q + BLOCK).
    """
    J, n = cols.shape
    # a product of two residues is at most (q - 1)^2: int32 when that fits
    cols = cols.astype(np.int32 if (q - 1) ** 2 < 2**31 else np.int64)
    b = min(J, 1)
    while b < J and n ** (b + 1) <= BLOCK:
        b += 1
    block = np.array([op.identity % q], dtype=cols.dtype)
    for c in cols[J - b:]:
        block = op.outer(block, c).ravel()
        block -= block // q * q
    fold = math.prod if op is np.multiply else sum  # exact on Python ints
    buf, quot = np.empty_like(block), np.empty_like(block)
    table = np.zeros(q, dtype=np.int64)
    for head in itertools.product(*cols[:J - b].tolist()):
        op(block, fold(head) % q, out=buf)
        np.floor_divide(buf, q, out=quot)
        quot *= q
        buf -= quot
        table += np.bincount(buf, minlength=q)
    return table


@lru_cache(maxsize=8)  # one table of q counts answers every target w
def _v_double_brute_all(F: IntPoly, q: int, J: int) -> np.ndarray:
    """V''(w) for every w, by explicit product enumeration; read-only,
    since the cache shares it."""
    vals = _good_values(F, q)
    if vals.size**J > BRUTE_GUARD:
        raise GuardExceededError(
            f"brute tuple enumeration {vals.size}^{J} exceeds guard {BRUTE_GUARD}"
        )
    table = _tuple_table(np.broadcast_to(vals, (J, vals.size)), q, np.multiply)
    table.flags.writeable = False
    return table


def _pack(c: np.ndarray, width: int) -> int:
    """One Python int whose slot k of `width` bytes holds c[k] in [0, 256^width)."""
    buf = np.zeros((c.size, width), dtype=np.uint8)
    k = min(width, 8)
    buf[:, :k] = c.astype("<i8").view(np.uint8).reshape(-1, 8)[:, :k]
    return int.from_bytes(buf.tobytes(), "little")


def _cyclic_product(*powers: tuple[np.ndarray, int]) -> tuple[int, ...]:
    """prod_i c_i^(J_i) mod x^phi - 1 for count vectors c_i of length phi,
    exactly, as a tuple of Python ints.

    Kronecker substitution with binary powering: each c_i is packed into one
    Python int. A coefficient of any partial product is at most the bound
    prod_i max(1, sum c_i)^(J_i), so slots wide enough for it never carry
    into each other, and the reduction by x^phi = 1 after each product is
    the fold (P & mask) + (P >> phi * width).
    """
    phi = powers[0][0].size
    bound = math.prod(max(1, int(c.sum())) ** J for c, J in powers)
    width = (bound.bit_length() + 7) // 8  # bytes per slot
    shift = 8 * width * phi
    if shift > BIT_BUDGET:
        raise GuardExceededError(
            f"cyclic power of {phi} slots x {8 * width} bits = {shift} bits "
            f"exceeds guard {BIT_BUDGET}"
        )
    mask = (1 << shift) - 1

    def fold(P: int) -> int:
        return (P & mask) + (P >> shift)

    acc = 1
    for c, J in powers:
        base, p = _pack(c, width), 1
        for bit in bin(J)[2:]:
            p = fold(p * p)
            if bit == "1":
                p = fold(p * base)
        acc = fold(acc * p)
    raw = acc.to_bytes(shift // 8, "little")
    return tuple(int.from_bytes(raw[k * width:(k + 1) * width], "little")
                 for k in range(phi))


@lru_cache(maxsize=64)
def _v_double_char_prime_power(F: IntPoly, ell: int, e: int, J: int) -> tuple[int, ...]:
    """V''_{ell^e}(w) for every unit w, indexed by discrete log of w.

    Over the cyclic character group, orthogonality makes V'' the J-fold
    cyclic convolution of the log histogram of the unit values F(v), which
    is computed exactly with no character values formed.
    """
    c = np.bincount(unit_value_logs(F, ell, e), minlength=build_character_table(ell, e).phi)
    return _cyclic_product((c, J))


def _linear_coeffs(F: IntPoly) -> tuple[int, int]:
    if F.degree != 1:
        raise InvalidConfigError("closed form applies to linear F = R*T + S only")
    return F.coeffs[1], F.coeffs[0]


def _v_double_linear_prime_power(F: IntPoly, ell: int, e: int, J: int, w: int) -> int:
    """Exact V''_{ell^e}(w) for linear F = R T + S.

    ell | S: the map v -> Rv + S permutes residues, so V'' = phi^(J-1).
    ell !| S: the nonzero character sums live in the order-(ell-1) subgroup,
    which collapses to an indicator of S^J = w mod ell.
    """
    R, S = _linear_coeffs(F)
    m = ell**e
    phi = m - m // ell
    if math.gcd(w, ell) != 1:
        raise InvalidConfigError(f"target w={w} must be a unit mod {ell}")
    if S % ell == 0:
        return phi ** (J - 1)
    lp = ell ** (e - 1)
    hit = pow(S, J, ell) == w % ell
    phi_v = (lp * (ell - 2)) ** J + lp**J * (-1) ** J * ((ell - 1) * hit - 1)
    if phi_v % phi:
        raise ConsistencyError("linear closed form did not produce an integer count")
    return phi_v // phi


def count_v_double(F: IntPoly, q: FactoredModulus | int, J: int, w: int,
                   method: str = "auto") -> int:
    """#V''_q(w) = #{unit J-tuples v with prod F(v_i) = w (mod q)}."""
    if isinstance(q, int):
        q = factor(q)
    _require_odd(q)
    if method not in METHODS:
        raise InvalidConfigError(f"method must be one of {METHODS}")
    if J < 0:
        raise InvalidConfigError("J must be >= 0")
    if math.gcd(w, q.q) != 1:
        raise InvalidConfigError(f"target w={w} must be a unit mod {q.q}")
    if method == "auto":
        method = "brute" if q.phi**J <= BRUTE_GUARD else "character"
    if method == "brute":
        return int(_v_double_brute_all(F, q.q, J)[w % q.q])
    if method == "character":
        return math.prod(_v_double_char_prime_power(F, ell, e, J)[
            build_character_table(ell, e).log(w)] for ell, e in q.factors)
    total = 1
    for ell, e in q.factors:
        total *= _v_double_linear_prime_power(F, ell, e, J, w % ell**e)
    return total


def v_double_incex_term(F: IntPoly, ell: int, e: int, J: int, j: int, w: int) -> int:
    """V''_{ell^e, j}: J-tuples mod ell^e with ell | v_1, ..., v_j and
    prod (R v_i + S) = w, the first j coordinates forced non-unit and the
    rest unrestricted. For a unit w every factor is a unit, so this is the
    slot log w of c_div^j * c_all^(J - j) mod x^phi - 1, where c_div and
    c_all are the log histograms of the unit values R v + S over ell | v
    and over all v.
    """
    _linear_coeffs(F)
    if not 0 <= j <= J:
        raise InvalidConfigError(f"need 0 <= j <= J, got j={j}, J={J}")
    m = ell**e
    view = build_character_table(ell, e)
    k = view.log(w)
    logs = view.log_table[F.eval_mod(np.arange(m, dtype=np.int64), m)]
    div = logs[::ell]
    c_all = np.bincount(logs[logs >= 0], minlength=view.phi)
    c_div = np.bincount(div[div >= 0], minlength=view.phi)
    return _cyclic_product((c_div, j), (c_all, J - j))[k]


def v_double_incex(F: IntPoly, ell: int, e: int, J: int, w: int) -> tuple[int, list[int]]:
    """V''_{ell^e}(w) via the inclusion-exclusion identity over forced
    non-unit coordinates; returns (count, term list)."""
    terms = [v_double_incex_term(F, ell, e, J, j, w) for j in range(J + 1)]
    count = sum((-1) ** j * math.comb(J, j) * t for j, t in enumerate(terms))
    return count, terms


@dataclass(frozen=True)
class MixingRow:
    w: int
    v_double: int
    ratio: float          # phi(q) V'' / V'
    deviation: float      # |ratio - 1|


@dataclass(frozen=True)
class MixingReport:
    q: int
    J: int
    v_prime: int
    rows: tuple[MixingRow, ...]
    max_deviation: float
    r_bound: float        # 2 (4D)^J sum_{ell | q} ell^(1 - J/(D+1))


def hypothesis_a_ratio(F: IntPoly, q: FactoredModulus | int, J: int,
                       w_panel: list[int] | None = None,
                       method: str = "auto") -> MixingReport:
    """phi(q) V''(w) / V' over a panel of unit targets w (every unit when
    w_panel is None, which check_modulus bounds)."""
    if isinstance(q, int):
        q = factor(q)
    _require_odd(q)
    if w_panel is None:
        check_modulus(q.q)
    vp = count_v_prime(F, q, J).count
    if vp == 0:
        raise InvalidConfigError(
            f"alpha({q.q}) = 0: V' is empty and the mixing ratio is vacuous"
        )
    if w_panel is None:
        w_panel = [w for w in range(1, q.q + 1) if math.gcd(w, q.q) == 1]
    rows = []
    for w in w_panel:
        vd = count_v_double(F, q, J, w, method=method)
        ratio = q.phi * vd / vp
        rows.append(MixingRow(w=w, v_double=vd, ratio=ratio, deviation=abs(ratio - 1)))
    D = F.degree
    r_bound = 2 * (4 * D) ** J * sum(
        ell ** (1 - J / (D + 1)) for ell, _ in q.factors
    )
    return MixingReport(q=q.q, J=J, v_prime=vp, rows=tuple(rows),
                        max_deviation=max(r.deviation for r in rows),
                        r_bound=r_bound)


# ---------------------------------------------------------------------------
# Additive tuple counts (all moduli, even q included)

@dataclass(frozen=True)
class AdditiveTupleReport:
    q: int
    J: int
    w: int
    v_sum: int            # tuples of units with sum = w
    v_alt: int            # tuples with alternating sum = w
    formula: int          # Ramanujan-sum closed form, exact
    parity_factor: int    # 1 (odd q), 2 or 0 (even q, by J = w mod 2)
    predicted: float      # parity_factor * phi(q)^J / q


def _additive_prime_power_count(ell: int, e: int, J: int, w: int) -> int:
    """Exact count via the Ramanujan closed form: only r with
    ell^(e-1) || r survive, each contributing (-ell^(e-1))^J."""
    m = ell**e
    phi = m - m // ell
    lp = ell ** (e - 1)
    raw = phi**J + (-lp) ** J * (ell * (w % ell == 0) - 1)
    if raw % m:
        raise ConsistencyError("additive closed form did not produce an integer")
    return raw // m


@lru_cache(maxsize=8)  # one table answers every target w
def _additive_brute_all(q: int, J: int) -> np.ndarray:
    """Row 0: #V_q(w), row 1: #V*_q(w) for every w, by explicit enumeration
    of the phi(q)^J unit J-tuples; read-only, since the cache shares it. The
    sums are enumerated once: negating the odd-indexed entries maps the unit
    tuples onto themselves and each alternating sum onto a sum, so the rows
    agree."""
    units = np.flatnonzero(np.gcd(np.arange(q), q) == 1)  # [0] for q = 1
    counts = _tuple_table(np.broadcast_to(units, (J, units.size)), q, np.add)
    return np.broadcast_to(counts, (2, q))  # a read-only view


def additive_tuple_counts(q: int, J: int, w: int) -> AdditiveTupleReport:
    """#V_q(w) and #V*_q(w) with the exact prime-power formula, checked by
    the brute counts when phi(q)^J <= BRUTE_GUARD.

    The closed form holds for every prime power including 2^e, where it
    reduces exactly to the parity factor times phi(q)^J / q.
    """
    if q < 1 or J < 1:
        raise InvalidConfigError("need q >= 1 and J >= 1")
    fm = factor(q)
    formula = 1
    for ell, e in fm.factors:
        formula *= _additive_prime_power_count(ell, e, J, w % ell**e)
    parity = 1 if q % 2 else (0 if (J - w) % 2 else 2)
    predicted = parity * fm.phi**J / q
    if fm.phi**J <= BRUTE_GUARD:
        v_sum, v_alt = (int(c) for c in _additive_brute_all(q, J)[:, w % q])
        if v_sum != formula:
            raise ConsistencyError(
                f"additive formula {formula} != brute {v_sum} (q={q}, J={J}, w={w})"
            )
    else:
        v_sum = v_alt = formula
    return AdditiveTupleReport(q=q, J=J, w=w, v_sum=v_sum, v_alt=v_alt,
                               formula=formula, parity_factor=parity,
                               predicted=predicted)
