"""Segmented evaluation of f(n) mod q over ranges of n, with per-n factor
statistics: k-th largest prime factors with multiplicity, the convenient
classification, and the additive functions A(n) and A*(n).

The engine never materializes f(n) as a full integer; it carries residues
mod q and derived flags only. A segment holds DEFAULT_SEGMENT integers, so
that its working arrays stay in L2 cache. It is processed with numpy
operations on strided views: for each prime p below sqrt(hi) and each k for
which the segment holds a multiple of p^k, the view [s::p^k] over those
multiples has one factor p multiplied into its smooth part and pushed on top
of the slot stack of largest prime factors (primes come in ascending order,
so each new factor goes on top). The exponent count then picks f(p^e) mod q
from a per-prime table, built once per run and extended when a segment first
holds a higher power of p. Where smooth != n, n / smooth is one prime above
sqrt(hi); its F mod q comes from a per-run table of F(r) mod q, r < q.

f(n) mod q is an int64 product of one residue per distinct prime of n, at most
omega of them (p_1 ... p_omega <= hi). When (q - 1)^omega < 2^63 (q <= 512 at
2*10^6, q <= 235 at 10^8) a segment reduces it once, at its end, else after
every prime. n, smooth, the slots, Omega, A and A* are int32 (SIEVE_GUARD < 2^31).

A caller pays only for the FIELDS it asks for: fmod (which brings coprime),
Omega, A and A*; the slot stack, k_slots deep (0 allowed), is always there.
Distribution runs ask for fmod, the additive runs for A and A*, and the
per-n record dumps for fmod and Omega; the default is all of them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from wudlab.errors import GuardExceededError, InvalidConfigError
from wudlab.number_core import factor, is_prime, primes_upto
from wudlab.poly import IntPoly

SIEVE_GUARD = 10**8
RECORD_GUARD = 10**6
DEFAULT_SEGMENT = 1 << 16  # 25 bytes per n with fmod and 2 slots: 1 638 400 < 2 MiB L2
# every table of size q is guarded; q <= 10^6 also keeps q^2 < 2^63 for the
# int64 products of residues
MODULUS_GUARD = 10**6
FIELDS = ("fmod", "Omega", "A", "Astar")  # what iter_segments computes on request

RULES = (
    "completely-multiplicative",   # f(p^e) = F(p)^e
    "polynomial-at-prime-powers",  # f(p^e) = F(p^e)
    "euler-like",                  # f(p^e) = p^(e-1) F(p)
    "custom-table",                # explicit (p, e) -> value for e >= 2
)


@dataclass(frozen=True)
class MultiplicativeSpec:
    """A multiplicative f pinned down by F at primes plus a prime-power rule.

    Every rule satisfies f(p) = F(p) and f(1) = 1; they differ only at
    proper prime powers, where the defining property leaves f free.
    """

    F: IntPoly
    rule: str = "euler-like"
    custom_table: dict[tuple[int, int], int] | None = None

    def __post_init__(self):
        if self.rule not in RULES:
            raise InvalidConfigError(f"unknown rule {self.rule!r}; choose from {RULES}")
        if self.rule == "custom-table" and self.custom_table is None:
            raise InvalidConfigError("custom-table rule needs an explicit table")

    def value_at_prime_power(self, p: int, e: int, q: int) -> int:
        """f(p^e) mod q."""
        if e == 0:
            return 1 % q
        if e == 1:
            return self.F.eval_mod(p, q)
        if self.rule == "completely-multiplicative":
            return pow(self.F.eval_mod(p, q), e, q)
        if self.rule == "polynomial-at-prime-powers":
            return self.F.eval_mod(pow(p, e, q), q)
        if self.rule == "euler-like":
            return pow(p, e - 1, q) * self.F.eval_mod(p, q) % q
        try:
            return self.custom_table[(p, e)] % q
        except KeyError:
            raise InvalidConfigError(
                f"custom table has no entry for prime power ({p}, {e})"
            ) from None

    def prime_power_table(self, p: int, max_e: int, q: int) -> np.ndarray:
        return np.array(
            [self.value_at_prime_power(p, e, q) for e in range(max_e + 1)],
            dtype=np.int64,
        )

    def label(self) -> str:
        return f"{self.rule}({self.F})"


def f_mod(spec: MultiplicativeSpec, n: int, q: int) -> tuple[int, bool]:
    """(f(n) mod q, gcd(f(n), q) == 1), via the canonical factorization."""
    if n < 1:
        raise InvalidConfigError("f_mod needs n >= 1")
    val = 1 % q
    for p, e in factor(n).factors:
        val = val * spec.value_at_prime_power(p, e, q) % q
    return val, math.gcd(val, q) == 1


@dataclass(frozen=True)
class ConvenientParams:
    """x, delta and the derived cutoffs J, y, z of the convenient split."""

    x: float
    delta: float
    J: int
    y: float
    z: float

    @classmethod
    def from_x(cls, x: float, delta: float = 1.0, J: int | None = None,
               y: float | None = None) -> "ConvenientParams":
        """Derive J = floor(log log log x) and y = exp((log x)^(delta/2)).

        Explicit J/y overrides are allowed (any slowly growing J works for
        the heuristics; desk-scale x only ever reaches J = 1 naturally, and
        x <= e^(e^e) has no valid J at all without an override).
        """
        if not 0 < delta <= 1:
            raise InvalidConfigError(f"delta must be in (0, 1], got {delta}")
        if x < 1:
            raise InvalidConfigError(f"x must be >= 1, got {x}")
        logx = math.log(x)
        j_natural = math.floor(math.log(math.log(logx))) if logx > math.e**math.e else 0
        if J is None:
            if j_natural < 1:
                raise InvalidConfigError(
                    f"x={x} is too small for J >= 1; pass an explicit J override"
                )
            J = j_natural
        if J < 1:
            raise InvalidConfigError("J must be >= 1")
        if y is None:
            y = math.exp(logx ** (delta / 2))
        z = x ** (1.0 / math.log(logx)) if logx > 1 else x
        return cls(x=x, delta=delta, J=J, y=y, z=z)


@dataclass(frozen=True)
class FactorizationRecord:
    """Exact per-n factor data (the slow, per-n reference path)."""

    n: int
    prime_powers: tuple[tuple[int, int], ...]  # descending by p

    @classmethod
    def of(cls, n: int) -> "FactorizationRecord":
        return cls(n=n, prime_powers=tuple(reversed(factor(n).factors)))

    @property
    def Omega(self) -> int:
        return sum(e for _, e in self.prime_powers)

    def P(self, k: int) -> int:
        """k-th largest prime factor with multiplicity; 1 when Omega < k."""
        if k < 1:
            raise InvalidConfigError("P_k needs k >= 1")
        i = k
        for p, e in self.prime_powers:
            if i <= e:
                return p
            i -= e
        return 1

    def rough_smooth(self, y: float) -> tuple[int, int]:
        """(largest divisor on primes > y, largest divisor on primes <= y)."""
        rough = smooth = 1
        for p, e in self.prime_powers:
            if p > y:
                rough *= p**e
            else:
                smooth *= p**e
        return rough, smooth

    def is_convenient(self, params: ConvenientParams) -> bool:
        if self.n > params.x:
            return False
        tops = [self.P(k) for k in range(1, params.J + 2)]
        if tops[params.J - 1] <= params.y:
            return False
        return all(tops[i] != tops[i + 1] for i in range(params.J))

    def additive_sums(self) -> tuple[int, int]:
        """(A(n), A*(n)): sum and alternating sum of prime factors with
        multiplicity, largest first."""
        a = astar = 0
        j = 0
        for p, e in self.prime_powers:
            a += e * p
            for _ in range(e):
                astar += p if j % 2 == 0 else -p
                j += 1
        return a, astar


def additive_values(n: int, q: int) -> tuple[int, int]:
    """(A(n) mod q, A*(n) mod q). A(1) = A*(1) = 0 by the empty sum."""
    a, astar = FactorizationRecord.of(n).additive_sums()
    return a % q, astar % q


@dataclass
class SegmentData:
    """Vectorized per-n data for n in [lo, hi)."""

    lo: int
    hi: int
    q: int
    fmod: np.ndarray | None      # f(n) mod q; each field is None unless asked for
    coprime: np.ndarray | None   # gcd(f(n) mod q, q) == 1, comes with fmod
    Omega: np.ndarray | None
    A: np.ndarray | None         # A(n), exact
    Astar: np.ndarray | None     # A*(n), exact signed
    slots: np.ndarray     # (k_slots, hi-lo): largest prime factors, descending

    @property
    def n(self) -> np.ndarray:
        return np.arange(self.lo, self.hi, dtype=np.int64)

    def P(self, k: int) -> np.ndarray:
        """P_k(n) for all n in the segment (1 where Omega < k)."""
        if k > self.slots.shape[0]:
            raise GuardExceededError(f"segment tracked only {self.slots.shape[0]} slots")
        return np.where(self.slots[k - 1] > 0, self.slots[k - 1], 1)

    def convenient(self, params: ConvenientParams) -> np.ndarray:
        J = params.J
        if J + 1 > self.slots.shape[0]:
            raise GuardExceededError("need k_slots >= J + 1 for the convenient flag")
        ok = self.slots[J - 1] > params.y
        for i in range(J):
            ok &= self.slots[i] != self.slots[i + 1]
        return ok


def check_modulus(q: int) -> None:
    """Reject q before any table of size q is built (see MODULUS_GUARD)."""
    if q < 1:
        raise InvalidConfigError("modulus must be >= 1")
    if q > MODULUS_GUARD:
        raise GuardExceededError(f"modulus guard {MODULUS_GUARD} exceeded by q={q}")


def _reduce_once(q: int, hi: int) -> bool:
    """(q - 1)^omega < 2^63, omega the most distinct primes an n <= hi can have."""
    omega, primorial = 0, 1
    for p in filter(is_prime, itertools.count(2)):
        primorial *= p
        if primorial > hi:
            return (q - 1) ** omega < 2**63
        omega += 1


def _sieve_segment(spec: MultiplicativeSpec, q: int, lo: int, hi: int,
                   k_slots: int, fields: tuple[str, ...], small_primes: np.ndarray,
                   tables: dict[int, np.ndarray], f_table: np.ndarray | None,
                   coprime_lookup: np.ndarray | None, reduce_once: bool) -> SegmentData:
    size = hi - lo
    n = np.arange(lo, hi, dtype=np.int32)
    smooth = np.ones(size, dtype=np.int32)  # the part of n on the small primes
    slots = np.zeros((k_slots, size), dtype=np.int32)
    rows = list(slots)  # 1-D row views: indexing them is cheaper than slots[r, view]
    fmod = extra = None
    if "fmod" in fields:
        fmod = np.full(size, 1 % q, dtype=np.int64)
        extra = np.zeros(size, dtype=np.int8)  # exponent of the current p, minus 1
    omega, a_sum, astar = (np.zeros(size, dtype=np.int32) if name in fields else None
                           for name in ("Omega", "A", "Astar"))

    def take(view, p, k=0) -> None:
        # p goes on top of the slot stack, whose top k slots already hold p;
        # row by row, since a 2-D copy onto itself goes through a buffer
        for r in range(k_slots - 1, k, -1):
            rows[r][view] = rows[r - 1][view]
        if k < k_slots:
            rows[k][view] = p
        if omega is not None:
            omega[view] += 1
        if a_sum is not None:
            a_sum[view] += p
        if astar is not None:  # A*(pn) = p - A*(n)
            part = astar[view]
            np.subtract(p, part, out=part)
            astar[view] = part  # the write-back matters only for an index array

    for p in small_primes.tolist():
        if p * p >= hi:
            break
        k, pk = 0, p
        while (start := -lo % pk) < size:  # views over the multiples of p^(k+1)
            view = slice(start, None, pk)
            part = smooth[view]
            part *= p
            if k and extra is not None:
                extra[view] += 1
            take(view, p, k)
            k, pk = k + 1, pk * p
        if not k or fmod is None:
            continue
        tab = tables.get(p)
        if tab is None or tab.size <= k:
            tab = tables[p] = spec.prime_power_table(p, k, q)
        part = fmod[-lo % p::p]
        if k == 1:
            part *= int(tab[1])
        else:
            part *= tab[1:][extra[-lo % p::p]]
            extra[-lo % (p * p)::p * p] = 0
        if not reduce_once:
            part %= q

    big = np.flatnonzero(smooth != n)  # n = smooth * (one prime above sqrt(hi))
    if big.size:
        pbig = (n[big] / smooth[big]).astype(np.int32)  # exact: ints < 2^53 divide evenly
        if fmod is not None:
            fmod[big] *= f_table[pbig - pbig // q * q]
        take(big, pbig)
    if fmod is not None:  # x - x // q * q: numpy's // by a scalar is far cheaper than %
        fmod -= fmod // q * q

    return SegmentData(lo=lo, hi=hi, q=q, fmod=fmod,
                       coprime=None if fmod is None else coprime_lookup[fmod],
                       Omega=omega, A=a_sum, Astar=astar, slots=slots)


def iter_segments(spec: MultiplicativeSpec, lo: int, hi: int, q: int,
                  k_slots: int = 4, segment_size: int = DEFAULT_SEGMENT,
                  fields: tuple[str, ...] = FIELDS) -> Iterator[SegmentData]:
    """Process [lo, hi] (inclusive on both ends) in independent segments.

    Results are identical for any segmentation: each segment is a pure
    function of its own range. Only the FIELDS named in fields are computed
    (coprime comes with fmod) and the others are None.
    """
    if hi > SIEVE_GUARD:
        raise GuardExceededError(f"sieve guard {SIEVE_GUARD} exceeded by hi={hi}")
    if lo < 1:
        raise InvalidConfigError("sieve range starts at n >= 1")
    if segment_size < 1:
        raise InvalidConfigError(f"segment size must be >= 1, got {segment_size}")
    if not set(fields) <= set(FIELDS):
        raise InvalidConfigError(f"fields must be drawn from {FIELDS}, got {fields}")
    check_modulus(q)
    small = primes_upto(math.isqrt(hi))
    tables: dict[int, np.ndarray] = {}  # p -> f(p^e) mod q, grown on demand
    f_table = coprime_lookup = None
    reduce_once = _reduce_once(q, hi)
    if "fmod" in fields:
        f_table = spec.F.eval_mod(np.arange(q, dtype=np.int64), q)
        coprime_lookup = np.gcd(np.arange(q, dtype=np.int64), q) == 1
    for seg_lo in range(lo, hi + 1, segment_size):
        seg_hi = min(seg_lo + segment_size, hi + 1)
        yield _sieve_segment(spec, q, seg_lo, seg_hi, k_slots, fields, small,
                             tables, f_table, coprime_lookup, reduce_once)


def sieve_range(spec: MultiplicativeSpec, lo: int, hi: int, q: int,
                params: ConvenientParams,
                segment_size: int = DEFAULT_SEGMENT) -> Iterator[dict]:
    """Per-n rows (n, f_mod_q, coprime, Omega, P1, P2, convenient) for n in
    [lo, hi]; for desk-scale record dumps."""
    if hi - lo + 1 > RECORD_GUARD:
        raise GuardExceededError(f"record streaming capped at {RECORD_GUARD} values")
    k_slots = max(params.J + 1, 2)
    for seg in iter_segments(spec, lo, hi, q, k_slots=k_slots,
                             segment_size=segment_size, fields=("fmod", "Omega")):
        columns = (seg.fmod, seg.coprime, seg.Omega, seg.P(1), seg.P(2),
                   seg.convenient(params))
        for n, f, c, o, p1, p2, conv in zip(range(seg.lo, seg.hi),
                                             *(col.tolist() for col in columns)):
            yield {"n": n, "f_mod_q": f, "coprime": c, "Omega": o,
                   "P1": p1, "P2": p2, "convenient": conv}
