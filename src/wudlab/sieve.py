"""Segmented evaluation of f(n) mod q over ranges of n, with per-n factor
statistics: k-th largest prime factors with multiplicity, the convenient
classification, and the additive functions A(n) and A*(n).

The engine never materializes f(n) as a full integer; it carries residues
mod q and derived flags only. It sieves the progression n = lo, lo + step,
... <= hi with gcd(lo, step) = 1 (step 1 by default; a census sieves the odd
n with step 2). The primes dividing step divide no n and are skipped; for
any other p, p^k | lo + step i exactly when i = -lo / step mod p^k, where
the view over those n starts. A segment holds DEFAULT_SEGMENT values, so
that its working arrays stay in L2 cache, and rests on one fact: with
B = icbrt(t), t its largest n, every n of it has at most two prime factors,
counted with multiplicity, above B.

- Each prime p <= B works on strided views: for each k for which the segment
  holds a multiple of p^k, the view [s::p^k] over those multiples has one
  factor p multiplied into its smooth part and pushed on top of the slot
  stack of largest prime factors (primes come in ascending order, so each
  new factor goes on top). f(p^e) mod q, from a per-prime list built once
  per run and extended when a segment first holds a higher power of p, is
  written over the p^e views and multiplied in once.
- Each prime B < p <= sqrt(t) writes p over its multiples in one array,
  which so ends as the largest such prime dividing n, or 1.
- One whole-array pass takes the rest: n / smooth and its quotient by the
  marked prime (both float-exact) give the two remaining factors, 1 meaning
  none. Each is pushed on the stack, added to Omega, A and A*, and its F mod q
  gathered from a table; where both are the same p, p^2 | n takes f(p^2),
  gathered from a per-run table indexed by p that is filled in when a
  segment first meets p^2.

f(n) mod q is an int64 product of one residue per distinct prime of n, at most
omega of them (p_1 ... p_omega <= hi). When (q - 1)^omega < 2^63 (q <= 512 at
2*10^6, q <= 235 at 10^8) a segment reduces it once, at its end; else after
every prime p <= B, so that the two factors of the last pass keep it below
q^3 < 2^63. n, smooth, the slots, Omega, A and A* are int32 (SIEVE_GUARD < 2^31).

The working arrays (n, advanced in place, its smooth part, the marks, the
quotients, the two factors, the table index and the gather buffer) are
allocated once per iter_segments call and reused by every segment; each
segment returns fresh output arrays.

A caller pays only for the FIELDS it asks for: fmod (which brings coprime),
Omega, A and A*; the slot stack, k_slots deep (0 allowed), is always there.
Distribution runs ask for fmod, the additive runs for A and A*, and the
per-n record dumps for fmod and Omega; the default is all of them.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from wudlab.errors import GuardExceededError, InvalidConfigError
from wudlab.number_core import SIEVE_GUARD, factor, is_prime, primes_upto
from wudlab.poly import IntPoly

RECORD_GUARD = 10**6
# with fmod and 2 slots a segment works on 54 bytes per n, 37 of them reused
# scratch and 17 its outputs: 1 769 472 < 2 MiB L2
DEFAULT_SEGMENT = 1 << 15
# every table of size q is guarded; q <= 10^6 also keeps q^2 < 2^63 for the
# int64 products of residues
MODULUS_GUARD = 10**6
# cells of a census share's int64 count arrays, one per x checkpoint, filter and
# class (24 MB); its reports take about 300 bytes a cell, so a run stays near
# 1 GB. Every one-checkpoint census at q <= MODULUS_GUARD fits: A and A* count
# 3q cells, the restricted scenarios 2q
COUNT_GUARD = 3 * 10**6
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


def convenient_cutoff(x: float, delta: float = 1.0) -> float:
    """The cutoff y = exp((log x)^(delta/2)) of the convenient split at x.
    The split is the paper's at J = 1: n is convenient when P_1(n) > y and
    P_1(n) != P_2(n). The paper's J = floor(log log log x) is 1 for every x in
    (e^(e^e), e^(e^(e^2))), about (3.8*10^6, 10^702), and does not exist below it."""
    if not 0 < delta <= 1:
        raise InvalidConfigError(f"delta must be in (0, 1], got {delta}")
    if x < 1:
        raise InvalidConfigError(f"x must be >= 1, got {x}")
    return math.exp(math.log(x) ** (delta / 2))


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

    def is_convenient(self, y: float) -> bool:
        return self.P(1) > y and self.P(1) != self.P(2)

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
    """Vectorized per-n data for the n in range(lo, hi, step)."""

    lo: int
    hi: int
    fmod: np.ndarray | None      # f(n) mod q; each field is None unless asked for
    coprime: np.ndarray | None   # gcd(f(n) mod q, q) == 1, comes with fmod
    Omega: np.ndarray | None
    A: np.ndarray | None         # A(n), exact
    Astar: np.ndarray | None     # A*(n), exact signed
    slots: np.ndarray     # (k_slots, size): largest prime factors, descending
    step: int = 1         # the n are lo, lo + step, ... < hi

    def P(self, k: int) -> np.ndarray:
        """P_k(n) for all n in the segment (1 where Omega < k)."""
        if k > self.slots.shape[0]:
            raise GuardExceededError(f"segment tracked only {self.slots.shape[0]} slots")
        return np.where(self.slots[k - 1] > 0, self.slots[k - 1], 1)

    def convenient(self, y: float) -> np.ndarray:
        """P_1(n) > y and P_1(n) != P_2(n), the convenient split at cutoff y."""
        if self.slots.shape[0] < 2:
            raise GuardExceededError("need k_slots >= 2 for the convenient flag")
        ok = self.slots[0] > y
        ok &= self.slots[0] != self.slots[1]
        return ok


def check_modulus(q: int, cells: int = 0) -> None:
    """Reject q before any table of size q is built (see MODULUS_GUARD), then
    a census whose count arrays would hold cells > COUNT_GUARD int64."""
    if q < 1:
        raise InvalidConfigError("modulus must be >= 1")
    if q > MODULUS_GUARD:
        raise GuardExceededError(f"modulus guard {MODULUS_GUARD} exceeded by q={q}")
    if cells > COUNT_GUARD:
        raise GuardExceededError(f"count guard {COUNT_GUARD} exceeded by {cells} "
                                 f"count cells at q={q}")


def _reduce_once(q: int, hi: int) -> bool:
    """(q - 1)^omega < 2^63, omega the most distinct primes an n <= hi can have."""
    omega, primorial = 0, 1
    for p in filter(is_prime, itertools.count(2)):
        primorial *= p
        if primorial > hi:
            return (q - 1) ** omega < 2**63
        omega += 1


def _icbrt(n: int) -> int:
    """The largest b >= 0 with b^3 <= n."""
    b = round(n ** (1 / 3))
    while b**3 > n:
        b -= 1
    while (b + 1) ** 3 <= n:
        b += 1
    return b


def _sieve_segment(spec: MultiplicativeSpec, q: int, lo: int, size: int, step: int,
                   k_slots: int, fields: tuple[str, ...], primes: list[int],
                   shifts: list[int], tables: dict[int, list[int]],
                   f_table: np.ndarray | None, f_square: np.ndarray | None,
                   coprime_lookup: np.ndarray | None,
                   reduce_once: bool, scratch: tuple[np.ndarray, ...]) -> SegmentData:
    top = lo + step * (size - 1)  # the largest n of the segment
    n, smooth, mark, quot, small, spare, gather, has = (a[:size] for a in scratch)
    index = quot.view(np.intp)  # quot is dead by the time index is written
    smooth.fill(1)  # the part of n on the primes <= cbrt(top)
    mark.fill(1)
    slots = np.zeros((k_slots, size), dtype=np.int32)
    rows = list(slots)  # 1-D row views: indexing them is cheaper than slots[r, view]
    fmod = np.full(size, 1 % q, dtype=np.int64) if "fmod" in fields else None
    omega, a_sum, astar = (np.zeros(size, dtype=np.int32) if name in fields else None
                           for name in ("Omega", "A", "Astar"))

    def values(p: int, k: int) -> list[int]:  # f(p^e) mod q for e <= k
        vals = tables.get(p)
        if vals is None or len(vals) <= k:
            vals = tables[p] = [spec.value_at_prime_power(p, e, q) for e in range(k + 1)]
        return vals

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

    cube = bisect.bisect_right(primes, _icbrt(top))
    root = bisect.bisect_right(primes, math.isqrt(top))
    for p, shift in zip(primes[:cube], shifts):
        views, pk = [], p
        while (start := lo * shift % pk) < size:  # views over the multiples of p, p^2, ...
            views.append(slice(start, None, pk))
            pk *= p
        for k, view in enumerate(views):
            part = smooth[view]
            part *= p
            take(view, p, k)
        if not views or fmod is None:
            continue
        vals = values(p, len(views))
        part = fmod[views[0]]
        if len(views) == 1:
            part *= vals[1]
        else:  # f(p^e) over the multiples of p^e, then one product
            for e, view in enumerate(views, 1):
                gather[view] = vals[e]
            part *= gather[views[0]]
        if not reduce_once:
            part %= q
    for p, shift in zip(primes[cube:root], shifts[cube:]):
        mark[lo * shift % p::p] = p  # ascending, so mark ends as the largest one dividing n

    # n / smooth is 1, p, p p' or p^2 with cbrt(hi - 1) < p <= p'; a marked
    # prime divides it, so both quotients are exact
    np.divide(n, smooth, out=quot)
    np.divide(quot, mark, out=quot)
    np.minimum(mark, quot, out=small, casting="unsafe")
    large = np.maximum(mark, quot, out=mark, casting="unsafe")
    square = None
    for x in (small, large):  # ascending, and above every prime on the stack
        np.greater(x, 1, out=has)
        x *= has  # 0 where n has no such factor
        for r in range(k_slots - 1, 0, -1):  # rows[r - 1] moves up where x > 0
            np.minimum(rows[r - 1], x, out=spare)
            np.maximum(rows[r], spare, out=rows[r])
        if k_slots:
            np.maximum(rows[0], x, out=rows[0])
        if omega is not None:
            omega += has
        if a_sum is not None:
            a_sum += x
        if astar is not None:  # A* += x - 2 A* where x > 0
            np.multiply(astar, has, out=spare)
            astar -= spare
            astar -= spare
            astar += x
        if fmod is not None:  # f_table index: 1 + x mod q where x > 0, else 0
            np.floor_divide(x, q, out=spare)
            spare *= q
            np.subtract(x, spare, out=spare)
            spare += has
            np.copyto(index, spare)  # np.take would convert int32 indices in a new array
            np.take(f_table, index, out=gather, mode="clip")
            if square is None:  # p^2 | n: f(p^2) on the first factor, 1 on the second
                square = np.flatnonzero(np.equal(x, large, out=has))
                squared = small[square]
                # the primes met for the first time, in n order: a missing
                # custom-table entry raises at the first n that needs it
                for p in dict.fromkeys(squared[f_square[squared] < 0].tolist()):
                    f_square[p] = values(p, 2)[2]
                gather[square] = f_square[squared]
            else:
                gather[square] = 1
            fmod *= gather
    if fmod is not None:  # x - x // q * q: numpy's // by a scalar is far cheaper than %
        np.floor_divide(fmod, q, out=gather)
        gather *= q
        fmod -= gather

    return SegmentData(lo=lo, hi=lo + step * size, fmod=fmod,
                       coprime=None if fmod is None else coprime_lookup[fmod],
                       Omega=omega, A=a_sum, Astar=astar, slots=slots, step=step)


def iter_segments(spec: MultiplicativeSpec, lo: int, hi: int, q: int,
                  k_slots: int = 4, segment_size: int = DEFAULT_SEGMENT,
                  fields: tuple[str, ...] = FIELDS, step: int = 1) -> Iterator[SegmentData]:
    """Process the n = lo, lo + step, ... <= hi in independent segments of
    segment_size values each; gcd(lo, step) must be 1.

    Each n gets the same values whatever the segmentation and the step: a
    segment is a pure function of its own n. Only the FIELDS named in fields
    are computed (coprime comes with fmod) and the others are None. The
    working arrays are allocated once per call and reused; each
    SegmentData's arrays are its own.
    """
    if hi > SIEVE_GUARD:
        raise GuardExceededError(f"sieve guard {SIEVE_GUARD} exceeded by hi={hi}")
    if lo < 1:
        raise InvalidConfigError("sieve range starts at n >= 1")
    if segment_size < 1:
        raise InvalidConfigError(f"segment size must be >= 1, got {segment_size}")
    if step < 1 or math.gcd(lo, step) != 1:
        raise InvalidConfigError(f"step must be >= 1 and coprime to lo={lo}, got {step}")
    if not set(fields) <= set(FIELDS):
        raise InvalidConfigError(f"fields must be drawn from {FIELDS}, got {fields}")
    check_modulus(q)
    count = (hi - lo) // step + 1  # the n in the progression
    if count < 1:
        return
    # a prime dividing step divides no n; p^k | n = lo + step i exactly when
    # i = lo * shift mod p^k, shift = -1/step mod the first power of p above hi
    primes = [p for p in primes_upto(math.isqrt(hi)).tolist() if step % p]
    shifts = []
    for p in primes:
        pk = p
        while pk <= hi:
            pk *= p
        shifts.append(-pow(step, -1, pk) % pk)
    tables: dict[int, list[int]] = {}  # p -> f(p^e) mod q, grown on demand
    f_table = f_square = coprime_lookup = None
    reduce_once = _reduce_once(q, hi)
    if "fmod" in fields:
        # index 0 for no factor, 1 + r for a factor = r mod q
        f_table = np.concatenate(([1 % q], spec.F.eval_mod(np.arange(q, dtype=np.int64), q)))
        f_square = np.full(math.isqrt(hi) + 1, -1, dtype=np.int64)  # f(p^2) mod q; -1 unknown
        coprime_lookup = np.gcd(np.arange(q, dtype=np.int64), q) == 1
    size = min(segment_size, count)
    # the working arrays: n, then smooth, mark, quot, small, spare, gather and has
    n = np.arange(lo, lo + step * size, step, dtype=np.int32)
    scratch = (n, *(np.empty(size, dtype) for dtype in (
        np.int32, np.int32, np.float64, np.int32, np.int32, np.int64, bool)))
    for first in range(0, count, segment_size):
        yield _sieve_segment(spec, q, lo + step * first, min(segment_size, count - first),
                             step, k_slots, fields, primes, shifts, tables, f_table,
                             f_square, coprime_lookup, reduce_once, scratch)
        n += step * size


def sieve_range(spec: MultiplicativeSpec, lo: int, hi: int, q: int,
                y: float) -> Iterator[dict]:
    """Per-n rows (n, f_mod_q, coprime, Omega, P1, P2, convenient) for n in
    [lo, hi]; for desk-scale record dumps."""
    if hi - lo + 1 > RECORD_GUARD:
        raise GuardExceededError(f"record streaming capped at {RECORD_GUARD} values")
    for seg in iter_segments(spec, lo, hi, q, k_slots=2, fields=("fmod", "Omega")):
        columns = (seg.fmod, seg.coprime, seg.Omega, seg.P(1), seg.P(2), seg.convenient(y))
        for n, f, c, o, p1, p2, conv in zip(range(seg.lo, seg.hi),
                                             *(col.tolist() for col in columns)):
            yield {"n": n, "f_mod_q": f, "coprime": c, "Omega": o,
                   "P1": p1, "P2": p2, "convenient": conv}
