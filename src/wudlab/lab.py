"""Experiment orchestration: full distribution runs over [1, x], the
counterexample and restricted-input scenarios, the additive-function runs,
and the one CSV/JSON writer of every report and command output.

One sieve pass serves a ladder of x checkpoints and several filters: every
scenario, and wudlab dist for each q, counts its whole ladder in one census.
All counts are exact and deterministic for a fixed configuration.

A census (run_distribution_multi, run_additive) cuts [1, x] into contiguous
shares with equal numbers of n: one per CPU in the affinity mask, but at
most x // MIN_SHARE, since below about MIN_SHARE integers a share sieves
faster than a fork and the wait for its child. The caller sieves share 0
and a child made by os.fork each other share, sending its exact int64
counts back pickled over a pipe; the parent sums them in share order, so
the reports do not depend on the split. A child's exception is re-raised
in share order, a child that dies raises ConsistencyError, and no child
outlives the call. Forking needs os.fork, os.sched_getaffinity and no
other running thread (a forked child holds a copy of one thread only);
otherwise the census runs inline as one share.

A distribution census sieves only the odd m of its share (iter_segments with
step 2). f is multiplicative, so each n = 2^e m <= x with m odd has f(n) =
c_e f(m), c_e = f(2^e) mod q, and m's segment counts n into the checkpoint
row that holds it; an e whose c_e is not a unit is skipped, since those n
are never coprime and only unit classes are read. The flags of m serve
2^e m: an appended factor 2 never passes P_k > q when q >= 2 nor P_1 > y
when y >= 2 (convenient_cutoff gives y >= 2.3 for every x >= 2), nor equals
a P_1 > y, so the convenient flag and every filter of 2^e m are those of m.
For q = 1 or y < 2 a census sieves every n of its share. Each share returns
two int64 arrays, the counts of every class per checkpoint and filter and
the matching n_con, each checkpoint's row counting the n above the
checkpoint before it. The parent adds the shares into share 0's arrays
and takes the running sum over the checkpoints in place, so the report at
xs[j] reads row j.

The additive census (run_additive) sieves the odd m of its share too, for
every q, and counts each n = 2^e m <= x from m's A and A*: A(2^e m) =
A(m) + 2e, and since A* takes the prime factors largest first, the e twos
come last, so A*(2^e m) = A*(m) + 2 (-1)^Omega(m) for e odd and A*(m) for e
even. Every prime factor of an odd m is odd, so A*(m) has the parity of
Omega(m), and the kernel is not asked for Omega. Its rows are those of a
distribution census, for A and for A* mod q.
"""

from __future__ import annotations

import csv
import functools
import inspect
import json
import math
import os
import pickle
import threading
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from wudlab.density import DensityProfile, alpha
from wudlab.errors import ConsistencyError, GuardExceededError, InvalidConfigError
from wudlab.poly import IntPoly, admissible_primes, parse_poly
from wudlab.sieve import (
    SIEVE_GUARD,
    MultiplicativeSpec,
    SegmentData,
    check_modulus,
    convenient_cutoff,
    iter_segments,
)

SCHEMA_VERSION = 1

FILTERS = ("none", "pD2-rough", "p2-rough", "convenient-only")

CSV_COLUMNS = ("scenario", "spec", "x", "q", "a", "count", "expected", "ratio")

MIN_SHARE = 1 << 18  # fewest n per census share: the measured fork crossover


@dataclass(frozen=True)
class DistributionReport:
    """Per-(x, q) census of f(n) mod q over 1 <= n <= x."""

    spec: str
    scenario: str
    x: int
    q: int
    filter: str
    class_counts: dict[int, int]   # unit class a -> N(q, a)
    n_coprime: int
    n_con: int
    n_inc: int
    alpha: Fraction
    discrepancy: float             # max_a |N(q,a) phi(q) / N_coprime - 1|
    tv_distance: float             # secondary metric
    growth_pred: float         # x / (log x)^(1 - alpha)

    def __post_init__(self):
        if sum(self.class_counts.values()) != self.n_coprime:
            raise ConsistencyError("class counts do not sum to N_coprime")
        if self.n_con + self.n_inc != self.n_coprime:
            raise ConsistencyError("convenient split does not partition N_coprime")

    def rows(self) -> list[dict]:
        phi_q = len(self.class_counts)
        expected = self.n_coprime / phi_q if phi_q else 0.0
        out = []
        for a, c in sorted(self.class_counts.items()):
            out.append({
                "scenario": self.scenario, "spec": self.spec, "x": self.x,
                "q": self.q, "a": a, "count": c, "expected": expected,
                "ratio": c / expected if expected else float("nan"),
            })
        return out

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "type": "distribution",
            "spec": self.spec, "scenario": self.scenario, "x": self.x,
            "q": self.q, "filter": self.filter,
            "class_counts": {str(a): c for a, c in sorted(self.class_counts.items())},
            "n_coprime": self.n_coprime, "n_con": self.n_con, "n_inc": self.n_inc,
            "alpha": [self.alpha.numerator, self.alpha.denominator],
            "alpha_float": float(self.alpha),
            "discrepancy": self.discrepancy,
            "tv_distance": self.tv_distance,
            "growth_pred": self.growth_pred,
        }


def _report(spec: MultiplicativeSpec, scenario: str, x: int, q: int, filter_name: str,
            units: list[int], counts: np.ndarray, n_con: int,
            profile: DensityProfile) -> DistributionReport:
    """The report at x from one filter's counts of the unit classes units,
    with profile = alpha(spec.F, q)."""
    phi_q = len(units)
    n_coprime = int(counts.sum())
    if n_coprime:
        freqs = counts.astype(np.float64)
        freqs *= phi_q / n_coprime
        disc = float(np.max(np.abs(freqs - 1.0)))
        tv = 0.5 * float(np.sum(np.abs(freqs - 1.0))) / phi_q
    else:
        disc = tv = 0.0
    a = float(profile.alpha)
    pred = x / math.log(x) ** (1 - a) if x > 1 else float(x)
    return DistributionReport(
        spec=spec.label(), scenario=scenario, x=x, q=q, filter=filter_name,
        class_counts=dict(zip(units, counts.tolist())),
        n_coprime=n_coprime, n_con=n_con, n_inc=n_coprime - n_con,
        alpha=profile.alpha, discrepancy=disc, tv_distance=tv, growth_pred=pred,
    )


def _run_child(census, lo: int, hi: int, w: int) -> None:
    """Send census(lo, hi), or the exception it raised, pickled down the pipe
    w, and exit: a forked child never returns into its caller's code."""
    status = 1
    try:
        try:
            out = census(lo, hi)
        except Exception as exc:  # no census result is an exception
            out = exc
        with open(w, "wb") as fh:
            fh.write(pickle.dumps(out, pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


def _fan_out(census, q: int, x: int, cells: int) -> list:
    """census(lo, hi) for each share of [1, x], in share order, each share's
    count arrays holding cells int64; see the module docstring. The guards
    run before the first fork."""
    check_modulus(q, cells)
    if x > SIEVE_GUARD:
        raise GuardExceededError(f"sieve guard {SIEVE_GUARD} exceeded by hi={x}")
    n_shares = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") \
            and threading.active_count() == 1:
        n_shares = max(1, min(len(os.sched_getaffinity(0)), x // MIN_SHARE))
    cuts = [x * i // n_shares for i in range(n_shares + 1)]  # share i: (cuts[i], cuts[i + 1]]
    pids, pipes = [], []  # shares 1, 2, ...: the child and the read end of its pipe
    try:
        for i in range(1, n_shares):
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                if (pid := os.fork()) == 0:
                    _run_child(census, cuts[i] + 1, cuts[i + 1], w)
                pids.append(pid)
            finally:
                os.close(w)  # the child's copy is now the only write end
        results = [census(1, cuts[1])]
        for i, fh in enumerate(pipes, 1):
            try:
                out = pickle.load(fh)
            except (EOFError, pickle.UnpicklingError):
                raise ConsistencyError(f"census share {i} [{cuts[i] + 1}, {cuts[i + 1]}] "
                                       "ended without a result") from None
            if isinstance(out, Exception):
                raise out
            results.append(out)
        return results
    finally:
        for fh in pipes:
            fh.close()
        for pid in pids:
            os.kill(pid, 9)  # SIGKILL; a child that has sent its result has nothing left to do
            os.waitpid(pid, 0)


def _filter_mask(filter_name: str, spec: MultiplicativeSpec, q: int, seg: SegmentData,
                 convenient: np.ndarray) -> np.ndarray | None:
    """The n of seg that filter_name keeps; None keeps them all."""
    if filter_name == "none":
        return None
    if filter_name == "pD2-rough":
        return seg.P(spec.F.degree + 2) > q
    if filter_name == "p2-rough":
        return seg.P(2) > q
    return convenient


def _add_classes(counts: np.ndarray, classes: np.ndarray, c: int, spread: dict) -> None:
    """counts[c a mod q] += 1 for each a in classes, q = len(counts) and c a
    unit mod q; spread caches, per c, the classes b / c mod q of every b."""
    q = len(counts)
    if 8 * len(classes) < q:  # cheaper than a histogram of all q classes
        np.add.at(counts, classes * c % q, 1)
        return
    hist = np.bincount(classes, minlength=q)
    if c != 1 % q:  # c a is a permutation of the classes
        if c not in spread:
            spread[c] = np.arange(q, dtype=np.int64) * pow(c, -1, q) % q
        hist = hist[spread[c]]
    counts += hist


def _slices(seg: SegmentData, scales: Sequence[tuple[int, int]],
            xs: Sequence[int]) -> Iterator[tuple[int, int, int, int]]:
    """(j, a, b, move) for each (scale, move) of scales and each row j holding
    some n = scale m: the m = seg.lo + step i, a <= i < b, give xs[j - 1] < n <= xs[j].
    The walk ends at the first scale that reaches no m of seg; no larger one does."""
    size = (seg.hi - seg.lo) // seg.step
    for scale, move in scales:
        bounds = [min(max((end // scale - seg.lo) // seg.step + 1, 0), size) for end in xs]
        if not bounds[-1]:
            return
        for j, (a, b) in enumerate(zip([0, *bounds], bounds)):
            if a < b:
                yield j, a, b, move


def _sum_shares(shares: list[tuple[np.ndarray, ...]]) -> tuple[np.ndarray, ...]:
    """Share 0's arrays with every other share's added, then summed over the
    checkpoints in place: row j of each then counts every n <= xs[j]."""
    first, *rest = shares
    for share in rest:
        for total, part in zip(first, share):
            total += part
    for total in first:
        np.cumsum(total, axis=0, out=total)
    return first


def _census(spec: MultiplicativeSpec, q: int, lo: int, hi: int, xs: Sequence[int],
            y: float, filter_names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The class counts and n_con of each filter over the n = 2^e m <= xs[-1]
    with m odd in [lo, hi] (every n in [lo, hi] when q = 1 or y < 2), as the
    int64 arrays counts[j, f, class] and n_con[j, f], where row j counts the
    n in (xs[j - 1], xs[j]]."""
    x = xs[-1]
    step = 2 if q > 1 and y >= 2 else 1  # see the module docstring
    lo |= step - 1  # the first odd m >= lo when step = 2
    scales = []  # (2^e, f(2^e) mod q) for the e that make some n <= x, f(2^e) a unit
    for e in range(x.bit_length() if step == 2 else 1):
        if lo << e > x:
            break
        c = spec.value_at_prime_power(2, e, q)
        if math.gcd(c, q) == 1:
            scales.append((1 << e, c))
    counts = np.zeros((len(xs), len(filter_names), q), dtype=np.int64)
    n_con = np.zeros((len(xs), len(filter_names)), dtype=np.int64)
    spread: dict[int, np.ndarray] = {}

    def add(seg: SegmentData) -> None:
        convenient = seg.convenient(y)
        # n is coprime exactly when f(n) mod q is a unit class, and _report reads
        # only unit classes: the class counts need no coprime mask
        con = seg.coprime & convenient
        kept = []  # per filter: the classes it keeps, their con flags and its mask
        for f in filter_names:
            mask = _filter_mask(f, spec, q, seg, convenient)
            kept.append((seg.fmod, con, None) if mask is None else
                        (seg.fmod[mask], con & mask, mask))
        for j, a, b, c in _slices(seg, scales, xs):
            for f, (classes, flags, mask) in enumerate(kept):
                ia, ib = (a, b) if mask is None else (
                    np.count_nonzero(mask[:a]), np.count_nonzero(mask[:b]))
                _add_classes(counts[j, f], classes[ia:ib], c, spread)
                n_con[j, f] += np.count_nonzero(flags[a:b])

    # the convenient flag reads 2 slots, the pD2-rough filter D + 2
    k_slots = spec.F.degree + 2 if "pD2-rough" in filter_names else 2
    for seg in iter_segments(spec, lo, hi, q, k_slots=k_slots, fields=("fmod",),
                             step=step):
        add(seg)
        del seg  # the next segment is sieved without this one
    return counts, n_con


def run_distribution(spec: MultiplicativeSpec, q: int, x: int) -> DistributionReport:
    """One full sieve pass over [1, x] for a single modulus, unfiltered."""
    return run_distribution_multi(spec, q, [x])[0]


def run_distribution_multi(spec: MultiplicativeSpec, q: int, xs: int | Sequence[int], *,
                           delta: float = 1.0, filter_names: Sequence[str] = ("none",),
                           scenario: str = "dist") -> list[DistributionReport]:
    """One sieve pass shared across the x checkpoints xs, one or a list, and
    the filters; the convenient split of every checkpoint takes the cutoff
    of the largest x."""
    xs = _ladder(xs)
    filter_names = tuple(filter_names)  # read by each share
    y = convenient_cutoff(xs[-1], delta=delta)
    if any(f not in FILTERS for f in filter_names):
        raise InvalidConfigError(f"filter must be one of {FILTERS}")
    counts, n_con = _sum_shares(_fan_out(
        lambda lo, hi: _census(spec, q, lo, hi, xs, y, filter_names),
        q, xs[-1], len(xs) * len(filter_names) * q))
    profile = alpha(spec.F, q)  # past the guards of _fan_out, no guard of alpha can trip
    units = np.flatnonzero(np.gcd(np.arange(q), q) == 1)  # [0] for q = 1
    keys = units.tolist()  # one list, so every report's dict shares its ints
    return [_report(spec, scenario, x, q, f, keys, counts[j, i, units], int(n_con[j, i]),
                    profile)
            for j, x in enumerate(xs) for i, f in enumerate(filter_names)]


@dataclass(frozen=True)
class AdditiveReport:
    """Class counts of A(n) and A*(n) mod q over n <= x (all classes)."""

    scenario: str
    x: int
    q: int
    counts_a: dict[int, int]
    counts_astar: dict[int, int]
    max_rel_dev_a: float      # max_a |count * q / x - 1|
    max_rel_dev_astar: float

    def rows(self) -> list[dict]:
        expected = self.x / self.q
        return [{"scenario": self.scenario, "spec": spec, "x": self.x, "q": self.q,
                 "a": a, "count": c, "expected": expected, "ratio": c / expected}
                for spec, counts in (("A(n)", self.counts_a), ("A*(n)", self.counts_astar))
                for a, c in sorted(counts.items())]

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION, "type": "additive",
            "scenario": self.scenario, "x": self.x, "q": self.q,
            "counts_a": {str(a): c for a, c in sorted(self.counts_a.items())},
            "counts_astar": {str(a): c for a, c in sorted(self.counts_astar.items())},
            "max_rel_dev_a": self.max_rel_dev_a,
            "max_rel_dev_astar": self.max_rel_dev_astar,
        }


def _add_rolled(row: np.ndarray, hist: np.ndarray, k: int) -> None:
    """row[(a + k) mod q] += hist[a] for every class a, q = len(row)."""
    k %= len(row)
    row[k:] += hist[:len(row) - k]
    row[:k] += hist[len(row) - k:]


def _additive_census(q: int, lo: int, hi: int,
                     xs: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Class counts of A(n) and A*(n) mod q over the n = 2^e m <= xs[-1] with m
    odd in [lo, hi], as the int64 arrays counts_a[j, class] and
    counts_s[j, class], where row j counts the n in (xs[j - 1], xs[j]]."""
    spec = MultiplicativeSpec(F=IntPoly((-1, 1)))  # never evaluated: f is not asked for
    lo |= 1  # the first odd m >= lo
    counts_a = np.zeros((len(xs), q), dtype=np.int64)
    counts_s = np.zeros((len(xs), 2 * q), dtype=np.int64)  # A*(n) mod 2q
    scales = [(1 << e, e) for e in range(xs[-1].bit_length())]  # (2^e, e)

    def add(seg: SegmentData) -> None:
        # A mod q and A* mod 2q in the segment's own arrays, as x - x // d * d: right
        # for either sign, and numpy's // by a scalar is far cheaper than %. For m
        # odd A*(m) has the parity of Omega(m), which A* mod 2q keeps
        a, s = seg.A, seg.Astar
        for field, d in ((a, q), (s, 2 * q)):
            r = field // d
            r *= d
            field -= r
        hists = {}  # (start, stop) -> the histograms of a and s: most e take the whole segment
        for j, start, stop, e in _slices(seg, scales, xs):
            if (start, stop) not in hists:
                hists[start, stop] = (np.bincount(a[start:stop], minlength=q),
                                      np.bincount(s[start:stop], minlength=2 * q))
            hist_a, hist_s = hists[start, stop]
            # A(2^e m) = A(m) + 2e. For e odd A*(2^e m) = A*(m) + 2 (-1)^Omega(m):
            # the even classes mod 2q move up by 2, the odd ones down by 2
            _add_rolled(counts_a[j], hist_a, 2 * e)
            _add_rolled(counts_s[j, 0::2], hist_s[0::2], e & 1)
            _add_rolled(counts_s[j, 1::2], hist_s[1::2], -(e & 1))

    for seg in iter_segments(spec, lo, hi, q, k_slots=0, fields=("A", "Astar"), step=2):
        add(seg)
        del seg  # the next segment is sieved without this one
    return counts_a, counts_s[:, :q] + counts_s[:, q:]


def run_additive(q: int, x: int) -> AdditiveReport:
    """Census of A(n) and A*(n) mod q; expected x/q in every class."""
    return run_additive_multi(q, [x])[0]


def run_additive_multi(q: int, xs: int | Sequence[int]) -> list[AdditiveReport]:
    """One census of A(n) and A*(n) mod q shared across the x checkpoints
    xs, one or a list."""
    xs = _ladder(xs)
    counts_a, counts_s = _sum_shares(_fan_out(
        lambda lo, hi: _additive_census(q, lo, hi, xs), q, xs[-1], 3 * q * len(xs)))
    reports = []
    for x, row_a, row_s in zip(xs, counts_a, counts_s):
        exp = x / q
        reports.append(AdditiveReport(
            scenario="additive", x=x, q=q,
            counts_a=dict(enumerate(row_a.tolist())),
            counts_astar=dict(enumerate(row_s.tolist())),
            max_rel_dev_a=float(np.max(np.abs(row_a / exp - 1.0))),
            max_rel_dev_astar=float(np.max(np.abs(row_s / exp - 1.0)))))
    return reports


@dataclass(frozen=True)
class ScenarioReport:
    name: str
    reports: tuple
    summary: dict

    def rows(self) -> list[dict]:
        return [row for r in self.reports for row in r.rows()]

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION, "type": "scenario",
            "name": self.name, "summary": self.summary,
            "reports": [r.to_json_dict() for r in self.reports],
        }


def run_scenario(name: str, **params) -> ScenarioReport:
    """Named experiment scenarios; see SCENARIOS for the roster.

    counterexample-i:  F = (T-2)(T-4)...(T-2D) + 2, completely multiplicative,
                       q the product of the first two admissible primes
                       above D + 1; the class of 2 should come out
                       overrepresented.
    counterexample-ii: f(p) = (p-1)^D + 1, q = q1^D; class 1 overrepresented.
    restricted-a/b:    distribution under the P_{D+2} > q or P_2 > q filter
                       compared against the unfiltered run.
    additive:          A(n), A*(n) class counts against x/q.

    x is one checkpoint or a list of them; the reports cover every
    checkpoint, and the summary is taken at the largest. A parameter the
    scenario does not take is an error.
    """
    if name not in SCENARIOS:
        raise InvalidConfigError(f"unknown scenario {name!r}; choose from {tuple(SCENARIOS)}")
    run = SCENARIOS[name]
    unknown = set(params) - set(inspect.signature(run).parameters)
    if unknown:
        raise InvalidConfigError(f"unknown scenario parameters: {sorted(unknown)}")
    return run(**params)


def _ladder(x: int | Sequence[int]) -> list[int]:
    """The x checkpoints, from one x or a list of them, sorted; each is >= 1."""
    xs = sorted({int(v) for v in np.atleast_1d(x)})
    if not xs or xs[0] < 1:
        raise InvalidConfigError("x must be >= 1" if xs else "no x checkpoints given")
    return xs


def _scenario_counterexample_i(D: int = 2, x: int = 10**6) -> ScenarioReport:
    F = parse_poly(f"counterexample-i D={int(D)}")
    primes = [p for p in admissible_primes(F, 1000) if p > int(D) + 1][:2]
    return _scenario_counterexample("counterexample-i", F, math.prod(primes), 2, D, x)


def _scenario_counterexample_ii(D: int = 2, q1: int = 5, x: int = 10**6) -> ScenarioReport:
    F = parse_poly(f"counterexample-ii D={int(D)}")
    return _scenario_counterexample("counterexample-ii", F, int(q1) ** int(D), 1, D, x)


def _scenario_counterexample(name: str, F: IntPoly, q: int, target: int, D: int,
                             x: int | Sequence[int]) -> ScenarioReport:
    """The census of f completely multiplicative with f(p) = F(p) over the
    ladder x, and how the class of target compares at the largest x with
    the other unit classes."""
    spec = MultiplicativeSpec(F=F, rule="completely-multiplicative")
    reports = run_distribution_multi(spec, q, x, scenario=name)
    rep, target = reports[-1], target % q
    ratios = {a: c * len(rep.class_counts) / rep.n_coprime
              for a, c in rep.class_counts.items()} if rep.n_coprime else {}
    others = [r for a, r in ratios.items() if a != target]
    return ScenarioReport(name=name, reports=tuple(reports), summary={
        "q": q, "D": D, "target_class": target, "target_ratio": ratios.get(target),
        "max_other_ratio": max(others) if others else None,
        "target_is_strict_max": bool(others) and ratios.get(target, 0) > max(others),
    })


def _scenario_restricted(name: str, poly: str = "phi", rule: str = "euler-like",
                         q: int = 35, x: int | Sequence[int] = 10**6) -> ScenarioReport:
    spec = MultiplicativeSpec(F=parse_poly(poly), rule=rule)
    filt = "pD2-rough" if name == "restricted-a" else "p2-rough"
    reports = run_distribution_multi(spec, int(q), x, filter_names=["none", filt],
                                     scenario=name)
    unfiltered, filtered = reports[-2:]  # the largest x
    return ScenarioReport(name=name, reports=tuple(reports), summary={
        "filter": filt,
        "discrepancy_unfiltered": unfiltered.discrepancy,
        "discrepancy_filtered": filtered.discrepancy,
        "filtered_not_worse": filtered.discrepancy <= unfiltered.discrepancy,
    })


def _scenario_additive(q: int = 4, x: int | Sequence[int] = 10**6) -> ScenarioReport:
    reports = tuple(run_additive_multi(int(q), x))
    return ScenarioReport(name="additive", reports=reports, summary={
        "max_rel_dev_a": reports[-1].max_rel_dev_a,
        "max_rel_dev_astar": reports[-1].max_rel_dev_astar,
    })


# name -> the scenario; its parameters are the ones run_scenario accepts
SCENARIOS = {"counterexample-i": _scenario_counterexample_i,
             "counterexample-ii": _scenario_counterexample_ii,
             "restricted-a": functools.partial(_scenario_restricted, "restricted-a"),
             "restricted-b": functools.partial(_scenario_restricted, "restricted-b"),
             "additive": _scenario_additive}


def write_records(obj, fmt: str, fh) -> None:
    """Write obj to the text stream fh: for fmt "json" as JSON (indent 2,
    sorted keys, a trailing newline); for "csv", obj being a dict or a list
    of dicts, as rows under CSV_COLUMNS when their keys fit, else under
    their sorted keys."""
    if fmt == "json":
        fh.write(json.dumps(obj, indent=2, sort_keys=True, default=str) + "\n")
        return
    rows = [obj] if isinstance(obj, dict) else obj
    keys = {k for r in rows for k in r}
    writer = csv.DictWriter(fh, fieldnames=list(CSV_COLUMNS) if keys <= set(CSV_COLUMNS)
                            else sorted(keys))
    writer.writeheader()
    writer.writerows(rows)


def export_report(reports: Iterable, fmt: str, path: str | Path) -> Path:
    """Write reports to path: a list of their JSON records, or all their
    CSV rows."""
    if fmt not in ("csv", "json"):
        raise InvalidConfigError(f"format must be csv or json, got {fmt!r}")
    path = Path(path)
    obj = ([r.to_json_dict() for r in reports] if fmt == "json" else
           [row for r in reports for row in r.rows()])
    with open(path, "w", newline="") as fh:
        write_records(obj, fmt, fh)
    return path
