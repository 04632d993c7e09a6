"""Experiment orchestration: full distribution runs over [1, x], coprime-
count growth fits, the counterexample and restricted-input scenarios, the
additive-function runs, and CSV/JSON report emission.

One sieve pass can serve several x checkpoints and several filters; all
counts are exact and deterministic for a fixed configuration.

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
"""

from __future__ import annotations

import csv
import json
import math
import os
import pickle
import threading
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from wudlab.density import DensityProfile, alpha
from wudlab.errors import ConsistencyError, GuardExceededError, InvalidConfigError
from wudlab.poly import IntPoly, parse_poly
from wudlab.sieve import (
    SIEVE_GUARD,
    ConvenientParams,
    MultiplicativeSpec,
    SegmentData,
    check_modulus,
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


class _DistributionAccumulator:
    """Exact per-class and convenient-split counts of one filter: add takes a
    segment, merge the counts of a range another accumulator has added."""

    def __init__(self, spec: MultiplicativeSpec, q: int, filter_name: str = "none",
                 scenario: str = "dist"):
        if filter_name not in FILTERS:
            raise InvalidConfigError(f"filter must be one of {FILTERS}")
        check_modulus(q)
        self.spec = spec
        self.q = q
        self.filter_name = filter_name
        self.scenario = scenario
        self.class_counts = np.zeros(q, dtype=np.int64)  # every class; only units are read
        self.n_con = 0

    def _filter_mask(self, seg: SegmentData, convenient: np.ndarray) -> np.ndarray | None:
        if self.filter_name == "none":
            return None
        if self.filter_name == "pD2-rough":
            return seg.P(self.spec.F.degree + 2) > self.q
        if self.filter_name == "p2-rough":
            return seg.P(2) > self.q
        return convenient

    def add(self, seg: SegmentData, convenient: np.ndarray) -> None:
        # n is coprime exactly when f(n) mod q is a unit class, and snapshot reads
        # only unit classes: the class counts need no coprime mask
        mask = self._filter_mask(seg, convenient)
        con = seg.coprime & convenient
        self.class_counts += np.bincount(seg.fmod if mask is None else seg.fmod[mask],
                                         minlength=self.q)
        self.n_con += int(np.count_nonzero(con if mask is None else con & mask))

    def merge(self, counts: np.ndarray, n_con: int) -> None:
        self.class_counts += counts
        self.n_con += n_con

    def snapshot(self, x: int, profile: DensityProfile) -> DistributionReport:
        """The report at x, with profile = alpha(spec.F, q)."""
        units = np.flatnonzero(np.gcd(np.arange(self.q), self.q) == 1)  # [0] for q = 1
        counts = {int(a): int(self.class_counts[a]) for a in units}
        phi_q = len(units)
        n_coprime = sum(counts.values())
        if n_coprime:
            freqs = self.class_counts[units].astype(np.float64)
            freqs *= phi_q / n_coprime
            disc = float(np.max(np.abs(freqs - 1.0)))
            tv = 0.5 * float(np.sum(np.abs(freqs - 1.0))) / phi_q
        else:
            disc = tv = 0.0
        a = float(profile.alpha)
        pred = x / math.log(x) ** (1 - a) if x > 1 else float(x)
        return DistributionReport(
            spec=self.spec.label(), scenario=self.scenario, x=x, q=self.q,
            filter=self.filter_name, class_counts=counts,
            n_coprime=n_coprime, n_con=self.n_con,
            n_inc=n_coprime - self.n_con, alpha=profile.alpha,
            discrepancy=disc, tv_distance=tv, growth_pred=pred,
        )


def _k_slots(spec: MultiplicativeSpec, params: ConvenientParams,
             filter_names: Sequence[str]) -> int:
    k = max(params.J + 1, 2)
    if "pD2-rough" in filter_names:
        k = max(k, spec.F.degree + 2)
    return k


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


def _fan_out(census, q: int, x: int) -> list:
    """census(lo, hi) for each share of [1, x], in share order; see the
    module docstring. The guards run before the first fork."""
    check_modulus(q)
    if x > SIEVE_GUARD:
        raise GuardExceededError(f"sieve guard {SIEVE_GUARD} exceeded by hi={x}")
    if x < 1:
        raise InvalidConfigError("x must be >= 1")
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


def _census(spec: MultiplicativeSpec, q: int, lo: int, hi: int, xs: Sequence[int],
            k_slots: int, params: ConvenientParams,
            filter_names: Sequence[str]) -> list[tuple[int, list[tuple[np.ndarray, int]]]]:
    """The class counts and n_con of each filter over [lo, hi], in pieces
    (end, [(class_counts, n_con) per filter]): one ending at each checkpoint
    of xs in [lo, hi) and one ending at hi, each counting only its own n."""
    pieces = []
    for end in [x for x in xs if lo <= x < hi] + [hi]:
        accs = [_DistributionAccumulator(spec, q, f) for f in filter_names]
        for seg in iter_segments(spec, lo, end, q, k_slots=k_slots, fields=("fmod",)):
            convenient = seg.convenient(params)
            for acc in accs:
                acc.add(seg, convenient)
        pieces.append((end, [(acc.class_counts, acc.n_con) for acc in accs]))
        lo = end + 1
    return pieces


def run_distribution(spec: MultiplicativeSpec, q: int, x: int, *,
                     delta: float = 1.0, J: int | None = None,
                     filter_name: str = "none",
                     scenario: str = "dist") -> DistributionReport:
    """One full sieve pass over [1, x] for a single modulus and filter."""
    return run_distribution_multi(spec, q, [x], delta=delta, J=J,
                                  filter_names=[filter_name],
                                  scenario=scenario)[0]


def run_distribution_multi(spec: MultiplicativeSpec, q: int, xs: Sequence[int], *,
                           delta: float = 1.0, J: int | None = None,
                           filter_names: Sequence[str] = ("none",),
                           scenario: str = "dist") -> list[DistributionReport]:
    """One sieve pass shared across increasing x checkpoints and filters."""
    xs = sorted(set(int(x) for x in xs))
    filter_names = tuple(filter_names)  # read by the accumulators, _k_slots and each share
    if not xs or xs[0] < 1:
        raise InvalidConfigError("x must be >= 1" if xs else "no x checkpoints given")
    params = ConvenientParams.from_x(xs[-1], delta=delta, J=J if J is not None else 1)
    accs = [_DistributionAccumulator(spec, q, f, scenario) for f in filter_names]
    profile = alpha(spec.F, q)
    k_slots = _k_slots(spec, params, filter_names)
    reports: list[DistributionReport] = []
    for pieces in _fan_out(lambda lo, hi: _census(spec, q, lo, hi, xs, k_slots, params,
                                                  filter_names), q, xs[-1]):
        for end, counts in pieces:
            for acc, (class_counts, n_con) in zip(accs, counts):
                acc.merge(class_counts, n_con)
            if end in xs:
                reports += [acc.snapshot(end, profile) for acc in accs]
    return reports


@dataclass(frozen=True)
class GrowthRow:
    x: int
    n_coprime: int
    pred: float
    log_ratio: float  # log(N_coprime / pred)


@dataclass(frozen=True)
class GrowthFitReport:
    spec: str
    q: int
    alpha: Fraction
    rows: tuple[GrowthRow, ...]

    @property
    def log_ratio_window(self) -> float:
        vals = [r.log_ratio for r in self.rows]
        return max(vals) - min(vals)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION, "type": "growth",
            "spec": self.spec, "q": self.q,
            "alpha": [self.alpha.numerator, self.alpha.denominator],
            "rows": [vars(r) for r in self.rows],
            "log_ratio_window": self.log_ratio_window,
        }


def growth_fit(spec: MultiplicativeSpec, q: int,
                   xs: Sequence[int]) -> GrowthFitReport:
    """N_coprime against x / (log x)^(1 - alpha) across an x ladder.

    The log-ratio column absorbs the exp(O((log log 3q)^O(1))) factor; the
    report records it for a boundedness check, never a pointwise one.
    """
    prof = alpha(spec.F, q)
    if prof.alpha == 0:
        raise InvalidConfigError(
            f"alpha({q}) = 0 (degenerate primes {prof.zero_primes}); no prediction"
        )
    rows = [GrowthRow(x=rep.x, n_coprime=rep.n_coprime, pred=rep.growth_pred,
                      log_ratio=math.log(rep.n_coprime / rep.growth_pred))
            for rep in run_distribution_multi(spec, q, xs, scenario="growth")]
    return GrowthFitReport(spec=spec.label(), q=q, alpha=prof.alpha,
                            rows=tuple(rows))


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
        return [
            {"scenario": self.scenario, "spec": "A(n)", "x": self.x, "q": self.q,
             "a": a, "count": c, "expected": expected, "ratio": c / expected}
            for a, c in sorted(self.counts_a.items())
        ] + [
            {"scenario": self.scenario, "spec": "A*(n)", "x": self.x, "q": self.q,
             "a": a, "count": c, "expected": expected, "ratio": c / expected}
            for a, c in sorted(self.counts_astar.items())
        ]

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION, "type": "additive",
            "scenario": self.scenario, "x": self.x, "q": self.q,
            "counts_a": {str(a): c for a, c in sorted(self.counts_a.items())},
            "counts_astar": {str(a): c for a, c in sorted(self.counts_astar.items())},
            "max_rel_dev_a": self.max_rel_dev_a,
            "max_rel_dev_astar": self.max_rel_dev_astar,
        }


def _additive_census(q: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Class counts of A(n) and A*(n) mod q over lo <= n <= hi."""
    spec = MultiplicativeSpec(F=IntPoly((-1, 1)))  # never evaluated: f is not asked for
    counts_a = np.zeros(q, dtype=np.int64)
    counts_s = np.zeros(q, dtype=np.int64)
    for seg in iter_segments(spec, lo, hi, q, k_slots=0, fields=("A", "Astar")):
        # x - x // q * q is x % q for either sign; numpy's scalar // is the cheap one
        counts_a += np.bincount(seg.A - seg.A // q * q, minlength=q)
        counts_s += np.bincount(seg.Astar - seg.Astar // q * q, minlength=q)
    return counts_a, counts_s


def run_additive(q: int, x: int, scenario: str = "additive") -> AdditiveReport:
    """Census of A(n) and A*(n) mod q; expected x/q in every class."""
    shares = _fan_out(lambda lo, hi: _additive_census(q, lo, hi), q, x)
    counts_a, counts_s = (sum(counts) for counts in zip(*shares))
    exp = x / q
    dev_a = float(np.max(np.abs(counts_a / exp - 1.0)))
    dev_s = float(np.max(np.abs(counts_s / exp - 1.0)))
    return AdditiveReport(scenario=scenario, x=x, q=q,
                          counts_a={a: int(c) for a, c in enumerate(counts_a)},
                          counts_astar={a: int(c) for a, c in enumerate(counts_s)},
                          max_rel_dev_a=dev_a, max_rel_dev_astar=dev_s)


@dataclass(frozen=True)
class ScenarioReport:
    name: str
    reports: tuple
    summary: dict

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION, "type": "scenario",
            "name": self.name, "summary": self.summary,
            "reports": [r.to_json_dict() for r in self.reports],
        }


SCENARIOS = ("counterexample-i", "counterexample-ii", "restricted-a",
             "restricted-b", "additive")


def run_scenario(name: str, **params) -> ScenarioReport:
    """Named experiment scenarios; see SCENARIOS for the roster.

    counterexample-i:  F = (T-2)(T-4)...(T-2D) + 2, completely multiplicative,
                       squarefree q from the first admissible primes; the
                       class of 2 should come out overrepresented.
    counterexample-ii: f(p) = (p-1)^D + 1, q = q1^D; class 1 overrepresented.
    restricted-a/b:    distribution under the P_{D+2} > q or P_2 > q filter
                       compared against the unfiltered run.
    additive:          A(n), A*(n) class counts against x/q.
    """
    if name == "counterexample-i":
        return _scenario_counterexample_i(**params)
    if name == "counterexample-ii":
        return _scenario_counterexample_ii(**params)
    if name in ("restricted-a", "restricted-b"):
        return _scenario_restricted(name, **params)
    if name == "additive":
        return _scenario_additive(**params)
    raise InvalidConfigError(f"unknown scenario {name!r}; choose from {SCENARIOS}")


def _overrepresentation(report: DistributionReport, target: int) -> dict:
    ratios = {a: c * len(report.class_counts) / report.n_coprime
              for a, c in report.class_counts.items()} if report.n_coprime else {}
    t = target % report.q
    others = [r for a, r in ratios.items() if a != t]
    return {
        "target_class": t,
        "target_ratio": ratios.get(t),
        "max_other_ratio": max(others) if others else None,
        "target_is_strict_max": bool(others) and ratios.get(t, 0) > max(others),
    }


def _scenario_counterexample_i(D: int = 2, x: int = 10**6, num_primes: int = 2,
                               **extra) -> ScenarioReport:
    _reject_extra(extra)
    F = parse_poly(f"counterexample-i D={int(D)}").require_separable()
    from wudlab.poly import admissible_primes

    primes, _ = admissible_primes(F, 1000)
    primes = [p for p in primes if p > D + 1][: int(num_primes)]
    q = math.prod(primes)
    spec = MultiplicativeSpec(F=F, rule="completely-multiplicative")
    rep = run_distribution(spec, q, int(x), scenario="counterexample-i")
    return ScenarioReport(name="counterexample-i", reports=(rep,),
                          summary={"q": q, "D": D, **_overrepresentation(rep, 2)})


def _scenario_counterexample_ii(D: int = 2, q1: int = 5, x: int = 10**6,
                                **extra) -> ScenarioReport:
    _reject_extra(extra)
    F = parse_poly(f"counterexample-ii D={int(D)}").require_separable()
    q = int(q1) ** int(D)
    spec = MultiplicativeSpec(F=F, rule="completely-multiplicative")
    rep = run_distribution(spec, q, int(x), scenario="counterexample-ii")
    return ScenarioReport(name="counterexample-ii", reports=(rep,),
                          summary={"q": q, "D": D, **_overrepresentation(rep, 1)})


def _scenario_restricted(name: str, poly: str = "phi", rule: str = "euler-like",
                         q: int = 35, x: int = 10**6, **extra) -> ScenarioReport:
    _reject_extra(extra)
    spec = MultiplicativeSpec(F=parse_poly(poly), rule=rule)
    filt = "pD2-rough" if name == "restricted-a" else "p2-rough"
    reports = run_distribution_multi(spec, int(q), [int(x)],
                                     filter_names=["none", filt], scenario=name)
    unfiltered = next(r for r in reports if r.filter == "none")
    filtered = next(r for r in reports if r.filter == filt)
    return ScenarioReport(name=name, reports=tuple(reports), summary={
        "filter": filt,
        "discrepancy_unfiltered": unfiltered.discrepancy,
        "discrepancy_filtered": filtered.discrepancy,
        "filtered_not_worse": filtered.discrepancy <= unfiltered.discrepancy,
    })


def _scenario_additive(q: int = 4, x: int = 10**6, **extra) -> ScenarioReport:
    _reject_extra(extra)
    rep = run_additive(int(q), int(x))
    return ScenarioReport(name="additive", reports=(rep,), summary={
        "max_rel_dev_a": rep.max_rel_dev_a,
        "max_rel_dev_astar": rep.max_rel_dev_astar,
    })


def _reject_extra(extra: dict) -> None:
    if extra:
        raise InvalidConfigError(f"unknown scenario parameters: {sorted(extra)}")


def export_report(reports: Iterable, fmt: str, path: str | Path) -> Path:
    """Write reports as CSV (fixed columns) or JSON (typed records)."""
    path = Path(path)
    reports = list(reports)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            for rep in reports:
                for sub in (rep.reports if isinstance(rep, ScenarioReport) else [rep]):
                    if hasattr(sub, "rows"):
                        writer.writerows(sub.rows())
    elif fmt == "json":
        with open(path, "w") as fh:
            json.dump([r.to_json_dict() for r in reports], fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        raise InvalidConfigError(f"format must be csv or json, got {fmt!r}")
    return path
