"""Experiment orchestration: distribution runs, scenarios, exports, CLI."""

import contextlib
import csv
import functools
import io
import json
import math
import os
import signal
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wudlab import cli, lab, poly, tuples
from wudlab.cli import main
from wudlab.errors import ConsistencyError, GuardExceededError, InvalidConfigError
from wudlab.number_core import is_prime
from wudlab.lab import (
    CSV_COLUMNS,
    FILTERS,
    DistributionReport,
    export_report,
    run_additive,
    run_additive_multi,
    run_distribution,
    run_distribution_multi,
    run_scenario,
)
from wudlab.sieve import (
    COUNT_GUARD,
    DEFAULT_SEGMENT,
    RULES,
    SIEVE_GUARD,
    FactorizationRecord,
    MultiplicativeSpec,
    convenient_cutoff,
    f_mod,
    iter_segments,
)
from wudlab.poly import IntPoly, parse_poly


def _phi_spec():
    return MultiplicativeSpec(F=IntPoly((-1, 1)))


class TestDistribution:
    def test_matches_per_n_census(self):
        q, x = 5, 3000
        rep = run_distribution(_phi_spec(), q, x)
        counts = Counter()
        for n in range(1, x + 1):
            val, cop = f_mod(_phi_spec(), n, q)
            if cop:
                counts[val] += 1
        assert rep.class_counts == dict(counts)
        assert rep.n_coprime == sum(counts.values())
        assert rep.alpha == Fraction(3, 4)

    def test_matches_totient_sieve_at_1e6(self):
        # an oracle that shares no code with wudlab: phi(n) for all n <= x
        # from the product formula, one prime at a time
        x = 10**6
        phi = np.arange(x + 1, dtype=np.int64)
        for p in range(2, x + 1):
            if phi[p] == p:  # not reduced by a smaller prime, so p is prime
                phi[p::p] -= phi[p::p] // p
        for q in (3, 5):
            counts = np.bincount(phi[1:] % q, minlength=q)
            expected = {a: int(counts[a]) for a in range(1, q)}
            assert run_distribution(_phi_spec(), q, x).class_counts == expected

    def test_conservation(self):
        for rep in run_distribution_multi(_phi_spec(), 7, [100, 1000, 5000],
                                          filter_names=["none", "p2-rough"]):
            assert sum(rep.class_counts.values()) == rep.n_coprime
            assert rep.n_con + rep.n_inc == rep.n_coprime

    def test_degenerate_range(self):
        rep = run_distribution(_phi_spec(), 101, 50)
        assert rep.n_coprime <= 50  # emitted without error

    def test_filter_monotonicity(self):
        # P_2 > q is weaker than P_{D+2} > q, so its counts dominate
        reps = run_distribution_multi(_phi_spec(), 35, [10**5],
                                      filter_names=["p2-rough", "pD2-rough"])
        by_filter = {r.filter: r for r in reps}
        p2, pd2 = by_filter["p2-rough"], by_filter["pD2-rough"]
        assert p2.n_coprime >= pd2.n_coprime
        for a in p2.class_counts:
            assert p2.class_counts[a] >= pd2.class_counts[a]

    def test_determinism(self):
        a = run_distribution(_phi_spec(), 5, 20000).to_json_dict()
        b = run_distribution(_phi_spec(), 5, 20000).to_json_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_inconvenient_fraction_shrinks(self):
        reps = run_distribution_multi(_phi_spec(), 7, [10**5, 10**6])
        fracs = [r.n_inc / r.n_coprime for r in reps]
        assert fracs[1] < fracs[0]

    def test_filters_match_masked_reference(self):
        # q = 35 has non-unit classes (0, 5, 7, ...), which the counts must skip
        q, x = 35, 3000
        spec, y = _phi_spec(), convenient_cutoff(x)
        reps = run_distribution_multi(spec, q, [x], filter_names=FILTERS)
        keep = {"none": lambda rec: True,
                "pD2-rough": lambda rec: rec.P(3) > q,
                "p2-rough": lambda rec: rec.P(2) > q,
                "convenient-only": lambda rec: rec.is_convenient(y)}
        for rep in reps:
            counts, n_con = Counter(), 0
            for n in range(1, x + 1):
                rec = FactorizationRecord.of(n)
                val, cop = f_mod(spec, n, q)
                if cop and keep[rep.filter](rec):
                    counts[val] += 1
                    n_con += rec.is_convenient(y)
            units = [a for a in range(q) if math.gcd(a, q) == 1]
            assert rep.class_counts == {a: counts[a] for a in units}
            assert rep.n_coprime == sum(counts.values())
            assert rep.n_con == n_con
        assert [r.filter for r in reps] == list(FILTERS)

    def test_no_checkpoints_rejected(self):
        with pytest.raises(InvalidConfigError, match="no x checkpoints"):
            run_distribution_multi(_phi_spec(), 5, [])

    def test_filters_read_once(self):
        # every share builds its own accumulators from the filter names
        want = run_distribution_multi(_phi_spec(), 35, [2000],
                                      filter_names=["none", "pD2-rough"])
        assert run_distribution_multi(_phi_spec(), 35, [2000],
                                      filter_names=iter(["none", "pD2-rough"])) == want

    def test_bad_filter(self):
        with pytest.raises(InvalidConfigError):
            run_distribution_multi(_phi_spec(), 5, [100], filter_names=["p99"])

    def test_consistency_guard(self):
        with pytest.raises(ConsistencyError):
            DistributionReport(
                spec="s", scenario="dist", x=10, q=5, filter="none",
                class_counts={1: 3, 2: 1}, n_coprime=5, n_con=5, n_inc=0,
                alpha=Fraction(3, 4), discrepancy=0.0, tv_distance=0.0,
                growth_pred=1.0,
            )


class TestGrowthFit:
    """N_coprime against growth_pred = x / (log x)^(1 - alpha) over a ladder:
    the log ratio absorbs a bounded factor, so it is checked for a bounded
    window, never pointwise."""

    def test_rows_and_window(self):
        reps = run_distribution_multi(_phi_spec(), 5, [10**4, 10**5])
        assert [r.x for r in reps] == [10**4, 10**5]
        for rep in reps:
            assert rep.growth_pred == pytest.approx(rep.x / math.log(rep.x) ** (1 - 3 / 4))
        log_ratios = [math.log(r.n_coprime / r.growth_pred) for r in reps]
        assert max(log_ratios) - min(log_ratios) < 2.0


class TestAdditiveRun:
    def test_matches_direct_census(self):
        from wudlab.sieve import additive_values
        q, x = 4, 2000
        rep = run_additive(q, x)
        counts_a = Counter()
        counts_s = Counter()
        for n in range(1, x + 1):
            a, s = additive_values(n, q)
            counts_a[a] += 1
            counts_s[s] += 1
        assert rep.counts_a == dict(counts_a)
        assert rep.counts_astar == dict(counts_s)

    def test_f_never_evaluated(self, monkeypatch):
        def no_eval(*args):
            raise AssertionError("F evaluated in an additive run")

        monkeypatch.setattr(IntPoly, "eval_mod", no_eval)
        rep = run_additive(4, 3 * 10**4)
        assert sum(rep.counts_a.values()) == sum(rep.counts_astar.values()) == 3 * 10**4

    @pytest.mark.parametrize("x", [0, -5])
    def test_x_below_one_rejected(self, x):
        with pytest.raises(InvalidConfigError, match="x must be >= 1"):
            run_additive(4, x)

    @given(q=st.integers(1, 60), x=st.integers(1, 3000), n=st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_matches_per_n_counts(self, q, x, n):
        want = _additive_counts(q, x)
        assert _additive_report_counts(run_additive(q, x)) == want
        with _shares(n):
            assert _additive_report_counts(run_additive(q, x)) == want
        _no_child_left()

    # n = 2^k has A(n) = 2k and A*(n) = 2 [k odd]: all of it from the scale of m = 1
    @pytest.mark.parametrize("k", [1, 2, 5, 10, 11])
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 7])
    def test_powers_of_two(self, q, k):
        for x in (2**k - 1, 2**k, 2**k + 1):
            assert _additive_report_counts(run_additive(q, x)) == _additive_counts(q, x)

    def test_astar_parity_is_omega_parity_for_odd_m(self):
        # the odd-m census reads the parity of Omega(m) off A*(m)
        spec = _phi_spec()
        for seg in iter_segments(spec, 1, 10**4, 5, k_slots=0, fields=("Omega", "Astar"),
                                 step=2):
            for m, omega, astar in zip(range(seg.lo, seg.hi, 2), seg.Omega.tolist(),
                                       seg.Astar.tolist()):
                rec = _record(m)
                assert (omega, astar) == (rec.Omega, rec.additive_sums()[1])
                assert astar % 2 == omega % 2

    def test_census_sieves_odd_m_only(self):
        with mock.patch.object(lab, "iter_segments", wraps=lab.iter_segments) as spy:
            run_additive(4, 5000)
        assert spy.call_count == 1
        assert spy.call_args.kwargs["step"] == 2

    def test_ladder_is_one_census(self):
        with mock.patch.object(lab, "_fan_out", wraps=lab._fan_out) as spy:
            reports = run_scenario("additive", q=4, x=[1000, 5000, 3000]).reports
        assert spy.call_count == 1
        assert list(reports) == [run_additive(4, x) for x in (1000, 3000, 5000)]

    def test_empty_ladder_rejected(self):
        with pytest.raises(InvalidConfigError, match="no x checkpoints"):
            run_additive_multi(4, [])


def _additive_counts(q: int, x: int) -> tuple[dict, dict]:
    """The classes of A(n) and A*(n) mod q over n <= x, from the per-n records."""
    sums = [_record(n).additive_sums() for n in range(1, x + 1)]
    return tuple(dict(sorted(Counter(v[i] % q for v in sums).items())) for i in (0, 1))


def _additive_report_counts(rep) -> tuple[dict, dict]:
    """A report's counts without its empty classes."""
    return tuple({a: c for a, c in counts.items() if c}
                 for counts in (rep.counts_a, rep.counts_astar))


@contextlib.contextmanager
def _shares(n: int, min_share: int = 64):
    """Censuses in this block split [1, x] into n shares of at least
    min_share integers each, whatever CPUs this machine has."""
    with mock.patch.object(lab, "MIN_SHARE", min_share), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(n)),
                              create=True):
        yield


@contextlib.contextmanager
def _deadline(seconds: int = 60):
    """Fail, instead of hanging, when a wait on a child never returns."""
    def expire(signum, frame):
        raise TimeoutError(f"no census result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fork_forbidden():
    return mock.patch.object(os, "fork", side_effect=AssertionError("os.fork called"))


_SPLIT_RULES = [r for r in RULES if r != "custom-table"]


class TestFanOut:
    @given(coeffs=st.lists(st.integers(-9, 9), min_size=2, max_size=4)
           .filter(lambda c: c[-1] != 0),
           rule=st.sampled_from(_SPLIT_RULES), q=st.integers(1, 1000),
           xs=st.lists(st.integers(1, 3000), min_size=1, max_size=4),
           filters=st.lists(st.sampled_from(FILTERS), min_size=1, max_size=3),
           n=st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_split_equals_one_share(self, coeffs, rule, q, xs, filters, n):
        spec = MultiplicativeSpec(F=IntPoly(tuple(coeffs)), rule=rule)
        one = run_distribution_multi(spec, q, xs, filter_names=filters)
        with _shares(n):
            split = run_distribution_multi(spec, q, xs, filter_names=filters)
        assert split == one
        _no_child_left()

    @given(q=st.integers(1, 1000), x=st.integers(1, 3000), n=st.integers(2, 4))
    @settings(max_examples=30, deadline=None)
    def test_additive_split_equals_one_share(self, q, x, n):
        one = run_additive(q, x)
        with _shares(n):
            assert run_additive(q, x) == one
        _no_child_left()

    def test_split_forks_one_child_per_extra_share(self):
        real_fork, children = os.fork, []

        def fork():
            pid = real_fork()
            children.append(pid)
            return pid

        with _shares(3), mock.patch.object(os, "fork", fork):
            run_distribution(_phi_spec(), 5, 3000)
        assert len(children) == 2 and 0 not in children
        _no_child_left()

    def test_small_x_never_forks(self):
        with _shares(4, min_share=1000), _fork_forbidden():
            run_distribution(_phi_spec(), 5, 1999)
            run_additive(4, 1999)

    # shares (0, 1000], (1000, 2000], (2000, 3000]: 37^2 = 1369 is first met
    # in share 1 and 47^2 = 2209 in share 2
    @pytest.mark.parametrize("missing", [{(37, 2)}, {(37, 2), (47, 2)}, {(47, 2)}])
    def test_child_error_raised_in_share_order(self, missing):
        table = {(p, e): p + e for p in range(2, 60) for e in range(2, 12)
                 if p**e <= 3000 and (p, e) not in missing}
        spec = MultiplicativeSpec(F=IntPoly((-1, 1)), rule="custom-table",
                                  custom_table=table)
        with pytest.raises(InvalidConfigError) as one:
            run_distribution(spec, 5, 3000)
        with _shares(3), _deadline(), pytest.raises(InvalidConfigError) as split:
            run_distribution(spec, 5, 3000)
        assert str(split.value) == str(one.value) == \
            f"custom table has no entry for prime power {min(missing)}"
        _no_child_left()

    def test_dead_child_is_a_consistency_error(self, monkeypatch):
        census = lab._census

        def dies_in_child(spec, q, lo, hi, *args):
            if lo > 1:
                os._exit(1)
            return census(spec, q, lo, hi, *args)

        monkeypatch.setattr(lab, "_census", dies_in_child)
        with _shares(2), _deadline(), \
                pytest.raises(ConsistencyError, match="share 1 .1501, 3000."):
            run_distribution(_phi_spec(), 5, 3000)
        _no_child_left()

    def test_no_fork_while_another_thread_runs(self):
        one = run_distribution(_phi_spec(), 5, 3000)
        one_additive = run_additive(4, 3000)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            with _shares(3), _fork_forbidden():
                assert run_distribution(_phi_spec(), 5, 3000) == one
                assert run_additive(4, 3000) == one_additive
        finally:
            stop.set()
            thread.join()

    def test_guards_before_fork(self):
        with _shares(2), _fork_forbidden():
            with pytest.raises(GuardExceededError, match="sieve guard"):
                run_distribution(_phi_spec(), 5, SIEVE_GUARD + 1)
            with pytest.raises(GuardExceededError, match="sieve guard"):
                run_additive(4, SIEVE_GUARD + 1)
            with pytest.raises(GuardExceededError, match="modulus guard"):
                run_distribution_multi(_phi_spec(), 2 * 10**6, [10**6],
                                       filter_names=[])


@functools.cache
def _record(n: int) -> FactorizationRecord:
    return FactorizationRecord.of(n)


@st.composite
def _census_cases(draw):
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=3))
    coeffs.append(draw(st.sampled_from([-3, -2, -1, 1, 2, 3])))
    rule = draw(st.sampled_from(RULES))
    table = None
    if rule == "custom-table":  # complete up to the ladder's top of 3000
        rnd = draw(st.randoms(use_true_random=False))
        table = {(p, e): rnd.randrange(-10**4, 10**4) for p in range(2, 55) if is_prime(p)
                 for e in range(2, 12) if p**e <= 3000}
    spec = MultiplicativeSpec(F=IntPoly(tuple(coeffs)), rule=rule, custom_table=table)
    q = draw(st.sampled_from([1, 2, 4, 12, 60]) | st.integers(1, 60))
    # the top checkpoint sets y, which is below 2 at x = 1 only
    top = draw(st.sampled_from([1, 2, 3]) | st.integers(1000, 3000))
    xs = draw(st.lists(st.sampled_from([1, 2, 3]) | st.integers(1, top), max_size=3))
    xs.append(top)
    delta = draw(st.floats(0, 1, exclude_min=True))
    return spec, q, xs, delta


class TestCensusOracle:
    """Each census against the per-n path: f_mod, P_k and is_convenient for
    every n <= x, which knows nothing of the even n = 2^e m."""

    @staticmethod
    def _oracle(spec, q, xs, delta):
        y = convenient_cutoff(max(xs), delta=delta)
        keep = {"none": lambda rec: True,
                "pD2-rough": lambda rec: rec.P(spec.F.degree + 2) > q,
                "p2-rough": lambda rec: rec.P(2) > q,
                "convenient-only": lambda rec: rec.is_convenient(y)}
        units = [a for a in range(q) if math.gcd(a, q) == 1]
        out = []
        for x in sorted(set(xs)):
            for name in FILTERS:
                counts, n_con = Counter(), 0
                for n in range(1, x + 1):
                    val, coprime = f_mod(spec, n, q)
                    if coprime and keep[name](_record(n)):
                        counts[val] += 1
                        n_con += _record(n).is_convenient(y)
                out.append((x, name, {a: counts[a] for a in units},
                            sum(counts.values()), n_con))
        return out

    @given(_census_cases(), st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_matches_per_n_path(self, case, n):
        spec, q, xs, delta = case
        want = self._oracle(spec, q, xs, delta)
        one = run_distribution_multi(spec, q, xs, delta=delta, filter_names=FILTERS)
        with _shares(n):
            split = run_distribution_multi(spec, q, xs, delta=delta, filter_names=FILTERS)
        for reps in (one, split):
            assert [(r.x, r.filter, r.class_counts, r.n_coprime, r.n_con)
                    for r in reps] == want
        _no_child_left()

    def test_y_below_two_counts_every_n(self):
        # P_1(2) = 2 > y = 1.5 makes n = 2 convenient and m = 1 not, so the
        # flags of an odd m no longer carry over to 2^e m
        spec, q, x = _phi_spec(), 5, 3000
        ((counts,),), ((n_con,),) = lab._census(spec, q, 1, x, [x], 1.5,
                                                ("convenient-only",))
        want = Counter(f_mod(spec, n, q)[0] for n in range(1, x + 1)
                       if f_mod(spec, n, q)[1] and _record(n).is_convenient(1.5))
        assert n_con == sum(want.values())
        assert {a: int(counts[a]) for a in range(1, q)} == {a: want[a] for a in range(1, q)}


class TestCensusMemory:
    """A census share holds one segment at a time: what it adds to the
    segment's working set is a few bool masks per n and class counts of
    size q, not a second segment's outputs."""

    WORKING = 54  # bytes per n of a segment with fmod and 2 slots (README)

    def test_peak_is_one_segment(self):
        spec, q, x = _phi_spec(), 5, 10**6
        y = convenient_cutoff(x)
        lab._census(spec, q, 1, 3000, [3000], y, ("none",))  # build the caches
        tracemalloc.start()
        try:
            lab._census(spec, q, 1, x, [x], y, ("none",))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the masks fit in the 8 bytes per n of one more fmod; a segment held
        # while the next is sieved would add its 17 (fmod, coprime, 2 slots)
        assert peak < (self.WORKING + 8) * DEFAULT_SEGMENT


class TestScenarios:
    def test_counterexample_ii_small(self):
        rep = run_scenario("counterexample-ii", D=2, q1=5, x=10**5)
        assert rep.summary["q"] == 25
        assert rep.summary["target_class"] == 1
        assert rep.summary["target_ratio"] > 1

    def test_counterexample_i_small(self):
        rep = run_scenario("counterexample-i", D=2, x=10**5)
        assert rep.summary["target_class"] == 2
        assert rep.summary["q"] > 1

    def test_restricted_b(self):
        rep = run_scenario("restricted-b", q=35, x=10**5)
        assert set(rep.summary) >= {"discrepancy_unfiltered",
                                    "discrepancy_filtered", "filtered_not_worse"}

    def test_additive_scenario(self):
        rep = run_scenario("additive", q=4, x=10**5)
        assert rep.summary["max_rel_dev_a"] < 0.05

    def test_unknown_scenario(self):
        with pytest.raises(InvalidConfigError):
            run_scenario("counterexample-iii", x=100)

    def test_unknown_params(self):
        with pytest.raises(InvalidConfigError, match="unknown scenario parameters"):
            run_scenario("counterexample-ii", D=2, q1=5, x=100, zeta=3)


class TestExport:
    def test_csv_schema(self, tmp_path):
        rep = run_distribution(_phi_spec(), 5, 1000)
        path = export_report([rep], "csv", tmp_path / "out.csv")
        lines = path.read_text().splitlines()
        assert lines[0].split(",") == list(CSV_COLUMNS)
        assert len(lines) == 1 + 4  # header + one row per unit class

    def test_json_roundtrip(self, tmp_path):
        reps = [run_distribution(_phi_spec(), 5, 1000),
                run_scenario("additive", q=4, x=1000)]
        path = export_report(reps, "json", tmp_path / "out.json")
        loaded = json.loads(path.read_text())
        assert [r["type"] for r in loaded] == ["distribution", "scenario"]
        assert all(r["schema_version"] == 1 for r in loaded)
        dist = loaded[0]
        assert sum(dist["class_counts"].values()) == dist["n_coprime"]

    def test_bad_format(self, tmp_path):
        with pytest.raises(InvalidConfigError):
            export_report([], "xml", tmp_path / "out.xml")
        assert not (tmp_path / "out.xml").exists()


class TestCli:
    def test_density_ok(self, capsys):
        assert main(["density", "--poly", "phi", "--q", "35"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["alpha"] == "5/8"
        assert out["xi"] == 1

    def test_dist_csv(self, capsys):
        assert main(["--format", "csv", "dist", "--poly", "phi",
                     "--q", "5", "--x", "2000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split(",") == list(CSV_COLUMNS)

    def test_tuples_cross_check(self, capsys):
        assert main(["tuples", "--poly", "phi", "--q", "5", "--J", "2",
                     "--method", "cross-check"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert all(r["agree"] for r in rows)

    def test_chars(self, capsys):
        assert main(["chars", "--poly", "phi", "--ell", "5", "--all-chars",
                     "--curve", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["characters"]) == 4
        assert out["curve"]["within_bound"]

    def test_scenario_additive(self, capsys):
        assert main(["scenario", "additive", "--q", "4", "--x", "10000"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["name"] == "additive"

    def test_invalid_poly_exit_2(self, capsys):
        assert main(["density", "--poly", "nope", "--q", "5"]) == 2

    def test_guard_exit_3(self, capsys):
        assert main(["chars", "--poly", "phi", "--ell", "101", "--e", "4"]) == 3

    def test_density_x_guard_exit_3(self, capsys):
        # the prime sum lists the primes up to x: refused before the list is built
        assert main(["density", "--poly", "phi", "--q", "5", "--x", "1e10"]) == 3
        assert "sieve guard" in capsys.readouterr().err

    def test_no_command_exit_2(self, capsys):
        assert main([]) == 2

    # a key the config runner never reads is rejected, not silently ignored
    @pytest.mark.parametrize("key", ["frobnicate", "filter", "format", "delta", "out"])
    def test_config_unknown_key_exit_2(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[additive]\nscenario = additive\nq = 4\nx = 1000\n"
                       f"{key} = yes\n")
        assert main(["--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err

    def test_config_runs_scenarios(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[additive]\nscenario = additive\nq = 4\nx = 1000\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--format", "json"]) == 0
        report = json.loads((tmp_path / "out" / "wudlab-report.json").read_text())
        assert report[0]["type"] == "scenario"

    def test_threads_is_gone(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[additive]\nscenario = additive\nq = 4\nx = 1000\n"
                       "threads = 2\n")
        assert main(["--config", str(cfg)]) == 2
        assert "threads" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["--threads", "2", "scenario", "additive"])

    # a flag combination that would be accepted and then ignored exits 2,
    # naming the flag, before any work
    @pytest.mark.parametrize("argv, flag", [
        (["--config", "run.ini", "--out", "d", "dist", "--poly", "phi", "--q", "5",
          "--x", "100"], "--config"),
        (["--out", "d", "dist", "--poly", "phi", "--q", "5", "--x", "100"], "--out"),
        (["chars", "--poly", "phi", "--ell", "7", "--t", "2", "--all-chars"], "--all-chars"),
        (["--format", "csv", "chars", "--poly", "phi", "--ell", "7", "--curve", "3"],
         "--curve"),
    ], ids=["config-and-command", "out-without-config", "t-and-all-chars", "csv-curve"])
    def test_ignored_flag_combination_exit_2(self, tmp_path, capsys, monkeypatch, argv, flag):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.ini").write_text("[additive]\nq = 4\nx = 1000\n")
        work = {"side_effect": AssertionError("work started")}
        with mock.patch("wudlab.cli.run_scenario", **work), \
                mock.patch("wudlab.cli.run_distribution_multi", **work), \
                mock.patch("wudlab.cli.z_chi", **work):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses the pair itself
                code = exc.code
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and flag in captured.err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("ell,e", [(3, 3), (5, 3)])
    def test_chars_ok_is_judged_by_the_printed_bound(self, capsys, ell, e):
        # an imprimitive chi is judged by the conductor form, which bound shows
        rows = json.loads(_stdout(capsys, ["chars", "--poly", "phi", "--ell", str(ell),
                                           "--e", str(e), "--all-chars"]))["characters"]
        judged = [r for r in rows if r["ok"] is not None]
        assert len(judged) == len(rows) - 1  # every nonprincipal chi
        assert all(r["ok"] == (r["abs"] <= r["bound"] + 1e-9) for r in judged)

    def test_count_guard_exit_3(self, capsys):
        # 4 checkpoints of 999983 classes, and 2 of 3 * 999983 for A and A*,
        # just past COUNT_GUARD: refused before alpha, any count array or a fork,
        # and for dist before the census of the smaller q
        xs = ["1000", "2000", "3000", "4000"]
        with _fork_forbidden(), \
                mock.patch.object(lab, "alpha", side_effect=AssertionError("alpha ran")), \
                mock.patch.object(np, "zeros", side_effect=AssertionError("counts made")):
            assert main(["dist", "--poly", "phi", "--q", "5", "999983", "--filter",
                         "convenient-only", "--x", *xs]) == 3
            assert main(["scenario", "additive", "--q", "999983", "--x", *xs[:2]]) == 3
        assert capsys.readouterr().err.count(f"count guard {COUNT_GUARD}") == 2
        assert 4 * 999983 > COUNT_GUARD >= 3 * 999983
        assert 2 * 3 * 999983 > COUNT_GUARD >= 1 * 3 * 999983

    def test_modulus_guard_exit_3(self, capsys):
        # refused before any table of size q is built
        assert main(["dist", "--poly", "phi", "--q", "1000000007", "--x", "100"]) == 3
        assert main(["scenario", "additive", "--q", "1000000007", "--x", "100"]) == 3
        assert capsys.readouterr().err.count("modulus guard") == 2

    def test_tuples_exact_past_int64(self, capsys):
        # 3^8, J=8: the counts need 78 bits; V' = (phi(q) alpha(q))^J.
        # Every unit value v - 1 is 1 mod 3, so only w = 1 mod 3 is hit.
        assert main(["tuples", "--poly", "phi", "--q", "6561", "--J", "8"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 4374
        assert all((r["v_double"] > 0) == (r["w"] % 3 == 1) for r in rows)
        assert all(r["v_double"] >= 0 for r in rows)
        assert sum(r["v_double"] for r in rows) == (4374 * Fraction(1, 2)) ** 8

    def test_tuples_bit_budget_exit_3(self, capsys, monkeypatch):
        # 3^9, J=6 packs 13122 slots of 80 bits, just past 2^20: refused
        # before any histogram is packed
        def no_packing(*args):
            raise AssertionError("packed past the bit budget")

        monkeypatch.setattr(tuples, "_pack", no_packing)
        assert main(["tuples", "--poly", "phi", "--q", "19683", "--J", "6"]) == 3
        assert "1049760 bits exceeds guard 1048576" in capsys.readouterr().err

    def test_tuples_additive_above_brute_guard(self, capsys):
        # phi(35)^6 = 24^6 > BRUTE_GUARD: the exact formula answers alone
        assert main(["tuples", "--poly", "phi", "--q", "35", "--J", "6", "--additive",
                     "--w", "1"]) == 0
        row, = json.loads(capsys.readouterr().out)
        assert row["v_sum"] == row["v_alt"] == row["formula"] > 0

    @pytest.mark.parametrize("D", [7, 13])
    def test_counterexample_i_large_D_finishes(self, capsys, D):
        # the scenario needs only the admissible primes: a factoring of |delta|
        # would not end within the deadline at D = 13
        with _deadline(30):
            assert main(["scenario", "counterexample-i", "--D", str(D), "--x", "1000"]) == 0
        assert json.loads(capsys.readouterr().out)["summary"]["D"] == D

    def test_preset_degree_guard_exit_3(self, capsys):
        # refused before the preset's product is multiplied out
        with _deadline(30), mock.patch.object(poly, "_poly_mul",
                                              side_effect=AssertionError("preset built")):
            assert main(["scenario", "counterexample-ii", "--D", "250", "--x", "100"]) == 3
            assert main(["dist", "--poly", "counterexample-i D=60", "--q", "7",
                         "--x", "100"]) == 3
            assert main(["scenario", "counterexample-i", "--D", "1000", "--x", "100"]) == 3
        assert capsys.readouterr().err.count(
            f"preset degree guard {poly.PRESET_DEGREE_GUARD}") == 3

    def test_degree_60_coefficient_list_finishes(self, capsys):
        # past the preset guard as a coefficient list: separability and
        # admissibility are decided mod primes, with no exact discriminant
        c = [1]
        for k in range(1, 61):
            c = poly._poly_mul(c, [-2 * k, 1])
        c[0] += 2  # counterexample-i at D = 60
        with _deadline(5):
            assert main(["dist", "--poly", str(c), "--q", "7", "--x", "100"]) == 0
        assert json.loads(capsys.readouterr().out)["n_coprime"] > 0

    @pytest.mark.parametrize("argv", [
        ["dist", "--q", "5", "--x", "100"],
        ["sieve", "--q", "5", "--x", "100"],
        ["scenario", "restricted-a", "--x", "100"],
        ["scenario", "restricted-b", "--x", "100"],
        ["tuples", "--q", "5", "--J", "2", "--additive"],
    ], ids=["dist", "sieve", "restricted-a", "restricted-b", "tuples-additive"])
    def test_inseparable_poly_exit_2(self, capsys, argv):
        # every command checks its --poly where it is parsed
        assert main([*argv, "--poly", "[1, -2, 1]"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "repeated roots" in captured.err

    @pytest.mark.parametrize("argv, flag", [
        (["chars", "--poly", "phi", "--ell", "7", "--t", "99"], "--t must be in [0, 6)"),
        (["tuples", "--poly", "phi", "--q", "35", "--J", "2", "--w", "40"], "--w must be"),
        (["tuples", "--poly", "phi", "--q", "35", "--J", "2", "--w", "-1"], "--w must be"),
        (["tuples", "--poly", "phi", "--q", "35", "--J", "2", "--w", "foo"], "--w must be"),
        (["tuples", "--poly", "phi", "--q", "0", "--J", "2"], "--q must be >= 1, got 0"),
        (["tuples", "--poly", "phi", "--q", "-5", "--J", "2"], "--q must be >= 1, got -5"),
        (["density", "--poly", "phi", "--q", "0"], "--q must be >= 1, got 0"),
        (["density", "--poly", "phi", "--q", "-3"], "--q must be >= 1, got -3"),
        (["tuples", "--poly", "phi", "--q", "7", "--J", "2", "--additive", "--method",
          "cross-check", "--w", "3"], "--method does not apply to --additive"),
        (["tuples", "--poly", "phi", "--q", "5", "--J", "0"], "--J must be >= 1, got 0"),
        (["tuples", "--poly", "phi", "--q", "5", "--J", "0", "--additive"],
         "--J must be >= 1, got 0"),
    ], ids=["t-99", "w-40", "w-minus-1", "w-foo", "tuples-q-0", "tuples-q-minus-5",
            "density-q-0", "density-q-minus-3", "additive-method", "tuples-J-0",
            "additive-J-0"])
    def test_index_out_of_range_exit_2(self, capsys, argv, flag):
        # checked before any count, not reduced to another index or ignored
        counted = {"side_effect": AssertionError("counted")}
        with mock.patch.object(cli, "z_chi", **counted), \
                mock.patch.object(cli, "hypothesis_a_ratio", **counted), \
                mock.patch.object(cli, "additive_tuple_counts", **counted), \
                mock.patch.object(cli, "alpha", **counted):
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and flag in captured.err

    @pytest.mark.parametrize("mode", [[], ["--additive"], ["--method", "cross-check"]],
                             ids=["product", "additive", "cross-check"])
    def test_all_targets_past_modulus_guard_exit_3(self, capsys, mode):
        # --w all is one row per target: q is refused before any count
        counted = {"side_effect": AssertionError("counted")}
        with mock.patch.object(cli, "hypothesis_a_ratio", **counted), \
                mock.patch.object(cli, "count_v_double", **counted), \
                mock.patch.object(cli, "additive_tuple_counts", **counted):
            assert main(["tuples", "--poly", "phi", "--q", "1000003", "--J", "1", *mode]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "modulus guard" in captured.err

    def test_one_target_past_modulus_guard_runs(self, capsys):
        # 1000005 = 3 * 5 * 163 * 409; the prime 1000003 stops at the root scan
        assert main(["tuples", "--poly", "phi", "--q", "1000005", "--J", "1", "--w", "2",
                     "--method", "linear"]) == 0
        assert [row["w"] for row in json.loads(capsys.readouterr().out)] == [2]

    def test_density_unbalanced_q_exit_3(self, capsys):
        # q = 1000003 * (10^15 + 37) is factored, then refused by the root scan
        with _deadline(30):
            assert main(["density", "--poly", "phi", "--q", "1000003000000037000111"]) == 3
        assert "root scan guard" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_config_file_and_scenario_stdout_agree(self, tmp_path, capsys, fmt):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[restricted-a]\nq = 35\nx = 3000\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path), "--format", fmt]) == 0
        capsys.readouterr()
        assert main(["--format", fmt, "scenario", "restricted-a", "--q", "35",
                     "--x", "3000"]) == 0
        stdout = capsys.readouterr().out
        written = (tmp_path / f"wudlab-report.{fmt}").read_bytes().decode()
        if fmt == "json":
            assert json.loads(written) == [json.loads(stdout)]
        else:
            assert written == stdout

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["--config", str(tmp_path / "absent.ini")]) == 2

    def test_sieve_dump(self, tmp_path, capsys):
        dump = tmp_path / "records.csv"
        assert main(["sieve", "--poly", "phi", "--q", "5", "--x", "500",
                     "--dump", str(dump)]) == 0
        lines = dump.read_text().splitlines()
        assert len(lines) == 501  # header + one row per n

    def test_dist_checks_every_q_before_a_census(self, capsys):
        with mock.patch.object(lab, "_fan_out", side_effect=AssertionError("census ran")):
            assert main(["dist", "--poly", "phi", "--q", "5", "1000000007",
                         "--x", "3000000"]) == 3
        out = capsys.readouterr()
        assert out.out == "" and "modulus guard" in out.err

    def test_sieve_rows_match_reference(self, tmp_path, capsys):
        # the dump and the printed rows, against the per-n reference path
        x, q = 2000, 5
        spec, y = _phi_spec(), convenient_cutoff(x)
        rows = []
        for n in range(1, x + 1):
            rec = FactorizationRecord.of(n)
            val, cop = f_mod(spec, n, q)
            rows.append({"n": n, "f_mod_q": val, "coprime": cop, "Omega": rec.Omega,
                         "P1": rec.P(1), "P2": rec.P(2),
                         "convenient": rec.is_convenient(y)})
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        dump = tmp_path / "records.csv"
        args = ["sieve", "--poly", "phi", "--q", str(q), "--x", str(x)]
        assert main([*args, "--dump", str(dump)]) == 0
        assert dump.read_bytes() == expected.read_bytes()
        capsys.readouterr()
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out) == rows[:50]

    # custom-table needs an explicit table, which the command line cannot give
    @pytest.mark.parametrize("argv", [
        ["dist", "--poly", "phi", "--q", "5", "--x", "100"],
        ["sieve", "--poly", "phi", "--q", "5", "--x", "100"],
        ["scenario", "restricted-a", "--q", "35", "--x", "100"],
    ])
    def test_custom_table_rule_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--rule", "custom-table"])
        assert exc.value.code == 2
        assert "invalid choice: 'custom-table'" in capsys.readouterr().err

    def test_config_custom_table_rule_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[restricted-a]\nq = 35\nx = 1000\nrule = custom-table\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "custom-table" in err and "euler-like" in err
        assert not (tmp_path / "wudlab-report.json").exists()

    # configparser lowercases option names; the key D must still reach D
    def test_config_key_d_reaches_scenario(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[c]\nscenario = counterexample-ii\nD = 3\nq1 = 5\nx = 1000\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path), "--format", "json"]) == 0
        report = json.loads((tmp_path / "wudlab-report.json").read_text())
        assert report[0]["summary"]["D"] == 3 and report[0]["summary"]["q"] == 125

    # a key the section's scenario does not take exits 2 and is named
    @pytest.mark.parametrize("section, key, value, param", [
        ("counterexample-ii", "polynomial", "sigma", "poly"),
        ("counterexample-ii", "rule", "completely-multiplicative", "rule"),
        ("counterexample-i", "q", "35", "q"),
        ("additive", "polynomial", "sigma", "poly"),
        ("additive", "D", "3", "D"),
        ("restricted-b", "q1", "5", "q1"),
    ])
    def test_config_key_not_taken_exit_2(self, tmp_path, capsys, section, key, value, param):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[{section}]\nx = 1000\n{key} = {value}\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"unknown scenario parameters: ['{param}']" in capsys.readouterr().err
        assert not (tmp_path / "wudlab-report.json").exists()

    # a scenario flag the named scenario does not take exits 2, as its INI key does
    @pytest.mark.parametrize("argv, param", [
        (["counterexample-i", "--q", "7"], "q"),
        (["counterexample-ii", "--poly", "sigma"], "poly"),
        (["additive", "--rule", "completely-multiplicative"], "rule"),
        (["restricted-a", "--D", "3"], "D"),
    ])
    def test_scenario_flag_not_taken_exit_2(self, capsys, argv, param):
        assert main(["scenario", *argv, "--x", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unknown scenario parameters: ['{param}']" in captured.err

    def test_scenario_flag_left_out_takes_scenario_default(self, capsys):
        assert main(["scenario", "restricted-b", "--x", "1000"]) == 0
        want = run_scenario("restricted-b", x=1000).to_json_dict()
        assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(want))
        assert {r["q"] for r in want["reports"]} == {35}

    @pytest.mark.parametrize("key, value, shown", [
        ("x", "1e4", "x = '1e4'"), ("q", "five", "q = 'five'"), ("D", "2.0", "D = '2.0'"),
    ])
    def test_config_non_integer_exit_2(self, tmp_path, capsys, key, value, shown):
        cfg = tmp_path / "run.ini"
        keys = {"q": "4", "x": "1000", key: value}
        cfg.write_text("[additive]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()))
        assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"[additive] {shown} is not an integer" in capsys.readouterr().err
        assert not (tmp_path / "wudlab-report.json").exists()

    def test_config_keys_reach_restricted(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[restricted-b]\nq = 35\nx = 1000\npolynomial = sigma\n"
                       "rule = completely-multiplicative\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path), "--format", "json"]) == 0
        report = json.loads((tmp_path / "wudlab-report.json").read_text())
        want = run_scenario("restricted-b", q=35, x=1000, poly="sigma",
                            rule="completely-multiplicative").to_json_dict()
        assert report[0] == json.loads(json.dumps(want))

    @pytest.mark.parametrize("rule", [r for r in RULES if r != "custom-table"])
    def test_cli_rules_accepted(self, rule, capsys):
        assert main(["dist", "--poly", "phi", "--rule", rule, "--q", "5",
                     "--x", "100"]) == 0

    @pytest.mark.parametrize("argv", [
        ["sieve", "--poly", "phi", "--q", "5", "--x", "0"],
        ["scenario", "additive", "--q", "4", "--x", "0"],
        ["scenario", "additive", "--q", "4", "--x", "-5"],
    ])
    def test_bad_range_exit_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be >= 1" in captured.err

    def test_closed_stdout_exits_quietly(self):
        # three reports of 996 rows, more than the 64 KiB a pipe holds, so the
        # writer meets the closed end of the pipe
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "wudlab.cli", "--format", "csv", "dist", "--poly", "phi",
             "--q", "997", "--x", "1000", "2000", "3000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)})
        try:
            assert proc.stdout.readline().startswith(b"scenario,")
            proc.stdout.close()
            assert proc.wait(timeout=60) == 0
            err = proc.stderr.read()
        finally:
            proc.kill()  # a no-op once it has exited
            proc.stderr.close()
        assert b"Traceback" not in err and b"Exception" not in err, err


def _stdout(capsys, argv: list[str]) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


class TestCliLadder:
    """A list of q and a ladder of x give what their single runs give."""

    DIST = ["dist", "--poly", "phi"]
    LADDER = ["--q", "5", "7", "--x", "10000", "1000", "10000"]
    SINGLES = [["--q", q, "--x", x] for q in ("5", "7") for x in ("1000", "10000")]

    def test_dist_json_lists_the_reports_by_q_then_x(self, capsys):
        got = json.loads(_stdout(capsys, [*self.DIST, *self.LADDER]))
        want = [json.loads(_stdout(capsys, [*self.DIST, *argv])) for argv in self.SINGLES]
        assert [got[1], got[3]] == [want[1], want[3]]  # x = 10000, the top of the ladder
        # below the top, one census splits convenient n by the top x's cutoff
        # y, so only n_con and n_inc may differ there
        split = ("n_con", "n_inc")
        assert [{k: v for k, v in r.items() if k not in split} for r in got] == \
            [{k: v for k, v in r.items() if k not in split} for r in want]

    def test_dist_csv_is_the_single_runs_under_one_header(self, capsys):
        fmt = ["--format", "csv"]
        got = _stdout(capsys, [*fmt, *self.DIST, *self.LADDER]).splitlines()
        singles = [_stdout(capsys, [*fmt, *self.DIST, *argv]).splitlines()
                   for argv in self.SINGLES]
        assert got == singles[0][:1] + [row for lines in singles for row in lines[1:]]

    @pytest.mark.parametrize("name, census", [
        ("counterexample-ii", lambda xs: run_distribution_multi(
            MultiplicativeSpec(F=parse_poly("counterexample-ii D=2"),
                               rule="completely-multiplicative"),
            25, xs, scenario="counterexample-ii")),
        ("restricted-a", lambda xs: run_distribution_multi(
            _phi_spec(), 35, xs, filter_names=["none", "pD2-rough"], scenario="restricted-a")),
        ("additive", lambda xs: [run_additive(4, x) for x in xs]),
    ], ids=["counterexample-ii", "restricted-a", "additive"])
    def test_scenario_ladder(self, capsys, name, census):
        # the reports of one census over the ladder, the summary of its largest x
        reports = census([1000, 10000])
        got = json.loads(_stdout(capsys, ["scenario", name, "--x", "1000", "10000"]))
        alone = json.loads(_stdout(capsys, ["scenario", name, "--x", "10000"]))
        assert got["reports"] == json.loads(json.dumps([r.to_json_dict() for r in reports]))
        assert got["summary"] == alone["summary"]
        rows = io.StringIO()
        lab.write_records([row for r in reports for row in r.rows()], "csv", rows)
        assert _stdout(capsys, ["--format", "csv", "scenario", name,
                                "--x", "10000", "1000"]) == rows.getvalue()
