"""Experiment orchestration: distribution runs, scenarios, exports, CLI."""

import contextlib
import csv
import json
import math
import os
import signal
import threading
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wudlab import lab, tuples
from wudlab.cli import main
from wudlab.errors import ConsistencyError, GuardExceededError, InvalidConfigError
from wudlab.lab import (
    CSV_COLUMNS,
    FILTERS,
    DistributionReport,
    export_report,
    run_additive,
    run_distribution,
    run_distribution_multi,
    run_scenario,
    growth_fit,
)
from wudlab.sieve import (
    RULES,
    SIEVE_GUARD,
    ConvenientParams,
    FactorizationRecord,
    MultiplicativeSpec,
    f_mod,
)
from wudlab.poly import IntPoly


def _phi_spec():
    return MultiplicativeSpec(F=IntPoly((-1, 1)))


class TestDistribution:
    def test_matches_per_n_census(self):
        q, x = 5, 3000
        rep = run_distribution(_phi_spec(), q, x, J=1)
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
            assert run_distribution(_phi_spec(), q, x, J=1).class_counts == expected

    def test_conservation(self):
        for rep in run_distribution_multi(_phi_spec(), 7, [100, 1000, 5000],
                                          J=1, filter_names=["none", "p2-rough"]):
            assert sum(rep.class_counts.values()) == rep.n_coprime
            assert rep.n_con + rep.n_inc == rep.n_coprime

    def test_degenerate_range(self):
        rep = run_distribution(_phi_spec(), 101, 50, J=1)
        assert rep.n_coprime <= 50  # emitted without error

    def test_filter_monotonicity(self):
        # P_2 > q is weaker than P_{D+2} > q, so its counts dominate
        reps = run_distribution_multi(_phi_spec(), 35, [10**5], J=1,
                                      filter_names=["p2-rough", "pD2-rough"])
        by_filter = {r.filter: r for r in reps}
        p2, pd2 = by_filter["p2-rough"], by_filter["pD2-rough"]
        assert p2.n_coprime >= pd2.n_coprime
        for a in p2.class_counts:
            assert p2.class_counts[a] >= pd2.class_counts[a]

    def test_determinism(self):
        a = run_distribution(_phi_spec(), 5, 20000, J=1).to_json_dict()
        b = run_distribution(_phi_spec(), 5, 20000, J=1).to_json_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_inconvenient_fraction_shrinks(self):
        reps = run_distribution_multi(_phi_spec(), 7, [10**5, 10**6], J=1)
        fracs = [r.n_inc / r.n_coprime for r in reps]
        assert fracs[1] < fracs[0]

    def test_filters_match_masked_reference(self):
        # q = 35 has non-unit classes (0, 5, 7, ...), which the counts must skip
        q, x = 35, 3000
        spec, params = _phi_spec(), ConvenientParams.from_x(x, J=1)
        reps = run_distribution_multi(spec, q, [x], J=1, filter_names=FILTERS)
        keep = {"none": lambda rec: True,
                "pD2-rough": lambda rec: rec.P(3) > q,
                "p2-rough": lambda rec: rec.P(2) > q,
                "convenient-only": lambda rec: rec.is_convenient(params)}
        for rep in reps:
            counts, n_con = Counter(), 0
            for n in range(1, x + 1):
                rec = FactorizationRecord.of(n)
                val, cop = f_mod(spec, n, q)
                if cop and keep[rep.filter](rec):
                    counts[val] += 1
                    n_con += rec.is_convenient(params)
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
        want = run_distribution_multi(_phi_spec(), 35, [2000], J=1,
                                      filter_names=["none", "pD2-rough"])
        assert run_distribution_multi(_phi_spec(), 35, [2000], J=1,
                                      filter_names=iter(["none", "pD2-rough"])) == want

    def test_bad_filter(self):
        with pytest.raises(InvalidConfigError):
            run_distribution(_phi_spec(), 5, 100, J=1, filter_name="p99")

    def test_consistency_guard(self):
        with pytest.raises(ConsistencyError):
            DistributionReport(
                spec="s", scenario="dist", x=10, q=5, filter="none",
                class_counts={1: 3, 2: 1}, n_coprime=5, n_con=5, n_inc=0,
                alpha=Fraction(3, 4), discrepancy=0.0, tv_distance=0.0,
                growth_pred=1.0,
            )


class TestGrowthFit:
    def test_rows_and_window(self):
        rep = growth_fit(_phi_spec(), 5, [10**4, 10**5])
        assert [r.x for r in rep.rows] == [10**4, 10**5]
        for row in rep.rows:
            assert row.pred == pytest.approx(
                row.x / math.log(row.x) ** (1 - 3 / 4))
            assert row.log_ratio == pytest.approx(
                math.log(row.n_coprime / row.pred))
        assert rep.log_ratio_window < 2.0

    def test_no_checkpoints_rejected(self):
        with pytest.raises(InvalidConfigError, match="no x checkpoints"):
            growth_fit(_phi_spec(), 5, [])

    def test_alpha_zero_declined(self):
        with pytest.raises(InvalidConfigError, match="degenerate"):
            growth_fit(_phi_spec(), 2, [10**4])


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
        one = run_distribution_multi(spec, q, xs, J=1, filter_names=filters)
        with _shares(n):
            split = run_distribution_multi(spec, q, xs, J=1, filter_names=filters)
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
            run_distribution(_phi_spec(), 5, 3000, J=1)
        assert len(children) == 2 and 0 not in children
        _no_child_left()

    def test_small_x_never_forks(self):
        with _shares(4, min_share=1000), _fork_forbidden():
            run_distribution(_phi_spec(), 5, 1999, J=1)
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
            run_distribution(spec, 5, 3000, J=1)
        with _shares(3), _deadline(), pytest.raises(InvalidConfigError) as split:
            run_distribution(spec, 5, 3000, J=1)
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
            run_distribution(_phi_spec(), 5, 3000, J=1)
        _no_child_left()

    def test_no_fork_while_another_thread_runs(self):
        one = run_distribution(_phi_spec(), 5, 3000, J=1)
        one_additive = run_additive(4, 3000)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            with _shares(3), _fork_forbidden():
                assert run_distribution(_phi_spec(), 5, 3000, J=1) == one
                assert run_additive(4, 3000) == one_additive
        finally:
            stop.set()
            thread.join()

    def test_guards_before_fork(self):
        with _shares(2), _fork_forbidden():
            with pytest.raises(GuardExceededError, match="sieve guard"):
                run_distribution(_phi_spec(), 5, SIEVE_GUARD + 1, J=1)
            with pytest.raises(GuardExceededError, match="sieve guard"):
                run_additive(4, SIEVE_GUARD + 1)
            with pytest.raises(GuardExceededError, match="modulus guard"):
                run_distribution_multi(_phi_spec(), 2 * 10**6, [10**6], J=1,
                                       filter_names=[])


class TestScenarios:
    def test_counterexample_ii_small(self):
        rep = run_scenario("counterexample-ii", D=2, q1=5, x=10**5)
        assert rep.summary["q"] == 25
        assert rep.summary["target_class"] == 1
        assert rep.summary["target_ratio"] > 1

    def test_counterexample_i_small(self):
        rep = run_scenario("counterexample-i", D=2, x=10**5, num_primes=2)
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
        rep = run_distribution(_phi_spec(), 5, 1000, J=1)
        path = export_report([rep], "csv", tmp_path / "out.csv")
        lines = path.read_text().splitlines()
        assert lines[0].split(",") == list(CSV_COLUMNS)
        assert len(lines) == 1 + 4  # header + one row per unit class

    def test_json_roundtrip(self, tmp_path):
        reps = [run_distribution(_phi_spec(), 5, 1000, J=1),
                run_scenario("additive", q=4, x=1000),
                growth_fit(_phi_spec(), 5, [10**4])]
        path = export_report(reps, "json", tmp_path / "out.json")
        loaded = json.loads(path.read_text())
        assert [r["type"] for r in loaded] == ["distribution", "scenario",
                                               "growth"]
        assert all(r["schema_version"] == 1 for r in loaded)
        dist = loaded[0]
        assert sum(dist["class_counts"].values()) == dist["n_coprime"]

    def test_bad_format(self, tmp_path):
        with pytest.raises(InvalidConfigError):
            export_report([], "xml", tmp_path / "out.xml")


class TestCli:
    def test_density_ok(self, capsys):
        assert main(["density", "--poly", "phi", "--q", "35"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["alpha"] == "5/8"
        assert out["xi"] == 1

    def test_dist_csv(self, capsys):
        assert main(["--format", "csv", "dist", "--poly", "phi",
                     "--q", "5", "--x", "2000", "--J", "1"]) == 0
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

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["--config", str(tmp_path / "absent.ini")]) == 2

    def test_sieve_dump(self, tmp_path, capsys):
        dump = tmp_path / "records.csv"
        assert main(["sieve", "--poly", "phi", "--q", "5", "--x", "500",
                     "--J", "1", "--dump", str(dump)]) == 0
        lines = dump.read_text().splitlines()
        assert len(lines) == 501  # header + one row per n

    def test_sieve_rows_match_reference(self, tmp_path, capsys):
        # the dump and the printed rows, against the per-n reference path
        x, q = 2000, 5
        spec, params = _phi_spec(), ConvenientParams.from_x(x, J=1)
        rows = []
        for n in range(1, x + 1):
            rec = FactorizationRecord.of(n)
            val, cop = f_mod(spec, n, q)
            rows.append({"n": n, "f_mod_q": val, "coprime": cop, "Omega": rec.Omega,
                         "P1": rec.P(1), "P2": rec.P(2),
                         "convenient": rec.is_convenient(params)})
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        dump = tmp_path / "records.csv"
        args = ["sieve", "--poly", "phi", "--q", str(q), "--x", str(x), "--J", "1"]
        assert main([*args, "--segment-size", "777", "--dump", str(dump)]) == 0
        assert dump.read_bytes() == expected.read_bytes()
        capsys.readouterr()
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out) == rows[:50]

    # custom-table needs an explicit table, which the command line cannot give
    @pytest.mark.parametrize("argv", [
        ["dist", "--poly", "phi", "--q", "5", "--x", "100", "--J", "1"],
        ["sieve", "--poly", "phi", "--q", "5", "--x", "100", "--J", "1"],
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
                     "--x", "100", "--J", "1"]) == 0

    @pytest.mark.parametrize("argv", [
        ["sieve", "--poly", "phi", "--q", "5", "--x", "1000", "--J", "1",
         "--segment-size", "0"],
        ["sieve", "--poly", "phi", "--q", "5", "--x", "1000", "--J", "1",
         "--segment-size", "-4"],
        ["sieve", "--poly", "phi", "--q", "5", "--x", "0", "--J", "1"],
        ["scenario", "additive", "--q", "4", "--x", "0"],
        ["scenario", "additive", "--q", "4", "--x", "-5"],
    ])
    def test_bad_range_exit_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be >= 1" in captured.err
