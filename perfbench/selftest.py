"""Self-test of the benchmark's checker: it must pass correct outputs and
flag wrong ones, including the seed's silently wrong V'' at ell=211, J=8.

    PYTHONPATH=src python3 perfbench/selftest.py

Exits 0 when every check behaves, 1 otherwise. Takes a few seconds.
"""

import dataclasses
import json
import random
import sys
from pathlib import Path

import oracles
import worker
import workloads
from workloads import PHI, QUAD

from wudlab import lab, poly, sieve


def _oracle_matches_enumeration() -> None:
    for F in (QUAD, PHI, poly.IntPoly((1, 1))):
        for q in (5, 7, 9, 15, 25, 35):
            for J in (1, 2, 3):
                assert oracles.v_double_all(F.coeffs, q, J) == \
                    oracles.v_double_brute(F.coeffs, q, J), (F, q, J)
    # cyclic_power against a direct cyclic convolution
    c, n = [3, 1, 4, 1, 5], 5
    direct = c
    for _ in range(3):
        direct = [sum(direct[i] * c[(k - i) % n] for i in range(n)) for k in range(n)]
    assert oracles.cyclic_power(c, 4) == direct
    # the all-t Z_chi oracle against direct sums
    phi, logs = oracles.z_chi_logs(QUAD.coeffs, 3, 4)
    fft = oracles.z_chi_all(phi, logs)
    assert all(abs(fft[t] - oracles.z_chi_direct(phi, logs, t)) < 1e-9 for t in range(phi))


def _tuple_checker_flags_planted_and_seed_counts() -> None:
    q, J = 13, 6
    right = oracles.v_double_all(QUAD.coeffs, q, J)
    assert workloads.tuple_problems(QUAD, q, J, right) == []
    planted = {**right, 2: right[2] + 1}
    assert workloads.tuple_problems(QUAD, q, J, planted), "planted wrong count not flagged"

    seed = json.loads(Path(__file__).with_name("seed_211_J8.json").read_text())
    counts = {int(w): n for w, n in seed["counts"].items()}
    problems = workloads.tuple_problems(QUAD, seed["q"], seed["J"], counts)
    assert problems and problems[0].startswith("123 of 210 targets wrong"), problems


def _sieve_checker_flags_planted_count() -> None:
    spec = sieve.MultiplicativeSpec(F=PHI)
    op = workloads._sieve_op("dist/phi/q3", lambda: None, random.Random(0), spec, 3, ("fmod",))
    reports = [lab.run_distribution(spec, 3, workloads.X_SIEVE)]
    assert op.check(reports) == [], op.check(reports)
    rep = reports[0]
    counts = dict(rep.class_counts)
    counts[1] += 1
    counts[2] -= 1
    assert op.check([dataclasses.replace(rep, class_counts=counts)]), \
        "planted wrong class count not flagged"


def _failures_split_known_from_unknown() -> None:
    ops = [workloads.Op("tuples/character/q211/J8", None, lambda out: ["wrong"]),
           workloads.Op("tuples/brute/q13/J6", None, lambda out: ["wrong"]),
           workloads.Op("local/alpha", None, lambda out: [])]
    wl = workloads.Workload("selftest", ops, 0)
    failures = worker.check(wl, [0, 0, 0])
    assert [(f["op"], f["known"]) for f in failures] == [
        ("tuples/character/q211/J8", True), ("tuples/brute/q13/J6", False)], failures


def main() -> int:
    tests = [_oracle_matches_enumeration, _tuple_checker_flags_planted_and_seed_counts,
             _sieve_checker_flags_planted_count, _failures_split_known_from_unknown]
    failed = 0
    for test in tests:
        try:
            test()
            print(f"ok    {test.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL  {test.__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
