"""Acceptance gate: ten numbered criteria, one verdict line each.

Each test prints `criterion N: PASS|FAIL — detail` and then asserts, so a
plain `pytest -v` run shows one line per criterion either way.
"""

import math
import time

import numpy as np
import pytest

from wudlab.characters import (
    build_character_table,
    curve_point_count,
    ramanujan_sum,
    z_chi,
)
from wudlab.density import alpha, alpha_direct_count, brute_unit_roots, count_unit_roots
from wudlab.lab import run_additive, run_distribution_multi, run_scenario
from wudlab.number_core import factor, primes_upto
from wudlab.poly import IntPoly, _counterexample_i, _counterexample_ii, is_admissible_prime
from wudlab.sieve import MultiplicativeSpec
from wudlab.tuples import (
    _v_double_brute_all,
    additive_tuple_counts,
    count_v_double,
    count_v_prime,
    v_double_incex,
)

from reference import ramanujan_sum_direct

PHI = IntPoly((-1, 1))
SIGMA = IntPoly((1, 1))
QUAD = IntPoly((1, 0, 1))

TUPLE_PANEL_F = (PHI, SIGMA, QUAD)
TUPLE_PANEL_Q = (5, 7, 25, 35, 49)
TUPLE_PANEL_J = (2, 3, 4)

BRUTE_FLAT_LIMIT = 10**7


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n}: {detail}"


def _odd_prime_powers(limit: int):
    for p in primes_upto(limit)[1:]:
        m = int(p)
        while m <= limit:
            yield int(p), round(math.log(m, p)), m
            m *= int(p)


def _units(m: int):
    return [w for w in range(1, m) if math.gcd(w, m) == 1]


# ---------------------------------------------------------------------------

def test_criterion_01_v_prime_identity():
    t0 = time.monotonic()
    checked = 0
    for F in TUPLE_PANEL_F:
        for q in TUPLE_PANEL_Q:
            for J in TUPLE_PANEL_J:
                rep = count_v_prime(F, q, J)
                assert rep.brute is not None and rep.brute == rep.formula
                checked += 1
    elapsed = time.monotonic() - t0
    _verdict(1, elapsed < 60,
             f"{checked} panel cases, formula == brute, {elapsed:.1f}s")


def test_criterion_02_v_double_three_methods():
    checked = 0
    for F in TUPLE_PANEL_F:
        for q in TUPLE_PANEL_Q:
            for J in TUPLE_PANEL_J:
                hist = _v_double_brute_all(F, q, J)  # one brute enumeration
                for w in _units(q):
                    brute = int(hist[w])
                    char = count_v_double(F, q, J, w, method="character")
                    assert brute == char, (F, q, J, w)
                    if F.degree == 1:
                        assert brute == count_v_double(F, q, J, w,
                                                       method="linear")
                    checked += 1
    _verdict(2, True, f"{checked} (F, q, J, w) cases, all methods agree")


def test_criterion_03_character_sum_bound():
    panel = [PHI, SIGMA, QUAD, _counterexample_i(2), _counterexample_ii(4)]
    checked = violations = 0
    for F in panel:
        for ell, e, m in _odd_prime_powers(343):
            if not is_admissible_prime(F, ell):
                continue
            table = build_character_table(ell, e)
            for t in range(1, table.phi):
                rep = z_chi(F, table, t)
                assert rep.binding
                checked += 1
                # primitive chi must meet the stated shape; imprimitive chi
                # meets the conductor-reduced form of the same lemma
                applicable = (rep.bound if rep.conductor == ell**e
                              else rep.bound_conductor)
                if rep.abs > applicable + 1e-9 or not rep.within_bound:
                    violations += 1
    _verdict(3, violations == 0,
             f"{checked} nonprincipal characters over admissible ell^e <= 343, "
             f"{violations} bound violations (conductor-reduced form for "
             f"imprimitive characters)")


def test_criterion_04_ramanujan_closed_form():
    checked = 0
    for ell, e, m in sorted({(2, 1, 2)} | set(_odd_prime_powers(1000))
                            | {(2, k, 2**k) for k in range(1, 10)}):
        direct = ramanujan_sum_direct(ell, e)
        for r in range(1, m):
            assert ramanujan_sum(ell, e, r) == int(direct[r]), (ell, e, r)
            checked += 1
    _verdict(4, True, f"{checked} (ell^e, r) pairs match direct summation")


def test_criterion_05_linear_closed_forms():
    # permutation branch: F = R*T with the prime dividing the constant term
    checked = 0
    for F in (IntPoly((0, 1)), IntPoly((0, 3))):
        for ell, e, m in _odd_prime_powers(125):
            if not is_admissible_prime(F, ell):
                continue
            phi = factor(m).phi
            for J in (2, 3, 4):
                if phi**J > BRUTE_FLAT_LIMIT:
                    continue
                hist = _v_double_brute_all(F, m, J)
                for w in _units(m):
                    assert phi * int(hist[w]) == phi**J, (F, m, J, w)
                    checked += 1
    # inclusion-exclusion branch: linear F with unit constant term
    for F in (PHI, SIGMA):
        for ell, e, m in _odd_prime_powers(125):
            if not is_admissible_prime(F, ell):
                continue
            good = factor(m).phi  # upper bound on the enumerated value count
            for J in (2, 3, 4):
                use_brute = good**J <= BRUTE_FLAT_LIMIT
                for w in (1, m - 1):
                    via_incex, _ = v_double_incex(F, ell, e, J, w)
                    ref = count_v_double(
                        F, m, J, w, method="brute" if use_brute else "character")
                    assert via_incex == ref, (F, m, J, w)
                    checked += 1
    _verdict(5, True, f"{checked} closed-form cases verified")


def test_criterion_06_nu_alpha_consistency():
    # Hensel lifting against the brute residue scan, all odd prime powers
    checked = 0
    for F, limit in ((QUAD, 10**5), (PHI, 10**4)):
        for ell, e, m in _odd_prime_powers(limit):
            if not is_admissible_prime(F, ell):
                continue
            nu, roots = count_unit_roots(F, ell, e)
            assert roots == brute_unit_roots(F, m), (F, ell, e)
            assert nu == len(roots)
            checked += 1
    # alpha product formula against the direct unit count
    for q in range(1, 10**4 + 1):
        if q % 2 == 0:
            continue  # 2 is never admissible
        assert alpha(QUAD, q).alpha == alpha_direct_count(QUAD, q), q
        checked += 1
    _verdict(6, True, f"{checked} exact nu/alpha agreements")


def test_criterion_07_curve_bound():
    t0 = time.monotonic()
    panel = [PHI, SIGMA, QUAD, _counterexample_i(3)]
    checked = violations = 0
    for F in panel:
        for p in primes_upto(200)[1:]:
            ell = int(p)
            if not is_admissible_prime(F, ell):
                continue
            for w in range(1, ell):
                rep = curve_point_count(F, ell, w)
                checked += 1
                if not rep.within_bound:
                    violations += 1
    elapsed = time.monotonic() - t0
    _verdict(7, violations == 0 and elapsed < 60,
             f"{checked} point counts within the Hasse-Weil shape, "
             f"{violations} violations, {elapsed:.1f}s")


def test_criterion_08_additive_tuple_identity():
    checked = 0
    for q in (4, 5, 8, 9, 12, 15):
        for J in (2, 3, 4):
            for w in range(q):
                rep = additive_tuple_counts(q, J, w)  # brute checked inside
                assert rep.v_sum == rep.v_alt == rep.formula
                checked += 1
    _verdict(8, True, f"{checked} (q, J, w) cases, V = V* = closed form")


# ---------------------------------------------------------------------------
# Criteria 9 and 10 share full-scale sieve runs.

@pytest.fixture(scope="module")
def trend_runs():
    t0 = time.monotonic()
    spec = MultiplicativeSpec(F=PHI)
    q5 = run_distribution_multi(spec, 5, [10**4, 10**5, 10**6, 10**7])
    q3 = run_distribution_multi(spec, 3, [10**5, 10**6, 10**7])
    cex = run_scenario("counterexample-ii", D=2, q1=5, x=10**7)
    add4 = run_additive(4, 10**7)
    return {"q5": q5, "q3": q3, "cex": cex, "add4": add4,
            "elapsed": time.monotonic() - t0}


# Criterion 9's (a) and (b) gates follow from the Selberg-Delange method for
# phi(n) mod q. PAPER.md holds only the abstract, so it does not settle the
# finite-x constants; the gates use only the leading terms derived below.
#
# (a) q = 5 is coprime to 6, so phi is equidistributed mod 5, but slowly. The
#     sum of chi(phi(n)) over n <= x grows like x (log x)^(z_chi - 1), where
#     z_chi = Z_chi / phi(q) is the mean of chi(p - 1) over primes, and the
#     coprime count grows like x (log x)^(alpha - 1). The discrepancy therefore
#     decays like (log x)^-beta, beta = alpha - max Re z_chi over nonprincipal
#     chi: 3/4 - 1/4 = 1/2 for q = 5, from the quartic characters. Gate: the
#     ladder decreases strictly, at least at that rate from 1e5 to 1e7.
# (b) q = 3 is outside the theorem: 3 does not divide phi(n) only for
#     n = 3^a m with a <= 1 and every prime of m ≡ 2 (mod 3), and then
#     chi_3(phi(p^k)) = (-1)^(k-1) and chi_3(phi(3)) = -1. The character sum and
#     the count have Dirichlet series with the same (s - 1)^(-1/2) singularity,
#     and their ratio R(s) = (1 - 3^-s)/(1 + 3^-s) * prod_{p ≡ 2 (3)}
#     (1 - p^-s)(1 + 2p^-s)/(1 + p^-s) is analytic at s = 1. So
#     d3(x) = L3 - c1/log x + O(1/log^2 x) with L3 = R(1) and
#     c1 = -(Gamma(1/2)/Gamma(-1/2)) R'(1) = R'(1)/2. Gate: d3 does not fall
#     along the ladder, and L3 - 2 c1/log x <= d3(1e7) <= L3; the factor 2
#     leaves room for the O(1/log^2 x) remainder, which is not quantified.

def _decay_exponent(F: IntPoly, ell: int) -> float:
    """beta in discrepancy ~ (log x)^-beta for f(p) = F(p) mod the prime ell."""
    table = build_character_table(ell, 1)
    top = max(z_chi(F, table, t).value.real for t in range(1, table.phi))
    return float(alpha(F, ell).alpha) - top / table.phi


def _q3_bias_limit(P: int = 10**6) -> tuple[float, float, float]:
    """(L3_lo, L3_hi, c1_hi) from the Euler products over primes p <= P.

    L3 = 1/2 prod_{p ≡ 2 (3)} (1 - 2/(p(p+1))); every factor is below 1 and
    the tail is >= 1 - sum_{n > P} 2/n^2 >= 1 - 2/P. c1 = L3 (log R)'(1) / 2
    with (log R)'(1) = 3 log 3/4 + sum_{p ≡ 2 (3)} 2(2p+1) log p/((p+2)(p^2-1)),
    whose terms are <= 4 log n/n^2, so the tail is <= 4 (log P + 1)/(P - 1).
    """
    p = primes_upto(P)
    p = p[p % 3 == 2].astype(np.float64)
    l3_hi = 0.5 * float(np.prod(1 - 2 / (p * (p + 1))))
    dlog = (0.75 * math.log(3)
            + float(np.sum(2 * (2 * p + 1) * np.log(p) / ((p + 2) * (p * p - 1))))
            + 4 * (math.log(P) + 1) / (P - 1))
    return l3_hi * (1 - 2 / P), l3_hi, l3_hi * dlog / 2


def test_criterion_09_equidistribution_trends(trend_runs):
    q5 = {r.x: r for r in trend_runs["q5"]}
    ladder = [q5[10**5].discrepancy, q5[10**6].discrepancy,
              q5[10**7].discrepancy]
    beta = _decay_exponent(PHI, 5)
    rate_bound = (math.log(10**5) / math.log(10**7)) ** beta
    ok_a = (ladder[0] > ladder[1] > ladder[2]
            and ladder[2] / ladder[0] <= rate_bound)
    l3_lo, l3_hi, c1 = _q3_bias_limit()
    d3 = [r.discrepancy for r in trend_runs["q3"]]
    lo3 = l3_lo - 2 * c1 / math.log(10**7)
    ok_b = d3[0] <= d3[1] <= d3[2] and lo3 <= d3[2] <= l3_hi
    ok_c = trend_runs["cex"].summary["target_is_strict_max"]
    ok_d = trend_runs["add4"].max_rel_dev_a < 0.01
    ok_t = trend_runs["elapsed"] < 600
    detail = (
        f"(a) q=5 discrepancies {ladder[0]:.4f} > {ladder[1]:.4f} > "
        f"{ladder[2]:.4f}, decay 1e5->1e7 {ladder[2] / ladder[0]:.3f} <= "
        f"(log 1e5/log 1e7)^{beta:.2f} = {rate_bound:.3f}: {ok_a}; "
        f"(b) q=3 discrepancies {d3[0]:.4f} <= {d3[1]:.4f} <= {d3[2]:.4f}, "
        f"final in [L3 - 2c1/log x, L3] = [{lo3:.4f}, {l3_hi:.4f}] "
        f"(L3 = {l3_hi:.6f}, c1 = {c1:.4f}): {ok_b}; "
        f"(c) class-1 strict max: {ok_c}; "
        f"(d) A(n) mod 4 max deviation {trend_runs['add4'].max_rel_dev_a:.5f} "
        f"< 1%: {ok_d}; runtime {trend_runs['elapsed']:.0f}s < 600s: {ok_t}"
    )
    _verdict(9, ok_a and ok_b and ok_c and ok_d and ok_t, detail)


def test_criterion_10_coprime_count_shape(trend_runs):
    a = float(alpha(PHI, 5).alpha)
    log_ratios = []
    for rep in trend_runs["q5"]:
        pred = rep.x / math.log(rep.x) ** (1 - a)
        log_ratios.append(math.log(rep.n_coprime / pred))
    window = max(log_ratios) - min(log_ratios)
    _verdict(10, window <= 2.0,
             f"log-ratio window {window:.3f} over x in 1e4..1e7 "
             f"(wild-divergence gate 2.0)")
