"""Exact tuple counts V', V''(w), the mixing ratio, and the additive
tuple counts with their closed form."""

import math
import tracemalloc
from collections import Counter
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.ntheory.modular import crt

from reference import additive_brute_loop, v_double_brute_flat
from wudlab import tuples
from wudlab.errors import GuardExceededError, InvalidConfigError
from wudlab.number_core import factor
from wudlab.poly import IntPoly, is_admissible_prime
from wudlab.tuples import (
    BRUTE_GUARD,
    _additive_brute_all,
    _v_double_brute_all,
    _v_double_char_prime_power,
    additive_tuple_counts,
    count_v_double,
    count_v_prime,
    hypothesis_a_ratio,
    v_double_incex,
    v_double_incex_term,
)


def _convolve(dist: Counter, hist: Counter, m: int) -> Counter:
    """One more factor: the product u * x mod m weighted by dist[u] * hist[x]."""
    out = Counter()
    for u, a in dist.items():
        for x, n in hist.items():
            out[u * x % m] += a * n
    return out


def _v_double_oracle(F, q, J):
    """V''_q(w) for every unit w by J plain O(phi^2) convolutions over the
    residues mod q in Python ints: no discrete logs and no packing."""
    hist = Counter(F.eval_int(v) % q for v in range(q) if math.gcd(v, q) == 1)
    hist = Counter({x: n for x, n in hist.items() if math.gcd(x, q) == 1})
    dist = Counter({1 % q: 1})
    for _ in range(J):
        dist = _convolve(dist, hist, q)
    return {w: dist[w] for w in range(1, q) if math.gcd(w, q) == 1}


def _incex_terms_oracle(F, ell, e, J, w):
    """V''_{ell^e, j}(w) for j = 0..J from the definition: j factors over
    v = 0 mod ell, J - j over all v, F(v) taken over every residue."""
    m = ell**e
    hist_all = Counter(F.eval_int(v) % m for v in range(m))
    hist_div = Counter(F.eval_int(v) % m for v in range(0, m, ell))
    terms = []
    for j in range(J + 1):
        dist = Counter({1 % m: 1})
        for hist in [hist_div] * j + [hist_all] * (J - j):
            dist = _convolve(dist, hist, m)
        terms.append(dist[w % m])
    return terms


class TestVPrime:
    def test_linear_mod_5(self, phi_poly):
        rep = count_v_prime(phi_poly, 5, 2)
        assert rep.formula == 9  # (4 * 3/4)^2
        assert rep.brute == 9

    def test_empty_tuple(self, quad_poly):
        assert count_v_prime(quad_poly, 7, 0).count == 1

    def test_quad_mod_7(self, quad_poly):
        rep = count_v_prime(quad_poly, 7, 2)
        assert rep.formula == 36  # nu(7) = 0, alpha = 1
        assert rep.brute == 36

    def test_brute_skipped_above_guard(self, phi_poly):
        rep = count_v_prime(phi_poly, 5, 30)
        assert rep.brute is None
        assert rep.formula == 3**30

    def test_even_q_rejected(self, phi_poly):
        with pytest.raises(InvalidConfigError):
            count_v_prime(phi_poly, 6, 2)

    def test_negative_j_rejected(self, phi_poly):
        with pytest.raises(InvalidConfigError):
            count_v_prime(phi_poly, 5, -1)


class TestVDouble:
    def test_linear_mod_5_example(self, phi_poly):
        assert count_v_double(phi_poly, 5, 2, 1, method="brute") == 3

    def test_nonunit_target_rejected(self, phi_poly):
        with pytest.raises(InvalidConfigError):
            count_v_double(phi_poly, 5, 2, 5)

    def test_brute_table_built_once_per_panel(self, quad_poly):
        # one table answers every target w: the mixing ratio over all w
        # enumerates the tuples once, not phi(q) times
        q, J = 1009, 2
        _v_double_brute_all.cache_clear()
        rep = hypothesis_a_ratio(quad_poly, q, J, method="brute")
        assert _v_double_brute_all.cache_info().misses == 1
        uncached = _v_double_brute_all.__wrapped__(quad_poly, q, J)
        assert [r.v_double for r in rep.rows] == [int(uncached[w]) for w in range(1, q)]
        assert not _v_double_brute_all(quad_poly, q, J).flags.writeable

    @pytest.mark.parametrize("method", ["brute", "character", "auto"])
    def test_negative_j_rejected(self, quad_poly, method):
        with pytest.raises(InvalidConfigError):
            count_v_double(quad_poly, 7, -1, 1, method=method)

    @pytest.mark.parametrize("q", [5, 7, 25, 35, 49])
    @pytest.mark.parametrize("J", [2, 3])
    def test_three_methods_agree(self, poly_panel, q, J):
        for F in poly_panel:
            for w in range(1, q):
                if math.gcd(w, q) != 1:
                    continue
                brute = count_v_double(F, q, J, w, method="brute")
                char = count_v_double(F, q, J, w, method="character")
                assert brute == char
                if F.degree == 1:
                    assert brute == count_v_double(F, q, J, w, method="linear")

    def test_permutation_case(self):
        # F = T: v -> v is a permutation of units, so V'' = phi^(J-1)
        F = IntPoly((0, 1))
        for ell, e, J in [(5, 1, 2), (5, 2, 3), (7, 1, 4)]:
            phi = factor(ell**e).phi
            for w in (1, ell**e - 1):
                assert count_v_double(F, ell**e, J, w, method="linear") \
                    == phi ** (J - 1)
                assert count_v_double(F, ell**e, J, w, method="brute") \
                    == phi ** (J - 1)

    def test_partition_identity(self, poly_panel):
        # sum over unit w of V''(w) equals V'
        for F in poly_panel:
            for q, J in [(5, 3), (7, 2), (25, 2), (35, 2)]:
                hist = _v_double_brute_all(F, q, J)
                units = [w for w in range(q) if math.gcd(w, q) == 1]
                assert sum(int(hist[w]) for w in units) \
                    == count_v_prime(F, q, J).count

    def test_crt_multiplicativity(self, phi_poly):
        q, J = 35, 6
        for w in (1, 2, 11, 34):
            whole = count_v_double(phi_poly, q, J, w, method="character")
            parts = math.prod(
                count_v_double(phi_poly, ell**e, J, w % ell**e, method="character")
                for ell, e in factor(q).factors
            )
            assert whole == parts

    @given(st.lists(st.integers(-30, 30), min_size=2, max_size=5),
           st.sampled_from([3, 5, 7, 9, 13, 25, 27, 49, 81, 15, 21, 45, 211]),
           st.integers(min_value=0, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_character_matches_oracle(self, coeffs, q, J):
        if coeffs[-1] == 0:
            coeffs[-1] = 1
        F = IntPoly(tuple(coeffs))
        want = _v_double_oracle(F, q, J)
        assert {w: count_v_double(F, q, J, w, method="character") for w in want} == want

    def test_character_exact_past_float(self, quad_poly):
        # a float FFT got 123 of these 210 classes wrong without raising
        want = _v_double_oracle(quad_poly, 211, 8)
        assert {w: count_v_double(quad_poly, 211, 8, w, method="character")
                for w in want} == want

    def test_character_power_computed_once_per_panel(self, quad_poly):
        _v_double_char_prime_power.cache_clear()
        hypothesis_a_ratio(quad_poly, 5**3, 7, method="character")
        info = _v_double_char_prime_power.cache_info()
        assert (info.misses, info.hits) == (1, 99)

    @given(st.sampled_from([(1, 3), (2, 1), (3, -1), (1, -2), (4, 3)]),
           st.sampled_from([(5, 1), (7, 1), (3, 2), (5, 2)]),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_linear_closed_form_matches_brute(self, rs, pe, J):
        R, S = rs
        ell, e = pe
        F = IntPoly((S, R)) if S != 0 else IntPoly((0, R))
        if not is_admissible_prime(F, ell):
            return  # closed form is stated for admissible ell
        for w in range(1, ell**e):
            if math.gcd(w, ell) != 1:
                continue
            assert count_v_double(F, ell**e, J, w, method="linear") \
                == count_v_double(F, ell**e, J, w, method="brute")


class TestBruteWidth:
    """The product table runs in int32 when (q - 1)^2 < 2^31; an int64 table
    reduced by % is the reference."""

    @staticmethod
    def _int64_table(F, q, J):
        vals = [F.eval_int(v) % q for v in range(q) if math.gcd(v, q) == 1]
        vals = np.array([x for x in vals if math.gcd(x, q) == 1], dtype=np.int64)
        prods = np.array([1 % q], dtype=np.int64)
        for _ in range(J):
            prods = (prods[:, None] * vals[None, :] % q).ravel()
        return np.bincount(prods, minlength=q)

    @pytest.mark.parametrize("q", [3, 5, 9, 15, 25, 27, 35, 45, 49])
    @pytest.mark.parametrize("J", [1, 2, 3, 4])
    def test_int32_matches_int64(self, poly_panel, q, J):
        for F in poly_panel + [IntPoly((3, -2, 0, 5, 1))]:
            got = _v_double_brute_all(F, q, J)
            assert got.tolist() == self._int64_table(F, q, J).tolist(), (F, q, J)

    def test_int64_table_past_width_bound(self):
        # q = 3 * 5 * ... * 17 > 46341 and F = -2 prod_{r=1}^{ell-2} (T - r) *
        # T^(17-ell) mod each ell, so only v = -1 gives a unit value, u = -2
        # by Wilson's theorem: one good value, the guard admits any J, and
        # u * u passes 2^31
        ells = (3, 5, 7, 11, 13, 17)
        q = math.prod(ells)
        local = []
        for ell in ells:
            c = [0] * (17 - ell) + [-2 % ell]
            for r in range(1, ell - 1):
                c = [(a - r * b) % ell for a, b in zip([0] + c, c + [0])]
            local.append(c)
        F = IntPoly(tuple(int(crt(ells, [c[k] for c in local])[0])
                          for k in range(16)))
        u = q - 2
        assert F.eval_int(q - 1) % q == u and u * u >= 2**31
        for J in (2, 3):
            got = _v_double_brute_all(F, q, J)
            assert got.tolist() == self._int64_table(F, q, J).tolist()
            assert got[pow(u, J, q)] == 1 and got.sum() == 1

    # 46337 is the largest prime below the int32 bound, 46349 the first above
    @pytest.mark.parametrize("q", [46337, 46349])
    def test_prime_at_width_boundary(self, quad_poly, q):
        got = _v_double_brute_all(quad_poly, q, 1)
        assert got.tolist() == self._int64_table(quad_poly, q, 1).tolist()


def _tuple_cases(q_values):
    """(q, J) with J in 0..5 and q^J <= 10^4, which bounds the number of tuples."""
    return q_values.flatmap(lambda q: st.tuples(
        st.just(q), st.integers(0, max(j for j in range(6) if q**j <= 10**4))))


# 1 and 2 give b = 1 once there are two values; 7 gives b = 2 for two values
# and many blocks; the module value takes b up to J
BLOCKS = st.sampled_from([1, 2, 7, tuples.BLOCK])


def _sparse_wilson_poly():
    """F mod q = 3 * 5 * ... * 17 > 46341 with exactly two good values: mod
    ell < 17, F = -2 prod_{r=1}^{ell-2} (T - r) * T^(17-ell) is a unit only at
    v = -1, and mod 17, F = T prod_{r=1}^{14} (T - r) only at v = 15, 16."""
    ells = (3, 5, 7, 11, 13, 17)
    local = []
    for ell in ells:
        c = [0] * (17 - ell) + [-2 % ell] if ell < 17 else [0, 1]
        for r in range(1, min(ell - 1, 15)):
            c = [(a - r * b) % ell for a, b in zip([0] + c, c + [0])]
        local.append(c)
    q = math.prod(ells)
    F = IntPoly(tuple(int(crt(ells, [c[k] for c in local])[0])
                      for k in range(16)))
    return F, q


class TestStreamedTables:
    """The block-streamed brute tables equal the flat-array V'' oracle and
    the itertools additive oracle at every target, for any BLOCK."""

    @given(st.lists(st.integers(-30, 30), min_size=2, max_size=4).filter(lambda c: c[-1]),
           _tuple_cases(st.integers(0, 29).map(lambda k: 2 * k + 1)), BLOCKS)
    @example([0, 3], (3, 2), 2)     # F = 3T mod 3: no good value
    @example([1, 0, 1], (5, 5), 7)  # two good values, 2^5 tuples in blocks of 4
    @settings(max_examples=150, deadline=None)
    def test_v_double_matches_flat_oracle(self, coeffs, qJ, block):
        F, (q, J) = IntPoly(tuple(coeffs)), qJ
        with mock.patch.object(tuples, "BLOCK", block):
            got = _v_double_brute_all.__wrapped__(F, q, J)
        assert got.dtype == np.int64
        assert got.tolist() == v_double_brute_flat(F, q, J).tolist()

    @given(_tuple_cases(st.integers(1, 60)), BLOCKS)
    @example((1, 3), 1)
    @example((2, 5), 7)
    @settings(max_examples=150, deadline=None)
    def test_additive_matches_loop_oracle(self, qJ, block):
        q, J = qJ
        with mock.patch.object(tuples, "BLOCK", block):
            got = _additive_brute_all.__wrapped__(q, J)
        want = [additive_brute_loop(q, J, w) for w in range(q)]
        assert got.T.tolist() == [list(pair) for pair in want]

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_int64_path_past_width_bound(self, block):
        F, q = _sparse_wilson_poly()
        assert q > 46341
        for J in range(6):
            with mock.patch.object(tuples, "BLOCK", block):
                got = _v_double_brute_all.__wrapped__(F, q, J)
            assert got.sum() == 2**J
            assert got.tolist() == v_double_brute_flat(F, q, J).tolist()


class TestBruteMemory:
    """Memory is O(q + BLOCK) whatever the number of tuples; the flat table
    peaked at about 115 MB for the guard case."""

    @staticmethod
    def _peak(fn, *args):
        tracemalloc.start()
        try:
            out = fn(*args)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_v_double_at_guard(self, quad_poly):
        table, peak = self._peak(_v_double_brute_all.__wrapped__, quad_poly, 11, 7)
        assert table.sum() == BRUTE_GUARD
        assert peak < 4 * 2**20

    def test_additive_at_guard(self):
        table, peak = self._peak(_additive_brute_all.__wrapped__, 11, 7)
        assert table.sum(axis=1).tolist() == [BRUTE_GUARD] * 2
        assert not table.flags.writeable
        assert peak < 4 * 2**20

    def test_additive_table_built_once_per_panel(self):
        _additive_brute_all.cache_clear()
        reps = [additive_tuple_counts(9, 3, w) for w in range(9)]
        assert _additive_brute_all.cache_info().misses == 1
        assert sum(r.v_sum for r in reps) == factor(9).phi ** 3


class TestInclusionExclusion:
    def test_example_terms(self, phi_poly):
        count, terms = v_double_incex(phi_poly, 5, 1, 2, 1)
        assert terms == [4, 1, 1]
        assert count == 4 - 2 * 1 + 1 == 3

    @pytest.mark.parametrize("ell,e", [(5, 1), (7, 1), (5, 2), (5, 3)])
    @pytest.mark.parametrize("J", [2, 3, 4])
    def test_identity_against_brute(self, phi_poly, ell, e, J):
        m = ell**e
        for w in (1, m - 1):
            count, _ = v_double_incex(phi_poly, ell, e, J, w)
            assert count == count_v_double(phi_poly, m, J, w, method="auto")

    def test_exact_past_int64(self, phi_poly):
        # an int64 fold wrapped here and returned 865735496153603975465
        count, _ = v_double_incex(phi_poly, 3, 7, 8, 1)
        assert count == 109418989131512359209

    @pytest.mark.parametrize("w", [0, 3, 6])
    def test_nonunit_target_rejected(self, phi_poly, w):
        with pytest.raises(InvalidConfigError):
            v_double_incex(phi_poly, 3, 2, 2, w)
        with pytest.raises(InvalidConfigError):
            v_double_incex_term(phi_poly, 3, 2, 2, 1, w)

    @pytest.mark.parametrize("j", [-1, 3])
    def test_j_out_of_range_rejected(self, phi_poly, j):
        with pytest.raises(InvalidConfigError):
            v_double_incex_term(phi_poly, 5, 1, 2, j, 1)

    @given(st.integers(-20, 20).filter(bool), st.integers(-20, 20),
           st.sampled_from([(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (7, 1)]),
           st.integers(min_value=0, max_value=12), st.integers(min_value=0))
    @example(1, -1, (3, 4), 12, 2)  # the terms pass 2^63, where an int64 fold wraps
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle(self, R, S, pe, J, w):
        ell, e = pe
        m = ell**e
        w = w % m + (w % ell == 0)  # a unit
        F = IntPoly((S, R))
        count, terms = v_double_incex(F, ell, e, J, w)
        assert terms == _incex_terms_oracle(F, ell, e, J, w)
        assert count == _v_double_oracle(F, m, J)[w]

    def test_terms_against_direct_enumeration(self, phi_poly):
        # V''_{ell^e, j} counted straight from the definition
        ell, e, J, w = 5, 1, 3, 2
        m = ell**e
        for j in range(J + 1):
            direct = 0
            ranges = [range(0, m, ell)] * j + [range(m)] * (J - j)
            for tup in product(*ranges):
                if math.prod(v - 1 for v in tup) % m == w:
                    direct += 1
            assert v_double_incex_term(phi_poly, ell, e, J, j, w) == direct


class TestMixing:
    def test_small_j_deviation(self, phi_poly):
        rep = hypothesis_a_ratio(phi_poly, 5, 2)
        w1 = next(r for r in rep.rows if r.w == 1)
        assert w1.ratio == pytest.approx(4 * 3 / 9)
        assert rep.max_deviation == pytest.approx(1 / 3)

    def test_mixing_improves_with_j(self, phi_poly):
        dev2 = hypothesis_a_ratio(phi_poly, 5, 2).max_deviation
        dev8 = hypothesis_a_ratio(phi_poly, 5, 8).max_deviation
        assert dev8 < dev2

    def test_monotone_trend(self, poly_panel):
        for F in poly_panel:
            for q in (5, 7, 25):
                devs = [hypothesis_a_ratio(F, q, J, method="character").max_deviation
                        for J in (2, 4, 6)]
                assert devs[2] <= devs[1] <= devs[0]

    def test_crt_ratio_product(self, phi_poly):
        J = 6
        rep35 = hypothesis_a_ratio(phi_poly, 35, J, method="character")
        rep5 = hypothesis_a_ratio(phi_poly, 5, J, method="character")
        rep7 = hypothesis_a_ratio(phi_poly, 7, J, method="character")
        r35 = {r.w: r.ratio for r in rep35.rows}
        r5 = {r.w: r.ratio for r in rep5.rows}
        r7 = {r.w: r.ratio for r in rep7.rows}
        for w, ratio in r35.items():
            assert ratio == pytest.approx(r5[w % 5] * r7[w % 7])

    def test_vacuous_when_alpha_zero(self):
        # T^2 - 1 has both unit roots mod 3: alpha(3) = 0
        F = IntPoly((-1, 0, 1))
        with pytest.raises(InvalidConfigError, match="vacuous"):
            hypothesis_a_ratio(F, 3, 2)

    def test_all_targets_past_modulus_guard(self, phi_poly):
        # one row per unit target: q is refused before V' is counted
        with mock.patch.object(tuples, "count_v_prime", side_effect=AssertionError("counted")), \
                pytest.raises(GuardExceededError, match="modulus guard"):
            hypothesis_a_ratio(phi_poly, 1000003, 1)

    def test_r_bound_recorded(self, quad_poly):
        rep = hypothesis_a_ratio(quad_poly, 7, 3, method="character")
        assert rep.r_bound == pytest.approx(2 * 8**3 * 7 ** (1 - 3 / 3))


class TestAdditiveTuples:
    def test_mod_5_sum_zero(self):
        assert additive_tuple_counts(5, 2, 0).v_sum == 4  # v2 = -v1

    def test_even_modulus_hit(self):
        rep = additive_tuple_counts(4, 2, 2)
        assert rep.v_sum == 2  # {(1,1), (3,3)}
        assert rep.parity_factor == 2
        assert rep.predicted == pytest.approx(2 * 4 / 4)

    def test_even_modulus_parity_miss(self):
        rep = additive_tuple_counts(4, 2, 1)
        assert rep.v_sum == 0
        assert rep.parity_factor == 0

    @pytest.mark.parametrize("q", [1, 3, 4, 5, 8, 9, 12, 15])
    @pytest.mark.parametrize("J", [1, 2, 3])
    def test_formula_and_bijection(self, q, J):
        for w in range(q):
            rep = additive_tuple_counts(q, J, w)  # brute cross-check inside
            assert rep.v_sum == rep.v_alt == rep.formula

    def test_all_targets_partition(self):
        for q, J in [(9, 3), (12, 2), (15, 2)]:
            total = sum(additive_tuple_counts(q, J, w).formula
                        for w in range(q))
            assert total == factor(q).phi**J

    @pytest.mark.parametrize("q, J, guard", [
        (35, 6, BRUTE_GUARD),  # 24^6 > BRUTE_GUARD: the formula alone
        (11, 2, 100), (11, 3, 100), (12, 6, 64), (12, 7, 64), (1, 5, 1),
    ])
    def test_brute_table_built_exactly_at_or_below_guard(self, monkeypatch, q, J, guard):
        monkeypatch.setattr(tuples, "BRUTE_GUARD", guard)
        _additive_brute_all.cache_clear()
        reps = [additive_tuple_counts(q, J, w) for w in range(q)]
        assert _additive_brute_all.cache_info().misses == (factor(q).phi ** J <= guard)
        assert all(r.v_sum == r.v_alt == r.formula for r in reps)
        assert sum(r.formula for r in reps) == factor(q).phi ** J

    def test_bad_inputs(self):
        with pytest.raises(InvalidConfigError):
            additive_tuple_counts(0, 2, 1)
        with pytest.raises(InvalidConfigError):
            additive_tuple_counts(5, 0, 1)
