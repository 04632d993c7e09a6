"""Local root counts, coprime-value density alpha(q), xi(q), prime sums."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wudlab.density import (
    LIFT_GUARD,
    alpha,
    alpha_direct_count,
    brute_unit_roots,
    coprime_value_prime_sum,
    count_unit_roots,
    xi_max_roots,
)
from wudlab.errors import GuardExceededError, InvalidConfigError
from wudlab.number_core import factor, primes_upto
from wudlab.poly import IntPoly, _counterexample_i, is_admissible_prime


class TestUnitRoots:
    def test_linear(self):
        assert count_unit_roots(IntPoly((-1, 1)), 5) == (1, [1])

    def test_sqrt_minus_one(self):
        assert count_unit_roots(IntPoly((1, 0, 1)), 5) == (2, [2, 3])

    def test_lift_to_25(self):
        assert count_unit_roots(IntPoly((1, 0, 1)), 5, 2) == (2, [7, 18])

    def test_insoluble(self):
        assert count_unit_roots(IntPoly((1, 0, 1)), 7) == (0, [])

    def test_zero_roots_excluded(self):
        # F = T has the single root 0, which is not a unit
        assert count_unit_roots(IntPoly((0, 1)), 7) == (0, [])

    @pytest.mark.parametrize("F", [IntPoly((-1, 1)), IntPoly((1, 0, 1)),
                                   IntPoly((10, -6, 1))])
    def test_hensel_matches_brute(self, F):
        for ell in (3, 5, 7, 11, 13):
            if not is_admissible_prime(F, ell):
                continue
            e = 1
            while ell**e <= 3000:
                nu, roots = count_unit_roots(F, ell, e)
                assert roots == brute_unit_roots(F, ell**e)
                assert nu == len(roots)
                e += 1

    def test_nonsimple_root_branches(self):
        # F = T^2 - 5 mod 5: root 0 is non-simple but non-unit; use T^2 - 10
        # mod 3 where 1 is a simple root, then check a genuinely wild case
        F = IntPoly((-25, 0, 1))  # T^2 - 25, roots +-5 non-units mod 5
        assert count_unit_roots(F, 5, 2) == (0, [])

    def test_nu_bounds(self, poly_panel):
        for F in poly_panel:
            D = F.degree
            for ell in primes_upto(1000)[1:]:
                ell = int(ell)
                nu, _ = count_unit_roots(F, ell)
                assert 0 <= nu <= min(D, ell - 1)
                if is_admissible_prime(F, ell):
                    assert nu <= D


class TestAlpha:
    def test_product_formula_35(self):
        prof = alpha(IntPoly((-1, 1)), 35)
        assert prof.alpha == Fraction(5, 8)
        assert [ld.alpha_local for ld in prof.locals] == [Fraction(3, 4), Fraction(5, 6)]

    def test_degenerate_prime(self):
        prof = alpha(IntPoly((-1, 1)), 2)
        assert prof.alpha == 0
        assert [ld.ell for ld in prof.locals if ld.alpha_local == 0] == [2]

    def test_quad_15(self):
        prof = alpha(IntPoly((1, 0, 1)), 15)
        assert prof.alpha == Fraction(1, 2)
        assert alpha_direct_count(IntPoly((1, 0, 1)), 15) == Fraction(1, 2)

    def test_alpha_local_zero_iff_full(self, poly_panel):
        for F in poly_panel:
            for q in (2, 3, 4, 5, 6, 7, 9):
                for ld in alpha(F, q).locals:
                    assert (ld.alpha_local == 0) == (ld.nu == ld.ell - 1)

    def test_nu_lifted_unknown_past_lift_guard(self):
        # F = (T - 1)^2 + 3 has one unit root mod 3 and none mod 3^18: past
        # the lift guard nu(3^e) is not counted, and nu(3) does not stand in
        F = IntPoly((4, -2, 1))
        assert count_unit_roots(F, 3, 18)[0] == 0 and 3**19 > LIFT_GUARD
        prof = alpha(F, 3**19)
        assert prof.locals[0].nu == 1 and prof.locals[0].nu_lifted is None
        assert prof.alpha == alpha(F, 3).alpha == Fraction(1, 2)

    def test_q_one(self):
        assert alpha(IntPoly((-1, 1)), 1).alpha == 1
        assert alpha_direct_count(IntPoly((-1, 1)), 1) == 1

    @pytest.mark.parametrize("F", [IntPoly((-1, 1)), IntPoly((1, 1)),
                                   IntPoly((1, 0, 1)),
                                   IntPoly((2**63 - 10, 1)), IntPoly((2**64 + 1, 1))])
    def test_product_equals_direct_count(self, F):
        for q in range(1, 400):
            assert alpha(F, q).alpha == alpha_direct_count(F, q)

    @given(coeffs=st.lists(st.integers(-40, 40), min_size=1, max_size=4),
           lead=st.integers(-6, 6).filter(bool),
           qs=st.lists(st.integers(0, 2000).map(lambda k: 2 * k + 1), min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_cached_factors_match_direct_count(self, coeffs, lead, qs):
        # the local factors are cached per (F, ell, e), so those computed
        # for one q are reused by every later q that shares a prime power
        F = IntPoly((*coeffs, lead))
        for q in qs + [q * 3 for q in qs]:
            prof = alpha(F, q)
            assert prof.alpha == alpha_direct_count(F, q), (F, q)
            assert [(ld.ell, ld.e) for ld in prof.locals] == list(factor(q).factors)
            for ld in prof.locals:
                assert ld.nu_lifted == len(brute_unit_roots(F, ld.ell**ld.e)), (F, q, ld)


class TestXi:
    def test_quad_mod_5(self):
        rep = xi_max_roots(IntPoly((1, 0, 1)), 5)
        assert rep.xi == 2
        assert rep.witness_class == 2  # T^2 + 1 = 2 at v in {1, 4}

    def test_witness_is_a_unit_class(self):
        assert xi_max_roots(IntPoly((1, 0, 1)), 5).witness_class == 2

    def test_linear_bijection(self):
        rep = xi_max_roots(IntPoly((-1, 1)), 7)
        assert rep.xi == 1
        assert rep.squarefree_bound_ok

    def test_squarefree_bound(self):
        rep = xi_max_roots(_counterexample_i(2), 35)
        assert rep.xi <= 2**2
        assert rep.squarefree_bound_ok

    @pytest.mark.parametrize("c0", [2**63 - 10, 2**64 + 1])
    def test_linear_with_huge_constant(self, c0):
        # a linear F is a bijection mod q, however large its coefficients
        assert xi_max_roots(IntPoly((c0, 1)), 35).xi == 1

    def test_non_squarefree_flag_none(self):
        assert xi_max_roots(IntPoly((-1, 1)), 25).squarefree_bound_ok is None

    def test_guard(self):
        with pytest.raises(GuardExceededError):
            xi_max_roots(IntPoly((-1, 1)), 10**6 + 3)


class TestPrimeSum:
    def test_q_one_is_mertens(self):
        rep = coprime_value_prime_sum(IntPoly((-1, 1)), 1, 10**5)
        assert rep.alpha == 1
        assert rep.prediction == pytest.approx(math.log(math.log(10**5)))
        assert 0.2 < rep.residual < 0.3  # Mertens constant drift

    def test_nu_zero_counts_every_prime(self):
        # T^2 + 1 has no roots mod 3, so alpha(3) = 1 and the sum is Mertens
        rep = coprime_value_prime_sum(IntPoly((1, 0, 1)), 3, 10**5)
        assert rep.alpha == 1
        full = coprime_value_prime_sum(IntPoly((-1, 1)), 1, 10**5)
        # only p = 3 itself can drop out (F(3) = 10 coprime to 3: none drop)
        assert rep.sum == pytest.approx(full.sum)

    def test_residual_recorded(self):
        rep = coprime_value_prime_sum(IntPoly((-1, 1)), 5, 10**6)
        assert rep.residual == pytest.approx(rep.sum - rep.prediction)
        assert abs(rep.residual) < 1.0

    def test_small_x_rejected(self):
        with pytest.raises(InvalidConfigError):
            coprime_value_prime_sum(IntPoly((-1, 1)), 100, 100)
