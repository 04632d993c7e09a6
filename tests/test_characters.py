"""Characters mod odd prime powers, Z_chi sums, Ramanujan sums, and the
F(x)F(y) = w curve counts."""

import cmath
import math
from collections import Counter

import numpy as np
import pytest

from wudlab.characters import (
    _value_counts,
    build_character_table,
    conductor_exponent,
    curve_point_count,
    ramanujan_sum,
    unit_value_logs,
    z_chi,
)
from wudlab.density import alpha
from wudlab.errors import GuardExceededError, InvalidConfigError
from wudlab.number_core import factor, primes_upto
from wudlab.poly import IntPoly

from reference import ramanujan_sum_direct

SMALL_TABLES = [(5, 1), (7, 1), (3, 2), (11, 1), (5, 2), (3, 3), (7, 2)]


def _chi(view, t, u):
    """chi_t(u) = e(t log u / phi), or 0 when u is not a unit."""
    r = int(view.log_table[u % view.modulus])
    return 0j if r < 0 else cmath.exp(2j * cmath.pi * (t * r % view.phi) / view.phi)


class TestCharacterTable:
    def test_conductor_mod_9(self):
        table = build_character_table(3, 2)
        assert table.phi == 6
        assert 3 ** conductor_exponent(table, 3) == 3  # chi_3 has order 2
        assert 3 ** conductor_exponent(table, 0) == 1  # principal

    def test_sixth_power_trivial_count_mod_7(self):
        table = build_character_table(7, 1)
        trivial_sixth = [t for t in range(1, 6) if (6 * t) % table.phi == 0]
        assert len(trivial_sixth) == 5  # ell - 2

    @pytest.mark.parametrize("ell,e", SMALL_TABLES)
    def test_multiplicative(self, ell, e):
        table = build_character_table(ell, e)
        m = table.modulus
        units = [u for u in range(m) if math.gcd(u, m) == 1]
        for t in range(table.phi):
            for u in units[:12]:
                for v in units[:12]:
                    lhs = _chi(table, t, u) * _chi(table, t, v)
                    assert cmath.isclose(lhs, _chi(table, t, u * v % m),
                                         abs_tol=1e-9)

    @pytest.mark.parametrize("ell,e", [(5, 1), (3, 2), (7, 1), (11, 1),
                                       (5, 2), (3, 4), (13, 2)])
    def test_orthogonality(self, ell, e):
        # sum_t chi_t(g^j) conj(chi_t(g^k)) = phi * 1_{j == k}
        table = build_character_table(ell, e)
        phi = table.phi
        t = np.arange(phi)
        M = np.exp(2j * np.pi * np.outer(t, t) / phi)  # M[t, k] = chi_t(g^k)
        gram = M.conj().T @ M
        assert np.allclose(gram, phi * np.eye(phi), atol=1e-9)

    def test_principal_on_units(self):
        table = build_character_table(7, 1)
        assert all(_chi(table, 0, u) == 1 for u in range(1, 7))
        assert _chi(table, 3, 14) == 0  # non-unit vanishes

    def test_even_prime_rejected(self):
        with pytest.raises(InvalidConfigError):
            build_character_table(2, 3)

    def test_guard(self):
        with pytest.raises(GuardExceededError):
            build_character_table(10**6 + 3, 1)


class TestZChi:
    def test_principal_mod_5(self, phi_poly):
        table = build_character_table(5, 1)
        rep = z_chi(phi_poly, table, 0)
        assert rep.value == pytest.approx(3)  # ell - 2 units v with v-1 a unit
        assert rep.binding is False  # bound shape applies to nonprincipal chi

    def test_nonprincipal_mod_5(self, phi_poly):
        table = build_character_table(5, 1)
        for t in (1, 2, 3):
            rep = z_chi(phi_poly, table, t)
            assert rep.abs == pytest.approx(1.0)
            assert rep.binding and rep.within_bound
            assert rep.bound == pytest.approx(math.sqrt(5))

    def test_quad_mod_7_all(self, quad_poly):
        table = build_character_table(7, 1)
        bound = 2 * 7 ** (2 / 3)
        for t in range(6):
            rep = z_chi(quad_poly, table, t)
            assert rep.d == 3
            assert rep.abs <= bound + 1e-9

    @pytest.mark.parametrize("ell,e", SMALL_TABLES)
    def test_principal_equals_phi_alpha(self, poly_panel, ell, e):
        for F in poly_panel:
            table = build_character_table(ell, e)
            rep = z_chi(F, table, 0)
            exact = alpha(F, ell**e).alpha * table.phi
            assert rep.value.real == pytest.approx(exact, abs=1e-6)
            assert abs(rep.value.imag) < 1e-6

    def test_inadmissible_not_binding(self, quad_poly):
        # delta(T^2 + 1) = -4; every odd prime is admissible, so force the
        # inadmissible branch with a polynomial whose delta hits 5
        F = IntPoly((-5, 1))  # delta(T(T-5)) = 25
        table = build_character_table(5, 1)
        rep = z_chi(F, table, 1)
        assert rep.binding is False
        assert rep.within_bound is None

    def test_conductor_reduced_bound_formula(self, phi_poly):
        table = build_character_table(5, 2)
        for t in range(1, table.phi):
            rep = z_chi(phi_poly, table, t)
            e0 = conductor_exponent(table, t)
            assert rep.bound_conductor == pytest.approx(
                (rep.d - 1) * 5 ** (2 - max(e0, 1) / rep.d))


class TestZChiBitIdentity:
    TABLES = [(3, 4), (5, 3), (7, 2), (211, 1)]
    PANEL = [IntPoly((-1, 1)), IntPoly((1, 1)), IntPoly((1, 0, 1)),
             IntPoly((3, -2, 0, 5, 1)), IntPoly((0, 1)), IntPoly((2**64 + 1, 1))]

    @staticmethod
    def _direct(F, table, t):
        """The uncached sum: evaluate F on every unit in Python ints (not
        through eval_mod), one exp per term."""
        m, phi = table.modulus, table.phi
        log_table = table.log_table
        logs = log_table[[F.eval_int(v) % m for v in range(m) if log_table[v] >= 0]]
        ks = (t % phi) * logs[logs >= 0] % phi
        return complex(np.exp(2j * np.pi * ks / phi).sum())

    def test_every_character_bit_for_bit(self):
        # t runs outermost, so consecutive calls alternate F on one table
        # and one F over several tables: a cache keyed on too little of
        # (F, ell, e) returns another sum and fails the equality
        tables = [build_character_table(ell, e) for ell, e in self.TABLES]
        principal = {}
        for t in range(max(table.phi for table in tables)):
            for table in tables:
                if t >= table.phi:
                    continue
                for F in self.PANEL:
                    rep = z_chi(F, table, t)
                    got = rep.value
                    assert got == self._direct(F, table, t), (F, table.modulus, t)
                    assert rep.conductor == table.ell ** conductor_exponent(table, t)
                    if t == 0:
                        principal.setdefault(table.modulus, set()).add(got)
        # the panel's sums differ, so one cache entry shared by two F fails
        assert all(len(sums) > 1 for sums in principal.values())

    # phi = 46336 keeps int32 logs ((phi - 1)^2 < 2^31); phi = 46348 does not
    @pytest.mark.parametrize("ell, width", [(46337, np.int32), (46349, np.int64)])
    def test_log_width_boundary(self, ell, width):
        table = build_character_table(ell, 1)
        for F in (IntPoly((1, 0, 1)), IntPoly((3, -2, 0, 5, 1))):
            assert unit_value_logs(F, ell, 1).dtype == width
            for t in (1, 2, table.phi // 2, table.phi - 2, table.phi - 1):
                assert z_chi(F, table, t).value == self._direct(F, table, t), (F, ell, t)


class TestRamanujan:
    def test_exact_divisibility_hit(self):
        assert ramanujan_sum(3, 2, 3) == -3

    def test_miss(self):
        assert ramanujan_sum(3, 2, 1) == 0

    def test_prime_modulus_unit_r(self):
        assert ramanujan_sum(5, 1, 2) == -1

    def test_range_enforced(self):
        with pytest.raises(InvalidConfigError):
            ramanujan_sum(3, 2, 9)
        with pytest.raises(InvalidConfigError):
            ramanujan_sum(3, 2, 0)

    @pytest.mark.parametrize("ell,e", [(3, 1), (3, 2), (3, 4), (5, 2),
                                       (7, 2), (2, 3), (2, 6), (13, 1)])
    def test_closed_form_equals_direct(self, ell, e):
        direct = ramanujan_sum_direct(ell, e)
        m = ell**e
        assert direct[0] == factor(m).phi
        for r in range(1, m):
            assert ramanujan_sum(ell, e, r) == int(direct[r])


class TestCurveCount:
    def test_linear_mod_7(self, phi_poly):
        rep = curve_point_count(phi_poly, 7, 1)
        assert rep.count == 6  # x - 1 any unit determines y
        assert rep.hasse_weil_bound == 8  # D = 1 kills the error term
        assert rep.within_bound

    def test_w_zero_rejected(self, phi_poly):
        with pytest.raises(InvalidConfigError):
            curve_point_count(phi_poly, 7, 0)

    @pytest.mark.parametrize("ell", [9, 15, 49])
    def test_composite_ell_rejected(self, quad_poly, ell):
        with pytest.raises(InvalidConfigError, match="prime"):
            curve_point_count(quad_poly, ell, 2)

    def test_quad_mod_11(self, quad_poly):
        rep = curve_point_count(quad_poly, 11, 3)
        assert rep.hasse_weil_bound == 30  # 11 + 1 + 3 * 2 * floor(2 sqrt 11) / 2
        assert rep.count <= 30

    def test_value_counts_keyed_on_f_and_ell(self, poly_panel):
        # two F alternate on one ell: a cache keyed on ell alone returns the
        # other polynomial's histogram
        phi_poly, _, quad_poly = poly_panel
        for _ in range(2):
            for ell in (7, 13):
                for F in (phi_poly, quad_poly):
                    want = Counter(F.eval_int(x) % ell for x in range(ell))
                    assert _value_counts(F, ell).tolist() == [want[u] for u in range(ell)]
                    pairs = Counter(a * b % ell for a in want.elements() for b in want.elements())
                    assert curve_point_count(F, ell, 2).count == pairs[2], (F, ell)

    def test_matches_pair_enumeration(self, poly_panel):
        for F in poly_panel + [IntPoly((3, -2, 0, 5, 1))]:
            for ell in primes_upto(31):
                ell = int(ell)
                vals = [F.eval_mod(x, ell) for x in range(ell)]
                pairs = Counter(fx * fy % ell for fx in vals for fy in vals)
                for w in range(1, ell):
                    assert curve_point_count(F, ell, w).count == pairs[w], (F, ell, w)
