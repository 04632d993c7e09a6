"""Integer polynomials: evaluation, the discriminant gate, admissibility."""

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wudlab.errors import InvalidConfigError
from wudlab.poly import (
    IntPoly,
    _counterexample_i,
    _counterexample_ii,
    admissible_primes,
    is_admissible_prime,
    parse_poly,
)

T = sympy.Symbol("T")


def _sympy_poly(coeffs):
    return sympy.Poly(list(reversed(coeffs)), T)


class TestEval:
    def test_quad_root_mod_5(self):
        assert IntPoly((1, 0, 1)).eval_mod(3, 5) == 0

    @pytest.mark.parametrize("q", [2, 5, 7, 35, 97])
    def test_linear_root(self, q):
        assert IntPoly((-1, 1)).eval_mod(1, q) == 0

    def test_shifted_product_at_root_shift(self):
        F = _counterexample_i(2)  # (T-2)(T-4) + 2
        assert F.coeffs == (10, -6, 1)
        assert F.eval_mod(2, 35) == 2

    def test_eval_int_matches_eval_mod(self):
        F = IntPoly((3, -2, 0, 5))
        for v in range(-10, 11):
            assert F.eval_int(v) % 97 == F.eval_mod(v, 97)

    def test_bad_modulus(self):
        with pytest.raises(InvalidConfigError):
            IntPoly((1, 1)).eval_mod(3, 0)

    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=6),
        st.integers(-1000, 1000),
        st.sampled_from([(5, 7), (9, 11), (16, 27), (25, 49)]),
    )
    @settings(max_examples=300)
    def test_crt_compatibility(self, coeffs, v, mods):
        if coeffs[-1] == 0:
            coeffs[-1] = 1
        F = IntPoly(tuple(coeffs))
        m1, m2 = mods
        assert F.eval_mod(v, m1 * m2) % m1 == F.eval_mod(v, m1)
        assert F.eval_mod(v, m1 * m2) % m2 == F.eval_mod(v, m2)

    @given(
        st.lists(st.integers(-2**70, 2**70), min_size=1, max_size=7),
        st.one_of(st.integers(1, 10**6), st.integers(1, 3 * 10**9)),
        st.lists(st.integers(0, 3 * 10**9), min_size=1, max_size=20),
    )
    @example([2**70 - 1] * 7, 3 * 10**9, [3 * 10**9 - 1, 2**31, 0])
    @example([1, 0, 1], 3 * 10**9 - 7, [3 * 10**9 - 8])
    @settings(max_examples=300)
    def test_residue_array_matches_exact(self, coeffs, m, vs):
        # huge coefficients must not wrap the int64 Horner intermediate, and
        # with m near 3*10^9 the lazy reduction must reduce before step 3
        if coeffs[-1] == 0:
            coeffs[-1] = 1
        F = IntPoly(tuple(coeffs))
        arr = np.array([v % m for v in vs], dtype=np.int64)
        expected = [F.eval_int(int(v)) % m for v in arr]
        assert F.eval_mod(arr, m).tolist() == expected
        assert [F.eval_mod(int(v), m) for v in arr] == expected

    # the loop runs in int32 exactly when (m - 1) m < 2^31, that is m <= 46341;
    # coefficients = -1 mod m and v = m - 1 put every step at its bound
    @given(
        st.lists(st.integers(-2**70, 2**70), min_size=1, max_size=7),
        st.one_of(st.sampled_from([46340, 46341, 46342]), st.integers(1, 10**6)),
        st.lists(st.integers(0, 10**6), min_size=1, max_size=20),
    )
    @example([-1] * 7, 46341, [46340, 46339, 0])
    @example([-1] * 7, 46342, [46341, 46340, 0])
    @example([-1] * 7, 1291, [1290])  # step 3 reaches 1290 (1290 * 1291 + 1) > 2^31
    @settings(max_examples=300)
    def test_width_boundary(self, coeffs, m, vs):
        if coeffs[-1] == 0:
            coeffs[-1] = 1
        F = IntPoly(tuple(coeffs))
        arr = np.array([v % m for v in vs], dtype=np.int64)
        got = F.eval_mod(arr, m)
        assert got.dtype == np.int64
        assert got.tolist() == [F.eval_int(int(v)) % m for v in arr]

    def test_derivative(self):
        assert IntPoly((1, 0, 1)).derivative.coeffs == (0, 2)
        assert IntPoly((5, -3, 0, 2)).derivative.coeffs == (-3, 0, 6)
        assert IntPoly((3,)).derivative is None


class TestDiscriminant:
    def test_quad(self):
        # disc of T * (T^2 + 1) = T^3 + T
        assert IntPoly((1, 0, 1)).delta == -4

    def test_linear_with_constant(self):
        # disc of T(T - 1) = T^2 - T is b^2 - 4ac = 1
        assert IntPoly((-1, 1)).delta == 1

    def test_zero_constant_term(self):
        # F(0) = 0, so delta = disc(F) directly; degree-1 disc is 1
        assert IntPoly((0, 1)).delta == 1

    def test_constant_rejected(self):
        with pytest.raises(InvalidConfigError):
            IntPoly((3,)).require_separable()

    @given(st.lists(st.integers(-20, 20), min_size=3, max_size=6))
    @settings(max_examples=150)
    def test_matches_sympy(self, coeffs):
        if coeffs[-1] == 0:
            coeffs[-1] = 1
        F = IntPoly(tuple(coeffs))
        c = list(coeffs)
        if c[0] != 0:
            c = [0] + c  # delta is the discriminant of T * F(T)
        assert F.delta == int(sympy.discriminant(_sympy_poly(c).as_expr(), T))

    @given(st.lists(st.integers(-20, 20), min_size=3, max_size=6))
    @settings(max_examples=100)
    def test_nonzero_iff_squarefree(self, coeffs):
        if coeffs[-1] == 0:
            coeffs[-1] = 1
        F = IntPoly(tuple(coeffs))
        c = list(coeffs)
        if c[0] != 0:
            c = [0] + c
        g = sympy.gcd(_sympy_poly(c), _sympy_poly(c).diff(T))
        assert (F.delta != 0) == (g.degree() == 0)

    def test_repeated_root_rejected(self):
        with pytest.raises(InvalidConfigError):
            IntPoly((1, -2, 1)).require_separable()  # (T-1)^2


class TestAdmissible:
    def test_linear_panel(self):
        primes = admissible_primes(IntPoly((-1, 1)), 20)
        assert isinstance(primes, list)
        assert primes == [3, 5, 7, 11, 13, 17, 19]

    def test_quad_panel(self):
        primes = admissible_primes(IntPoly((1, 0, 1)), 10)
        assert primes == [3, 5, 7]  # 2 excluded by parity and delta = -4

    def test_admissible_never_divides_delta(self, poly_panel):
        for F in poly_panel + [_counterexample_i(3), _counterexample_ii(3)]:
            primes = admissible_primes(F, 500)
            for ell in primes:
                assert F.delta % ell != 0
                assert F.leading % ell != 0

    def test_two_never_admissible(self, poly_panel):
        for F in poly_panel:
            assert not is_admissible_prime(F, 2)


class TestParse:
    def test_presets(self):
        assert parse_poly("phi").coeffs == (-1, 1)
        assert parse_poly("sigma").coeffs == (1, 1)
        assert parse_poly("counterexample-i D=2").coeffs == (10, -6, 1)
        assert parse_poly("counterexample-ii D=2").coeffs == (2, -2, 1)

    def test_coefficient_list(self):
        assert parse_poly("[1, 0, 1]").coeffs == (1, 0, 1)

    def test_counterexample_ii_is_shifted_power(self):
        # (T-1)^D + 1 expanded
        for D in (2, 3, 4):
            F = _counterexample_ii(D)
            got = [F.eval_int(v) for v in range(-3, 4)]
            assert got == [(v - 1) ** D + 1 for v in range(-3, 4)]

    def test_counterexample_i_values(self):
        F = _counterexample_i(3)
        for v in range(-3, 10):
            assert F.eval_int(v) == (v - 2) * (v - 4) * (v - 6) + 2

    @pytest.mark.parametrize("bad", ["", "T^2+1", "[1, x]", "[]",
                                     "counterexample-i D=x",
                                     "counterexample-i 2"])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(InvalidConfigError):
            parse_poly(bad)

    def test_zero_lead_rejected(self):
        with pytest.raises(InvalidConfigError):
            IntPoly((1, 0))

    def test_str_roundtrip_readable(self):
        assert str(IntPoly((-1, 1))) == "T - 1"
        assert str(IntPoly((1, 0, 1))) == "T^2 + 1"
