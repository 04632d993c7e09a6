"""Integer polynomials: evaluation, separability, admissibility, parsing."""

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


def _delta(F):
    """delta from sympy: disc(F) when F(0) = 0, else disc(T * F(T))."""
    c = list(F.coeffs) if F.coeffs[0] == 0 else [0, *F.coeffs]
    return int(sympy.discriminant(_sympy_poly(c).as_expr(), T))


@st.composite
def _polys(draw):
    """F of degree 1..8: plain, g^2 h (so disc(F) = 0), or T times one (F(0) = 0)."""
    def coeffs(lo, hi):
        c = draw(st.lists(st.integers(-20, 20), min_size=lo + 1, max_size=hi + 1))
        return c[:-1] + [c[-1] or 1]

    kind = draw(st.sampled_from(["plain", "plain", "square", "times-T"]))
    if kind == "square":
        g = coeffs(1, 3)
        h = coeffs(0, 8 - 2 * (len(g) - 1))
        c = [int(v) for v in reversed((_sympy_poly(g) ** 2 * _sympy_poly(h)).all_coeffs())]
    else:
        c = coeffs(1, 8) if kind == "plain" else [0] + coeffs(0, 7)
    return IntPoly(tuple(c))


PRIMES_BELOW_500 = [p for p in range(2, 500) if sympy.isprime(p)]


class TestDiscriminant:
    """Admissibility and separability, decided mod primes, against sympy's delta."""

    def test_quad(self):
        # delta = disc(T^3 + T) = -4: every odd prime is admissible
        F = IntPoly((1, 0, 1))
        assert [p for p in PRIMES_BELOW_500 if not is_admissible_prime(F, p)] == [2]

    def test_linear_with_constant(self):
        # delta = disc(T^2 - T) = 1
        F = IntPoly((-1, 1)).require_separable()
        assert all(is_admissible_prime(F, p) for p in PRIMES_BELOW_500[1:])

    def test_zero_constant_term(self):
        # F(0) = 0, so delta = disc(F): 1 for T, 9 for T^2 - 3T
        assert all(is_admissible_prime(IntPoly((0, 1)), p) for p in PRIMES_BELOW_500[1:])
        F = IntPoly((0, -3, 1))
        assert [p for p in PRIMES_BELOW_500 if not is_admissible_prime(F, p)] == [2, 3]

    def test_constant_rejected(self):
        with pytest.raises(InvalidConfigError):
            IntPoly((3,)).require_separable()

    @given(_polys())
    @example(IntPoly((1, -2, 1)))  # (T - 1)^2
    @example(IntPoly((0, 0, 3)))  # 3 T^2
    @example(IntPoly((5, 0, 0, 0, 0, 1)))  # T^5 + 5: its derivative vanishes mod 5
    @settings(max_examples=150, deadline=None)
    def test_matches_sympy(self, F):
        delta = _delta(F)
        for ell in PRIMES_BELOW_500:
            assert is_admissible_prime(F, ell) == (
                ell != 2 and F.leading % ell != 0 and delta % ell != 0), ell

    @given(_polys())
    @example(IntPoly((1, -2, 1)))
    @example(IntPoly((0, 0, 3)))
    @settings(max_examples=150, deadline=None)
    def test_nonzero_iff_squarefree(self, F):
        if _delta(F) != 0:
            assert F.require_separable() is F
        else:
            with pytest.raises(InvalidConfigError, match="repeated roots"):
                F.require_separable()

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
            delta = _delta(F)
            for ell in primes:
                assert delta % ell != 0
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

    @pytest.mark.parametrize("spec, message", [
        ("[1, -2, 1]", "repeated roots"), ("[0, 0, 1]", "repeated roots"),
        ("[3]", "nonconstant"),
    ], ids=["square", "T-squared", "constant"])
    def test_every_spec_is_checked(self, spec, message):
        # parse_poly is where every input polynomial is checked
        with pytest.raises(InvalidConfigError, match=message):
            parse_poly(spec)

    def test_str_roundtrip_readable(self):
        assert str(IntPoly((-1, 1))) == "T - 1"
        assert str(IntPoly((1, 0, 1))) == "T^2 + 1"
