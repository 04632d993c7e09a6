"""Foundation layer: factorization, unit groups, the prime list."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wudlab import number_core
from wudlab.errors import GuardExceededError, InvalidConfigError
from wudlab.number_core import (
    FactoredModulus,
    factor,
    is_prime,
    primes_upto,
    unit_group,
)


class TestFactor:
    def test_360(self):
        fm = factor(360)
        assert fm.factors == ((2, 3), (3, 2), (5, 1))
        assert fm.phi == 96
        assert fm.omega == 3
        assert not fm.is_squarefree

    def test_one(self):
        fm = factor(1)
        assert fm.factors == ()
        assert fm.phi == 1
        assert fm.omega == 0
        assert fm.is_squarefree

    def test_large_prime(self):
        p = 10**9 + 7
        assert is_prime(p)
        assert factor(p).factors == ((p, 1),)

    def test_semiprime_above_trial_limit(self):
        p, r = 10**9 + 7, 10**9 + 9
        assert factor(p * r).factors == ((p, 1), (r, 1))

    def test_every_n_below_2e5(self):
        # against a smallest-prime-factor sieve, an oracle with no trial loop
        N = 2 * 10**5
        spf = np.zeros(N + 1, dtype=np.int64)
        for p in range(N, 1, -1):
            spf[p::p] = p
        for n in range(1, N + 1):
            want, m = Counter(), n
            while m > 1:
                want[int(spf[m])] += 1
                m //= int(spf[m])
            assert factor(n).factors == tuple(sorted(want.items())), n

    @pytest.mark.parametrize("p, r", [(1000003, 1000033), (1000003, 1000003),
                                      (1000037, 1000039), (999983, 1000003),
                                      (1000003, 10**15 + 37)])
    def test_semiprimes_past_trial_limit(self, p, r):
        # a cofactor left when the loop hits the trial limit needs Miller-Rabin
        want = ((p, 2),) if p == r else ((p, 1), (r, 1))
        assert factor(p * r).factors == want
        assert factor(6 * p * r).factors == ((2, 1), (3, 1), *want)

    @pytest.mark.parametrize("want", [
        ((1000003, 1), (1000033, 1), (1000037, 1)),
        ((1000003, 2), (1000033, 1)),
        ((1000003, 3),),
        ((3, 1), (1000037, 2), (10**9 + 7, 1)),
    ])
    def test_unbalanced_cofactors_past_trial_limit(self, want):
        # more than two primes, or a repeated one, left after trial division
        n = math.prod(ell**e for ell, e in want)
        assert factor(n).factors == want

    def test_cofactor_past_sqrt_is_prime_without_miller_rabin(self, monkeypatch):
        # the loop stopped at p * p > m, so the cofactor m is prime
        def no_test(n):
            raise AssertionError(f"is_prime({n}) called")

        monkeypatch.setattr(number_core, "is_prime", no_test)
        assert factor(2 * 3 * 999983).factors == ((2, 1), (3, 1), (999983, 1))
        assert factor(7**3 * 997).factors == ((7, 3), (997, 1))
        assert factor(49).factors == ((7, 2),)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidConfigError):
            factor(0)

    def test_phi_omega_roundtrip(self):
        # recomputing phi and omega from the factor list matches the fields
        for q in range(1, 20001):
            fm = factor(q)
            prod = math.prod(ell**e for ell, e in fm.factors)
            phi = math.prod(ell ** (e - 1) * (ell - 1) for ell, e in fm.factors)
            assert prod == q and phi == fm.phi and fm.omega == len(fm.factors)

    def test_inconsistent_fields_rejected(self):
        with pytest.raises(AssertionError):
            FactoredModulus(q=6, factors=((2, 1), (3, 1)), phi=3, omega=2)


class TestPrimes:
    def test_primes_upto(self):
        assert list(primes_upto(20)) == [2, 3, 5, 7, 11, 13, 17, 19]
        assert primes_upto(1).size == 0

    def test_primes_upto_guard(self):
        # refused before the sieve of n + 1 flags is allocated
        for n in (number_core.SIEVE_GUARD + 1, 10**10):
            with pytest.raises(GuardExceededError, match="sieve guard"):
                primes_upto(n)

    @given(st.integers(min_value=2, max_value=10**5))
    def test_is_prime_matches_trial_division(self, n):
        assert is_prime(n) == all(n % d for d in range(2, math.isqrt(n) + 1))


class TestUnitGroup:
    def test_mod_7(self):
        g = unit_group(7, 1)
        assert g.generator == 3
        assert g.phi == 6

    def test_identity_log(self):
        assert unit_group(5, 1).log(1) == 0

    def test_mod_9(self):
        g = unit_group(3, 2)
        assert g.generator == 2
        assert g.phi == 6
        assert g.log(4) == 2
        assert pow(g.generator, 2, g.modulus) == 4

    @pytest.mark.parametrize("ell,e", [(3, 1), (3, 4), (5, 3), (7, 2), (11, 2),
                                       (101, 1), (9973, 1)])
    def test_powers_enumerate_units_once(self, ell, e):
        g = unit_group(ell, e)
        m = ell**e
        seen = {pow(g.generator, k, m) for k in range(g.phi)}
        units = {u for u in range(m) if math.gcd(u, m) == 1}
        assert seen == units
        # log table is the inverse map
        for u in sorted(units)[:50]:
            assert pow(g.generator, g.log(u), g.modulus) == u
        assert np.count_nonzero(g.log_table >= 0) == g.phi

    def test_non_unit_log_rejected(self):
        with pytest.raises(InvalidConfigError):
            unit_group(5, 2).log(10)

    def test_even_prime_rejected(self):
        with pytest.raises(InvalidConfigError):
            unit_group(2, 3)

    def test_guard(self):
        with pytest.raises(GuardExceededError):
            unit_group(10**9 + 7, 2)
