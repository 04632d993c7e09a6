"""The segmented evaluator of f(n) mod q: prime-power rules, factor
statistics, the convenient split, and the additive functions A and A*."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wudlab.errors import GuardExceededError, InvalidConfigError
from wudlab.number_core import is_prime
from wudlab.poly import IntPoly
from wudlab.sieve import (
    DEFAULT_SEGMENT,
    FIELDS,
    MODULUS_GUARD,
    RULES,
    SIEVE_GUARD,
    FactorizationRecord,
    MultiplicativeSpec,
    additive_values,
    convenient_cutoff,
    f_mod,
    iter_segments,
    sieve_range,
)
from wudlab.sieve import _icbrt, _reduce_once


class TestRules:
    def test_euler_like_is_phi(self, phi_poly):
        spec = MultiplicativeSpec(F=phi_poly, rule="euler-like")
        assert f_mod(spec, 12, 5) == (4, True)  # phi(12) = 4

    def test_completely_multiplicative(self, phi_poly):
        spec = MultiplicativeSpec(F=phi_poly, rule="completely-multiplicative")
        assert f_mod(spec, 12, 5) == (2, True)  # f(2)^2 f(3) = 1 * 1 * 2

    def test_polynomial_at_prime_powers(self, quad_poly):
        spec = MultiplicativeSpec(F=quad_poly, rule="polynomial-at-prime-powers")
        assert f_mod(spec, 9, 7) == (82 % 7, True)  # F(9) = 82

    def test_custom_table(self, phi_poly):
        spec = MultiplicativeSpec(F=phi_poly, rule="custom-table",
                                  custom_table={(2, 2): 10})
        assert f_mod(spec, 12, 7) == (10 * 2 % 7, True)

    def test_custom_table_missing_entry_named(self, phi_poly):
        spec = MultiplicativeSpec(F=phi_poly, rule="custom-table",
                                  custom_table={})
        with pytest.raises(InvalidConfigError, match=r"\(2, 2\)"):
            f_mod(spec, 12, 7)

    def test_unknown_rule_rejected(self, phi_poly):
        with pytest.raises(InvalidConfigError):
            MultiplicativeSpec(F=phi_poly, rule="additive")

    def test_f_of_one_is_one(self, poly_panel):
        for F in poly_panel:
            for rule in ("completely-multiplicative",
                         "polynomial-at-prime-powers", "euler-like"):
                assert f_mod(MultiplicativeSpec(F=F, rule=rule), 1, 7) == (1, True)

    @given(st.sampled_from([2, 3, 5, 7, 11, 13, 89, 9973]),
           st.sampled_from(["completely-multiplicative",
                            "polynomial-at-prime-powers", "euler-like"]))
    def test_f_at_primes_is_F(self, p, rule):
        # the defining property f(p) = F(p) under every rule
        F = IntPoly((1, 0, 1))
        spec = MultiplicativeSpec(F=F, rule=rule)
        assert f_mod(spec, p, 97)[0] == F.eval_mod(p, 97)


class TestConvenientParams:
    """convenient_cutoff: the y of the convenient split, and its input checks."""

    def test_y_value(self):
        assert convenient_cutoff(10**6) == pytest.approx(math.exp(math.sqrt(math.log(10**6))))

    def test_bad_delta(self):
        with pytest.raises(InvalidConfigError):
            convenient_cutoff(10**6, delta=1.5)

    @pytest.mark.parametrize("x", [0, -5, 0.5])
    def test_x_below_one_rejected(self, x):
        with pytest.raises(InvalidConfigError, match="x must be >= 1"):
            convenient_cutoff(x)


class TestFactorizationRecord:
    def test_ordered_prime_factors(self):
        rec = FactorizationRecord.of(924)  # 2^2 * 3 * 7 * 11
        assert rec.Omega == 5
        assert [rec.P(k) for k in range(1, 7)] == [11, 7, 3, 2, 2, 1]

    def test_convenient_example(self):
        assert FactorizationRecord.of(924).is_convenient(5.0)  # 11 > 5, 11 != 7
        assert not FactorizationRecord.of(924).is_convenient(11.0)  # 11 = y
        assert not FactorizationRecord.of(49).is_convenient(5.0)  # 7 = 7

    @given(st.integers(min_value=2, max_value=10**6))
    @settings(max_examples=200)
    def test_pk_nonincreasing(self, n):
        rec = FactorizationRecord.of(n)
        ps = [rec.P(k) for k in range(1, rec.Omega + 2)]
        assert all(a >= b for a, b in zip(ps, ps[1:]))
        assert ps[-1] == 1  # P_k = 1 past Omega
        assert math.prod(ps[:-1]) == math.prod(
            p**e for p, e in rec.prime_powers)


class TestAdditive:
    def test_n12(self):
        assert additive_values(12, 1000) == (7, 3)  # 3+2+2 and 3-2+2

    def test_n360_mod_7(self):
        assert additive_values(360, 7) == (3, 3)  # A = 17, A* = 5-3+3-2+2-2

    def test_prime(self):
        for p in (2, 13, 9973):
            assert additive_values(p, 10**5) == (p, p)

    def test_one(self):
        assert additive_values(1, 7) == (0, 0)

    @given(st.integers(min_value=1, max_value=10**5))
    @settings(max_examples=200)
    def test_same_parity(self, n):
        a, astar = FactorizationRecord.of(n).additive_sums()
        assert (a - astar) % 2 == 0


class TestSegments:
    def test_matches_per_n_reference(self, phi_poly):
        q = 35
        spec = MultiplicativeSpec(F=phi_poly)
        lo, hi = 1, 5000
        for seg in iter_segments(spec, lo, hi, q):
            for i in range(seg.hi - seg.lo):
                n = seg.lo + i
                rec = FactorizationRecord.of(n)
                val, cop = f_mod(spec, n, q)
                assert int(seg.fmod[i]) == val
                assert bool(seg.coprime[i]) == cop
                assert int(seg.Omega[i]) == rec.Omega
                a, astar = rec.additive_sums()
                assert int(seg.A[i]) == a
                assert int(seg.Astar[i]) == astar
                assert int(seg.P(1)[i]) == rec.P(1)
                assert int(seg.P(2)[i]) == rec.P(2)

    @pytest.mark.parametrize("rule", ["completely-multiplicative",
                                      "polynomial-at-prime-powers"])
    def test_other_rules_match_reference(self, quad_poly, rule):
        spec = MultiplicativeSpec(F=quad_poly, rule=rule)
        for seg in iter_segments(spec, 1, 2000, 13):
            for i in range(seg.hi - seg.lo):
                assert int(seg.fmod[i]) == f_mod(spec, seg.lo + i, 13)[0]

    def test_high_window(self, phi_poly):
        spec = MultiplicativeSpec(F=phi_poly)
        lo = 10**6 + 1
        for seg in iter_segments(spec, lo, lo + 400, 11):
            for i in range(seg.hi - seg.lo):
                assert int(seg.fmod[i]) == f_mod(spec, seg.lo + i, 11)[0]

    def test_segmentation_invariance(self, phi_poly):
        spec = MultiplicativeSpec(F=phi_poly)
        runs = []
        for size in (997, 1 << 13, 30000):
            parts = list(iter_segments(spec, 1, 30000, 7, segment_size=size))
            runs.append({
                "fmod": np.concatenate([s.fmod for s in parts]),
                "A": np.concatenate([s.A for s in parts]),
                "Astar": np.concatenate([s.Astar for s in parts]),
                "P1": np.concatenate([s.P(1) for s in parts]),
            })
        for other in runs[1:]:
            for key in runs[0]:
                assert np.array_equal(runs[0][key], other[key])

    def test_parity_identity_to_1e6(self, phi_poly):
        # A(n) and A*(n) always share parity
        spec = MultiplicativeSpec(F=phi_poly)
        for seg in iter_segments(spec, 1, 10**6, 3):
            assert not np.any((seg.A - seg.Astar) % 2)

    def test_guards(self, phi_poly):
        spec = MultiplicativeSpec(F=phi_poly)
        with pytest.raises(GuardExceededError):
            next(iter_segments(spec, 1, 10**9, 5))
        with pytest.raises(InvalidConfigError):
            next(iter_segments(spec, 0, 100, 5))
        seg = next(iter_segments(spec, 1, 100, 5, k_slots=2))
        with pytest.raises(GuardExceededError):
            seg.P(3)
        for size in (0, -4):
            with pytest.raises(InvalidConfigError, match="segment size"):
                next(iter_segments(spec, 1, 100, 5, segment_size=size))
        with pytest.raises(InvalidConfigError, match="fields"):
            next(iter_segments(spec, 1, 100, 5, fields=("fmod", "P1")))

    def test_modulus_guard(self, phi_poly):
        # checked before the O(q) coprime table is built
        spec = MultiplicativeSpec(F=phi_poly)
        with pytest.raises(GuardExceededError, match="modulus guard"):
            next(iter_segments(spec, 1, 100, MODULUS_GUARD + 1))
        with pytest.raises(InvalidConfigError):
            next(iter_segments(spec, 1, 100, 0))
        assert MODULUS_GUARD**2 < 2**63  # products of two residues fit int64

    def test_custom_table_grows_on_demand(self, phi_poly):
        # the table for p = 2 is extended when a segment first holds 2^3,
        # and the missing entry is named there, as the per-n path names it
        spec = MultiplicativeSpec(F=phi_poly, rule="custom-table",
                                  custom_table={(2, 2): 3})
        segs = iter_segments(spec, 1, 10, 7, segment_size=4)
        assert next(segs).fmod[3] == 3  # n = 4
        with pytest.raises(InvalidConfigError, match=r"\(2, 3\)"):
            next(segs)
        with pytest.raises(InvalidConfigError, match=r"\(2, 3\)"):
            f_mod(spec, 8, 7)


class TestReduction:
    def test_bound_boundary(self):
        # omega = 8 at 10^8 (2*3*...*19 <= 10^8 < 2*3*...*23): 234^8 < 2^63 <= 235^8
        assert _reduce_once(235, 10**8)
        assert not _reduce_once(236, 10**8)
        # omega = 7 at 2*10^6: 511^7 < 2^63 = 512^7
        assert _reduce_once(512, 2 * 10**6)
        assert not _reduce_once(513, 2 * 10**6)
        assert _reduce_once(MODULUS_GUARD, 1)  # n = 1 has no prime factor

    def test_dtypes(self, phi_poly):
        # int32 holds n, smooth, the slots, Omega, A and A* below the guard
        assert SIEVE_GUARD < 2**31
        seg = next(iter_segments(MultiplicativeSpec(F=phi_poly), 1, 100, 5))
        assert seg.fmod.dtype == np.int64

    @pytest.mark.parametrize("q, rule", [
        (1, "euler-like"), (5, "euler-like"), (5, "polynomial-at-prime-powers"),
        (235, "euler-like"), (235, "polynomial-at-prime-powers"),
        (236, "euler-like"), (236, "polynomial-at-prime-powers"),
        (999983, "polynomial-at-prime-powers"), (10**6, "euler-like"),
    ])
    def test_near_guard_matches_reference(self, phi_poly, q, rule):
        # hi = 10^8 puts q <= 235 on the reduce-once path and q >= 236 on the
        # per-prime one; T^2 + 123457 has large residues at small primes, so an
        # unreduced product of four of them would pass 2^63 for q near 10^6
        F = phi_poly if rule == "euler-like" else IntPoly((123457, 0, 1))
        spec = MultiplicativeSpec(F=F, rule=rule)
        for seg in iter_segments(spec, SIEVE_GUARD - 150, SIEVE_GUARD, q, k_slots=3,
                                 segment_size=64):
            for i, n in enumerate(range(seg.lo, seg.hi)):
                rec = FactorizationRecord.of(n)
                assert (int(seg.fmod[i]), bool(seg.coprime[i])) == f_mod(spec, n, q)
                assert int(seg.Omega[i]) == rec.Omega
                assert (int(seg.A[i]), int(seg.Astar[i])) == rec.additive_sums()
                assert [int(v) for v in seg.slots[:, i]] == [
                    rec.P(k) if k <= rec.Omega else 0 for k in (1, 2, 3)]


# n near prime powers, so that ranges straddle the edges of p^k views
_ANCHORS = sorted({p**k for p in (2, 3, 5, 7, 11, 13) for k in range(1, 13)
                   if p**k <= 5000})


@st.composite
def _kernel_cases(draw):
    degree = draw(st.integers(1, 4))
    # some coefficients far beyond int64, which must not wrap the evaluation
    coeffs = draw(st.lists(st.integers(-30, 30) | st.integers(-2**70, 2**70),
                           min_size=degree, max_size=degree))
    coeffs.append(draw(st.integers(-5, 5).filter(bool)))
    rule = draw(st.sampled_from(RULES))
    lo = max(1, draw(st.sampled_from(_ANCHORS)) + draw(st.integers(-40, 40)))
    hi = lo + draw(st.integers(0, 250))
    table = None
    if rule == "custom-table":
        rnd = draw(st.randoms(use_true_random=False))
        table = {(p, e): rnd.randrange(-10**6, 10**6)
                 for p in range(2, math.isqrt(hi) + 1) if is_prime(p)
                 for e in range(2, hi.bit_length())}
    spec = MultiplicativeSpec(F=IntPoly(tuple(coeffs)), rule=rule, custom_table=table)
    q = draw(st.sampled_from([1, 2, 3, 4, 5, 8, 9, 25, 27, 49, 121,  # 1, 2, prime powers
                              6, 12, 35, 60, 105, 1001]))            # composites
    k_slots = draw(st.integers(0, 5))
    segment_size = draw(st.integers(1, 64) | st.sampled_from([97, 128, 256]))
    return spec, lo, hi, q, k_slots, segment_size


class TestKernelProperty:
    @given(_kernel_cases(), st.lists(st.sampled_from(FIELDS), unique=True))
    @settings(max_examples=80, deadline=None)
    def test_matches_per_n_reference(self, case, fields):
        spec, lo, hi, q, k_slots, segment_size = case
        full = list(iter_segments(spec, lo, hi, q, k_slots=k_slots,
                                  segment_size=segment_size))
        lean = list(iter_segments(spec, lo, hi, q, k_slots=k_slots,
                                  segment_size=segment_size, fields=tuple(fields)))
        assert [s.lo for s in full] == list(range(lo, hi + 1, segment_size))
        assert len(lean) == len(full)
        asked = {*fields, "slots"} | ({"coprime"} if "fmod" in fields else set())
        for seg, lean_seg in zip(full, lean):
            for key in ("fmod", "coprime", "Omega", "A", "Astar", "slots"):
                if key in asked:
                    assert np.array_equal(getattr(seg, key), getattr(lean_seg, key))
                else:
                    assert getattr(lean_seg, key) is None
            for i, n in enumerate(range(seg.lo, seg.hi)):
                rec = FactorizationRecord.of(n)
                assert (int(seg.fmod[i]), bool(seg.coprime[i])) == f_mod(spec, n, q)
                assert int(seg.Omega[i]) == rec.Omega
                assert (int(seg.A[i]), int(seg.Astar[i])) == rec.additive_sums()
                assert [int(v) for v in seg.slots[:, i]] == [
                    rec.P(k) if k <= rec.Omega else 0 for k in range(1, k_slots + 1)]


class TestRecordStream:
    def test_records(self, phi_poly):
        spec = MultiplicativeSpec(F=phi_poly)
        recs = {r["n"]: r for r in sieve_range(spec, 1, 1000, 5, 10.0)}
        assert len(recs) == 1000
        r924 = recs[924]
        assert (r924["P1"], r924["P2"]) == (11, 7)
        assert r924["convenient"]  # P_1 = 11 > y with P_1 != P_2
        assert not recs[49]["convenient"]  # P_1 = P_2 = 7 repeated
        assert recs[13]["f_mod_q"] == 12 % 5

    def test_record_guard(self, phi_poly):
        spec = MultiplicativeSpec(F=phi_poly)
        with pytest.raises(GuardExceededError):
            next(sieve_range(spec, 1, 2 * 10**6, 5, 10.0))

    def test_convenient_census_matches_reference(self, phi_poly):
        spec = MultiplicativeSpec(F=phi_poly)
        y = convenient_cutoff(20000)
        for seg in iter_segments(spec, 1, 20000, 5, k_slots=2):
            flags = seg.convenient(y)
            for i in range(0, seg.hi - seg.lo, 7):
                rec = FactorizationRecord.of(seg.lo + i)
                assert bool(flags[i]) == rec.is_convenient(y)


def _near_split(x: int) -> list[int]:
    """The four smallest primes above icbrt(x - 1) and the four largest at
    most isqrt(x - 1): the ends of the marked band of a segment ending at x."""
    cube, root = _icbrt(x - 1), math.isqrt(x - 1)
    above = itertools.islice(filter(is_prime, itertools.count(cube + 1)), 4)
    below = itertools.islice(filter(is_prime, range(root, 1, -1)), 4)
    return sorted({*above, *below})


@st.composite
def _split_cases(draw):
    x = draw(st.integers(10**3, SIEVE_GUARD - 200))
    near = _near_split(x)
    p, p2 = sorted(draw(st.sampled_from(near)) for _ in range(2))
    # the multiple of p p' (p^2 when p = p') just below x, or a prime cube,
    # where cbrt(hi - 1) steps past a prime
    anchors = [x // (p * p2) * p * p2,
               *(c**3 for c in near if 1000 < c**3 < SIEVE_GUARD - 200)]
    lo = max(1, draw(st.sampled_from(anchors)) + draw(st.integers(-40, 40)))
    hi = lo + draw(st.integers(0, 80))
    coeffs = draw(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=3))
    coeffs.append(draw(st.integers(-5, 5).filter(bool)))
    rule = draw(st.sampled_from(RULES))
    table = None
    if rule == "custom-table":
        rnd = draw(st.randoms(use_true_random=False))
        table = {(r, e): rnd.randrange(-10**6, 10**6)
                 for r in range(2, math.isqrt(hi) + 1) if is_prime(r)
                 for e in range(2, hi.bit_length()) if r**e <= hi}
    spec = MultiplicativeSpec(F=IntPoly(tuple(coeffs)), rule=rule, custom_table=table)
    # reduced once (q <= 235 up to 10^8) or after every prime (q >= 236 past
    # 2*10^6); a prime q of the band has F(q) = F(0) mod q on the last pass
    q = draw(st.sampled_from([1, 2, 5, 25, 235, 236, 1001, 999983, 10**6])
             | st.sampled_from(near))
    return spec, lo, hi, q


class TestCubeRootSplit:
    """Every n < hi has at most two prime factors above icbrt(hi - 1); the
    primes up to there run the strided views, the primes up to isqrt(hi - 1)
    only mark n, and one whole-array pass takes the last two factors."""

    def test_icbrt(self):
        for n in [*range(1, 5000), *(c**3 + d for c in range(17, 470) for d in (-1, 0, 1))]:
            b = _icbrt(n)
            assert b**3 <= n < (b + 1) ** 3

    @given(_split_cases(), st.lists(st.sampled_from(FIELDS), unique=True),
           st.integers(0, 4), st.integers(1, 64))
    @settings(max_examples=50, deadline=None)
    def test_matches_per_n_reference(self, case, fields, k_slots, segment_size):
        spec, lo, hi, q = case
        segs = list(iter_segments(spec, lo, hi, q, k_slots=k_slots,
                                  segment_size=segment_size, fields=tuple(fields)))
        assert [s.lo for s in segs] == list(range(lo, hi + 1, segment_size))
        for seg in segs:
            for key in FIELDS:
                assert (getattr(seg, key) is None) == (key not in fields)
            assert (seg.coprime is None) == ("fmod" not in fields)
            for i, n in enumerate(range(seg.lo, seg.hi)):
                rec = FactorizationRecord.of(n)
                if "fmod" in fields:
                    assert (int(seg.fmod[i]), bool(seg.coprime[i])) == f_mod(spec, n, q)
                if "Omega" in fields:
                    assert int(seg.Omega[i]) == rec.Omega
                if "A" in fields:
                    assert int(seg.A[i]) == rec.additive_sums()[0]
                if "Astar" in fields:
                    assert int(seg.Astar[i]) == rec.additive_sums()[1]
                assert [int(v) for v in seg.slots[:, i]] == [
                    rec.P(k) if k <= rec.Omega else 0 for k in range(1, k_slots + 1)]

    @pytest.mark.parametrize("q", [101, 103, 997])
    def test_prime_modulus_in_band(self, q):
        # at 10^6 the band is (99, 999]: a prime q there meets itself as one of
        # the last two factors, where its residue is 0 mod q
        spec = MultiplicativeSpec(F=IntPoly((7, 3, 1)), rule="polynomial-at-prime-powers")
        lo = 10**6 - 400
        for seg in iter_segments(spec, lo, 10**6 - 1, q, k_slots=3, segment_size=128):
            for i, n in enumerate(range(seg.lo, seg.hi)):
                assert (int(seg.fmod[i]), bool(seg.coprime[i])) == f_mod(spec, n, q)
        assert any(n % q == 0 for n in range(lo, 10**6))

    def test_custom_table_missing_square_in_band_named(self, phi_poly):
        # 101 > icbrt(10300) = 21, so 101^2 = 10201 is met on the last pass
        table = {(p, e): 1 for p in range(2, 102) if is_prime(p) for e in range(2, 15)}
        del table[(101, 2)]
        spec = MultiplicativeSpec(F=phi_poly, rule="custom-table", custom_table=table)
        assert list(iter_segments(spec, 10202, 10300, 7))  # no multiple of 101^2
        with pytest.raises(InvalidConfigError, match=r"\(101, 2\)"):
            list(iter_segments(spec, 10150, 10300, 7))


OUTPUTS = ("fmod", "coprime", "Omega", "A", "Astar", "slots")


class TestStep:
    """A stepped kernel sieves the n = lo, lo + step, ... <= hi; at each of
    them it gives what the unit-step kernel gives."""

    @staticmethod
    def _fields(segs):
        segs = list(segs)
        return {key: np.concatenate([getattr(s, key) for s in segs], axis=-1)
                for key in OUTPUTS}

    # odd lo near 1, 8*10^6 and 10^8; each range holds at least two segments
    # of odd n, and n = 10^8 itself is even
    @pytest.mark.parametrize("size", [1, 7, 4099, 1 << 15])
    @pytest.mark.parametrize("lo", [1, 8 * 10**6 - 1001, SIEVE_GUARD - 3 * 10**5 - 1])
    @pytest.mark.parametrize("q", [5, 999983])  # reduced once, after every prime
    def test_odd_n_equal_unit_step(self, quad_poly, lo, size, q):
        spec = MultiplicativeSpec(F=quad_poly)
        hi = min(lo + max(4 * size, 600), SIEVE_GUARD)
        odd = list(iter_segments(spec, lo, hi, q, k_slots=3, segment_size=size, step=2))
        count = (hi - lo) // 2 + 1
        assert [(s.lo, s.hi, s.step) for s in odd] == [
            (lo + 2 * i, lo + 2 * min(i + size, count), 2) for i in range(0, count, size)]
        want = self._fields(iter_segments(spec, lo, hi, q, k_slots=3,
                                          segment_size=1 << 15))
        got = self._fields(odd)
        for key in OUTPUTS:
            assert got[key].dtype == want[key].dtype
            assert np.array_equal(got[key], want[key][..., ::2])

    @pytest.mark.parametrize("step", [3, 6, 35, 210])
    def test_other_steps_equal_unit_step(self, phi_poly, step):
        spec = MultiplicativeSpec(F=phi_poly, rule="completely-multiplicative")
        lo, hi = 8 * 10**6 + 11, 8 * 10**6 + 3000  # gcd(lo, 210) = 1
        stepped = self._fields(iter_segments(spec, lo, hi, 35, k_slots=3,
                                             segment_size=97, step=step))
        unit = self._fields(iter_segments(spec, lo, hi, 35, k_slots=3))
        for key in OUTPUTS:
            assert np.array_equal(stepped[key], unit[key][..., ::step])

    @pytest.mark.parametrize("lo, step", [(2, 2), (10**6, 2), (9, 3), (1, 0)])
    def test_lo_not_coprime_to_step_rejected(self, phi_poly, lo, step):
        with pytest.raises(InvalidConfigError, match="step"):
            next(iter_segments(MultiplicativeSpec(F=phi_poly), lo, lo + 100, 5, step=step))


REUSE_CASES = [(1, 700, 64), (8 * 10**6 - 300, 8 * 10**6 + 300, 128),
               (SIEVE_GUARD - 500, SIEVE_GUARD, 97)]


class TestScratchReuse:
    """The working arrays are reused by every segment of one iter_segments
    call; what a segment returns is its own."""

    @pytest.mark.parametrize("lo, hi, size", REUSE_CASES)
    def test_segments_share_no_memory(self, phi_poly, lo, hi, size):
        segs = list(iter_segments(MultiplicativeSpec(F=phi_poly), lo, hi, 35, k_slots=3,
                                  segment_size=size))
        assert len(segs) > 3
        for a, b in itertools.combinations(segs, 2):
            for x, y in itertools.product(OUTPUTS, repeat=2):
                assert not np.shares_memory(getattr(a, x), getattr(b, y))

    @pytest.mark.parametrize("lo, hi, size", REUSE_CASES)
    @pytest.mark.parametrize("rule", ["euler-like", "completely-multiplicative"])
    def test_list_equals_fresh_calls(self, quad_poly, lo, hi, size, rule):
        spec = MultiplicativeSpec(F=quad_poly, rule=rule)
        for seg in list(iter_segments(spec, lo, hi, 25, k_slots=3, segment_size=size)):
            fresh, = iter_segments(spec, seg.lo, seg.hi - 1, 25, k_slots=3,
                                   segment_size=size)
            for key in OUTPUTS:
                want, got = getattr(fresh, key), getattr(seg, key)
                assert got.dtype == want.dtype and np.array_equal(got, want)


class TestSegmentMemory:
    """Sieving a long range costs one segment's working set, whatever its
    length, since the working arrays are allocated once per call."""

    L2 = 2 * 2**20         # the cache DEFAULT_SEGMENT is sized for
    WORKING = 54           # bytes per n of a segment with fmod and 2 slots
    HELD = 8 + 1 + 2 * 4   # bytes per n of its outputs: fmod, coprime, 2 slots

    @staticmethod
    def _census(phi_poly, hi):
        spec = MultiplicativeSpec(F=phi_poly)
        list(iter_segments(spec, 1, 100, 5))  # build the per-process caches
        tracemalloc.start()
        try:
            segs = iter_segments(spec, 1, hi, 5, k_slots=2, fields=("fmod",))
            seg = next(segs)
            size, current = seg.hi - seg.lo, tracemalloc.get_traced_memory()[0]
            for seg in segs:  # holds one segment while the next is sieved
                pass
            return size, current, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_working_set_fits_l2(self, phi_poly):
        assert self.WORKING * DEFAULT_SEGMENT <= self.L2
        size, current, _ = self._census(phi_poly, 2 * 10**6)
        assert size == DEFAULT_SEGMENT
        # the scratch and the first segment's outputs, plus the small tables
        assert current <= self.WORKING * DEFAULT_SEGMENT + 2**16

    def test_peak_is_one_segment_plus_one_held(self, phi_poly):
        _, _, peak = self._census(phi_poly, 2 * 10**6)
        assert peak < self.L2 + self.HELD * DEFAULT_SEGMENT
