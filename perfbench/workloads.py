"""The benchmark's workloads: fixed timed inputs, seeded check samples and
tuple targets, and the checks that compare every timed output with an
independent reference.

dist      the phi census: a q=5 ladder of checkpoints in one pass, then q=3,
          then counterexample-ii (D=2, q1=5, so q=25).
additive  A(n) and A*(n) mod 4, and restricted-a (phi, q=35, filters none
          and pD2-rough, 3 slots).
local     exact local counts with no sieve: Hensel root counts, alpha, Z_chi
          for every character mod 3^8, curve counts, a V'' ladder over the
          brute, character and linear methods, and inclusion-exclusion.

The seed chooses only the check samples and the tuple targets w; what is
timed is the same for every seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable

from wudlab import characters, density, lab, number_core, poly, sieve, tuples

import oracles

X_SIEVE = 2_000_000
LADDER = (10**4, 10**5, 10**6, X_SIEVE)
WINDOWS, WINDOW = 24, 8  # sampled runs of consecutive n checked per sieve op

QUAD = poly.IntPoly((1, 0, 1))
PHI = poly.parse_poly("phi")
HENSEL_LIMIT = 20_000    # admissible odd prime powers ell^e <= this
ALPHA_LIMIT = 10**4      # odd q <= this
ZCHI_MODULUS = (3, 8)
CURVE_LIMIT = 200        # odd primes ell < this, every unit w
INCEX = (3, 7, 4)        # ell, e, J
ALPHA_SAMPLE = 48        # seeded alpha values checked against the direct count

# (method, F, q, J); every character case has phi(q) <= 1008, so an exact
# method would cost milliseconds per case.
TUPLE_CASES = (
    *(("brute", QUAD, q, J) for q, J in ((5, 8), (7, 8), (11, 6), (13, 6), (19, 5),
                                         (25, 4), (35, 4), (49, 4))),
    *(("character", QUAD, q, J) for q, J in (
        (343, 3), (343, 6), (121, 4), (121, 8), (101, 8), (169, 6), (35, 6), (63, 5),
        *((729, J) for J in range(2, 6)), *((625, J) for J in range(2, 6)),
        *((211, J) for J in range(2, 9)), *((1009, J) for J in range(2, 7)))),
    *(("linear", PHI, q, J) for q, J in ((3**7, 8), (5**4, 6), (7**3, 5), (1009, 8), (35, 6))),
)

# Operations that fail at the seed: the character method rounds a float FFT
# (ROADMAP item 3a). They stay in the timed ladder and count as failed. A
# failure of any other operation, or of another kind, makes a run incorrect.
KNOWN_DEFECTS = {
    "tuples/character/q729/J5": "ConsistencyError",
    "tuples/character/q625/J5": "ConsistencyError",
    "tuples/character/q211/J6": "ConsistencyError",
    "tuples/character/q211/J7": "ConsistencyError",
    "tuples/character/q211/J8": "wrong",
    "tuples/character/q1009/J5": "ConsistencyError",
    "tuples/character/q1009/J6": "ConsistencyError",
}

DIGESTS_FILE = Path(__file__).with_name("expected_digests.json")


@dataclass
class Op:
    """One timed operation and the check of its output (problems found)."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    n_sieved: int  # integers sieved per repetition; 0 when the sieve is unused


def report_digest(rep) -> str:
    """Digest of the exact counts of a distribution or additive report."""
    if hasattr(rep, "class_counts"):
        key = {"scenario": rep.scenario, "x": rep.x, "q": rep.q, "filter": rep.filter,
               "class_counts": sorted(rep.class_counts.items()),
               "n_coprime": rep.n_coprime, "n_con": rep.n_con, "n_inc": rep.n_inc,
               "alpha": [rep.alpha.numerator, rep.alpha.denominator]}
    else:
        key = {"scenario": rep.scenario, "x": rep.x, "q": rep.q,
               "counts_a": sorted(rep.counts_a.items()),
               "counts_astar": sorted(rep.counts_astar.items())}
    return hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()[:16]


@lru_cache(maxsize=1)
def expected_digests() -> dict[str, list[str]]:
    return json.loads(DIGESTS_FILE.read_text())


def _units(q: int) -> list[int]:
    return [u for u in range(1, q) if math.gcd(u, q) == 1]


# --------------------------------------------------------------------------
# sieve workloads

def _window_problems(spec, q: int, lo: int, k_slots: int, fields: tuple[str, ...]) -> list[str]:
    """Kernel values on [lo, lo + WINDOW) against the per-n reference path."""
    problems = []
    for seg in sieve.iter_segments(spec, lo, lo + WINDOW - 1, q, k_slots=k_slots):
        for i, n in enumerate(range(seg.lo, seg.hi)):
            got, want = [], []
            if "fmod" in fields:
                got += [int(seg.fmod[i]), bool(seg.coprime[i])]
                want += list(sieve.f_mod(spec, n, q))
            if "additive" in fields:
                got += [int(seg.A[i]) % q, int(seg.Astar[i]) % q]
                want += list(sieve.additive_values(n, q))
            if "slots" in fields:
                record = sieve.FactorizationRecord.of(n)
                got += [int(seg.P(k)[i]) for k in range(1, k_slots + 1)]
                want += [record.P(k) for k in range(1, k_slots + 1)]
            if got != want:
                problems.append(f"n={n}: kernel {got} != reference {want}")
    return problems


def _sieve_op(name: str, run, rng: random.Random, spec, q: int,
              fields: tuple[str, ...], k_slots: int = 2) -> Op:
    starts = sorted(rng.sample(range(1, X_SIEVE - WINDOW + 2), WINDOWS))

    def check(reports) -> list[str]:
        problems = []
        got = [report_digest(r) for r in reports]
        want = expected_digests().get(name)
        if got != want:
            problems.append(f"count digests {got} != recorded {want}")
        for lo in starts:
            problems += _window_problems(spec, q, lo, k_slots, fields)
        return problems

    return Op(name, run, check)


def _dist(rng: random.Random) -> Workload:
    phi = sieve.MultiplicativeSpec(F=PHI)
    cex = sieve.MultiplicativeSpec(F=poly.parse_poly("counterexample-ii D=2"),
                                   rule="completely-multiplicative")
    ops = [
        _sieve_op("dist/phi/q5-ladder",
                  lambda: lab.run_distribution_multi(phi, 5, LADDER), rng, phi, 5, ("fmod",)),
        _sieve_op("dist/phi/q3",
                  lambda: [lab.run_distribution(phi, 3, X_SIEVE)], rng, phi, 3, ("fmod",)),
        _sieve_op("dist/counterexample-ii/q25",
                  lambda: list(lab.run_scenario("counterexample-ii", D=2, q1=5,
                                                x=X_SIEVE).reports),
                  rng, cex, 25, ("fmod",)),
    ]
    return Workload("dist", ops, 3 * X_SIEVE)


def _additive(rng: random.Random) -> Workload:
    phi = sieve.MultiplicativeSpec(F=PHI)
    ops = [
        _sieve_op("additive/q4", lambda: [lab.run_additive(4, X_SIEVE)],
                  rng, phi, 4, ("additive",)),
        _sieve_op("additive/restricted-a/q35",
                  lambda: list(lab.run_scenario("restricted-a", poly="phi", q=35,
                                                x=X_SIEVE).reports),
                  rng, phi, 35, ("fmod", "slots"), k_slots=3),
    ]
    return Workload("additive", ops, 2 * X_SIEVE)


# --------------------------------------------------------------------------
# local workload

def _hensel_op() -> Op:
    prime_powers = []
    for p in number_core.primes_upto(HENSEL_LIMIT)[1:]:
        ell = int(p)
        if poly.is_admissible_prime(QUAD, ell):
            e = 1
            while ell**e <= HENSEL_LIMIT:
                prime_powers.append((ell, e))
                e += 1

    def run():
        return [density.count_unit_roots(QUAD, ell, e) for ell, e in prime_powers]

    def check(out) -> list[str]:
        problems = []
        for (ell, e), (nu, roots) in zip(prime_powers, out):
            brute = density.brute_unit_roots(QUAD, ell**e)
            if roots != brute or nu != len(brute):
                problems.append(f"nu({ell}^{e}) = {nu} {roots[:4]} != brute {len(brute)} {brute[:4]}")
        return problems

    return Op("local/hensel", run, check)


def _alpha_op(rng: random.Random) -> Op:
    qs = range(1, ALPHA_LIMIT + 1, 2)
    sample = rng.sample(range(len(qs)), ALPHA_SAMPLE)

    def run():
        return [density.alpha(QUAD, q) for q in qs]

    def check(out) -> list[str]:
        return [f"alpha({qs[i]}) = {out[i].alpha} != direct {direct}"
                for i in sample
                if out[i].alpha != (direct := density.alpha_direct_count(QUAD, qs[i]))]

    return Op("local/alpha", run, check)


def _z_chi_op() -> Op:
    ell, e = ZCHI_MODULUS

    def run():
        table = characters.build_character_table(ell, e)
        return [characters.z_chi(QUAD, table, t) for t in range(table.phi)]

    def check(out) -> list[str]:
        phi, logs = oracles.z_chi_logs(QUAD.coeffs, ell, e)
        if len(out) != phi:
            return [f"{len(out)} characters != phi = {phi}"]
        want = oracles.z_chi_all(phi, logs)
        return [f"Z_{t} = {r.value} != {want[t]}" for t, r in enumerate(out)
                if abs(r.value - want[t]) > 1e-8 * len(logs)]

    return Op(f"local/z_chi/{ell}^{e}", run, check)


def _curve_op() -> Op:
    pairs = [(int(p), w) for p in number_core.primes_upto(CURVE_LIMIT - 1)[1:]
             for w in range(1, int(p))]

    def run():
        return [characters.curve_point_count(QUAD, ell, w) for ell, w in pairs]

    def check(out) -> list[str]:
        problems = []
        for ell in sorted({ell for ell, _ in pairs}):
            want = oracles.curve_counts(QUAD.coeffs, ell)
            problems += [f"curve count ell={ell} w={r.w}: {r.count} != {want[r.w]}"
                         for r in out if r.ell == ell and r.count != want[r.w]]
        return problems

    return Op("local/curve", run, check)


def tuple_problems(F, q: int, J: int, counts: dict[int, int]) -> list[str]:
    """Compare V''_q(w) counts, keyed by target w, with the exact oracle."""
    ref = oracles.v_double_all(F.coeffs, q, J)
    wrong = sorted(w for w, n in counts.items() if n != ref[w])
    if not wrong:
        return []
    w = wrong[0]
    return [f"{len(wrong)} of {len(counts)} targets wrong, e.g. V''(w={w}) = "
            f"{counts[w]} != {ref[w]}"]


def _tuple_op(rng: random.Random, method: str, F, q: int, J: int) -> Op:
    units = _units(q)
    w = rng.choice(units)
    # the float FFT of the character method can be wrong in some classes
    # only, so its cases are checked at every target; the others at a sample
    targets = units if method == "character" else rng.sample(units, min(4, len(units)))

    def run():
        return tuples.count_v_double(F, q, J, w, method=method)

    def check(out) -> list[str]:
        counts = {u: tuples.count_v_double(F, q, J, u, method=method) for u in targets}
        counts[w] = out
        return tuple_problems(F, q, J, counts)

    return Op(f"tuples/{method}/q{q}/J{J}", run, check)


def _incex_op(rng: random.Random) -> Op:
    ell, e, J = INCEX
    w = rng.choice(_units(ell**e))

    def run():
        return tuples.v_double_incex(PHI, ell, e, J, w)[0]

    def check(out) -> list[str]:
        want = oracles.v_double_all(PHI.coeffs, ell**e, J)[w]
        return [] if out == want else [f"incex V''(w={w}) = {out} != {want}"]

    return Op(f"tuples/incex/q{ell}^{e}/J{J}", run, check)


def _local(rng: random.Random) -> Workload:
    ops = [_hensel_op(), _alpha_op(rng), _z_chi_op(), _curve_op()]
    ops += [_tuple_op(rng, *case) for case in TUPLE_CASES]
    ops.append(_incex_op(rng))
    return Workload("local", ops, 0)


WORKLOADS = {"dist": _dist, "additive": _additive, "local": _local}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](random.Random(seed))
