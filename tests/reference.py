"""Reference implementations that the tests compare the program against.
They live here, not in src/, because no program path calls them."""

import itertools
import math

import numpy as np

from wudlab.errors import ConsistencyError

ROUND_TOL = 1e-6


def ramanujan_sum_direct(ell: int, e: int) -> np.ndarray:
    """Direct summation oracle: S_ell(r) for all r in [0, ell^e), via the
    DFT of the unit indicator (this *is* the defining sum, evaluated in
    one FFT pass). Index 0 holds phi(ell^e)."""
    m = ell**e
    ind = (np.gcd(np.arange(m), m) == 1).astype(np.float64)
    vals = np.fft.fft(ind).real  # real by conjugate symmetry of the unit set
    out = np.rint(vals).astype(np.int64)
    if np.max(np.abs(vals - out)) > ROUND_TOL:
        raise ConsistencyError("FFT Ramanujan sums failed the rounding residual")
    return out


def v_double_brute_flat(F, q: int, J: int) -> np.ndarray:
    """V''_q(w) for every w from one flat array of all products of J good
    values F(v) mod q, in int32 when (q - 1)^2 < 2^31."""
    v = np.arange(q, dtype=np.int64)
    vals = F.eval_mod(v[np.gcd(v, q) == 1], q)
    vals = vals[np.gcd(vals, q) == 1]
    prods = np.array([1 % q], dtype=np.int32 if (q - 1) ** 2 < 2**31 else np.int64)
    vals = vals.astype(prods.dtype)
    for _ in range(J):
        prods = (prods[:, None] * vals[None, :]).ravel()
        prods -= prods // q * q
    return np.bincount(prods, minlength=q)


def additive_brute_loop(q: int, J: int, w: int) -> tuple[int, int]:
    """(#V_q(w), #V*_q(w)): unit J-tuples whose sum, and whose alternating
    sum, is w mod q, one itertools.product tuple at a time."""
    units = [u for u in range(q) if math.gcd(u, q) == 1] if q > 1 else [0]
    v_sum = v_alt = 0
    for tup in itertools.product(units, repeat=J):
        if sum(tup) % q == w % q:
            v_sum += 1
        if sum(v if j % 2 == 0 else -v for j, v in enumerate(tup)) % q == w % q:
            v_alt += 1
    return v_sum, v_alt
