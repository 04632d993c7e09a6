"""Reference implementations that the tests compare the program against.
They live here, not in src/, because no program path calls them."""

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
