#!/usr/bin/env python3
"""Sweep |Z_chi| against its square-root-cancellation bound.

For each admissible odd prime power up to the limit, computes the maximal
nonprincipal |Z_chi| and compares it with the applicable bound (primitive
shape, or the conductor-reduced form for imprimitive characters). The
final column is the saturation |Z|/bound; values near 1 mean the bound is
tight.

Example:
    python scripts/character_bound_sweep.py --poly "[1, 0, 1]" --limit 343
"""

import argparse
import sys

from wudlab.cli import exit_code
from wudlab.characters import build_character_table, z_chi
from wudlab.number_core import primes_upto
from wudlab.poly import is_admissible_prime, parse_poly


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--poly", default="phi")
    ap.add_argument("--limit", type=int, default=343)
    args = ap.parse_args()

    F = parse_poly(args.poly)
    print(f"F = {F}")
    print(f"{'ell^e':>8} {'#chi':>6} {'max |Z|':>10} {'bound':>10} "
          f"{'saturation':>10}")
    worst = 0.0
    for p in primes_upto(args.limit)[1:]:
        ell = int(p)
        if not is_admissible_prime(F, ell):
            continue
        e = 1
        while ell**e <= args.limit:
            table = build_character_table(ell, e)
            best = (0.0, 1.0)
            for t in range(1, table.phi):
                rep = z_chi(F, table, t)
                if rep.abs / rep.bound > best[0] / best[1]:
                    best = (rep.abs, rep.bound)
            sat = best[0] / best[1]
            worst = max(worst, sat)
            print(f"{ell}^{e:<6} {table.phi - 1:>6} {best[0]:>10.3f} "
                  f"{best[1]:>10.3f} {sat:>10.3f}")
            e += 1
    print(f"max saturation: {worst:.3f}")
    return 0 if worst <= 1.0 + 1e-9 else 1


if __name__ == "__main__":
    sys.exit(exit_code(main))
