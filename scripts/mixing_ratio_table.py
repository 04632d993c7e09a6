#!/usr/bin/env python3
"""How fast phi(q) V''(w) / V' approaches 1 as the tuple length J grows.

Prints the maximal deviation over all unit targets w for each J, one row
per modulus, using exact character-sum counts.

Example:
    python scripts/mixing_ratio_table.py --poly phi --q 5 7 25 35 --jmax 10
"""

import argparse
import sys

from wudlab.cli import exit_code
from wudlab.poly import parse_poly
from wudlab.tuples import hypothesis_a_ratio


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--poly", default="phi")
    ap.add_argument("--q", type=int, nargs="+", default=[5, 7, 25, 35])
    ap.add_argument("--jmax", type=int, default=8)
    args = ap.parse_args()

    F = parse_poly(args.poly)
    js = list(range(2, args.jmax + 1, 2))
    print(f"F = {F}; max_w |phi(q) V''(w)/V' - 1| by J")
    print(f"{'q':>6} " + " ".join(f"{f'J={j}':>12}" for j in js))
    for q in args.q:
        devs = [hypothesis_a_ratio(F, q, j, method="character").max_deviation
                for j in js]
        print(f"{q:>6} " + " ".join(f"{d:>12.3e}" for d in devs))
    return 0


if __name__ == "__main__":
    sys.exit(exit_code(main))
