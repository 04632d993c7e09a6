#!/usr/bin/env python3
"""Overrepresentation scan for the two non-equidistributed constructions.

For construction i (product polynomial, squarefree q) the class of 2 should
dominate; for construction ii (f(p) = (p-1)^D + 1, q = q1^D) the class of 1
should. Prints the target-class ratio against the largest other ratio as x
grows; one census serves the whole ladder of x.

Example:
    python scripts/counterexample_scan.py --which ii --D 2 --q1 5 --xmax 1e7
"""

import argparse
import sys

from wudlab.lab import counterexample_i, counterexample_ii, overrepresentation, \
    run_distribution_multi


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--which", choices=("i", "ii"), default="ii")
    ap.add_argument("--D", type=int, default=2)
    ap.add_argument("--q1", type=int, default=5, help="base prime (ii only)")
    ap.add_argument("--num-primes", type=int, default=2,
                    help="primes in the squarefree modulus (i only)")
    ap.add_argument("--xmax", type=float, default=1e6)
    ap.add_argument("--ladder", type=int, default=3)
    args = ap.parse_args()

    xs = [int(args.xmax / 10**k) for k in reversed(range(args.ladder))]
    if args.which == "i":
        spec, q, target = counterexample_i(args.D, args.num_primes)
    else:
        spec, q, target = counterexample_ii(args.D, args.q1)
    print(f"{'x':>10} {'q':>6} {'target':>7} {'ratio':>8} {'max other':>10} "
          f"{'strict max':>10}")
    reports = {rep.x: rep for rep in run_distribution_multi(spec, q, xs)}
    for x in xs:
        s = overrepresentation(reports[x], target)
        print(f"{x:>10} {q:>6} {s['target_class']:>7} "
              f"{s['target_ratio']:>8.4f} {s['max_other_ratio']:>10.4f} "
              f"{str(s['target_is_strict_max']):>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
