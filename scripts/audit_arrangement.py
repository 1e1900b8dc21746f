#!/usr/bin/env python3
"""Audit the exponentially-spaced line arrangements up to a given size.

For each n the table lists the build time, the largest coordinate
numerator or denominator size in bits, and whether the independent
ordering/halving re-check is clean.  Exits 1 when any row is DIRTY.
"""

import argparse
import sys
import time

from polycontact.arrangement import audit_arrangement, build_line_arrangement


def bits(arr):
    worst = 0
    for p in arr.points.values():
        for c in p:
            worst = max(worst, c.numerator.bit_length(),
                        c.denominator.bit_length())
    return worst


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-n", type=int, default=14)
    args = ap.parse_args()
    print(f"{'n':>3} {'build s':>8} {'coord bits':>10} {'audit':>6}")
    dirty = False
    for n in range(3, args.max_n + 1):
        t0 = time.perf_counter()
        arr = build_line_arrangement(n)
        dt = time.perf_counter() - t0
        clean = audit_arrangement(arr) == []
        dirty |= not clean
        print(f"{n:>3} {dt:>8.3f} {bits(arr):>10} {'clean' if clean else 'DIRTY':>6}")
    return 1 if dirty else 0


if __name__ == "__main__":
    sys.exit(main())
