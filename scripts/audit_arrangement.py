#!/usr/bin/env python3
"""Audit the exponentially-spaced line arrangements up to a given size.

For each n the table lists the build time, the largest coordinate
numerator or denominator size in bits, and whether the independent
ordering/halving re-check is clean.
"""

import argparse
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
    for n in range(3, args.max_n + 1):
        t0 = time.time()
        arr = build_line_arrangement(n)
        dt = time.time() - t0
        clean = "clean" if audit_arrangement(arr) == [] else "DIRTY"
        print(f"{n:>3} {dt:>8.3f} {bits(arr):>10} {clean:>6}")


if __name__ == "__main__":
    main()
