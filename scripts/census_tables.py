"""Print the cycle-type census of the auxiliary group, one table per rho.

Usage:
    python scripts/census_tables.py [--max-rho 4]

Each table is summed over the conjugacy classes of GL(rho, 2)
(``hrho.census_rows``), each class with the Cayley distance that
``hrho.certified_distances`` certifies for it (a class it cannot certify
raises), so the rho = 5 table
(9,999,360 elements) takes milliseconds like the others and lists no
element; --max-rho is capped at 5.
"""

import argparse

from pencilgraphs import _golden, hrho


def print_table(rho: int, rows) -> bool:
    total = sum(c for _, _, c in rows)
    print(f"\nrho = {rho}   (order {total})")
    print(f"{'super_type':<22}{'d':>3}{'count':>10}")
    ok = True
    for st, d, c in rows:
        ref = _golden.TABLE1.get(rho, {}).get(st)
        mark = "" if ref == (d, c) else "   <- differs from reference"
        if mark:
            ok = False
        print(f"{st:<22}{d:>3}{c:>10}{mark}")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-rho", type=int, default=4)
    args = ap.parse_args()

    ok = True
    for rho in range(2, min(args.max_rho, 5) + 1):
        rows = hrho.census_rows(hrho.certified_distances(rho))
        ok &= print_table(rho, rows)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
