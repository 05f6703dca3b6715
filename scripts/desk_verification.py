"""Run the consolidated report for every desk-scale case and save artifacts.

Usage:
    python scripts/desk_verification.py [--out-dir out] [--enable-heavy]
"""

import argparse
import pathlib
import sys
import time

from pencilgraphs.cli import _json
from pencilgraphs.report import acceptance_report

CASES = [(3, 1), (4, 2), (4, 1), (5, 2)]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-dir", default="out")
    ap.add_argument("--enable-heavy", action="store_true")
    args = ap.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    all_ok = True
    for r, sigma in CASES:
        t0 = time.time()
        data = acceptance_report(r, sigma, enable_heavy=args.enable_heavy)
        path = out / f"report_r{r}_s{sigma}.json"
        path.write_text(_json(data))
        status = "PASS" if data["all_pass"] else "FAIL"
        print(f"({r},{sigma}): {status}  [{time.time()-t0:.1f}s]  -> {path}")
        for c in data["checks"]:
            if c["status"] != "PASS":
                print(f"    failed: {c['check']}")
        all_ok &= data["all_pass"]
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
