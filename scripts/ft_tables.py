"""Fellow-traveller tables for the 2-dimensional test groups.

One TSV block per group over increasing radii.  max_ii (right
multiplication) must stay within the 5K bound.  max_iii (left
multiplication) is printed as measured: a finite sweep cannot show it
bounded, and on fig1 it rises from 3 to 5 at radius 9.
"""

import argparse
from pathlib import Path

from coxlang import ft_scan, k_constant, parse_system
from coxlang.experiments import ft_tsv

GROUPS = Path(__file__).resolve().parent.parent / "groups"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--radii", default="4,6,8,10")
    args = ap.parse_args()
    radii = [int(r) for r in args.radii.split(",")]
    for fname in ("fig1.cox", "triangle_333.cox"):
        system = parse_system((GROUPS / fname).read_text())
        print(f"# {fname}  (K = {k_constant(system)})")
        header_done = False
        for radius in radii:
            report = ft_scan(system, radius)
            block = ft_tsv(report, system).splitlines()
            if not header_done:
                print(block[0])
                header_done = True
            print(block[1])
        print()


if __name__ == "__main__":
    main()
