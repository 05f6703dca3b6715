"""Audit the base-vertex symmetry group of one desk case.

Separates the two layers of the stabilizer story:

* the extending part (pointwise linear maps): closure of the point-kind
  generators, which are automorphisms of the whole graph;
* the full neighborhood group: closure of everything, measured on the
  closed neighborhood of the base vertex.

For sigma >= 2 the two differ, and the script demonstrates it directly by
trying to extend each fiber-kind generator to a graph automorphism: the
extension search proves exhaustion.

Usage:
    python scripts/neighborhood_group_audit.py [-r R] [-s SIGMA]
"""

import argparse

from pencilgraphs import autnr, graphbuild, homog


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("-r", type=int, default=4)
    ap.add_argument("-s", "--sigma", type=int, default=2)
    args = ap.parse_args()

    g = graphbuild.component(args.r, args.sigma)
    print(f"graph: {len(g)} vertices, degree {g.degree}")

    gens = autnr.synth_generators(g)
    point = [a for a in gens if a.kind == "point"]
    fiber = [a for a in gens if a.kind == "fiber"]
    print(f"generators: {len(point)} point kind, {len(fiber)} fiber kind")

    extending = autnr.close_permutations([a.nperm for a in point])
    full = autnr.closure_order(gens)
    formula = autnr.nr_order_formula(g.ctx)
    print(f"extending subgroup order: {extending}")
    print(f"neighborhood group order: {full} (formula {formula})")

    if not fiber:
        print("no fiber-kind generators; the whole group extends")
        return 0

    slots = sorted(g.neighbors_of(0))
    shown = 0
    for a in fiber:
        partial = {0: 0}
        for k, s in enumerate(slots):
            partial[s] = slots[a.nperm[k]]
        vperm, stats = homog.extend_partial(g, partial)
        verdict = "extends" if vperm is not None else (
            f"does NOT extend (search exhausted after {stats.nodes} nodes)")
        print(f"  fiber generator {a.display()}: {verdict}")
        shown += 1
        if shown >= 4:
            break
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
