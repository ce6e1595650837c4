"""The square-connection graph of a local ring splits off its ideal.

For a local ring with odd residue size q and maximal ideal of size m,
the quadratic-unitary graph is a copy of the residue field's graph
blown up by a loop-complete block of size m.  This demo constructs the
permutation witness from the residues of the ring's elements and spells
it out.  The witness is built directly, so large rings such as Z729 work
too.

Run with  python3 demos/splitting_witness.py [spec]    (e.g. Z9, G(5), Z729)
"""

import sys

from ringwalk import verify
from ringwalk.rings import make_ring


def main():
    spec = sys.argv[1] if len(sys.argv) > 1 else "Z9"
    ring = make_ring(spec)
    g, model, perm = verify.local_quadratic_splitting(ring)
    q = ring.residues[0]
    m = ring.ideal_sizes[0]
    print(f"{ring.token}: residue size {q}, ideal size {m}")
    print(f"graph on {g.n} vertices is the residue-field graph "
          f"tensored with the {m}-vertex loop-complete block\n")
    print(f"{'vertex':>8} {'label':>8}   -> model vertex")
    for u in range(g.n):
        print(f"{u:>8} {g.labels[u]!s:>8}   -> {perm(u)}")
    mismatches = sum(
        g.adjacent(u, v) != model.adjacent(perm(u), perm(v))
        for u in range(g.n) for v in range(g.n))
    print(f"\nadjacency mismatches under the witness: {mismatches}")


if __name__ == "__main__":
    main()
