"""A guided tour: from a ring spec to an exact transfer certificate.

Run with  python3 demos/walk_tour.py
"""

from ringwalk import walks
from ringwalk.graphs import unitary_cayley_graph
from ringwalk.rings import make_ring, units


def main():
    ring = make_ring("Z12")
    print(f"ring: {ring.token}  (order {ring.order})")
    labels = sorted(ring.to_integer(u) for u in units(ring).elements)
    print(f"units: {labels}")

    g = unitary_cayley_graph(ring)
    print(f"\ngraph on {g.n} vertices, {g.regularity}-regular, "
          f"connected={g.is_connected()}")

    report = walks.classify_spectrum(g)
    print("\ntransition-matrix spectrum (mu = lambda / degree):")
    for line in report.lines:
        tag = f"angle order {line.angle_order}" if line.allowed else "blocked"
        print(f"  mu = {line.mu_str():>6}  x{line.multiplicity}   [{tag}]")
    print(f"classifier verdict: periodic, return time divides "
          f"{report.period_bound}")

    per = walks.period(g)
    print(f"exact period of U: {per} (classifier and brute force agree)")

    pst = walks.find_pst(g)
    for p in pst.pairs:
        print(f"\nperfect transfer: vertex {p.source} -> vertex {p.target} "
              f"at time {p.time} with phase {p.phase:+d}")
    print(f"\ncertificate: {len(pst.pairs)} pairs within the bound "
          f"tau <= {pst.bound}, "
          f"pruned_by_transitivity={pst.pruned_by_transitivity}")


if __name__ == "__main__":
    main()
