"""Walk through the literal hypergraph and its normalized message operator
on a tiny hand-readable formula.

Run:  python3 demos/operator_tour.py
"""

import numpy as np

from hypersat import build_literal_hypergraph, normalized_operator, parse_wcnf
from hypersat.hypergraph import q_tilde


def main():
    # (x1 or not x2 or x3) w=4, (not x1 or x2) w=2, (x2) w=3
    inst = parse_wcnf("p wcnf 3 3\n4 1 -2 3 0\n2 -1 2 0\n3 2 0\n")
    hg = build_literal_hypergraph(inst)
    names = ["x1", "x2", "x3", "~x1", "~x2", "~x3"]
    print("nodes:", ", ".join(f"{i}={n}" for i, n in enumerate(names)))
    h = hg.h.toarray()  # one column per clause
    for j, w in enumerate(inst.weight):
        members = ", ".join(names[v] for v in np.flatnonzero(h[:, j]))
        print(f"edge {j}: {{{members}}} weight={w}")
    print("weighted node degrees:", hg.node_degree)
    print("edge degrees:", hg.edge_degree)

    np.set_printoptions(precision=3, suppress=True)
    qt = q_tilde(hg).toarray()
    print("\nadjacency-style operator (zero diagonal, symmetric):")
    print(qt)

    s = normalized_operator(hg).matrix.toarray()
    print("\ndegree-normalized operator:")
    print(s)
    print("symmetric:", np.array_equal(s, s.T))
    print("isolated ~x3 row is zero:", bool(np.all(s[5] == 0)))


if __name__ == "__main__":
    main()
