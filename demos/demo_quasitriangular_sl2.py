"""Walk through the quasitriangular structure on sl2.

Builds the bracket table, the antisymmetric Yang-Baxter tensor
lambda*(f@g - g@f), the cobracket it induces, and verifies every identity
symbolically in lambda.  Run with:  python demos/demo_quasitriangular_sl2.py
"""

from lieb import (
    TwoTensor,
    catalog,
    check_cocycle,
    check_cybe,
    check_lie_algebra,
    check_lie_coalgebra,
    delta_from_r,
    parse_scalar,
)
from lieb.multilinear import Tensor


def main():
    sl2 = catalog.get("sl2").structures["sl2"]
    print("bracket axioms:", check_lie_algebra(sl2).verdict)

    lam = parse_scalar("lambda")
    r = TwoTensor(sl2.space, Tensor((3, 3), {(1, 2): lam, (2, 1): -lam}))
    print("Yang-Baxter equation for lambda*(f@g - g@f):", check_cybe(sl2, r).verdict)

    dr = delta_from_r(sl2, r)
    labels = sl2.space.labels
    print("induced cobracket:")
    for i, label in enumerate(labels):
        terms = [f"{dr.d[i][a][b]}*{labels[a]}@{labels[b]}"
                 for a in range(3) for b in range(3) if not dr.d[i][a][b].is_zero()]
        print(f"  delta({label}) =", " + ".join(terms) if terms else "0")

    print("cobracket axioms:", check_lie_coalgebra(dr).verdict)
    print("bialgebra cocycle:", check_cocycle(sl2, dr).verdict)


if __name__ == "__main__":
    main()
