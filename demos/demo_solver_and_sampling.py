"""Classify weak symplectic forms exactly and cross-check a claim by sampling.

Solves the cyclic identity over skew forms on sl2 (the solution space turns
out to be all of them), then demonstrates the tensor bridge between
Yang-Baxter tensors and relative Rota-Baxter operators on random data.
Run with:  python demos/demo_solver_and_sampling.py
"""

import random
from fractions import Fraction

from lieb import (
    LinearProblem,
    Scalar,
    TwoTensor,
    catalog,
    check_cpnybe,
    check_rrbo,
    coadjoint_representation,
    phi_r,
    solve_linear,
)
from lieb.multilinear import Tensor


def main():
    sl2 = catalog.get("sl2").structures["sl2"]
    solution = solve_linear(LinearProblem.weak_symplectic(sl2))
    print(f"skew solutions of the cyclic identity: dimension {solution.dimension} "
          f"(rank {solution.rank} of {solution.unknowns} unknowns)")
    symp = catalog.get("symp-sl2")
    print("shipped family metadata:", symp.metadata)

    entry = catalog.get("nliebialg-a")
    rng = random.Random(0)
    binding = {"k1": Scalar.from_int(2), "k2": Scalar.from_int(-3)}
    n_op = entry.structures["N"]
    p_op = entry.structures["P"]
    from lieb.structures import map_scalars
    n_op = map_scalars(n_op, lambda s: s.substitute(binding))
    p_op = map_scalars(p_op, lambda s: s.substitute(binding))
    coad = coadjoint_representation(sl2)
    agreements = 0
    for _ in range(10):
        entries = {}
        for i in range(3):
            for j in range(i + 1, 3):
                value = Scalar.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                entries[i, j] = value
                entries[j, i] = -value
        r = TwoTensor(sl2.space, Tensor((3, 3), entries))
        enriched = check_cpnybe(sl2, r, n_op, p_op).passed
        rota = check_rrbo(sl2, coad, p_op.transpose(), n_op, phi_r(r)).passed
        agreements += enriched == rota
    print(f"enriched Yang-Baxter vs Rota-Baxter verdicts agree on {agreements}/10 "
          "random antisymmetric tensors")


if __name__ == "__main__":
    main()
