"""Seeded workload generators, written without the package under test.

Every value is exact: a ``Poly`` is a dict from monomials to ``Fraction``
coefficients, where a monomial is a sorted tuple of ``(parameter, exponent)``
pairs (the empty tuple is the constant monomial).  Structure constants are
sparse dicts ``{(i, j, k): Poly}`` holding only nonzero entries; operators,
forms and 2-tensors are sparse dicts ``{(i, j): Poly}``.

The generators build the structures named in the benchmark workloads: gl_n,
sl_n, Heisenberg algebras, the Bianchi types, and random rational instances.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

# -- exact sparse polynomials ---------------------------------------------------


def const(q) -> dict:
    q = Fraction(q)
    return {(): q} if q else {}


def var(name: str, coeff=1) -> dict:
    return {((name, 1),): Fraction(coeff)}


def _mono_mul(a: tuple, b: tuple) -> tuple:
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for name, e in b:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def p_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for m, c in b.items():
        value = out.get(m, 0) + sign * c
        if value:
            out[m] = value
        else:
            out.pop(m, None)
    return out


def p_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = _mono_mul(ma, mb)
            value = out.get(m, 0) + ca * cb
            if value:
                out[m] = value
            else:
                out.pop(m, None)
    return out


def p_scale(a: dict, q) -> dict:
    q = Fraction(q)
    return {m: c * q for m, c in a.items()} if q else {}


def p_eval(a: dict, assignment: dict) -> Fraction:
    total = Fraction(0)
    for mono, coeff in a.items():
        term = coeff
        for name, e in mono:
            term *= Fraction(assignment[name]) ** e
        total += term
    return total


def p_text(a: dict) -> str:
    """Stable text of a polynomial, used only for hashing."""
    if not a:
        return "0"
    return " + ".join(f"{c}*{'*'.join(f'{n}^{e}' for n, e in m) or '1'}"
                      for m, c in sorted(a.items()))


class Algebra:
    """A Lie bracket table: basis labels, sparse constants, parameters."""

    def __init__(self, name: str, labels: list[str], c: dict, params=()):
        self.name = name
        self.labels = list(labels)
        self.c = {k: v for k, v in c.items() if v}
        self.params = tuple(params)

    @property
    def dim(self) -> int:
        return len(self.labels)


def antisymmetric(table: dict) -> dict:
    """Complete {(i, j, k): value} given for i < j with the mirrored negation."""
    c = {}
    for (i, j, k), v in table.items():
        if v:
            c[(i, j, k)] = v
            c[(j, i, k)] = p_scale(v, -1)
    return c


# -- named algebras ---------------------------------------------------------------


def gl(n: int) -> Algebra:
    """gl_n on the matrix units E_ij: [E_ij, E_kl] = d_jk E_il - d_li E_kj."""
    idx = {(i, j): i * n + j for i in range(n) for j in range(n)}
    c: dict = {}
    for (i, j), a in idx.items():
        for (k, l), b in idx.items():
            if j == k:
                key = (a, b, idx[(i, l)])
                c[key] = p_add(c.get(key, {}), const(1))
            if l == i:
                key = (a, b, idx[(k, j)])
                c[key] = p_add(c.get(key, {}), const(-1))
    labels = [f"E{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    return Algebra(f"gl{n}", labels, c)


def sl(n: int) -> Algebra:
    """sl_n on the off-diagonal units E_ij and H_i = E_ii - E_(i+1)(i+1)."""
    basis: list[dict] = []
    labels: list[str] = []
    for i in range(n):
        for j in range(n):
            if i != j:
                basis.append({(i, j): Fraction(1)})
                labels.append(f"E{i + 1}{j + 1}")
    for i in range(n - 1):
        basis.append({(i, i): Fraction(1), (i + 1, i + 1): Fraction(-1)})
        labels.append(f"H{i + 1}")
    off = {key: pos for pos, b in enumerate(basis[: n * (n - 1)]) for key in b}
    first_h = n * (n - 1)

    def coords(mat: dict) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        running = Fraction(0)
        for i in range(n):
            for j in range(n):
                if i != j and mat.get((i, j)):
                    out[off[(i, j)]] = mat[(i, j)]
            if i < n - 1:
                running += mat.get((i, i), 0)
                if running:
                    out[first_h + i] = running
        return out

    c: dict = {}
    for a, A in enumerate(basis):
        for b, B in enumerate(basis):
            comm: dict = {}
            for (i, k), x in A.items():
                for (k2, j), y in B.items():
                    if k == k2:
                        comm[(i, j)] = comm.get((i, j), 0) + x * y
            for (i, k), x in B.items():
                for (k2, j), y in A.items():
                    if k == k2:
                        comm[(i, j)] = comm.get((i, j), 0) - x * y
            for k, v in coords(comm).items():
                c[(a, b, k)] = const(v)
    return Algebra(f"sl{n}", labels, c)


def heisenberg(m: int) -> Algebra:
    """The (2m+1)-dimensional Heisenberg algebra: [x_i, y_i] = z."""
    n = 2 * m + 1
    table = {(i, m + i, n - 1): const(1) for i in range(m)}
    labels = [f"x{i + 1}" for i in range(m)] + [f"y{i + 1}" for i in range(m)] + ["z"]
    return Algebra(f"heis{n}", labels, antisymmetric(table))


# Bianchi class data (n1, n2, n3, a): [e2,e3] = n1 e1, [e3,e1] = n2 e2 - a e3,
# [e1,e2] = n3 e3 + a e2.  Jacobi holds exactly when n1 * a = 0.
BIANCHI = {
    "I": (0, 0, 0, 0),
    "II": (1, 0, 0, 0),
    "III": (0, 1, -1, 1),
    "IV": (0, 0, 1, 1),
    "V": (0, 0, 0, 1),
    "VIII": (1, 1, -1, 0),
    "IX": (1, 1, 1, 0),
}


def bianchi(kind: str, a=None) -> Algebra:
    """A 3-dimensional Bianchi type; VI_h and VII_h take the parameter ``a``.

    ``a`` is a number or a parameter name; a name gives a parametric family.
    """
    if kind in ("VI", "VII"):
        n1, n2, n3 = 0, 1, (-1 if kind == "VI" else 1)
        aval = var(a) if isinstance(a, str) else const(a)
    else:
        n1, n2, n3, a0 = BIANCHI[kind]
        aval = const(a0)
    table = {
        (1, 2, 0): const(n1),
        (0, 2, 1): const(-n2),
        (0, 2, 2): aval,
        (0, 1, 2): const(n3),
        (0, 1, 1): aval,
    }
    params = (a,) if isinstance(a, str) else ()
    return Algebra(f"bianchi-{kind}", ["e1", "e2", "e3"], antisymmetric(table), params)


def direct_sum(first: Algebra, second: Algebra) -> Algebra:
    shift = first.dim
    c = dict(first.c)
    for (i, j, k), v in second.c.items():
        c[(i + shift, j + shift, k + shift)] = v
    labels = [f"{x}a" for x in first.labels] + [f"{x}b" for x in second.labels]
    return Algebra(f"{first.name}+{second.name}", labels, c,
                   first.params + second.params)


def affine_line() -> Algebra:
    """The 2-dimensional nonabelian algebra [x, y] = y."""
    return Algebra("aff1", ["x", "y"], antisymmetric({(0, 1, 1): const(1)}))


# -- random rational instances ------------------------------------------------


# Random values are never zero, so every generated table, operator and basis
# change is dense: the amount of work a request does depends on its shape,
# not on how many zeros the seed happened to draw.


def rand_q(rng: random.Random, top: int = 6, bottom: int = 3) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, top), rng.randint(1, bottom))


def random_table(rng: random.Random, n: int) -> Algebra:
    """An antisymmetric random rational bracket table (Jacobi generally fails)."""
    table = {(i, j, k): const(rand_q(rng))
             for i in range(n) for j in range(i + 1, n) for k in range(n)}
    return Algebra(f"random{n}", [f"v{i}" for i in range(n)], antisymmetric(table))


def random_matrix(rng: random.Random, n: int) -> dict:
    return {(i, j): const(rand_q(rng)) for i in range(n) for j in range(n)}


def inverse(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan elimination (the matrix must be invertible)."""
    n = len(mat)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def change_basis(alg: Algebra, rng: random.Random) -> tuple[Algebra, list[list[Fraction]]]:
    """The same algebra in the random basis f_i = sum_a P[a][i] e_a.

    P = L U with unit triangular L and U whose off-diagonal entries are -1 or
    1, so P is unimodular and the new constants are dense integers: the cost
    of checking the result depends little on the seed.  Returns the
    rebased algebra and P^-1, which maps old coordinates to new ones.  Jacobi
    is basis-free, so the result is a Lie algebra exactly when ``alg`` is.
    """
    n = alg.dim
    lower = [[Fraction(1 if i == j else (rng.choice((-1, 1)) if i > j else 0))
              for j in range(n)] for i in range(n)]
    upper = [[Fraction(1 if i == j else (rng.choice((-1, 1)) if i < j else 0))
              for j in range(n)] for i in range(n)]
    p = [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    q = inverse(p)
    c: dict = {}
    for i in range(n):
        for j in range(i + 1, n):
            # [f_i, f_j] = sum P[a][i] P[b][j] c_ab^m e_m, then e_m = sum_k Q[k][m] f_k
            image = [Fraction(0)] * n
            for (a, b, m), v in alg.c.items():
                w = p[a][i] * p[b][j]
                if w:
                    image[m] += w * v.get((), 0)
            for k in range(n):
                value = sum(q[k][m] * image[m] for m in range(n) if image[m])
                if value:
                    c[(i, j, k)] = const(value)
                    c[(j, i, k)] = const(-value)
    return Algebra(f"{alg.name}@random", [f"f{i}" for i in range(n)], c), q


def wedge(u: dict[int, Fraction], v: dict[int, Fraction], coeff: dict) -> dict:
    """coeff * (u (x) v - v (x) u) as a sparse 2-tensor."""
    out: dict = {}
    for a, x in u.items():
        for b, y in v.items():
            w = p_scale(coeff, x * y)
            out[(a, b)] = p_add(out.get((a, b), {}), w)
            out[(b, a)] = p_add(out.get((b, a), {}), w, -1)
    return {k: v for k, v in out.items() if v}


def t_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = p_add(out.get(k, {}), v)
    return {k: v for k, v in out.items() if v}


# -- hashing -----------------------------------------------------------------------


def canonical(obj):
    """A JSON-ready canonical form of generated data (for workload hashes)."""
    if isinstance(obj, Algebra):
        return {"algebra": obj.name, "labels": obj.labels,
                "c": canonical(obj.c), "params": list(obj.params)}
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        if all(isinstance(k, tuple) and all(isinstance(x, int) for x in k) for k in obj):
            return sorted([list(k), p_text(v) if isinstance(v, dict) else canonical(v)]
                          for k, v in obj.items())
        if all(isinstance(k, tuple) for k in obj):  # a Poly
            return p_text(obj)
        return {str(k): canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    return obj


def digest(obj) -> str:
    text = json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
