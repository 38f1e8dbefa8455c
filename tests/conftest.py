"""Shared fixtures: the 3-dimensional simple algebra and its standard data.

Also hosts the acceptance-criteria recorder: each acceptance test registers a
one-line verdict that is printed in the terminal summary.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

_ACCEPTANCE_LINES: list[tuple[str, str, bool]] = []


def record_acceptance(label: str, description: str, passed: bool) -> None:
    _ACCEPTANCE_LINES.append((label, description, passed))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for label, description, ok in _ACCEPTANCE_LINES:
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {label:<14s} {verdict}: {description}")

from lieb import (
    BasisSpace,
    BilinearForm,
    LieAlgebra,
    LinearOperator,
    Scalar,
    TwoTensor,
    delta_from_r,
    parse_scalar,
)

from reference_loops import zeros, zeros3


def sc(text: str) -> Scalar:
    return parse_scalar(text)


def make_sl2() -> LieAlgebra:
    sp = BasisSpace(("e", "f", "g"))
    c = zeros3(3, 3, 3)

    def setb(i, j, k, v):
        c[i][j][k] = sc(v)
        c[j][i][k] = -sc(v)

    setb(0, 1, 2, "1")
    setb(0, 2, 0, "-2")
    setb(1, 2, 1, "2")
    return LieAlgebra(sp, c)


def make_operator(space: BasisSpace, columns: list[list[str]]) -> LinearOperator:
    mat = zeros(space.dim, space.dim)
    for j, col in enumerate(columns):
        for i, text in enumerate(col):
            mat[i][j] = sc(text)
    return LinearOperator(space, space, mat)


def abelian(labels: tuple[str, ...]) -> LieAlgebra:
    n = len(labels)
    return LieAlgebra(BasisSpace(labels), zeros3(n, n, n))


def rational_matrix(space: BasisSpace, rows: list[list]) -> list[list[Scalar]]:
    return [[Scalar.from_fraction(Fraction(v)) for v in row] for row in rows]


@pytest.fixture(scope="session")
def sl2() -> LieAlgebra:
    return make_sl2()


@pytest.fixture(scope="session")
def r_qt(sl2) -> TwoTensor:
    mat = zeros(3, 3)
    mat[1][2] = sc("lambda")
    mat[2][1] = sc("-lambda")
    return TwoTensor(sl2.space, mat)


@pytest.fixture(scope="session")
def dr(sl2, r_qt):
    return delta_from_r(sl2, r_qt)


@pytest.fixture(scope="session")
def omega_symp(sl2) -> BilinearForm:
    mat = zeros(3, 3)
    mat[0][2] = sc("kappa")
    mat[2][0] = sc("-kappa")
    mat[1][2] = sc("-2*kappa")
    mat[2][1] = sc("2*kappa")
    return BilinearForm(sl2.space, mat)


@pytest.fixture(scope="session")
def omega_generic(sl2) -> BilinearForm:
    mat = zeros(3, 3)
    for (i, j), name in {(0, 1): "nu", (0, 2): "kappa", (1, 2): "chi"}.items():
        mat[i][j] = sc(name)
        mat[j][i] = -sc(name)
    return BilinearForm(sl2.space, mat)


@pytest.fixture(scope="session")
def n_example(sl2) -> LinearOperator:
    return make_operator(sl2.space, [
        ["0", "-lambda*kappa", "0"],
        ["0", "2*lambda*kappa", "0"],
        ["0", "0", "2*lambda*kappa"],
    ])


def bialgebra_pair(which: str, space: BasisSpace) -> tuple[LinearOperator, LinearOperator]:
    """The four operator pairs on the quasitriangular bialgebra, by letter."""
    shear = {
        "a": (["k1", "k2", "0"], ["k1", "0", "0"]),
        "b": (["k1", "k2", "0"], ["k1", "ell", "0"]),
        "c": (["k1", "k2", "k3"], ["k1", "-k2", "0"]),
        "d": (["k1", "k2", "k3"], ["k1", "-k2", "-k3"]),
    }[which]
    n_col, p_col = shear
    n_op = make_operator(space, [n_col, ["0", "k1", "0"], ["0", "0", "k1"]])
    p_op = make_operator(space, [p_col, ["0", "k1", "0"], ["0", "0", "k1"]])
    return n_op, p_op
