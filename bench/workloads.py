"""The four benchmark workloads: seeded inputs, requests, and their checks.

A workload is built in two steps.  ``generate`` makes the inputs from the
seed and computes their known answers with ``oracle``; it never touches the
package under test.  ``bind`` turns the generated inputs into package
objects and returns one request per case; a request is a single call into the
public API.  Every request of a round is verified against its known answer
outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from pathlib import Path

import gen
import oracle

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = ("catalog-cli", "numeric-random", "symbolic-gl", "solver")

# The tail percentile of each workload: the highest of 75/90/95/99 that leaves
# at least ten samples beyond it in a run of three or more rounds.  It is
# taken over the requests' typical (median) latencies, so it picks the same
# request type in every run, however many rounds fit; the samples beyond it
# are those of the requests above it.
TAIL_PERCENTILE = {"catalog-cli": 95, "numeric-random": 90, "symbolic-gl": 90, "solver": 75}

# Warm-up rounds before measuring (the first rounds of the CLI path run slower;
# elsewhere the median over rounds absorbs a slow first round).
WARMUP_ROUNDS = {"catalog-cli": 2, "numeric-random": 0, "symbolic-gl": 0, "solver": 0}


@dataclass
class Case:
    label: str
    op: str
    data: dict
    expect: object = None
    meta: dict = field(default_factory=dict)


@dataclass
class Workload:
    cases: list[Case]
    files: dict[str, str] = field(default_factory=dict)  # generated documents

    @property
    def digest(self) -> str:
        return gen.digest([[c.label, c.op, c.data] for c in self.cases]
                          + sorted(self.files.items()))


def generate(name: str, seed: int, root: Path) -> Workload:
    """The workload's cases, in their seeded round order, without known answers."""
    rng = random.Random(f"{name}:{seed}")
    builder = {"catalog-cli": _catalog_cli, "numeric-random": _numeric_random,
               "symbolic-gl": _symbolic_gl, "solver": _solver}[name]
    work = builder(rng, root)
    rng.shuffle(work.cases)
    return work


def attach_answers(work: Workload) -> None:
    """Fill every case's known answer (the oracle; outside any timed region)."""
    for case in work.cases:
        case.expect = _ANSWER[case.op](case)


# -- catalog-cli -----------------------------------------------------------------

_SL2_TEXT = """\
space L : e f g
algebra sl2 on L {
  [e, f] = g
  [e, g] = -2*e
  [f, g] = 2*f
}
"""

DESIGNED_DOCUMENTS = {
    # classification family 6 as stated, with the torsion check it fails
    "designed-family-6.lieb": "params k1 k3 k5 k6\n" + _SL2_TEXT + """\
assume k5 - k1
operator N : L -> L {
  e -> k1*e + k3*g
  f -> k5*f + k6*g
  g -> k5*g
}
check nijenhuis sl2 N
""",
    # operator pair (c) with the full Nijenhuis bialgebra compatibility check
    "designed-pair-c.lieb": "params lambda k1 k2 k3\n" + _SL2_TEXT + """\
coalgebra dr on L {
  delta(e) = 2*lambda*(e@f - f@e)
  delta(g) = 2*lambda*(g@f - f@g)
}
operator N : L -> L {
  e -> k1*e + k2*f + k3*g
  f -> k1*f
  g -> k1*g
}
operator P : L -> L {
  e -> k1*e - k2*f
  f -> k1*f
  g -> k1*g
}
check nij-lie-bialgebra sl2 dr N P
""",
}


def _catalog_cli(rng, root: Path) -> Workload:
    data_dir = root / "src" / "lieb" / "data"
    cases = []
    for path in sorted(data_dir.glob("*.lieb")):
        text = path.read_text(encoding="utf-8")
        cases.append(Case(f"cli/{path.name}", "cli",
                          {"file": path.name, "path": str(path.relative_to(root)),
                           "text": text}))
    for fname, text in DESIGNED_DOCUMENTS.items():
        cases.append(Case(f"cli/{fname}", "cli", {"file": fname, "path": None, "text": text}))
    return Workload(cases, dict(DESIGNED_DOCUMENTS))


# -- numeric-random ----------------------------------------------------------------

# A base Lie algebra for each dimension, with two elements (coordinate dicts)
# spanning a subalgebra where [a, b] is a multiple of b: any wedge of two
# elements of that span solves the classical Yang-Baxter equation.
def _numeric_bases():
    one = Fraction(1)
    return {
        2: (gen.affine_line(), {0: one}, {1: one}),
        3: (gen.sl(2), {2: one}, {0: one}),
        4: (gen.gl(2), {0: one}, {3: one}),
        5: (gen.heisenberg(2), {0: one}, {1: one}),
        6: (gen.direct_sum(gen.sl(2), gen.bianchi("V")), {2: one}, {3: one}),
    }


def _coords_in(p_inv: list[list[Fraction]], vec: dict) -> dict[int, Fraction]:
    """Coordinates in the new basis of a vector given in the old one."""
    n = len(p_inv)
    out = {}
    for k in range(n):
        value = sum(p_inv[k][m] * x for m, x in vec.items())
        if value:
            out[k] = value
    return out


def _random_combo(rng, u: dict, v: dict) -> dict[int, Fraction]:
    a, b = gen.rand_q(rng), gen.rand_q(rng)
    out = {}
    for k in set(u) | set(v):
        value = a * u.get(k, 0) + b * v.get(k, 0)
        if value:
            out[k] = value
    return out


def _numeric_random(rng, root: Path) -> Workload:
    # two independent instances of every (dimension, check) pair, so the
    # percentiles fall inside a group of like requests rather than on one draw
    cases = []
    for (n, (base, a, b)), copy in itertools.product(_numeric_bases().items(), (1, 2)):
        table = gen.random_table(rng, n)
        cases.append(Case(f"lie/random{n}.{copy}", "check",
                          {"fn": "check_lie_algebra", "args": [table]}))
        table2 = gen.random_table(rng, n)
        op = gen.random_matrix(rng, n)
        cases.append(Case(f"nijenhuis/random{n}.{copy}", "check",
                          {"fn": "check_nijenhuis", "args": [table2, ("op", n, op)]}))
        conj, p_inv = gen.change_basis(base, rng)
        cases.append(Case(f"lie/{base.name}-rebased.{copy}", "check",
                          {"fn": "check_lie_algebra", "args": [conj]}, meta={"theory": "Pass"}))
        u = v = {}
        while not gen.wedge(u, v, gen.const(1)):
            u, v = _random_combo(rng, a, b), _random_combo(rng, a, b)
        r = gen.wedge(_coords_in(p_inv, u), _coords_in(p_inv, v), gen.const(gen.rand_q(rng)))
        cases.append(Case(f"cybe/{base.name}-rebased.{copy}", "check",
                          {"fn": "check_cybe", "args": [conj, ("tensor", n, r)]},
                          meta={"theory": "Pass"}))
    return Workload(cases)


# -- symbolic-gl ----------------------------------------------------------------------

def _symbolic_algebras():
    """(algebra, span of the tensor's factors, theory verdict of CYBE, checks).

    sl3 and gl3 run fewer checks so that a round stays near 4 s and a run
    holds enough rounds for a median over them.
    """
    one = Fraction(1)
    full = ("lie", "cybe", "delta", "colie", "cocycle")
    return [
        (gen.sl(2), [{2: one}, {0: one}], "Pass", full),           # Jordanian H ^ E
        (gen.heisenberg(1), [{0: one}, {2: one}], "Pass", full),   # x ^ z, central z
        (gen.bianchi("II"), [{0: one}, {1: one}], "Pass", full),   # e1 is central
        (gen.bianchi("VI", "k"), [{0: one}, {1: one}], None, full),
        (gen.bianchi("VII", "k"), [{1: one}, {2: one}], "Pass", full),  # [e2, e3] = 0
        (gen.bianchi("VIII"), [{0: one}, {1: one}], None, full),
        (gen.bianchi("IX"), [{0: one}, {1: one}], None, full),
        (gen.gl(2), [{0: one}, {3: one}], "Pass", full),           # Cartan
        (gen.sl(3), [{6: one}, {7: one}], "Pass", ("lie", "delta", "colie")),
        (gen.gl(3), [{0: one}, {4: one}, {8: one}], "Pass", ("lie", "cybe", "delta")),
    ]


def _symbolic_gl(rng, root: Path) -> Workload:
    cases = []
    for alg, span, cybe_theory, checks in _symbolic_algebras():
        # r = k1 * (u ^ v) for random rational combinations u, v of the span
        u, v = {}, {}
        while not gen.wedge(u, v, gen.const(1)):
            u = {k: x * gen.rand_q(rng) for vec in span for k, x in vec.items()}
            v = {k: x * gen.rand_q(rng) for vec in span for k, x in vec.items()}
        r = gen.wedge(u, v, gen.var("k1"))
        tensor = ("tensor", alg.dim, r)
        d = oracle.delta_from_r(alg, r)
        cob = ("coalgebra", alg.dim, d)
        by_check = {
            "lie": Case(f"lie/{alg.name}", "check", {"fn": "check_lie_algebra", "args": [alg]},
                        meta={"theory": "Pass"}),
            "cybe": Case(f"cybe/{alg.name}", "check", {"fn": "check_cybe", "args": [alg, tensor]},
                         meta={"theory": cybe_theory}),
            "delta": Case(f"delta/{alg.name}", "delta", {"args": [alg, tensor]}),
            "colie": Case(f"colie/{alg.name}", "check",
                          {"fn": "check_lie_coalgebra", "args": [cob]},
                          meta={"theory": "Pass" if cybe_theory == "Pass" else None}),
            "cocycle": Case(f"cocycle/{alg.name}", "check",
                            {"fn": "check_cocycle", "args": [alg, cob]},
                            meta={"theory": "Pass"}),  # a coboundary is a cocycle
        }
        cases += [by_check[name] for name in checks]
    return Workload(cases)


# -- solver ---------------------------------------------------------------------------

# Pivot assumptions declared for the parametric Bianchi type VI_k: exact
# elimination on its weak-symplectic, ad-invariance and cocycle-in-delta
# systems divides by these polynomials (and products of them).
_VI_K_ASSUMPTIONS = [oracle.parse_poly(text) for text in
                     ("k", "k - 1", "k + 1", "k - 3", "k + 3", "2*k^2 - 1", "5*k^2 - 13")]

_SL2_CW = gen.Algebra("sl2-cw", ["e", "f", "g"], gen.antisymmetric({
    (0, 1, 2): gen.const(1), (0, 2, 0): gen.const(-2), (1, 2, 1): gen.const(2)}))

# The catalog data the solver requests use (sl2 above, the family-6 operator,
# the qt-sl2 tensor), transcribed by hand from the shipped documents.
_FAMILY_6 = {(0, 0): gen.var("k1"), (2, 0): gen.var("k3"), (1, 1): gen.var("k5"),
             (2, 1): gen.var("k6"), (2, 2): gen.var("k5")}
_QT_R = gen.wedge({1: Fraction(1)}, {2: Fraction(1)}, gen.var("lambda"))


def _solver(rng, root: Path) -> Workload:
    cases = []
    # the seed moves the numeric Bianchi parameter, the base form and the
    # sampling points, not the size of the eliminations
    small = [gen.sl(2), gen.heisenberg(1), gen.bianchi("II")]
    vi_k, vii = gen.bianchi("VI", "k"), gen.bianchi("VII", gen.rand_q(rng, 4, 3))
    gl2 = gen.gl(2)
    plans = {
        "weak-symplectic": small + [vi_k, vii, gl2],
        "ad-invariance": small + [vi_k, vii, gl2],
        "cocycle-in-delta": small[:2] + [vi_k, gl2],
    }
    for kind, algebras in plans.items():
        for alg in algebras:
            assume = _VI_K_ASSUMPTIONS if alg.params else []
            cases.append(Case(f"solve/{kind}/{alg.name}", "solve",
                              {"kind": kind, "args": [alg], "assume": assume}))
    # the co-Yang-Baxter slice on the cobracket of lambda*(f ^ g) at a random base form
    d = oracle.delta_from_r(_SL2_CW, _QT_R)
    om0 = gen.wedge({0: Fraction(1)}, {1: Fraction(1)}, gen.const(gen.rand_q(rng)))
    om0 = gen.t_add(om0, gen.wedge({1: Fraction(1)}, {2: Fraction(1)},
                                   gen.const(gen.rand_q(rng))))
    cases.append(Case("solve/co-cybe-slice/sl2-cw", "solve",
                      {"kind": "co-cybe-slice", "args": [("coalgebra", 3, d), ("form", 3, om0)],
                       "assume": [gen.var("lambda")]}))
    sample_seed = rng.randrange(2 ** 31)
    cases.append(Case("refute/nij-family-6", "refute",
                      {"entry": "nij-family-6", "check": "check_nijenhuis",
                       "instances": {"L": "sl2", "N": "N"}, "seed": sample_seed},
                      meta={"theory": "refuted"}))
    cases.append(Case("refute/qt-sl2-cybe", "refute",
                      {"entry": "qt-sl2", "check": "check_cybe",
                       "instances": {"L": "sl2", "r": "r"}, "seed": sample_seed + 1},
                      meta={"theory": "confirmed"}))
    return Workload(cases)


# -- known answers --------------------------------------------------------------------

def _plain(arg):
    """The gen-level data of a case argument."""
    return arg if isinstance(arg, gen.Algebra) else arg[2]


def _answer_check(case: Case):
    fn, args = case.data["fn"], [_plain(a) for a in case.data["args"]]
    if fn == "check_lie_algebra":
        residuals = oracle.lie_residuals(args[0])
    elif fn == "check_nijenhuis":
        residuals = oracle.torsion_residuals(args[0], args[1])
    elif fn == "check_cybe":
        residuals = oracle.cybe_residuals(args[0], args[1])
    elif fn == "check_lie_coalgebra":
        residuals = oracle.colie_residuals(args[0])
    elif fn == "check_cocycle":
        residuals = oracle.cocycle_residuals(args[0], args[1])
    else:
        raise ValueError(f"no reference evaluator for {fn}")
    verdict = oracle.expected_verdict(residuals)
    theory = case.meta.get("theory")
    if theory is not None and theory != verdict:
        raise AssertionError(f"{case.label}: evaluator says {verdict}, theory says {theory}")
    return verdict, residuals


def _answer_delta(case: Case):
    alg, (_, _, r) = case.data["args"]
    return oracle.delta_from_r(alg, r)


def _answer_cli(case: Case):
    return oracle.CATALOG[case.data["file"]]


def _answer_solve(case: Case):
    kind, args = case.data["kind"], case.data["args"]
    if kind == "weak-symplectic":
        cols, unknowns = oracle.weak_symplectic_columns(args[0])
    elif kind == "ad-invariance":
        cols, unknowns = oracle.ad_invariance_columns(args[0])
    elif kind == "cocycle-in-delta":
        cols, unknowns = oracle.cocycle_in_delta_columns(args[0])
    else:
        cols, unknowns = oracle.co_cybe_slice_columns(args[0][1], args[0][2], args[1][2])
    rank = oracle.sympy_rank(cols)
    return {"dimension": unknowns - rank, "rank": rank, "unknowns": unknowns}


def _answer_refute(case: Case):
    if case.data["entry"] == "nij-family-6":
        residuals = oracle.torsion_residuals(_SL2_CW, _FAMILY_6)
    else:
        residuals = oracle.cybe_residuals(_SL2_CW, _QT_R)
    verdict = "refuted" if residuals else "confirmed"
    if verdict != case.meta["theory"]:
        raise AssertionError(f"{case.label}: evaluator says {verdict}")
    return verdict, residuals


_ANSWER = {"check": _answer_check, "delta": _answer_delta, "cli": _answer_cli,
           "solve": _answer_solve, "refute": _answer_refute}


# -- binding to the package -------------------------------------------------------------

def to_scalar(api, p: dict):
    """A generated polynomial as a package Scalar over one integer denominator."""
    if not p:
        return api.Scalar(api.Polynomial())
    den = 1
    for c in p.values():
        den = lcm(den, c.denominator)
    return api.Scalar(api.Polynomial({m: int(c * den) for m, c in p.items()}),
                      api.Polynomial.integer(den))


def _space(api, labels):
    return api.BasisSpace(tuple(labels))


def _dense2(api, n: int, sparse: dict):
    zero = to_scalar(api, {})
    out = [[zero] * n for _ in range(n)]
    for (i, j), v in sparse.items():
        out[i][j] = to_scalar(api, v)
    return out


def _dense3(api, n: int, sparse: dict):
    zero = to_scalar(api, {})
    out = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), v in sparse.items():
        out[i][j][k] = to_scalar(api, v)
    return out


def to_package(api, arg, space=None):
    """A case argument as a package object (on ``space`` when given)."""
    if isinstance(arg, gen.Algebra):
        return api.LieAlgebra(_space(api, arg.labels), _dense3(api, arg.dim, arg.c))
    kind, n, sparse = arg
    space = space or _space(api, [f"b{i}" for i in range(n)])
    if kind == "op":
        return api.LinearOperator(space, space, _dense2(api, n, sparse))
    if kind == "tensor":
        return api.TwoTensor(space, _dense2(api, n, sparse))
    if kind == "form":
        return api.BilinearForm(space, _dense2(api, n, sparse))
    if kind == "coalgebra":
        return api.LieCoalgebra(space, _dense3(api, n, sparse))
    raise ValueError(f"unknown argument kind {kind}")


def _objects(api, args):
    """Package objects for a case's arguments, all on the first one's space."""
    out, space = [], None
    for arg in args:
        obj = to_package(api, arg, space)
        space = space or obj.space
        out.append(obj)
    return out


def _assumption(api, p: dict):
    return api.Assumption(to_scalar(api, p).num)


def bind(api, work: Workload, workdir: Path) -> list:
    """One zero-argument request per case, calling the package through ``api``.

    Calls look functions up on ``api`` (the package module) at request time,
    so tracing wrappers installed later are seen.
    """
    requests = []
    for fname, text in work.files.items():
        (workdir / fname).write_text(text, encoding="utf-8")
    for case in work.cases:
        requests.append(_BIND[case.op](api, case, workdir))
    return requests


def _bind_check(api, case, workdir):
    objs = _objects(api, case.data["args"])
    fn = case.data["fn"]
    return lambda: getattr(api, fn)(*objs)


def _bind_delta(api, case, workdir):
    objs = _objects(api, case.data["args"])
    return lambda: api.delta_from_r(*objs)


def _bind_cli(api, case, workdir):
    path = case.data["path"] or str(workdir / case.data["file"])
    argv = ["--format", "json", "check", path]

    def request():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = api.cli.main(argv)
        return code, out.getvalue()
    return request


def _bind_solve(api, case, workdir):
    objs = _objects(api, case.data["args"])
    factory = getattr(api.LinearProblem, case.data["kind"].replace("-", "_"))
    assume = tuple(_assumption(api, p) for p in case.data["assume"])
    return lambda: api.solve_linear(factory(*objs), assume)


def _bind_refute(api, case, workdir):
    data = case.data
    cfg = api.SampleConfig(trials=32, seed=data["seed"])

    def request():
        entry = api.catalog.get(data["entry"])
        instances = {key: entry.structures[name] for key, name in data["instances"].items()}
        return api.refute_by_sampling(lambda **kw: getattr(api, data["check"])(**kw),
                                      instances, cfg, tuple(entry.assumptions))
    return request


_BIND = {"check": _bind_check, "delta": _bind_delta, "cli": _bind_cli,
         "solve": _bind_solve, "refute": _bind_refute}


# -- verification ---------------------------------------------------------------------

def verify(api, case: Case, output) -> bool:
    """Does one request's output agree with the case's known answer?"""
    return _VERIFY[case.op](api, case, output)


def _verify_check(api, case, report) -> bool:
    verdict, residuals = case.expect
    return (str(report.verdict) == verdict and not report.assumptions_used
            and oracle.residuals_match(report.residuals, residuals))


def _verify_delta(api, case, coalgebra) -> bool:
    n = len(coalgebra.d)
    d = coalgebra.d
    return all(oracle.value_equals(str(d[i][a][b]), case.expect.get((i, a, b), {}))
               for i in range(n) for a in range(n) for b in range(n))


def _verify_cli(api, case, output) -> bool:
    code, text = output
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return False
    return oracle.catalog_report_matches(case.data["file"], code, payload)


def _verify_solve(api, case, solution) -> bool:
    got = {"dimension": solution.dimension, "rank": solution.rank,
           "unknowns": solution.unknowns}
    return got == case.expect


def _verify_refute(api, case, result) -> bool:
    verdict, residuals = case.expect
    if verdict == "confirmed":
        return isinstance(result, api.ConfirmedZero) and result.trials == 32
    if not isinstance(result, api.RefutedAt):
        return False
    # the witness must make a reference residual nonzero at the sampled point
    return any(gen.p_eval(value, result.assignment) != 0 for _, _, value in residuals)


_VERIFY = {"check": _verify_check, "delta": _verify_delta, "cli": _verify_cli,
           "solve": _verify_solve, "refute": _verify_refute}
