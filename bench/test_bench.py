"""Tests of the benchmark itself: seeding, the oracle and span accounting.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import lieb  # noqa: E402
import lieb.cli  # noqa: E402,F401

import gen  # noqa: E402
import oracle  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_metrics, self_times  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_workload_hash(name):
    first = workloads.generate(name, 7, ROOT).digest
    assert workloads.generate(name, 7, ROOT).digest == first
    assert workloads.generate(name, 8, ROOT).digest != first


def _agrees(case: workloads.Case) -> bool:
    case.expect = workloads._ANSWER[case.op](case)
    request = workloads.bind(lieb, workloads.Workload([case]), ROOT)[0]
    return workloads.verify(lieb, case, request())


@pytest.mark.parametrize("alg", [gen.sl(2), gen.gl(2)], ids=["sl2", "gl2"])
def test_oracle_agrees_on_sl2_and_gl2(alg):
    one = Fraction(1)
    n = alg.dim
    solving = gen.wedge({0: one}, {n - 1: one}, gen.var("k1"))  # H ^ E on sl2, Cartan on gl2
    failing = gen.wedge({0: one}, {1: one}, gen.var("k1"))      # E12 ^ E21 on sl2, E11 ^ E12 on gl2
    for r in (solving, failing):
        tensor = ("tensor", n, r)
        cob = ("coalgebra", n, oracle.delta_from_r(alg, r))
        cases = [
            workloads.Case("lie", "check", {"fn": "check_lie_algebra", "args": [alg]}),
            workloads.Case("cybe", "check", {"fn": "check_cybe", "args": [alg, tensor]}),
            workloads.Case("delta", "delta", {"args": [alg, tensor]}),
            workloads.Case("colie", "check", {"fn": "check_lie_coalgebra", "args": [cob]}),
            workloads.Case("cocycle", "check", {"fn": "check_cocycle", "args": [alg, cob]}),
        ]
        for kind in ("weak-symplectic", "ad-invariance", "cocycle-in-delta"):
            cases.append(workloads.Case(kind, "solve",
                                        {"kind": kind, "args": [alg], "assume": []}))
        for case in cases:
            assert _agrees(case), case.label
    # a wrong answer is caught: perturb one structure constant of the oracle's copy
    broken = gen.Algebra("broken", alg.labels, dict(alg.c))
    broken.c[next(iter(broken.c))] = gen.const(5)
    case = workloads.Case("lie", "check", {"fn": "check_lie_algebra", "args": [broken]})
    case.expect = workloads._ANSWER["check"](case)
    good = workloads.Case("lie", "check", {"fn": "check_lie_algebra", "args": [alg]})
    request = workloads.bind(lieb, workloads.Workload([good]), ROOT)[0]
    assert not workloads.verify(lieb, case, request())


def test_oracle_flags_exactly_the_designed_failures(tmp_path):
    failing = {name for name, (code, results) in oracle.CATALOG.items()
               if code != 0 or any(r[1] == "Fail" for r in results)}
    assert failing == set(oracle.DESIGNED_FAILURES)
    work = workloads.generate("catalog-cli", 0, ROOT)
    workloads.attach_answers(work)
    requests = workloads.bind(lieb, work, tmp_path)
    assert len(requests) == len(oracle.CATALOG)
    for case, request in zip(work.cases, requests):
        code, _ = output = request()
        assert workloads.verify(lieb, case, output), case.label
        assert (code == 1) == (case.data["file"] in oracle.DESIGNED_FAILURES)


def test_random_numeric_instances_agree():
    work = workloads.generate("numeric-random", 3, ROOT)
    work.cases = [c for c in work.cases if c.label.split("/")[1].startswith(
        ("random2", "random3", "aff1", "sl2-"))]
    workloads.attach_answers(work)
    for case, request in zip(work.cases, workloads.bind(lieb, work, ROOT)):
        assert workloads.verify(lieb, case, request()), case.label


def test_nominal_times_cancel_the_host_speed():
    walls = [0.010, 0.020, 0.030, 0.040]
    assert speed.to_nominal(walls, [speed.REFERENCE_S] * 4) == pytest.approx(walls)
    # a host twice as slow doubles the requests and the reference alike
    slow = speed.to_nominal([2 * w for w in walls], [2 * speed.REFERENCE_S] * 4)
    assert slow == pytest.approx(walls)
    # one disturbed reference sample moves nothing
    walls = walls + walls
    refs = [speed.REFERENCE_S] * len(walls)
    refs[3] *= 5
    assert speed.to_nominal(walls, refs) == pytest.approx(walls)
    # a long request follows the samples taken during it
    slow_inside = [[2 * speed.REFERENCE_S] * 9]
    assert speed.to_nominal([1.0], [speed.REFERENCE_S], slow_inside) == pytest.approx([0.5])


def test_sampler_samples_inside_a_block_and_counts_its_time():
    sampler = speed.Sampler()
    with sampler:
        end = time.perf_counter() + 10 * speed.INTERVAL
        while time.perf_counter() < end:
            pass
    assert len(sampler.refs) >= 5
    assert 0 < sampler.spent < 10 * speed.INTERVAL
    with speed.Sampler(active=False) as idle:
        time.sleep(2 * speed.INTERVAL)
    assert idle.refs == [] and idle.spent == 0


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_span_self_times_add_up_to_the_parent():
    tracer = Tracer(clock=_Clock())
    leaf = tracer.wrap("multilinear.row_reduce", lambda: None)
    middle = tracer.wrap("solver.solve_linear", lambda: (leaf(), leaf()))
    tracer.request(0, lambda: (middle(), leaf()))
    root = tracer.spans[0]
    own = self_times(tracer.spans)
    assert sum(own.values()) == pytest.approx(root.duration)
    assert all(t > 0 for t in own.values())


def test_a_raising_call_still_leaves_a_span():
    tracer = Tracer(clock=_Clock())

    def fail(*args):
        raise lieb.ShapeError("mismatch")

    with pytest.raises(lieb.ShapeError):
        tracer.request(0, tracer.wrap("structures.cybe", fail, keep=True))
    assert [s.name for s in tracer.spans] == ["request", "structures.cybe"]
    assert layer_metrics(tracer.spans, rounds=1)["structures.checks"] == 1


def test_traced_request_accounts_for_its_whole_duration():
    tracer = Tracer()
    alg = workloads.to_package(lieb, gen.sl(2))
    tracer.install(lieb)
    try:
        tracer.request(0, lambda: lieb.check_cybe(alg, lieb.TwoTensor(alg.space, [
            [lieb.Scalar.from_int(0)] * 3 for _ in range(3)])))
        tracer.request(1, lambda: lieb.solve_linear(lieb.LinearProblem.cocycle_in_delta(alg)))
    finally:
        tracer.uninstall()
    assert not hasattr(lieb.check_cybe, "__wrapped__")  # the originals are back
    own = self_times(tracer.spans)
    for root in (s for s in tracer.spans if s.name == "request"):
        tree = [s for s in tracer.spans if s.request == root.request]
        total = sum(own[id(s)] + s.scalar_s for s in tree)
        assert total == pytest.approx(root.duration, rel=1e-9, abs=1e-9)
    metrics = layer_metrics(tracer.spans, rounds=1)
    assert metrics["structures.checks"] >= 2
    assert metrics["multilinear.row_reduce_calls"] >= 1
    assert metrics["scalars.ops"] > 0
