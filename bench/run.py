"""Benchmark harness for lieb: a closed loop of verified requests.

Run from the root of a checkout:

    python3 bench/run.py --workload symbolic-gl --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload solver --profile

One client sends the next request only after the previous verdict returns,
in a single process and thread.  Requests run in whole rounds: a round is the
workload's full seeded list of cases, and rounds repeat for about
``--seconds`` (at least three rounds).  Each request's typical latency is its
median over the rounds, and the end-to-end figures are those of one round
made of typical latencies.  Times are nominal: each is scaled by the host's
speed around it, measured by a reference loop after every request (see
``speed.py``); the wall-clock figures are printed beside them.  Every output
is checked against a known answer computed without the package (see
``oracle.py``), outside the timed region.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` half the time runs untraced and half traced, and the last line
reports the per-layer metrics of the traced rounds (see ``spans.py``).
``--profile`` prints the top cProfile rows of one round instead.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import importlib
import itertools
import json
import math
import pstats
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import speed
import workloads
from spans import Tracer, layer_metrics

SETUP_REPEATS = 9
# Reference loops timed after each request; their median is its end sample.
END_SAMPLES = 3
# Each request's typical latency is a median over at least this many rounds.
MIN_ROUNDS = 3


def _nearest_rank(sorted_values: list[float], percent: float) -> float:
    rank = max(1, math.ceil(percent / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def _import_package():
    for name in [m for m in sys.modules if m == "lieb" or m.startswith("lieb.")]:
        del sys.modules[name]
    api = importlib.import_module("lieb")
    importlib.import_module("lieb.cli")
    return api


def setup(name: str, seed: int, root: Path, workdir: Path):
    """Import the package and build the workload's inputs, SETUP_REPEATS times.

    Returns the last build and the median nominal set-up time (see
    ``speed.py``); known answers are attached afterwards, outside the timed
    set-up.
    """
    walls, ends, inside = [], [], []
    sampler = speed.Sampler()
    for _ in range(SETUP_REPEATS):
        with sampler:
            start = time.perf_counter()
            api = _import_package()
            work = workloads.generate(name, seed, root)
            requests = workloads.bind(api, work, workdir)
            walls.append(time.perf_counter() - start - sampler.spent)
        ends.append(speed.sample(END_SAMPLES))
        inside.append(sampler.refs)
    start = time.perf_counter()
    workloads.attach_answers(work)
    print(f"known answers computed in {time.perf_counter() - start:.3f} s")
    print(f"setup wall median {statistics.median(walls):.4f} s")
    return api, work, requests, statistics.median(speed.to_nominal(walls, ends, inside))


class Loop:
    """The closed loop: runs rounds, times each request, verifies each output.

    Recorded requests are sampled against the reference loop (``speed.py``)
    after each one and, with ``sample_inside``, during it, so that their
    latencies can be stated in nominal seconds.  Traced rounds are not sampled
    inside, because the samples would fall into the spans.
    """

    def __init__(self, api, work, requests, sample_inside: bool = True):
        self.api, self.work, self.requests = api, work, requests
        self.sampler = speed.Sampler(active=sample_inside)
        # (round, label, wall seconds, end sample, inside samples) of each recorded request
        self.samples: list[tuple[int, str, float, float, list[float]]] = []
        self.round_count = 0
        self.attempted = self.failed = self.wrong = 0

    def latencies(self, wall: bool = False) -> list[float]:
        """Latency of each recorded request in recording order, nominal
        unless ``wall``."""
        walls = [s[2] for s in self.samples]
        if wall:
            return walls
        return speed.to_nominal(walls, [s[3] for s in self.samples],
                                [s[4] for s in self.samples])

    def by_label(self, wall: bool = False) -> dict[str, list[float]]:
        """Latencies of each request over the recorded rounds."""
        out: dict[str, list[float]] = {}
        for sample, t in zip(self.samples, self.latencies(wall)):
            out.setdefault(sample[1], []).append(t)
        return out

    def round_totals(self) -> list[float]:
        """Nominal time of each recorded round's requests."""
        out = [0.0] * self.round_count
        for sample, t in zip(self.samples, self.latencies()):
            out[sample[0]] += t
        return out

    def one_round(self, call=None, record=True) -> None:
        for case, request in zip(self.work.cases, self.requests):
            with self.sampler if record else contextlib.nullcontext():
                start = time.perf_counter()
                try:
                    output = call(request) if call else request()
                except Exception as exc:  # a raising request is a failed request
                    raised = exc
                else:
                    raised = None
                elapsed = time.perf_counter() - start - self.sampler.spent
            if not record:
                continue
            self.samples.append((self.round_count, case.label, elapsed,
                                 speed.sample(END_SAMPLES), self.sampler.refs))
            self.attempted += 1
            if raised is not None:
                self.failed += 1
                print(f"failed: {case.label}: {type(raised).__name__}: {raised}",
                      file=sys.stderr)
            elif not workloads.verify(self.api, case, output):
                self.wrong += 1
                print(f"wrong answer: {case.label}", file=sys.stderr)
        if record:
            self.round_count += 1

    def run_for(self, seconds: float, call=None, min_rounds: int = 1) -> int:
        """Whole rounds for about ``seconds`` of wall time, at least ``min_rounds``.

        A round starts only while half the last round's time still fits
        before the deadline, so the run ends within half a round of it.
        """
        deadline = time.perf_counter() + seconds
        rounds, last = 0, 0.0
        while rounds < min_rounds or time.perf_counter() + last / 2 < deadline:
            start = time.perf_counter()
            self.one_round(call)
            last = time.perf_counter() - start
            rounds += 1
        return rounds


def typical_latencies(by_label: dict[str, list[float]]) -> dict[str, float]:
    """Each request's median latency over the recorded rounds.

    Every round is the same multiset of requests, so a request's median over
    the rounds is its typical latency, and a disturbance on the host moves it
    only if it lasts through half the run.
    """
    return {label: statistics.median(times) for label, times in by_label.items()}


def round_figures(typical: dict[str, float], percent: int) -> tuple[float, float, float]:
    """Requests per second, median and tail latency of one round made of
    typical latencies."""
    values = sorted(typical.values())
    return (len(values) / sum(values), statistics.median(values),
            _nearest_rank(values, percent))


def end_to_end(loop: Loop, name: str, setup_s: float) -> dict[str, float]:
    """The end-to-end figures, in nominal time (``speed.py``)."""
    percent = workloads.TAIL_PERCENTILE[name]
    typical = typical_latencies(loop.by_label())
    assert len(typical) == len(loop.work.cases), "request labels must be unique"
    per_s, p50, tail = round_figures(typical, percent)
    latencies = loop.latencies()
    beyond = sum(1 for v in latencies if v > tail)
    print(f"request_tail_ms is p{percent}: {beyond} of {len(latencies)} samples beyond it")
    wall = round_figures(typical_latencies(loop.by_label(wall=True)), percent)
    print(f"in wall time: {wall[0]:.4g} requests/s, p50 {wall[1] * 1e3:.4g} ms, "
          f"p{percent} {wall[2] * 1e3:.4g} ms")
    return {
        "requests_per_s": per_s,
        "request_p50_ms": p50 * 1e3,
        "request_tail_ms": tail * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _scalar_add_us(api, left: str, right: str, n: int = 20000) -> float:
    a, b = api.parse_scalar(left), api.parse_scalar(right)
    samples = []
    for _ in range(9):
        start = time.perf_counter()
        for _ in range(n):
            a + b
        samples.append((time.perf_counter() - start) / n * 1e6)
    return statistics.median(samples)


def baseline_rows(api, loop: Loop) -> dict:
    """The re-measured baseline table rows, from the typical latencies of the
    untraced rounds like the end-to-end figures; a row whose requests this
    workload does not run is 0."""
    typical = typical_latencies(loop.by_label())

    def typical_sum(labels):
        if not labels or any(label not in typical for label in labels):
            return 0.0
        return sum(typical[label] for label in labels)

    shipped = [c.label for c in loop.work.cases
               if c.op == "cli" and not c.data["file"].startswith("designed-")]
    return {
        "baseline.gl3_jacobi_s": typical_sum(["lie/gl3"]),
        "baseline.gl3_cybe_s": typical_sum(["cybe/gl3"]),
        "baseline.catalog_inprocess_s": typical_sum(shipped),
        "baseline.scalar_add_const_us": _scalar_add_us(api, "3/7", "5/11"),
        "baseline.scalar_add_symbolic_us": _scalar_add_us(api, "2*k1 + k2", "k1 - 3*k3"),
    }


def traced(loop: Loop, seconds: float) -> dict:
    """Half the time untraced, half traced; per-layer metrics of the traced rounds."""
    loop.run_for(seconds / 2)
    untraced_round = statistics.median(loop.round_totals())
    rows = baseline_rows(loop.api, loop)
    tracer = Tracer()
    counter = itertools.count()
    tracer.install(loop.api)
    try:
        start = loop.round_count
        rounds = loop.run_for(seconds / 2,
                              call=lambda request: tracer.request(next(counter), request))
    finally:
        tracer.uninstall()
    traced_round = statistics.median(loop.round_totals()[start:])
    metrics = layer_metrics(tracer.spans, rounds)
    metrics["trace_overhead_share"] = traced_round / untraced_round - 1
    metrics.update(rows)
    return metrics


def profile(loop: Loop, top: int = 25) -> None:
    profiler = cProfile.Profile()
    profiler.enable()
    loop.one_round(record=False)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("tottime").print_stats(top)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true",
                        help="print the top cProfile rows of one round of each workload")
    args = parser.parse_args(argv)
    if not args.workload and not args.profile:
        parser.error("--workload is required unless --profile is given")

    root = Path.cwd()
    if not (root / "src" / "lieb" / "__init__.py").is_file():
        print("error: run from the root of a lieb checkout (src/lieb not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    scratch = root / "bench" / ".work"
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        if args.profile:
            for name in [args.workload] if args.workload else workloads.WORKLOADS:
                api, work, requests, _ = setup(name, args.seed, root, workdir)
                loop = Loop(api, work, requests)
                loop.one_round(record=False)
                print(f"== {name}: top cProfile rows of one round ==")
                profile(loop)
            return 0
        return run(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, root: Path, workdir: Path) -> int:
    name = args.workload
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    api, work, requests, setup_s = setup(name, args.seed, root, workdir)
    loop = Loop(api, work, requests, sample_inside=not args.trace)
    for _ in range(workloads.WARMUP_ROUNDS[name]):
        loop.one_round(record=False)
    if args.trace:
        metrics = traced(loop, args.seconds)
    else:
        loop.run_for(args.seconds, min_rounds=MIN_ROUNDS)
        metrics = end_to_end(loop, name, setup_s)
    if set(metrics) != set(units):
        raise SystemExit(f"measured metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    print(f"workload {name} seed {args.seed}: python {sys.version.split()[0]}, "
          f"workload hash {work.digest}, {len(work.cases)} requests per round, "
          f"{loop.round_count} rounds")
    for key, value in metrics.items():
        print(f"  {key} = {value:.6g} {units[key]}")
    print(f"  wrong_verdicts = {loop.wrong} count")
    print(f"  failed_share = {loop.failed / loop.attempted:.6g} share "
          f"({loop.failed} of {loop.attempted} attempted)")
    result = {
        "correct": loop.wrong == 0 and loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
