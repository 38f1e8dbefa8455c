"""In-memory spans around the package's module boundaries.

``Tracer.install(api)`` replaces public functions where their callers look
them up: the package namespace the benchmark calls through, the names
imported into ``lieb.cli``, ``lieb.solver`` and ``lieb.catalog``, the
``CHECK_KINDS`` and ``CONSTRUCT_OPS`` dispatch tables of ``lieb.document``,
and the ``row_reduce`` and ``determinant`` globals of ``lieb.multilinear``
(plus the ``determinant`` imported into ``lieb.structures``).  ``uninstall``
puts every original back.

Each call becomes a span: name, layer, start, end, parent and request id.
Scalar arithmetic (``+ - * / ==`` and ``is_zero`` on ``Scalar``) is far too
frequent for one span per operation, so each outermost scalar operation is
timed and added to the innermost open span as aggregate child time; a span's
self time is its duration minus its child spans and its scalar time.
"""

from __future__ import annotations

import time

# Document check kinds, as metric name suffixes.
CHECK_KINDS = ("lie-algebra", "lie-coalgebra", "cocycle", "nijenhuis", "nij-coalgebra",
               "cybe", "co-cybe", "dual-qt", "weak-symplectic", "weak-cosymplectic",
               "nij-lie-bialgebra", "cpnybe", "pq-equivalents")

# Package-level functions the workloads call directly: name -> span name.
_PACKAGE = {
    "check_lie_algebra": "structures.lie-algebra",
    "check_lie_coalgebra": "structures.lie-coalgebra",
    "check_cocycle": "structures.cocycle",
    "check_nijenhuis": "structures.nijenhuis",
    "check_cybe": "structures.cybe",
    "delta_from_r": "construct.delta-from-r",
    "solve_linear": "solver.solve_linear",
    "refute_by_sampling": "solver.refute_by_sampling",
}

_SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__eq__", "is_zero")


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "scalar_s", "scalar_ops",
                 "constant_ops", "args", "result")

    def __init__(self, name, start, parent, request):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.scalar_s = 0.0
        self.scalar_ops = 0
        self.constant_ops = 0
        self.args = None
        self.result = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _is_constant(value) -> bool:
    num = getattr(value, "num", None)
    if num is None:  # an int or Fraction operand
        return True
    terms, den = num.terms, value.den.terms
    return (not terms or (len(terms) == 1 and () in terms)) and len(den) == 1 and () in den


class Tracer:
    """Records a span for every wrapped call made inside a request."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._in_scalar = False
        self._patches: list[tuple[object, str, object]] = []
        self._request = -1

    # -- recording ------------------------------------------------------------

    def call(self, name: str, fn, args, kwargs, keep: bool = False):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.clock(), parent, self._request)
        self.spans.append(span)
        self._stack.append(span)
        if keep:
            span.args = args
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._stack.pop()
        if keep:
            span.result = result
        return result

    def request(self, request_id: int, fn):
        """Run one request under a root span named ``request``."""
        self._request = request_id
        return self.call("request", fn, (), {}, keep=True)

    def wrap(self, name: str, fn, keep: bool = False):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, keep)
        traced.__wrapped__ = fn
        return traced

    def wrap_scalar(self, fn, unary: bool):
        tracer = self

        def traced(a, *rest, **kwargs):
            if tracer._in_scalar or not tracer._stack:
                return fn(a, *rest, **kwargs)
            tracer._in_scalar = True
            start = tracer.clock()
            try:
                return fn(a, *rest, **kwargs)
            finally:
                elapsed = tracer.clock() - start
                tracer._in_scalar = False
                span = tracer._stack[-1]
                span.scalar_s += elapsed
                span.scalar_ops += 1
                if _is_constant(a) and (unary or _is_constant(rest[0])):
                    span.constant_ops += 1
        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------------

    def _patch(self, owner, key, value):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self, api) -> None:
        """Wrap the package ``api`` (``lieb`` with ``lieb.cli`` imported)."""
        for attr, name in _PACKAGE.items():
            self._patch(api, attr, self.wrap(name, getattr(api, attr), keep=True))
        self._patch(api.cli, "main", self.wrap("cli.main", api.cli.main))
        self._patch(api.catalog, "get", self.wrap("catalog.get", api.catalog.get))
        for module in (api.cli, api.catalog):
            for attr in ("parse_document", "run_constructs", "run_check_statement",
                         "default_checks", "render_document"):
                if hasattr(module, attr):
                    self._patch(module, attr, self.wrap(
                        f"document.{attr}", getattr(module, attr),
                        keep=attr == "parse_document"))
        self._patch(api.cli, "solve_linear",
                    self.wrap("solver.solve_linear", api.cli.solve_linear, keep=True))
        for attr in ("nullspace", "rank"):
            self._patch(api.solver, attr,
                        self.wrap(f"multilinear.{attr}", getattr(api.solver, attr)))
        for attr, kind in (("check_cocycle", "cocycle"),
                           ("check_weak_symplectic", "weak-symplectic")):
            self._patch(api.solver, attr, self.wrap(
                f"structures.{kind}", getattr(api.solver, attr), keep=True))
        for attr in ("map_scalars", "structure_parameters"):
            self._patch(api.solver, attr,
                        self.wrap(f"structures.{attr}", getattr(api.solver, attr)))
        self._patch(api.multilinear, "row_reduce", self.wrap(
            "multilinear.row_reduce", api.multilinear.row_reduce, keep=True))
        # structures imports determinant; construct imports it from multilinear
        # inside the function that uses it
        for module in (api.structures, api.multilinear):
            self._patch(module, "determinant",
                        self.wrap("multilinear.determinant", module.determinant))
        for kind, (argc, fn) in list(api.document.CHECK_KINDS.items()):
            self._patch(api.document.CHECK_KINDS, kind,
                        (argc, self.wrap(f"structures.{kind}", fn, keep=True)))
        for op, (argc, fn) in list(api.document.CONSTRUCT_OPS.items()):
            self._patch(api.document.CONSTRUCT_OPS, op,
                        (argc, self.wrap(f"construct.{op}", fn)))
        scalar = api.Scalar
        for attr in _SCALAR_OPS:
            self._patch(scalar, attr,
                        self.wrap_scalar(getattr(scalar, attr), unary=attr == "is_zero"))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, value = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)


# -- per-layer metrics ----------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of each span (by id): duration minus children and scalar time."""
    covered: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            key = id(span.parent)
            covered[key] = covered.get(key, 0.0) + span.duration
    return {id(s): s.duration - covered.get(id(s), 0.0) - s.scalar_s for s in spans}


def _report_degree(report) -> int:
    return max((max(r.value.num.degree(), r.value.den.degree()) for r in report.residuals),
               default=0)


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, float]:
    """Per-layer counts and times, each per round of the workload."""
    own = self_times(spans)
    m: dict[str, float] = {}

    def add(key, value):
        m[key] = m.get(key, 0.0) + value

    scalar_ops = sum(s.scalar_ops for s in spans)
    scalar_s = sum(s.scalar_s for s in spans)
    m["scalars.ops"] = scalar_ops
    m["scalars.constant_ops_share"] = (sum(s.constant_ops for s in spans) / scalar_ops
                                       if scalar_ops else 0.0)
    m["scalars.self_s"] = scalar_s
    m["scalars.us_per_op"] = scalar_s / scalar_ops * 1e6 if scalar_ops else 0.0

    for key in ("structures.checks", "structures.self_s", "structures.residuals",
                "structures.residual_max_degree", "multilinear.row_reduce_calls",
                "multilinear.row_reduce_cells", "multilinear.row_reduce_self_s",
                "multilinear.pivot_assumptions", "multilinear.determinant_self_s",
                "solver.solves", "solver.self_s", "solver.verify_s", "solver.unknowns",
                "solver.rank", "solver.sampling_trials", "construct.calls",
                "construct.self_s", "document.parses", "document.parse_self_s",
                "catalog.gets", "catalog.get_self_s", "cli.mains", "cli.self_s",
                "cli.output_bytes"):
        m[key] = 0.0
    for kind in CHECK_KINDS:
        m[f"structures.{kind}.self_s"] = 0.0
    parsed_bytes = 0
    max_degree = 0

    for span in spans:
        layer, name, t = span.layer, span.name, own[id(span)]
        suffix = name.split(".", 1)[-1]
        parent = span.parent.name if span.parent is not None else ""
        result = span.result  # None when the call raised
        if layer == "structures":
            add("structures.self_s", t)
            if suffix in CHECK_KINDS:
                add("structures.checks", 1)
                add(f"structures.{suffix}.self_s", t)
                if result is not None:
                    add("structures.residuals", len(result.residuals))
                    max_degree = max(max_degree, _report_degree(result))
                if parent == "solver.solve_linear":
                    add("solver.verify_s", span.duration)
                elif parent == "solver.refute_by_sampling":
                    add("solver.sampling_trials", 1)
        elif name == "multilinear.row_reduce":
            matrix = span.args[0]
            add("multilinear.row_reduce_calls", 1)
            add("multilinear.row_reduce_cells", len(matrix) * (len(matrix[0]) if matrix else 0))
            add("multilinear.row_reduce_self_s", t)
            if result is not None:
                add("multilinear.pivot_assumptions", len(result[2]))
        elif name == "multilinear.determinant":
            add("multilinear.determinant_self_s", t)
        elif layer == "solver":
            add("solver.self_s", t)
            if name == "solver.solve_linear":
                add("solver.solves", 1)
                if result is not None:
                    add("solver.unknowns", result.unknowns)
                    add("solver.rank", result.rank)
        elif layer == "construct":
            add("construct.calls", 1)
            add("construct.self_s", t)
        elif name == "document.parse_document":
            add("document.parses", 1)
            add("document.parse_self_s", t)
            parsed_bytes += len(span.args[0].encode())
        elif name == "catalog.get":
            add("catalog.gets", 1)
            add("catalog.get_self_s", t)
        elif name == "cli.main":
            add("cli.mains", 1)
            add("cli.self_s", t)
        elif name == "request" and isinstance(result, tuple):
            add("cli.output_bytes", len(result[1].encode()))

    rounds = max(rounds, 1)
    for key in list(m):
        if key not in ("scalars.constant_ops_share", "scalars.us_per_op"):
            m[key] /= rounds
    m["structures.residual_max_degree"] = max_degree
    m["document.bytes_per_s"] = (parsed_bytes / rounds / m["document.parse_self_s"]
                                 if m["document.parse_self_s"] else 0.0)
    return m
