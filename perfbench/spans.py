"""Spans around the library's public functions, and the per-layer metrics.

The traced run executes the library's own code.  While :func:`installed`
is active, each function listed in ``WRAPPED`` is replaced, in every module
that calls it by name, by a wrapper that records a span around the real
call; on exit the originals are put back.  The fit loops call
``autodiff._vjp_full``, the body of the public ``autodiff.vjp``, directly,
so that is what the ``autodiff.vjp`` span wraps.  The reflector and chain
forwards inside the gradient tape are private functions, so their time
stays inside the ``autodiff.assemble_with_tape`` and ``autodiff.vjp`` spans.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its direct children.  ``clock`` is
CLOCK_MONOTONIC, which is shared by all processes of the machine, so spans
recorded in a child process line up with the parent's.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from time import perf_counter as clock

from ttspectral import autodiff, cli, fileio, fit, planner, svdp, sttp
from ttspectral import householder as hh
from ttspectral.fit import FitResult


def _decode_attrs(args):
    layout = args[0]
    return {"flops": 4 * layout.d * layout.r ** 2}


def _plan_attrs(args):
    diagram = args[0]
    # A plan is a hit when the planner's per-process cache already holds it.
    return {"nodes": len(diagram.nodes),
            "hit": diagram.signature() in planner._PLAN_CACHE}


def _execute_attrs(args):
    return {"flops": args[0].total_flops}


def _read_attrs(args):
    return {"bytes": os.path.getsize(args[0])}


def _written(rec, args, result):
    rec["bytes"] = os.path.getsize(args[0])


def _fit_steps(rec, args, result):
    rec["steps"] = len(result.trace if isinstance(result, FitResult)
                       else result.losses)


# (span name, [(module, attribute), ...], attrs before the call, hook after)
WRAPPED = (
    ("householder.decode", [(hh, "decode")], _decode_attrs, None),
    ("sttp.core_specs", [(sttp, "core_specs"), (planner, "core_specs"),
                         (autodiff, "core_specs"), (fileio, "core_specs")],
     None, None),
    ("spectral.materialize_sigma", [(planner, "materialize_sigma"),
                                    (svdp, "materialize_sigma"),
                                    (sttp, "materialize_sigma")], None, None),
    ("tensortrain.frames_from_cores", [(sttp, "frames_from_cores")],
     None, None),
    ("planner.diagram", [(planner, "svdp_diagram"), (planner, "sttp_diagram")],
     None, None),
    ("planner.plan", [(planner, "plan")], _plan_attrs, None),
    ("planner.execute", [(planner, "execute")], _execute_attrs, None),
    ("autodiff.pack", [(fit, "pack")], None, None),
    ("autodiff.unpack", [(fit, "unpack")], None, None),
    ("autodiff.assemble_with_tape", [(fit, "assemble_with_tape"),
                                     (autodiff, "assemble_with_tape")],
     None, None),
    ("autodiff.vjp", [(fit, "_vjp_full"), (autodiff, "_vjp_full")],
     None, None),
    ("fit.loop", [(fit, "fit_matrix"), (fit, "demo_train"),
                  (cli, "fit_matrix"), (cli, "demo_train")], None, _fit_steps),
    ("fileio.read", [(fileio, "read_matrix"), (fileio, "read_params")],
     _read_attrs, None),
    ("fileio.write", [(fileio, "write_matrix"), (fileio, "write_params")],
     None, _written),
)

# Layer calls whose self time is reported as a share of the traced op time.
SHARE_SPANS = (
    "householder.decode",
    "sttp.core_specs",
    "spectral.materialize_sigma",
    "tensortrain.frames_from_cores",
    "planner.diagram",
    "planner.plan",
    "planner.execute",
    "autodiff.pack",
    "autodiff.unpack",
    "autodiff.assemble_with_tape",
    "autodiff.vjp",
    "fit.loop",
    "fileio.read",
    "fileio.write",
    "cli.startup",
    "cli.main",
)


class Tracer:
    """In-memory span recorder; ``op`` tags spans with the op being traced.

    Spans recorded while ``op`` is None belong to set-up.  A span whose call
    raised has the exception's type name under ``error``.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.op: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"name": name, "op": self.op,
               "parent": self._stack[-1] if self._stack else None, **attrs}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = clock()
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = clock()
            self._stack.pop()

    def wrap(self, fn, name: str, before=None, after=None):
        """``fn`` with a span around every call."""
        def traced(*args, **kwargs):
            with self.span(name, **(before(args) if before else {})) as rec:
                result = fn(*args, **kwargs)
            if after:
                after(rec, args, result)
            return result
        return traced

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        """Record a span measured outside a ``with`` block."""
        self.spans.append({"name": name, "op": self.op, "start": start,
                           "end": end, "parent": None, **attrs})

    def extend(self, spans: list[dict]) -> None:
        """Adopt spans recorded by a child process as part of the current op."""
        offset = len(self.spans)
        for rec in spans:
            parent = rec["parent"]
            self.spans.append({**rec, "op": self.op, "parent":
                               None if parent is None else parent + offset})


@contextmanager
def installed(tr: Tracer):
    """Trace every function in ``WRAPPED`` into ``tr`` until the block ends."""
    saved = []
    try:
        for name, sites, before, after in WRAPPED:
            for module, attr in sites:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, tr.wrap(fn, name, before, after))
        yield tr
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


# ---------------------------------------------------------------- metrics

def layer_metrics(tr: Tracer, traced_s: float, untraced_s: float,
                  n_ops: int) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Self times are shares of the traced op time (``trace.op_ms`` per op),
    so a layer that a workload never calls reads 0 rather than a time.
    Calls, steps and bytes are per op; plan hits, misses and capacity
    errors are totals that include set-up, where apply-warm makes its
    cold plans.
    """
    in_ops = [s for s in tr.spans if s["op"] is not None]
    child_s = [0.0] * len(tr.spans)
    for rec in tr.spans:
        if rec["parent"] is not None:
            child_s[rec["parent"]] += rec["end"] - rec["start"]
    self_s: dict[str, float] = {}
    for i, rec in enumerate(tr.spans):
        if rec["op"] is not None:
            dur = rec["end"] - rec["start"] - child_s[i]
            self_s[rec["name"]] = self_s.get(rec["name"], 0.0) + dur

    def spans_of(name, spans=in_ops):
        return [s for s in spans if s["name"] == name]

    def rate(name, key):  # work attribute per second of the span's own time
        recs = spans_of(name)
        secs = sum(s["end"] - s["start"] for s in recs)
        return sum(s[key] for s in recs) / secs if secs > 0 else 0.0

    per_op = 1.0 / max(n_ops, 1)
    m = {f"{name}.share": self_s.get(name, 0.0) / traced_s if traced_s else 0.0
         for name in SHARE_SPANS}
    m["householder.decode.calls"] = len(spans_of("householder.decode")) * per_op
    m["householder.decode.gflops"] = rate("householder.decode", "flops") / 1e9
    m["sttp.core_specs.calls"] = len(spans_of("sttp.core_specs")) * per_op
    plans = spans_of("planner.plan", tr.spans)
    done = [s for s in plans if "error" not in s]
    hits = sum(1 for s in done if s["hit"])
    m["planner.plan.hits"] = float(hits)
    m["planner.plan.misses"] = float(len(done) - hits)
    m["planner.plan.hit_ratio"] = hits / len(done) if done else 0.0
    m["planner.plan.max_nodes"] = float(max((s["nodes"] for s in done), default=0))
    m["planner.capacity_errors"] = float(sum(
        1 for s in plans if s.get("error") == "CapacityError"))
    m["planner.execute.gflops"] = rate("planner.execute", "flops") / 1e9
    m["fit.steps"] = sum(s.get("steps", 0) for s in spans_of("fit.loop")) \
        * per_op
    io = spans_of("fileio.read") + spans_of("fileio.write")
    io_bytes = sum(s.get("bytes", 0) for s in io)  # none if a write failed
    io_s = sum(s["end"] - s["start"] for s in io)
    m["fileio.bytes"] = io_bytes * per_op
    m["fileio.mb_per_s"] = io_bytes / 1e6 / io_s if io_s else 0.0
    m["trace.op_ms"] = traced_s * 1e3 * per_op
    m["trace.coverage"] = (sum(s["end"] - s["start"] for s in in_ops
                               if s["parent"] is None) / untraced_s
                           if untraced_s else 0.0)
    m["trace.overhead"] = traced_s / untraced_s if untraced_s else 0.0
    m["trace.ops"] = float(n_ops)
    return m
