"""Span tracing of dpl's public functions, installed from outside the package.

The tracer rebinds each traced name in every ``dpl.*`` namespace that holds
the same function object (plus two methods on their classes), records one
span per call in memory, and computes self time afterwards: a span's
duration minus the durations of its direct children.  Nothing under
``src/dpl`` is edited; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns

# (layer, attribute) pairs traced as plain functions, looked up in
# ``dpl.<layer>`` and rebound wherever else the same object is imported.
FUNCTIONS = (
    ("circle_maps", "classify_preimage"),
    ("circle_maps", "downward_pair_count"),
    ("circle_maps", "make_map"),
    ("double_points", "double_point_curve"),
    ("double_points", "hopf_invariant"),
    ("double_points", "realizability_report"),
    ("double_points", "arc_lift_check"),
    ("unfolding", "eliminate_negative_arcs"),
    ("unfolding", "find_balanced_path"),
    ("unfolding", "pair_count_check"),
    ("unfolding", "build_euler_graph"),
    ("unfolding", "eulerian_resolution"),
    ("unfolding", "trace_circuits"),
    ("unfolding", "resolution_choices"),
    ("sweeps", "validate_movie"),
    ("sweeps", "assign_disks"),
    ("sweeps", "embedding_certificate"),
    ("space_forms", "build_group"),
    ("space_forms", "dcover_consistency"),
    ("cli", "main"),
)

# (layer, class, method) triples traced on the class itself.
METHODS = (
    ("circle_maps", "PLCircleMap", "fiber"),
    ("unfolding", "EulerGraph", "component_edges"),
)

# Generator functions: one span per ``next()``, none for the call itself.
GENERATORS = {"unfolding.resolution_choices"}

OP = "op"  # the root span of each benchmark operation


class Tracer:
    """Spans in flat lists; ``parent`` holds the index of the enclosing span.

    ``error`` holds the name of the exception a span ended with, or "".
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.error: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # counters read from arguments and outputs at the layer boundary
        self.fiber_calls = 0
        self.fiber_repeats = 0
        self.curves = 0
        self.curve_maps = 0  # distinct maps a curve was built for, per op
        self.segments = 0
        self.accepted_steps = 0
        self.pairs_checked = 0
        self._fibers_seen: set = set()
        self._curve_maps_seen: set = set()
        self._keep: list = []  # holds the op's maps so their ids stay unique

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self.error.append("")
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int, error: str = "") -> None:
        self.end[idx] = perf_counter_ns()
        self.error[idx] = error
        self._stack.pop()

    def run_op(self, fn, *args):
        """One benchmark operation as a root span; resets the per-op memos."""
        self._fibers_seen.clear()
        self._curve_maps_seen.clear()
        self._keep.clear()
        idx = self._open(OP)
        try:
            out = fn(*args)
        except Exception as exc:
            self._close(idx, type(exc).__name__)
            raise
        self._close(idx)
        return out

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        if name in GENERATORS:

            def traced_generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._close(idx)
                        return
                    except Exception as exc:
                        tracer._close(idx, type(exc).__name__)
                        raise
                    tracer._close(idx)
                    yield item

            return traced_generator

        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(idx, type(exc).__name__)
                raise
            tracer._close(idx)
            if observe is not None:
                observe(tracer, args, out)
            return out

        return traced

    def install(self) -> None:
        """Rebind every traced name in the loaded ``dpl`` namespaces."""
        modules = {
            key: m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "dpl" or key.startswith("dpl."))
        }
        for layer, attr in FUNCTIONS:
            home = modules.get(f"dpl.{layer}")
            if home is None:
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(f"{layer}.{attr}", original)
            for m in modules.values():
                if getattr(m, attr, None) is original:
                    self._restore.append((m, attr, original))
                    setattr(m, attr, wrapper)
        for layer, cls_name, attr in METHODS:
            home = modules.get(f"dpl.{layer}")
            if home is None:
                continue
            cls = getattr(home, cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(f"{layer}.{attr}", original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total self time in ns, and errors by type."""
        out: dict[str, dict] = {}
        own = self_times(self.parent, self.start, self.end)
        for name, ns, error in zip(self.names, own, self.error):
            row = out.setdefault(name, {"calls": 0, "self_ns": 0, "errors": {}})
            row["calls"] += 1
            row["self_ns"] += ns
            if error:
                row["errors"][error] = row["errors"].get(error, 0) + 1
        return out

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with a span called ``ancestor`` above them."""
        count = 0
        for idx, n in enumerate(self.names):
            if n != name:
                continue
            p = self.parent[idx]
            while p >= 0 and self.names[p] != ancestor:
                p = self.parent[p]
            count += p >= 0
        return count

    def write(self, path) -> None:
        """Spans as tab-separated lines: index, parent, name, start, end, error."""
        with open(path, "w") as fh:
            rows = zip(self.parent, self.names, self.start, self.end, self.error)
            for idx, (parent, name, t0, t1, error) in enumerate(rows):
                fh.write(f"{idx}\t{parent}\t{name}\t{t0}\t{t1}\t{error}\n")


def self_times(parent: list[int], start: list[int], end: list[int]) -> list[int]:
    """Each span's duration minus the time its direct children cover.

    Spans are recorded by one thread in call order, so children of a span
    never overlap each other and the covered time is their summed duration.
    """
    own = [e - s for s, e in zip(start, end)]
    for idx, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[idx] - start[idx]
    return own


# -- counters read at the layer boundary -----------------------------------


def _observe_fiber(tracer: Tracer, args, out) -> None:
    fmap, y = args[0], args[1]
    key = (id(fmap), getattr(y, "value", y))
    tracer.fiber_calls += 1
    if key in tracer._fibers_seen:
        tracer.fiber_repeats += 1
    else:
        tracer._fibers_seen.add(key)
        tracer._keep.append(fmap)


def _observe_curve(tracer: Tracer, args, out) -> None:
    tracer.curves += 1
    tracer.segments += sum(len(c.segments) for c in out.components)
    if id(out.map) not in tracer._curve_maps_seen:
        tracer._curve_maps_seen.add(id(out.map))
        tracer._keep.append(out.map)
        tracer.curve_maps += 1


def _observe_unfold(tracer: Tracer, args, out) -> None:
    trace = out[1]
    if not trace.reflected:  # a reflected trace repeats its inner call's steps
        tracer.accepted_steps += len(trace.steps) - 1


def _observe_certificate(tracer: Tracer, args, out) -> None:
    tracer.pairs_checked += out.pairs_checked


_OBSERVERS = {
    "circle_maps.fiber": _observe_fiber,
    "double_points.double_point_curve": _observe_curve,
    "unfolding.eliminate_negative_arcs": _observe_unfold,
    "sweeps.embedding_certificate": _observe_certificate,
}


# -- per-layer metrics -------------------------------------------------------

# Calls per op and self time per op, by span name.
CALLS = (
    "circle_maps.fiber",
    "circle_maps.classify_preimage",
    "circle_maps.downward_pair_count",
    "circle_maps.make_map",
    "double_points.double_point_curve",
    "unfolding.eliminate_negative_arcs",
    "unfolding.trace_circuits",
    "unfolding.component_edges",
)
SELF_MS = (
    "circle_maps.fiber",
    "circle_maps.classify_preimage",
    "circle_maps.downward_pair_count",
    "circle_maps.make_map",
    "double_points.double_point_curve",
    "unfolding.eliminate_negative_arcs",
    "unfolding.find_balanced_path",
    "unfolding.pair_count_check",
    "unfolding.build_euler_graph",
    "unfolding.eulerian_resolution",
    "unfolding.trace_circuits",
    "unfolding.resolution_choices",
    "sweeps.validate_movie",
    "sweeps.assign_disks",
    "sweeps.embedding_certificate",
    "space_forms.build_group",
    "space_forms.dcover_consistency",
    "cli.main",
)
VERDICTS = (
    "double_points.realizability_report",
    "double_points.arc_lift_check",
    "double_points.hopf_invariant",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of a traced pass as ``name -> (value, unit)``.

    Calls and self times are means per operation; a layer the workload
    never enters reads 0.
    """
    rows = tracer.summary()
    ops = rows.get(OP, {}).get("calls", 0)

    def calls(span: str) -> float:
        return _ratio(rows.get(span, {}).get("calls", 0), ops)

    def self_ms(span: str) -> float:
        return _ratio(rows.get(span, {}).get("self_ns", 0) / 1e6, ops)

    out = {f"{span}.calls": (calls(span), "calls/op") for span in CALLS}
    out.update({f"{span}.self_ms": (self_ms(span), "ms/op") for span in SELF_MS})
    blocked = rows.get("unfolding.eliminate_negative_arcs", {}).get("errors", {})
    classify_in_unfold = tracer.calls_under(
        "circle_maps.classify_preimage", "unfolding.eliminate_negative_arcs"
    )
    out.update(
        {
            "circle_maps.fiber.repeat_ratio": (
                _ratio(tracer.fiber_repeats, tracer.fiber_calls),
                "ratio",
            ),
            "double_points.curves_per_map": (
                _ratio(tracer.curves, tracer.curve_maps),
                "calls/map",
            ),
            "double_points.segments": (
                _ratio(tracer.segments, tracer.curves),
                "segments/curve",
            ),
            "double_points.verdicts.self_ms": (
                sum(self_ms(span) for span in VERDICTS),
                "ms/op",
            ),
            "unfolding.steps": (_ratio(tracer.accepted_steps, ops), "steps/op"),
            "unfolding.classify_per_step": (
                _ratio(classify_in_unfold, tracer.accepted_steps),
                "calls/step",
            ),
            "unfolding.blocked": (
                _ratio(blocked.get("UnfoldingBlocked", 0), ops),
                "count/op",
            ),
            "sweeps.pairs_checked": (_ratio(tracer.pairs_checked, ops), "pairs/op"),
        }
    )
    return out
