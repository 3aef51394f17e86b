"""Span tracing of gsvkit's public functions, installed from outside.

:class:`Tracer` replaces each traced public function with a wrapper in
every gsvkit module namespace that holds it (modules import each other's
functions by name), and puts the originals back on :meth:`uninstall`.
Only the traced run installs it; the timed run calls the program as is.

A span is (name, start, end, parent span, job).  Spans are nested, since
the program is single-threaded and synchronous, so a span's self time is
its duration minus the durations of its direct children.  Spans stay in
memory and :meth:`write_spans` writes them out once the run is over.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
from array import array
from time import perf_counter

# module -> public functions timed as spans (methods as "Class.method")
SPANNED = {
    "model": ["validate_source", "sample_sequence"],
    "linalg": ["rref", "nullspace", "solve"],
    "classify": ["classify", "check_nk", "check_nk_plus", "check_hnk", "kernel_basis",
                 "dual_certificate", "mvr_witness"],
    "extractors": ["threshold_step", "bit_exp_step", "multibit_step_naive",
                   "multibit_extract_naive", "threshold_extract", "bit_extract_exp"],
    "fastmultibit": ["multibit_extract_fast", "FastMultibitState.advance",
                     "FastMultibitState.winner"],
    "oracle": ["exact_extremes", "output_distribution", "exact_multibit_error",
               "greedy_plus_strategy"],
    "cli": ["main"],
}
_STEP_FUNCTIONS = ("extractors.threshold_step", "extractors.bit_exp_step",
                   "extractors.multibit_step_naive")
_ORACLE_PREFIX = "oracle."

#: per-layer metrics reported by the traced run, in BENCHMARK.json order
PER_LAYER = [
    ("model.validate_source.self_s", "s"),
    ("model.sample_sequence.self_s", "s"),
    ("model.sample_sequence.faces", "count"),
    ("model.strategy_choose.calls", "count"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.self_s", "s"),
    ("linalg.nullspace.calls", "count"),
    ("linalg.solve.calls", "count"),
    ("linalg.solve.self_s", "s"),
    ("classify.check_hnk.calls", "count"),
    ("classify.check_hnk.self_s", "s"),
    ("classify.kernel_basis.calls_per_job", "count"),
    ("classify.check_nk_plus.self_s", "s"),
    ("classify.dual_certificate.self_s", "s"),
    ("classify.mvr_witness.self_s", "s"),
    ("extractors.threshold_step.calls", "count"),
    ("extractors.threshold_step.self_s", "s"),
    ("extractors.bit_exp_step.calls", "count"),
    ("extractors.bit_exp_step.self_s", "s"),
    ("extractors.multibit_extract_naive.self_s", "s"),
    ("extractors.multibit_step_naive.calls", "count"),
    ("fastmultibit.advance.calls", "count"),
    ("fastmultibit.advance.self_s", "s"),
    ("fastmultibit.winner.self_s", "s"),
    ("fastmultibit.groups_max", "count"),
    ("oracle.exact_extremes.self_s", "s"),
    ("oracle.output_distribution.self_s", "s"),
    ("oracle.exact_multibit_error.self_s", "s"),
    ("oracle.greedy_plus_strategy.self_s", "s"),
    ("oracle.step_calls", "count"),
    ("oracle.distinct_state_ratio", "ratio"),
    ("oracle.strategy_tree_nodes", "count"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("trace.overhead_s", "s"),
]


def _tree_nodes(node) -> int:
    return 1 + sum(_tree_nodes(child) for child in node.get("children", {}).values())


class Tracer:
    """Records spans and per-layer counters for one traced pass."""

    def __init__(self, package):
        self._package = package
        self._patches: list[tuple[object, str, object]] = []
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        # span columns: name id, start, end, parent span (-1 at the root), job
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.jobs: list[str] = []
        self._stack: list[list] = []  # [span index, child time]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters = {"faces": 0, "choose": 0, "oracle_steps": 0, "distinct": 0,
                         "tree_nodes": 0, "groups_max": 0, "bytes": 0}
        self._oracle_open = 0
        self._distinct: set | None = None
        self._depth = 0
        self._fold_depth: int | None = None
        self._fast_states: list = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        pkg = self._package
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == pkg.__name__ or name.startswith(pkg.__name__ + "."))]
        for short, names in SPANNED.items():
            # sys.modules, not getattr: gsvkit.classify is also a function name
            module = sys.modules[f"{pkg.__name__}.{short}"]
            for qual in names:
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(module, cls_name)
                    label = f"{short}.{attr}"
                    self._patch(cls, attr, self._span(label, cls.__dict__[attr]))
                else:
                    original = getattr(module, qual)
                    wrapper = self._span(f"{short}.{qual}", original)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, wrapper)
        strategy = sys.modules[f"{pkg.__name__}.model"].Strategy
        self._patch(strategy, "choose", self._count_choose(strategy.__dict__["choose"]))
        from_tree = strategy.__dict__["from_tree"].__func__
        self._patch(strategy, "from_tree", classmethod(self._count_tree(from_tree)))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    # -- wrappers ---------------------------------------------------------

    def _span(self, label: str, fn):
        name_id = self._name_id.setdefault(label, len(self.names))
        if name_id == len(self.names):
            self.names.append(label)
        self.calls.setdefault(label, 0)
        self.self_s.setdefault(label, 0.0)
        is_oracle = label.startswith(_ORACLE_PREFIX)
        is_step = label in _STEP_FUNCTIONS
        is_sample = label == "model.sample_sequence"
        is_advance = label == "fastmultibit.advance"
        signature = inspect.signature(fn) if is_oracle else None
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.span_start)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_job.append(len(tracer.jobs) - 1)
            tracer.span_end.append(0.0)
            outermost_oracle = is_oracle and tracer._oracle_open == 0
            if is_oracle:
                if outermost_oracle:
                    args, kwargs = tracer._with_depth_table(signature, args, kwargs)
                    tracer._distinct = set()
                tracer._oracle_open += 1
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            tracer.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.span_end[index] = end
                tracer.calls[label] += 1
                tracer.self_s[label] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if is_oracle:
                    tracer._oracle_open -= 1
                    if outermost_oracle:
                        tracer.counters["distinct"] += len(tracer._distinct)
                        tracer._distinct = None
            if is_step and tracer._oracle_open:
                tracer._record_state(result)
            elif is_sample:
                tracer.counters["faces"] += len(result)
            elif is_advance:
                tracer._fast_states.append(args[0])
            return result

        return wrapper

    def _count_choose(self, fn):
        counters = self.counters

        def choose(*args, **kwargs):
            counters["choose"] += 1
            return fn(*args, **kwargs)

        return choose

    def _count_tree(self, fn):
        tracer = self

        def from_tree(cls, tree, face_labels):
            if tracer._oracle_open:
                tracer.counters["tree_nodes"] += _tree_nodes(tree)
            return fn(cls, tree, face_labels)

        return from_tree

    # -- oracle state accounting -------------------------------------------

    def _with_depth_table(self, signature, args, kwargs):
        """Give the oracle a copy of its extractor table whose states carry
        their depth, so that (depth, state) pairs can be counted.  Outputs
        are unchanged: the copy unwraps the state before every call."""
        bound = signature.bind(*args, **kwargs)
        ext = bound.arguments.get("ext")
        if ext is None:
            return args, kwargs
        tracer = self
        step, finish, fn = ext.step, ext.finish, ext.fn

        def folded(faces):
            tracer._fold_depth = 0
            try:
                return fn(faces)
            finally:
                tracer._fold_depth = None

        changes = {"fn": folded}
        if step is not None:
            def depth_step(state, face):
                depth, inner = state
                tracer._depth = depth + 1
                return depth + 1, step(inner, face)

            changes.update(init=(0, ext.init), step=depth_step,
                           finish=lambda state: finish(state[1]))
        bound.arguments["ext"] = dataclasses.replace(ext, **changes)
        return bound.args, bound.kwargs

    def _record_state(self, state) -> None:
        self.counters["oracle_steps"] += 1
        if self._fold_depth is not None:
            self._fold_depth += 1
            depth = self._fold_depth
        else:
            depth = self._depth
        self._distinct.add((depth, state))

    # -- jobs and results --------------------------------------------------

    def begin_job(self, job_id: str) -> None:
        self.jobs.append(job_id)
        self._fast_states = []

    def end_job(self, bytes_written: int) -> None:
        self.counters["bytes"] += bytes_written
        for state in self._fast_states:
            self.counters["groups_max"] = max(self.counters["groups_max"], len(state.groups))
        self._fast_states = []

    def metrics(self, overhead_s: float) -> dict[str, float]:
        calls, self_s, c = self.calls, self.self_s, self.counters
        classify_calls = calls["classify.classify"]
        steps = c["oracle_steps"]
        values = {
            "model.validate_source.self_s": self_s["model.validate_source"],
            "model.sample_sequence.self_s": self_s["model.sample_sequence"],
            "model.sample_sequence.faces": c["faces"],
            "model.strategy_choose.calls": c["choose"],
            "classify.kernel_basis.calls_per_job":
                calls["classify.kernel_basis"] / classify_calls if classify_calls else 0.0,
            "fastmultibit.groups_max": c["groups_max"],
            "oracle.step_calls": steps,
            "oracle.distinct_state_ratio": c["distinct"] / steps if steps else 0.0,
            "oracle.strategy_tree_nodes": c["tree_nodes"],
            "cli.self_s": self_s["cli.main"],
            "cli.bytes_written": c["bytes"],
            "trace.overhead_s": overhead_s,
        }
        for name, _unit in PER_LAYER:
            if name in values:
                continue
            layer_fn, _, kind = name.rpartition(".")
            values[name] = calls[layer_fn] if kind == "calls" else self_s[layer_fn]
        return values

    def write_spans(self, path: str) -> None:
        """Write every span as a tab-separated line, parents before children."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tjob\tname\tstart_s\tend_s\n")
            origin = self.span_start[0] if self.span_start else 0.0
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{self.span_parent[i]}\t{self.jobs[self.span_job[i]]}\t"
                         f"{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i] - origin:.9f}\t{self.span_end[i] - origin:.9f}\n")
