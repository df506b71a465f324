"""Span recorder, wrapper installer and trace reader.

A span is ``(name, start, end, parent, trace)``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``trace`` is the
round index (-1 outside rounds).  Counters are ``(name, value, trace,
parent)`` and hang off the span open when they were recorded.  Spans
stay in memory and are written as JSONL when the cell ends.

The cell always records its own top-level spans (one per call it
makes into the program).  :func:`install` additionally wraps public
callables of every layer so their calls become child spans; it is
used only in traced runs, so untraced runs execute the program
unmodified.  A layer's self time is its span's duration minus the time
covered by its direct child spans.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager

clock = time.perf_counter


class Recorder:
    """In-memory spans and counters of one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.traces: list[int] = []
        self.counters: list[tuple[str, float, int, int]] = []
        self.trace_id = -1
        self.enabled = True
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.traces.append(self.trace_id)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(clock())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out "
                               f"of order (open: {self.names[popped]!r})")

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def duration(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    def count(self, name: str, value: float) -> None:
        self.counters.append((name, float(value), self.trace_id,
                              self._stack[-1] if self._stack else -1))

    def write_jsonl(self, path: str, meta: dict) -> None:
        with open(path, "w") as out:
            out.write(json.dumps({"meta": meta}) + "\n")
            for i, name in enumerate(self.names):
                out.write(json.dumps(
                    [name, self.starts[i], self.ends[i], self.parents[i],
                     self.traces[i]]) + "\n")
            for name, value, trace, parent in self.counters:
                out.write(json.dumps({"counter": name, "value": value,
                                      "trace": trace,
                                      "parent": parent}) + "\n")


# ----------------------------------------------------------------------
# wrapper installer (traced runs only)
# ----------------------------------------------------------------------

def _spanned(recorder: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        index = recorder.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end(index)
    return wrapper


def _patch(owner, attr: str, recorder: Recorder, name: str) -> None:
    setattr(owner, attr, _spanned(recorder, name, getattr(owner, attr)))


def _subclasses(base: type) -> list[type]:
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def _optimizer_step(recorder: Recorder, fn: Callable) -> Callable:
    """``step`` spans named after the runtime optimizer class; DP-SGD
    is the LDP defense's optimizer and reports under its layer."""
    names: dict[type, str] = {}

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        if not recorder.enabled:
            return fn(self, *args, **kwargs)
        cls = type(self)
        name = names.get(cls)
        if name is None:
            layer = "privacy.defenses" if cls.__name__ == "DPSGD" \
                else "nn.optimizer"
            name = names[cls] = f"{layer}.{cls.__name__}.step"
        index = recorder.begin(name)
        try:
            return fn(self, *args, **kwargs)
        finally:
            recorder.end(index)
    return wrapper


#: Defense hooks -> span names (the executor state protocol is one
#: ``state_io`` span family).
DEFENSE_HOOKS = {
    "on_round_start": "privacy.defenses.round_start",
    "on_receive_global": "privacy.defenses.receive",
    "on_send_update": "privacy.defenses.send",
    "on_aggregate": "privacy.defenses.aggregate",
    "export_client_state": "privacy.defenses.state_io",
    "import_client_state": "privacy.defenses.state_io",
    "export_round_state": "privacy.defenses.state_io",
    "import_round_state": "privacy.defenses.state_io",
}


def install(recorder: Recorder) -> None:
    """Wrap the program's public callables, layer by layer.

    Patches classes and module attributes of the already imported
    program in this process.  Forked workers inherit the wrappers but
    record nothing: the recorder disables itself in fork children, so
    only the parent's spans are kept.
    """
    import repro.fl.server as server_module
    import repro.privacy.attacks.metrics as attack_metrics
    from repro.fl.aggregation import StreamingAccumulator
    from repro.fl.client import FLClient
    from repro.fl.server import FLServer
    from repro.fl.virtual import PersonalWeightsRegistry, VirtualClientFleet
    from repro.nn.layers import Layer
    from repro.nn.model import Model
    from repro.nn.optim import Optimizer
    from repro.privacy.attacks.shadow import ShadowAttack
    from repro.privacy.attacks.threshold import LossThresholdAttack
    from repro.privacy.defenses.base import Defense

    os.register_at_fork(
        after_in_child=lambda: setattr(recorder, "enabled", False))

    _patch(FLServer, "select_clients", recorder, "fl.server.select")
    _patch(FLServer, "aggregate", recorder, "fl.server.aggregate")
    _patch(StreamingAccumulator, "fold", recorder, "fl.aggregation.fold")
    for rule in ("clustered_mean", "trimmed_mean", "coordinate_median"):
        _patch(server_module, rule, recorder, "fl.aggregation.robust")
    _patch(VirtualClientFleet, "materialize", recorder,
           "fl.virtual.materialize")
    _patch(VirtualClientFleet, "evaluate_weights", recorder,
           "fl.virtual.evaluate")
    _patch(PersonalWeightsRegistry, "put", recorder,
           "fl.virtual.registry_put")
    _patch(FLClient, "train_round", recorder, "fl.client.train_round")

    _patch(Model, "loss_and_grad", recorder, "nn.loss_and_grad")
    _patch(Model, "predict_logits", recorder, "nn.predict")
    for cls in _subclasses(Layer)[1:]:
        for method in ("forward", "backward"):
            if method in vars(cls):
                _patch(cls, method, recorder,
                       f"nn.layer.{cls.__name__}.{method}")
    for cls in _subclasses(Optimizer):
        if "step" in vars(cls):
            cls.step = _optimizer_step(recorder, cls.step)

    for cls in _subclasses(Defense):
        for hook, name in DEFENSE_HOOKS.items():
            if hook in vars(cls):
                _patch(cls, hook, recorder, name)

    for cls in (LossThresholdAttack, ShadowAttack):
        _patch(cls, "score", recorder, "privacy.attacks.score")
    _patch(ShadowAttack, "fit", recorder, "privacy.attacks.fit")
    _patch(attack_metrics, "attack_auc", recorder, "privacy.attacks.auc")


def wrap_executor(recorder: Recorder, executor) -> None:
    """Time the parent's waits on one executor's result stream.

    Each ``next()`` on ``iter_round`` becomes an ``fl.executor.wait``
    span; each yielded ``ClientRoundResult`` records the client's
    measured train + defense seconds, wherever it ran.
    """
    iter_round = executor.iter_round

    def traced_iter_round(tasks):
        results = iter_round(tasks)
        try:
            while True:
                index = recorder.begin("fl.executor.wait")
                try:
                    result = next(results)
                except StopIteration:
                    return
                finally:
                    recorder.end(index)
                recorder.count("fl.client.round_s",
                               result.train_seconds
                               + result.defense_seconds)
                yield result
        finally:
            results.close()

    executor.iter_round = traced_iter_round


# ----------------------------------------------------------------------
# reading a trace back
# ----------------------------------------------------------------------

class Trace:
    """A written trace: meta, spans as parallel lists, counters."""

    def __init__(self, meta: dict, spans: list[list],
                 counters: list[dict]) -> None:
        self.meta = meta
        self.names = [s[0] for s in spans]
        self.starts = [s[1] for s in spans]
        self.ends = [s[2] for s in spans]
        self.parents = [s[3] for s in spans]
        self.traces = [s[4] for s in spans]
        self.counters = counters
        self.durations = [e - s for s, e in zip(self.starts, self.ends)]
        child_time = [0.0] * len(spans)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.durations[index]
        self.self_times = [d - c for d, c in
                           zip(self.durations, child_time)]

    @classmethod
    def load(cls, path: str) -> "Trace":
        meta: dict = {}
        spans: list[list] = []
        counters: list[dict] = []
        with open(path) as lines:
            for line in lines:
                record = json.loads(line)
                if isinstance(record, list):
                    spans.append(record)
                elif "meta" in record:
                    meta = record["meta"]
                else:
                    counters.append(record)
        return cls(meta, spans, counters)

    def by_name(self) -> dict[str, dict[str, float]]:
        """Calls, total and self seconds per span name.

        A span directly inside a span of the same name (an override
        calling its wrapped base method) adds to the self time but not
        again to the total.
        """
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index, name in enumerate(self.names):
            row = table[name]
            parent = self.parents[index]
            if parent < 0 or self.names[parent] != name:
                row["calls"] += 1
                row["total_s"] += self.durations[index]
            row["self_s"] += self.self_times[index]
        return dict(table)

    def counter_values(self, name: str) -> list[float]:
        return [c["value"] for c in self.counters if c["counter"] == name]
