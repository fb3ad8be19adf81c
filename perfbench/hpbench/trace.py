"""The benchmark's own spans around the program's public layer calls.

During a traced round, :func:`instrumented` replaces each layer function
named in :data:`LAYER_CALLS` with a wrapper that records a span (name,
start, end, parent) into a :class:`SpanLog`, and restores the originals
on exit.  Untraced rounds run the program untouched.  Spans of one
operation share its id; a layer's self time is its span's duration
minus its child spans'.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

#: (module, attribute, span name).  An attribute "Class.method" wraps a
#: method.  Module functions are wrapped where their callers look them
#: up: ``repro.engine.session`` imports the SQL front end by name.
LAYER_CALLS = (
    ("repro.engine.session", "EngineSession.run_sql", "run_sql"),
    ("repro.engine.session", "parse_sql", "sql.parse"),
    ("repro.engine.session", "plan_query", "sql.plan"),
    ("repro.engine.session", "plan_to_json", "sql.plan"),
    ("repro.horsepower.translate", "build_query_module",
     "horsepower.translate"),
    ("repro.horsepower.translate", "matlab_to_module", "matlang.frontend"),
    ("repro.engine.session", "matlab_to_module", "matlang.frontend"),
    ("repro.core.compiler", "optimize", "core.optimize"),
    ("repro.engine.backends", "optimize", "core.optimize"),
    ("repro.engine.backends", "PygenBackend.compile", "codegen"),
    ("repro.engine.backends", "CgenBackend.compile", "codegen"),
    ("repro.engine.backends", "InterpBackend.compile", "codegen"),
    ("repro.core.compiler", "CompiledProgram.run", "exec"),
    ("repro.engine.backends", "InterpProgram.run", "exec"),
    ("repro.engine.executor", "PlanExecutor.execute", "baseline.exec"),
    ("repro.matlang.interp", "MatlabInterpreter.run", "baseline.exec"),
)


class SpanLog:
    """Spans kept in memory: ``(name, op, start, end, parent)`` tuples,
    ``parent`` being an index into :attr:`spans` or -1."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.ops: dict[int, dict] = {}
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def op(self, op_id: int, **args):
        """The root span of one benchmark operation."""
        self._op = op_id
        self.ops[op_id] = args
        with self.span("op"):
            yield
        self._op = -1

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, self._op, start, end, parent)

    def self_times(self) -> dict[int, dict[str, float]]:
        """op id -> layer name -> self seconds (``op`` is the
        benchmark's own share: time outside every layer call)."""
        child = [0.0] * len(self.spans)
        for name, op, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = {}
        for index, (name, op, start, end, parent) in enumerate(self.spans):
            layers = out.setdefault(op, {})
            layers[name] = layers.get(name, 0.0) + (end - start
                                                    - child[index])
        return out

    def inclusive(self, name: str) -> dict[int, float]:
        """op id -> total seconds inside outermost ``name`` spans."""
        out: dict[int, float] = {}
        for span_name, op, start, end, parent in self.spans:
            if span_name == name and (
                    parent < 0 or self.spans[parent][0] != name):
                out[op] = out.get(op, 0.0) + end - start
        return out

    def chrome_trace(self) -> str:
        """Chrome-trace JSON ("X" events, microseconds)."""
        origin = min((s[2] for s in self.spans), default=0.0)
        events = [{
            "name": name, "ph": "X", "pid": 1, "tid": 1,
            "ts": round((start - origin) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "args": dict(self.ops.get(op, {}), op=op),
        } for name, op, start, end, parent in self.spans]
        return json.dumps({"traceEvents": events,
                           "displayTimeUnit": "ms"})


def _wrap(fn, name: str, log: SpanLog):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with log.span(name):
            return fn(*args, **kwargs)
    return wrapper


@contextmanager
def instrumented(log: SpanLog):
    """Wrap every :data:`LAYER_CALLS` entry for the duration."""
    saved = []
    try:
        for module_name, attr, name in LAYER_CALLS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            saved.append((owner, leaf, original))
            setattr(owner, leaf, _wrap(original, name, log))
        yield log
    finally:
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)
