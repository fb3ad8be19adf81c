"""Rounds, checks and metrics for one workload run.

A round runs every query of the workload once in every mode; the modes'
order rotates from round to round, so a slow phase of the host touches
all engines alike.  One untimed warm round fills the plan cache,
compiles the C kernels and runs every check first.  Every round, warm
ones included, counts its operations in ``attempted``.
"""

from __future__ import annotations

import gc
import math
import statistics
import sys
import time
from dataclasses import replace

from repro.matlang.interp import MatlabInterpreter
from repro.matlang.parser import parse_program
from repro.obs import AllocationProfile

from hpbench.trace import SpanLog, instrumented
from hpbench.workloads import (ENGINES, MATLAB_MODES, MODES, SQL_MODES,
                               Item, all_query_ids)

MIB = float(1 << 20)

#: Layers timed on the cold (compile) path: parse → plan → translate →
#: MATLAB front end → optimize → codegen.
COMPILE_LAYERS = {
    "sql.parse_ms": "sql.parse",
    "sql.plan_ms": "sql.plan",
    "horsepower.translate_ms": "horsepower.translate",
    "matlang.frontend_ms": "matlang.frontend",
    "core.optimize_ms": "core.optimize",
    "codegen.ms": "codegen",
}
#: Execution layers: the prepared program's ``run`` on each compiled
#: engine, and the baseline's plan executor (or MATLAB interpreter).
EXEC_LAYERS = {
    "exec.opt_ms": ("exec", "opt"),
    "exec.c_ms": ("exec", "c"),
    "exec.naive_ms": ("exec", "naive"),
    "engine.baseline_exec_ms": ("baseline.exec", "baseline"),
}


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def count_statements(module) -> int:
    return sum(1 for method in module.methods.values()
               for _ in method.walk_stmts())


class Bench:
    """The operations of one workload over one fixture."""

    def __init__(self, session, items: list[Item]):
        self.session = session
        self.items = items
        self.timed = [item for item in items if item.timed]
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self._errors_seen: set = set()
        self._programs: dict = {}
        self._runners = {(item.qid, mode): self._runner(item, mode)
                         for item in items for mode in MODES}

    # -- operations ---------------------------------------------------------

    def _runner(self, item: Item, mode: str):
        session = self.session
        if item.sql is not None:
            kwargs = SQL_MODES[mode]
            return lambda **extra: session.run_sql(item.sql, **kwargs,
                                                   **extra)
        source, specs, args = item.matlab
        if mode == "baseline":
            interp = MatlabInterpreter(parse_program(source))
            return lambda: interp.run(*args)
        if mode == "cold":
            return lambda: session.compile_matlab(source, specs)(*args)
        opt_level, backend = MATLAB_MODES[mode]
        program = session.compile_matlab(source, specs,
                                         opt_level=opt_level,
                                         backend=backend)
        self._programs[(item.qid, mode)] = program
        return lambda **extra: program(*args, **extra)

    def _op(self, item: Item, mode: str, **extra):
        """Run and check one operation; returns its seconds, or None
        when it failed or answered wrong."""
        self.attempted += 1
        try:
            start = time.perf_counter()
            result = self._runners[(item.qid, mode)](**extra)
            seconds = time.perf_counter() - start
        except Exception as exc:  # counted, reported once, run goes on
            self.failed += 1
            key = (item.qid, mode, type(exc).__name__)
            if key not in self._errors_seen:
                self._errors_seen.add(key)
                print(f"{item.qid}/{mode} raised "
                      f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        problem = item.check(result)
        if problem is not None:
            if item.timed:
                self.wrong.append(f"{item.qid}/{mode}: {problem}")
            else:
                self.failed += 1
                if (item.qid, mode) not in self._errors_seen:
                    self._errors_seen.add((item.qid, mode))
                    print(f"{item.qid}/{mode} (known fault): {problem}",
                          file=sys.stderr)
            return None
        return seconds

    def round(self, index: int, times: dict, log: SpanLog | None = None):
        modes = MODES[index % len(MODES):] + MODES[:index % len(MODES)]
        for item in self.items:
            for mode in modes:
                if log is None:
                    done = self._op(item, mode)
                else:
                    with log.op(len(log.ops), item=item.qid, mode=mode):
                        done = self._op(item, mode)
                if done is not None and item.timed:
                    times.setdefault((item.qid, mode), []).append(done)

    # -- the run ------------------------------------------------------------

    def run(self, seconds: float, trace: bool):
        """Warm round, deterministic counts, then timed rounds for
        ``seconds``; traced runs alternate untraced and traced rounds."""
        self.round(0, {})
        counts = self.counts()
        gc.collect()
        gc.freeze()
        times: dict = {}
        traced: dict = {}
        log = SpanLog() if trace else None
        index = 0
        deadline = time.perf_counter() + seconds
        while index < 2 or time.perf_counter() < deadline:
            index += 1
            if trace and index % 2 == 0:
                with instrumented(log):
                    self.round(index, traced, log)
            else:
                self.round(index, times)
        gc.unfreeze()
        return times, traced, counts, log

    def counts(self) -> dict:
        """Deterministic sizes and counts: one profiled run of each query
        on opt and naive, the compile reports, and the UDF bridge's
        conversions over one baseline run of each query."""
        out = dict.fromkeys(
            ("alloc.opt", "alloc.naive", "peak.opt",
             "prof.opt_intermediates", "prof.naive_intermediates",
             "core.stmts_in", "core.stmts_out", "codegen.fused_segments",
             "codegen.c_segments", "engine.udf_values_converted"), 0)
        bridge = self.session.baseline_executor().bridge
        # These runs are measurements, not rounds of operations: a fault
        # they meet is met and counted by every round as well.
        attempted, failed = self.attempted, self.failed
        for item in self.timed:
            for mode in ("opt", "naive"):
                profile = AllocationProfile()
                ctx = replace(self.session.context(), profile=profile)
                if self._op(item, mode, ctx=ctx) is None:
                    continue
                out[f"alloc.{mode}"] += profile.bytes_allocated
                out[f"prof.{mode}_intermediates"] += \
                    profile.intermediates_materialized
                if mode == "opt":
                    out["peak.opt"] = max(out["peak.opt"],
                                          profile.peak_bytes)
            before = bridge.values_converted_in + bridge.values_converted_out
            self._op(item, "baseline")
            out["engine.udf_values_converted"] += (
                bridge.values_converted_in + bridge.values_converted_out
                - before)
            opt, c = self._compiled(item, "opt"), self._compiled(item, "c")
            out["core.stmts_in"] += count_statements(opt[0])
            out["core.stmts_out"] += count_statements(opt[1].module)
            out["codegen.fused_segments"] += opt[1].report.fused_segments
            out["codegen.c_segments"] += c[1].report.c_eligible_segments
        self.attempted, self.failed = attempted, failed
        return out

    def _compiled(self, item: Item, mode: str):
        """(module as built, compiled program) of a warm compile."""
        if item.sql is None:
            program = self._programs[(item.qid, mode)]
            return program.module, program.compiled
        kwargs = dict(SQL_MODES[mode])
        query = self.session.prepare(item.sql, kwargs.pop("opt_level"),
                                     **kwargs).query
        return query.module_before_opt, query.program


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _median_ms(samples) -> float:
    return statistics.median(samples) * 1e3 if samples else 0.0


def end_to_end(bench: Bench, times: dict, counts: dict,
               setup_s: float) -> dict:
    qids = [item.qid for item in bench.timed]
    metrics = {"setup_s": (setup_s, "s")}
    for mode in MODES:
        name = "cold_ms" if mode == "cold" else f"{mode}_ms"
        metrics[name] = (geomean(_median_ms(times[(q, mode)])
                                 for q in qids), "ms")
    metrics["opt_alloc_mib"] = (counts["alloc.opt"] / MIB, "MiB")
    metrics["naive_alloc_mib"] = (counts["alloc.naive"] / MIB, "MiB")
    metrics["opt_peak_mib"] = (counts["peak.opt"] / MIB, "MiB")
    return metrics


def per_layer(bench: Bench, times: dict, traced: dict, counts: dict,
              log: SpanLog, layer_setup: dict) -> dict:
    timed = bench.timed
    qids = [item.qid for item in timed]
    self_times = log.self_times()
    inclusive = {name: log.inclusive(name)
                 for name in ("run_sql", "exec", "baseline.exec")}
    by_key: dict = {}
    for op_id, args in log.ops.items():
        by_key.setdefault((args["item"], args["mode"]), []).append(op_id)

    metrics = {
        "data.gen_s": (layer_setup["data.gen_s"], "s"),
        "udf.register_ms": (layer_setup["udf.register_ms"], "ms"),
        "stats.analyze_ms": (layer_setup["stats.analyze_ms"], "ms"),
    }
    for metric, layer in COMPILE_LAYERS.items():
        per_query = [_median_ms([self_times[op].get(layer, 0.0)
                                for op in by_key.get((q, "cold"), [])])
                     for q in qids]
        metrics[metric] = (statistics.fmean(per_query), "ms")
    for name in ("core.stmts_in", "core.stmts_out",
                 "codegen.fused_segments", "codegen.c_segments"):
        metrics[name] = (counts[name], "count")
    for metric, (layer, mode) in EXEC_LAYERS.items():
        per_query = [_median_ms([inclusive[layer][op]
                                for op in by_key.get((q, mode), [])
                                if op in inclusive[layer]])
                     for q in qids]
        metrics[metric] = (geomean(v for v in per_query if v > 0)
                           if any(per_query) else 0.0, "ms")
    metrics["engine.udf_values_converted"] = (
        counts["engine.udf_values_converted"], "count")
    overhead = [_median_ms([inclusive["run_sql"][op] - inclusive["exec"][op]
                           for op in by_key.get((item.qid, "opt"), [])
                           if op in inclusive["exec"]])
                for item in timed if item.sql is not None]
    metrics["session.overhead_ms"] = (statistics.fmean(overhead)
                                      if overhead else 0.0, "ms")
    metrics["cache.misses"] = (bench.session.cache_stats.misses, "count")
    metrics["prof.opt_intermediates"] = (counts["prof.opt_intermediates"],
                                         "count")
    metrics["prof.naive_intermediates"] = (
        counts["prof.naive_intermediates"], "count")
    held = set(qids)
    for engine in ENGINES:
        for qid in all_query_ids():
            value = (_median_ms(times[(qid, engine)]) if qid in held
                     else 0.0)
            metrics[f"query.{engine}.{qid}_ms"] = (value, "ms")
    deltas = [_median_ms(traced[key]) - _median_ms(times[key])
              for key in times if key in traced]
    metrics["trace.overhead_ms"] = (statistics.fmean(deltas), "ms")
    return metrics
