"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root:

    python3 -m pytest perfbench/test_hpbench.py -q
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from repro.core import types as ht  # noqa: E402
from repro.core.values import TableValue, Vector  # noqa: E402
from repro.data.blackscholes import BS_COLUMNS, calc_option_price  # noqa: E402
from repro.engine.table import ColumnTable  # noqa: E402

from hpbench import oracle, trace  # noqa: E402
from hpbench.workloads import WORKLOADS  # noqa: E402

SEED = 5


@pytest.fixture(scope="module")
def tiny():
    workload = WORKLOADS["tpch-tiny"]
    fixture = workload.setup(SEED)
    yield fixture, {item.qid: item for item in workload.items(fixture)}
    fixture.session.close()


def _perturbed(result, column: int, row: int):
    """A copy of ``result`` with one numeric value changed by 0.1%."""
    pairs = []
    for index, (name, vector) in enumerate(result.columns()):
        data = vector.data.copy()
        if index == column:
            data[row] = data[row] * 1.001 + 1e-6
        pairs.append((name, Vector(vector.type, data)))
    return TableValue(pairs)


@pytest.mark.parametrize("qid,column", [("q1", 2), ("q6", 0),
                                        ("uq14", 0), ("q12", 1)])
def test_perturbed_sql_answer_fails_the_sqlite_check(tiny, qid, column):
    fixture, items = tiny
    result = fixture.session.run_sql(items[qid].sql)
    assert items[qid].check(result) is None
    assert items[qid].check(_perturbed(result, column, 0)) is not None


def test_empty_sum_probe_expects_null(tiny):
    fixture, items = tiny
    probe = items["empty_sum"]
    assert probe.timed is False
    zero = fixture.session.run_sql(probe.sql)
    null = ColumnTable("result", {"total": np.array([None], dtype=object)})
    assert probe.check(null) is None
    # The engine's answer today (0.0) is the counted fault; once the
    # engine answers NULL the probe passes.
    assert (probe.check(zero) is None) == (
        zero.column("total").data[0] is None)


def _f64(array):
    return Vector(ht.F64, np.asarray(array, dtype=np.float64))


def test_perturbed_price_fails_the_numpy_check():
    rng = np.random.default_rng(0)
    data = {"spotPrice": rng.uniform(2, 200, 50),
            "strike": rng.uniform(2, 200, 50),
            "rate": rng.uniform(0.01, 0.1, 50),
            "volatility": rng.uniform(0.05, 0.65, 50),
            "otime": rng.uniform(0.05, 4, 50),
            "optionType": rng.integers(0, 2, 50).astype(np.float64)}
    prices = oracle.option_prices(data)
    program = calc_option_price(*(data[c] for c in BS_COLUMNS))
    assert oracle.check_prices(program, prices) is None
    program[7] += 1e-4
    assert oracle.check_prices(program, prices) is not None

    everything = np.ones(50, dtype=bool)
    names = ("spotPrice", "optionType")
    table = TableValue([(name, _f64(data[name])) for name in names])
    assert oracle.check_selection(table, data, everything, everything,
                                  None) is None
    dropped = TableValue([(name, _f64(data[name][1:])) for name in names])
    assert oracle.check_selection(dropped, data, everything, everything,
                                  None) is not None


def _layer_calls():
    found = []
    for module, attr, _ in trace.LAYER_CALLS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        found.append(owner)
    return found


def test_instrumented_restores_every_layer_call():
    before = _layer_calls()
    with trace.instrumented(trace.SpanLog()):
        assert all(a is not b for a, b in zip(before, _layer_calls()))
    assert _layer_calls() == before


def test_self_time_subtracts_children():
    log = trace.SpanLog()
    with log.op(0, item="x", mode="opt"):
        with log.span("outer"):
            with log.span("inner"):
                pass
    selfs = log.self_times()[0]
    outer = [s for s in log.spans if s[0] == "outer"][0]
    inner = [s for s in log.spans if s[0] == "inner"][0]
    assert selfs["outer"] == pytest.approx(
        (outer[3] - outer[2]) - (inner[3] - inner[2]))
    events = json.loads(log.chrome_trace())["traceEvents"]
    assert {e["name"] for e in events} == {"op", "outer", "inner"}


def _run(workload, trace_flag, cwd=ROOT, seconds="0.2"):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", seconds,
         "--trace", str(trace_flag)],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tiny_runs():
    return {flag: [_result(_run("tpch-tiny", flag)) for _ in range(2)]
            for flag in (0, 1)}


def test_every_declared_metric_is_printed_with_its_unit(tiny_runs):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for flag, section in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        printed = {name: m["unit"]
                   for name, m in tiny_runs[flag][0]["metrics"].items()}
        assert printed == declared
    for name, metric in tiny_runs[0][0]["metrics"].items():
        assert metric["value"] > 0, name


DETERMINISTIC_E2E = ("opt_alloc_mib", "naive_alloc_mib", "opt_peak_mib")
DETERMINISTIC_LAYER = ("core.stmts_in", "core.stmts_out",
                       "codegen.fused_segments", "codegen.c_segments",
                       "engine.udf_values_converted", "cache.misses",
                       "prof.opt_intermediates", "prof.naive_intermediates")


def test_deterministic_counts_repeat_exactly(tiny_runs):
    for flag, names in ((0, DETERMINISTIC_E2E), (1, DETERMINISTIC_LAYER)):
        first, second = tiny_runs[flag]
        for name in names:
            assert (first["metrics"][name]["value"]
                    == second["metrics"][name]["value"]), name


def test_only_the_empty_sum_probe_fails(tiny_runs):
    for runs in tiny_runs.values():
        for result in runs:
            assert result["correct"] is True
            # Five modes of one probe fail in every round of 12 queries.
            assert result["failed"] * 12 == result["attempted"]


def test_without_program_source_it_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("tpch-tiny", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
