"""The three workloads: their inputs, their set-up and their queries.

Every input comes from the workload seed: the TPC-H tables from
``seed``, the Black-Scholes options from ``seed + 1`` and the Morgan
series from ``seed + 2``.  The program receives only the generated
tables and arrays.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.data.blackscholes import BS_COLUMNS, load_blackscholes_table
from repro.data.morgan import generate_morgan
from repro.data.tpch import generate_tpch
from repro.engine.session import EngineSession
from repro.workloads.bs_queries import (SCALAR_QUERIES, TABLE_QUERIES,
                                        register_bs_udfs)
from repro.workloads.matlab_sources import BLACKSCHOLES_MATLAB, MORGAN_MATLAB
from repro.workloads.tpch_queries import (EXTENDED_PLAIN_QUERIES,
                                          PLAIN_QUERIES, UDF_QUERIES,
                                          register_tpch_udfs)

from hpbench import oracle

ENGINES = ("opt", "c", "naive", "baseline")
#: Every mode a round runs: the four engines warm, and ``opt`` with the
#: plan cache bypassed.
MODES = ENGINES + ("cold",)

#: ``run_sql`` arguments per mode.
SQL_MODES = {
    "opt": dict(backend="pygen", opt_level="opt"),
    "c": dict(backend="cgen", opt_level="opt"),
    "naive": dict(backend="interp", opt_level="naive"),
    "baseline": dict(backend="baseline", opt_level="opt"),
    "cold": dict(backend="pygen", opt_level="opt", use_cache=False),
}
#: ``compile_matlab`` arguments per compiled mode.
MATLAB_MODES = {
    "opt": ("opt", "pygen"),
    "c": ("opt", "cgen"),
    "naive": ("naive", "interp"),
}

PLAIN_IDS = ("q1", "q3", "q5", "q6", "q10", "q12", "q14", "q19")
#: Froid-style UDF forms, each checked against its plain twin.  q19's UDF
#: form is left out: at SF 0.02 its filter selects no row on some seeds,
#: where the engine's empty SUM answers 0.0 instead of NULL.
UDF_IDS = ("q1", "q6", "q12", "q14")
BS_VARIANTS = ("bs0_base", "bs1_med", "bs2_med", "bs3_med")
MORGAN_WINDOW = 1000
#: bs3_med keeps the rows priced above this (the query's own literal).
BS3_THRESHOLD = 20.0

_ALL_PLAIN = {**PLAIN_QUERIES, **EXTENDED_PLAIN_QUERIES}


@dataclass
class Item:
    """One query of a workload.  ``qid`` names it in the per-query
    metrics.  SQL items carry ``sql``; MATLAB programs carry ``matlab``
    as (source, parameter specs, arguments)."""

    qid: str
    check: Callable[[object], "str | None"]
    sql: str | None = None
    matlab: tuple | None = None
    #: False for the known-fault probe: checked every round, never timed.
    timed: bool = True


@dataclass
class Fixture:
    """What one set-up leaves: the session and the inputs it holds."""

    session: EngineSession
    db: object
    sizes: dict
    layer: dict = field(default_factory=dict)
    bs: dict | None = None
    morgan: tuple | None = None


@dataclass
class Workload:
    name: str
    #: (fixture, sqlite connection) -> the workload's items.
    queries: Callable
    scale_factor: float
    udfs: bool
    analyze: bool
    options: int = 0
    morgan_size: int = 0
    #: Set-ups per run; setup_s is their median.
    setups: int = 3

    def setup(self, seed: int) -> Fixture:
        """Generate and load the inputs, open the session, register the
        UDFs and ANALYZE; returns the fixture with each step timed."""
        t0 = time.perf_counter()
        db = generate_tpch(self.scale_factor, seed=seed)
        bs = morgan = None
        if self.options:
            bs_table = load_blackscholes_table(db, self.options,
                                               seed=seed + 1)
            bs = {c: bs_table.column(c) for c in BS_COLUMNS}
        if self.morgan_size:
            morgan = generate_morgan(self.morgan_size, seed=seed + 2)
        t1 = time.perf_counter()
        session = EngineSession(db)
        t2 = time.perf_counter()
        if self.udfs:
            register_tpch_udfs(session)
            if self.options:
                register_bs_udfs(session)
        t3 = time.perf_counter()
        if self.analyze:
            session.analyze()
        t4 = time.perf_counter()
        sizes = {name: db.table(name).num_rows for name in db.table_names()}
        if morgan is not None:
            sizes["morgan"] = len(morgan[0])
        return Fixture(session, db, sizes, layer={
            "setup_s": t4 - t0, "data.gen_s": t1 - t0,
            "udf.register_ms": (t3 - t2) * 1e3,
            "stats.analyze_ms": (t4 - t3) * 1e3,
        }, bs=bs, morgan=morgan)

    def items(self, fixture: Fixture) -> list[Item]:
        """The workload's queries with their checks, answered by sqlite
        and NumPy over this fixture's inputs."""
        conn = oracle.load_sqlite(fixture.db)
        try:
            return self.queries(fixture, conn)
        finally:
            conn.close()


def _sql_item(qid, sql, expected, timed=True) -> Item:
    return Item(qid, lambda result: oracle.check_rows(result, expected),
                sql=sql, timed=timed)


def _tpch_items(conn, plain, udf) -> list[Item]:
    answers = {q: oracle.sqlite_answer(conn, q)
               for q in dict.fromkeys(plain + udf)}
    items = [_sql_item(q, _ALL_PLAIN[q], answers[q]) for q in plain]
    items += [_sql_item("u" + q, UDF_QUERIES[q], answers[q]) for q in udf]
    return items


def _bs_items(data: dict) -> list[Item]:
    prices = oracle.option_prices(data)
    spot = data["spotPrice"]
    # The bs1/bs2 "med" predicate reads an input column: exact.
    spot_mask = (spot < 50) | (spot > 150)
    # bs3 filters on a computed price: rows within rounding of the
    # threshold may fall either way.
    slack = oracle.PRICE_ATOL + oracle.PRICE_RTOL * BS3_THRESHOLD
    price_must = prices > BS3_THRESHOLD + slack
    price_may = prices > BS3_THRESHOLD - slack
    all_rows = np.ones(len(spot), dtype=bool)

    def bs0(result):
        return oracle.check_selection(result, data, all_rows, all_rows,
                                      prices)

    checks = {
        "bs0_base": bs0,
        "bs1_med": lambda r: oracle.check_selection(
            r, data, spot_mask, spot_mask, prices),
        "bs2_med": lambda r: oracle.check_selection(
            r, data, spot_mask, spot_mask, None),
        "bs3_med": lambda r: oracle.check_selection(
            r, data, price_must, price_may, None),
    }
    items = []
    for style, queries in (("scalar", SCALAR_QUERIES),
                           ("table", TABLE_QUERIES)):
        for variant in BS_VARIANTS:
            qid = f"{variant.split('_')[0]}_{style}"
            items.append(Item(qid, checks[variant], sql=queries[variant]))
    return items


def _matlab_items(fixture: Fixture) -> list[Item]:
    data = fixture.bs
    bs_args = [data[c] for c in BS_COLUMNS]
    prices = oracle.option_prices(data)
    price, volume = fixture.morgan
    want = oracle.morgan(MORGAN_WINDOW, price, volume)

    def morgan_check(result):
        got = float(np.asarray(result).reshape(-1)[0])
        if not np.isclose(got, want, rtol=oracle.MORGAN_RTOL, atol=0.0):
            return f"morgan {got!r} != {want!r}"
        return None

    morgan_specs = [("f64", "scalar"), ("f64", "vector"),
                    ("f64", "vector")]
    return [
        Item("ml_blackscholes",
             lambda r: oracle.check_prices(r, prices),
             matlab=(BLACKSCHOLES_MATLAB, None, bs_args)),
        Item("ml_morgan", morgan_check,
             matlab=(MORGAN_MATLAB, morgan_specs,
                     [float(MORGAN_WINDOW), price, volume])),
    ]


def _tpch_queries(fixture, conn):
    return _tpch_items(conn, PLAIN_IDS, ())


def _udf_queries(fixture, conn):
    return (_tpch_items(conn, (), UDF_IDS) + _bs_items(fixture.bs)
            + _matlab_items(fixture))


#: tpch-tiny leaves q19 out in both forms: at SF 0.002 its filter selects
#: no row on most seeds but not all, so the empty-SUM fault would make
#: the failed share depend on the seed.  The probe below shows that fault
#: on every seed instead.
TINY_PLAIN_IDS = tuple(q for q in PLAIN_IDS if q != "q19")
#: The known-fault probe (``sqlite/empty_sum.sql`` is its sqlite twin):
#: l_quantity is drawn from 1..50 on every seed, so SUM must be NULL.
EMPTY_SUM_SQL = """
    SELECT SUM(l_extendedprice) AS total FROM lineitem WHERE l_quantity > 50
"""


def _tiny_queries(fixture, conn):
    probe = _sql_item("empty_sum", EMPTY_SUM_SQL,
                      oracle.sqlite_answer(conn, "empty_sum"), timed=False)
    return _tpch_items(conn, TINY_PLAIN_IDS, UDF_IDS) + [probe]


WORKLOADS = {
    "tpch": Workload("tpch", _tpch_queries, scale_factor=0.05,
                     udfs=False, analyze=True, setups=3),
    "udf": Workload("udf", _udf_queries, scale_factor=0.02, udfs=True,
                    analyze=False, options=200_000, morgan_size=200_000,
                    setups=5),
    "tpch-tiny": Workload("tpch-tiny", _tiny_queries, scale_factor=0.002,
                          udfs=True, analyze=False, setups=15),
}


def all_query_ids() -> list[str]:
    """Every query id any workload holds, in metric order."""
    return (list(PLAIN_IDS) + ["u" + q for q in UDF_IDS]
            + [f"bs{n}_{style}" for style in ("scalar", "table")
               for n in range(4)]
            + ["ml_blackscholes", "ml_morgan"])
