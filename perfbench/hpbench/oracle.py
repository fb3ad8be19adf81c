"""Checks made apart from the program under test.

* TPC-H answers come from stdlib ``sqlite3``: the generated tables are
  copied into an in-memory database and each query is run from its own
  sqlite-dialect text in ``perfbench/sqlite/``.
* Black-Scholes prices and Morgan come from this module's own NumPy
  formulas (PARSEC's polynomial CNDF), not from ``repro.data``.

A check returns ``None`` when the result is right and a one-line reason
when it is not.
"""

from __future__ import annotations

import math
import os
import re
import sqlite3

import numpy as np

SQLITE_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "sqlite")

#: Relative and absolute tolerance for numbers in SQL answers.  Sums of
#: up to ~3e5 positive doubles in another order differ by ~n*eps ~ 3e-11.
SQL_RTOL = 1e-9
SQL_ATOL = 1e-9
#: Black-Scholes prices: |got - want| <= PRICE_ATOL + PRICE_RTOL*|want|.
#: Call and put values subtract two products, so last-bit differences in
#: exp/log surface as absolute, not relative, error.
PRICE_RTOL = 1e-9
PRICE_ATOL = 1e-8
#: Morgan folds ~2e5 terms into one scalar.
MORGAN_RTOL = 1e-9


def sqlite_text(name: str) -> str:
    with open(os.path.join(SQLITE_DIR, f"{name}.sql")) as handle:
        return handle.read()


def load_sqlite(db) -> sqlite3.Connection:
    """Copy into an in-memory sqlite database every column that some
    query text in ``perfbench/sqlite/`` names.  Dates become ISO text,
    which sorts like the dates."""
    words = set()
    for entry in os.listdir(SQLITE_DIR):
        with open(os.path.join(SQLITE_DIR, entry)) as handle:
            words.update(re.findall(r"\w+", handle.read()))
    conn = sqlite3.connect(":memory:")
    for name in db.table_names():
        table = db.table(name)
        names = [c for c in table.column_names if c in words]
        if not names:
            continue
        columns = [_to_python(table.column(c)) for c in names]
        conn.execute(f"CREATE TABLE {name} ({', '.join(names)})")
        marks = ", ".join("?" * len(columns))
        conn.executemany(f"INSERT INTO {name} VALUES ({marks})",
                         zip(*columns))
    conn.commit()
    return conn


def _to_python(array: np.ndarray) -> list:
    if array.dtype.kind == "M":
        return np.datetime_as_string(array, unit="D").tolist()
    return array.tolist()


def sqlite_answer(conn: sqlite3.Connection, name: str) -> list[tuple]:
    return conn.execute(sqlite_text(name)).fetchall()


def result_columns(result) -> list[np.ndarray]:
    """The columns of a ``TableValue`` or ``ColumnTable``, in order."""
    columns = []
    for name in result.column_names:
        column = result.column(name)
        columns.append(column if isinstance(column, np.ndarray)
                       else column.data)
    return columns


def result_rows(result) -> list[tuple]:
    columns = [_to_python(c) for c in result_columns(result)]
    return list(zip(*columns))


def check_rows(result, expected: list[tuple]) -> str | None:
    """Compare an engine's table with sqlite's rows, in order, by
    position (column names differ between the dialects)."""
    got = result_rows(result)
    if len(got) != len(expected):
        return f"{len(got)} rows, sqlite has {len(expected)}"
    for index, (row, want) in enumerate(zip(got, expected)):
        if len(row) != len(want):
            return f"row {index}: {len(row)} columns, sqlite has {len(want)}"
        for column, (a, b) in enumerate(zip(row, want)):
            if not _same(a, b):
                return f"row {index} column {column}: {a!r} != {b!r}"
    return None


def _same(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return math.isclose(float(a), float(b), rel_tol=SQL_RTOL,
                        abs_tol=SQL_ATOL)


# ---------------------------------------------------------------------------
# NumPy formulas
# ---------------------------------------------------------------------------

def cndf(x: np.ndarray) -> np.ndarray:
    """PARSEC's polynomial approximation of the normal CDF."""
    ax = np.abs(x)
    k = 1.0 / (1.0 + 0.2316419 * ax)
    poly = k * (0.319381530 + k * (-0.356563782 + k * (
        1.781477937 + k * (-1.821255978 + k * 1.330274429))))
    n = 1.0 - np.exp(-0.5 * ax * ax) / math.sqrt(2.0 * math.pi) * poly
    return np.where(x >= 0.0, n, 1.0 - n)


def option_prices(data: dict[str, np.ndarray]) -> np.ndarray:
    """European option prices; ``optionType`` 0 is a call, 1 a put."""
    s, k = data["spotPrice"], data["strike"]
    r, v, t = data["rate"], data["volatility"], data["otime"]
    sqrt_t = np.sqrt(t)
    d1 = (np.log(s / k) + (r + 0.5 * v * v) * t) / (v * sqrt_t)
    d2 = d1 - v * sqrt_t
    discounted = k * np.exp(-r * t)
    call = s * cndf(d1) - discounted * cndf(d2)
    put = discounted * (1.0 - cndf(d2)) - s * (1.0 - cndf(d1))
    return np.where(data["optionType"] == 1.0, put, call)


def morgan(window: int, price: np.ndarray, volume: np.ndarray) -> float:
    """Signal-weighted deviation from the ``window``-period VWAP."""
    def moving_sum(x):
        c = np.concatenate(([0.0], np.cumsum(x)))
        return c[window:] - c[:-window]

    vwap = moving_sum(price * volume) / moving_sum(volume)
    dev = price[window - 1:] - vwap
    z = dev / math.sqrt(float(np.mean(dev * dev)))
    return float(np.sum(np.sign(z) * np.minimum(np.abs(z), 3.0) * dev))


def check_prices(got: np.ndarray, want: np.ndarray) -> str | None:
    got = np.asarray(got, dtype=np.float64)
    if got.shape != want.shape:
        return f"{got.shape[0]} prices, expected {want.shape[0]}"
    bad = np.abs(got - want) > PRICE_ATOL + PRICE_RTOL * np.abs(want)
    if bad.any():
        i = int(np.argmax(bad))
        return f"price {i}: {got[i]!r} != {want[i]!r}"
    return None


def check_selection(result, data: dict[str, np.ndarray],
                    must: np.ndarray, may: np.ndarray,
                    prices: np.ndarray | None) -> str | None:
    """A filter's answer: rows of ``data`` in table order, every row in
    ``must`` and none outside ``may`` (``may`` widens ``must`` by the rows
    whose computed price sits within rounding of the threshold).
    Columns are spotPrice, optionType and, when ``prices`` is given,
    optionPrice."""
    columns = result_columns(result)
    width = 3 if prices is not None else 2
    if len(columns) != width:
        return f"{len(columns)} columns, expected {width}"
    spot = data["spotPrice"]
    rows = np.flatnonzero(must)
    if not np.array_equal(spot[rows], columns[0]):
        # Only rows in ``may`` but not ``must`` can explain a difference.
        index = np.flatnonzero(may)
        picked = np.isin(spot[index], columns[0])
        rows = index[picked]
        if len(rows) != len(columns[0]):
            return f"{len(columns[0])} rows, {len(rows)} of them expected"
        if not picked[must[index]].all():
            return "expected rows missing"
        if not np.array_equal(spot[rows], columns[0]):
            return "rows out of table order"
    if not np.array_equal(data["optionType"][rows], columns[1]):
        return "optionType differs"
    if prices is not None:
        return check_prices(columns[2], prices[rows])
    return None
