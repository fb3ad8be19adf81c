"""What a run records about the machine and its inputs."""

from __future__ import annotations

import os
import platform
import sqlite3

import numpy as np

from repro.core.codegen.cgen import c_backend_available, gcc_version

_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")


def _blas() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def describe(args, workload, fixture, bench) -> dict:
    """Cores, versions, BLAS and its thread settings as found, the C
    backend, the seed and the input sizes."""
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sqlite": sqlite3.sqlite_version,
        "gcc": gcc_version(),
        "c_backend": c_backend_available(),
        "blas": _blas(),
        "blas_threads": {name: os.environ.get(name, "unset")
                         for name in _THREAD_VARIABLES},
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale_factor": workload.scale_factor,
        "rows": fixture.sizes,
        "queries": [item.qid for item in bench.items],
    }
