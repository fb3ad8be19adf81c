"""HorsePower benchmark: one workload, one seed, one JSON line of metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload tpch --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics and writes the spans as Chrome-trace JSON under
``perfbench/out/``.  The line before the result records the environment.
The exit code is non-zero when the program's source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _private_tmp() -> str:
    """Kernels the C backend compiles (and gcc's own temporaries) go to a
    directory inside the checkout, removed at exit."""
    os.makedirs(OUT, exist_ok=True)
    path = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    os.environ["TMPDIR"] = path
    tempfile.tempdir = path
    return path


def main(argv=None) -> int:
    args = _args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program source under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    tmp = _private_tmp()
    try:
        return _run(args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(args) -> int:
    from hpbench import bench, environment
    from hpbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    fixture, layers = None, []
    for _ in range(workload.setups):
        if fixture is not None:
            fixture.session.close()
            fixture = None
        fixture = workload.setup(args.seed)
        layers.append(fixture.layer)
    layer_setup = {key: statistics.median(layer[key] for layer in layers)
                   for key in fixture.layer}
    items = workload.items(fixture)
    runner = bench.Bench(fixture.session, items)
    try:
        times, traced, counts, log = runner.run(args.seconds,
                                                bool(args.trace))
    finally:
        fixture.session.close()
    print(json.dumps({"environment": environment.describe(
        args, workload, fixture, runner)}))
    if args.trace:
        metrics = bench.per_layer(runner, times, traced, counts, log,
                                  layer_setup)
        path = os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                                 f".trace.json")
        with open(path, "w") as handle:
            handle.write(log.chrome_trace())
        print(f"spans written to {path}", file=sys.stderr)
    else:
        metrics = bench.end_to_end(runner, times, counts,
                                   layer_setup["setup_s"])
    for problem in runner.wrong[:10]:
        print(f"wrong: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
