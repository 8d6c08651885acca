"""Benchmark of lqmle: run one workload, check its outputs, print one result line.

Run from the repository root:

    python3 bench/run.py --workload fit-zoo --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` next to this directory.  The last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  The line
before it holds the workload's own figures, and the whole result (with
failure reasons) is written under ``bench/out/``; a traced run also
writes its spans there.  See bench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread per process, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# Input generation is repeated this many times; setup_s takes the median.
SETUP_REPEATS = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("fit-zoo", "mc-study", "long-series"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "lqmle" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no lqmle sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    lqmle = importlib.import_module("lqmle")
    importlib.import_module("lqmle.cli")
    import_s = time.perf_counter() - t0

    sys.path.insert(0, str(BENCH))
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        cls = workloads.WORKLOADS[args.workload]
        probe = workloads.SpeedProbe(cls.probe_kind)
        bench = cls(lqmle, args.seed, workdir, probe)
        gen = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            bench.setup()
            gen.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(gen)

        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        try:
            outcome = bench.run(args.seconds, bool(args.trace))
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    figures = {
        "setup_s": setup_s,
        "setup.import_s": import_s,
        "setup.inputs_s": statistics.median(gen),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **outcome.figures,
        "probe_ms": probe.median_ms,
    }
    figures["op_ms.norm"] = figures["op_ms"] * probe.scale
    figures["ops_per_s.norm"] = figures["ops_per_s"] / probe.scale
    if tracer is not None:
        figures.update(tracing.layer_metrics(tracer.spans))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if figures.get(m["name"]) is None]
    if missing:
        print(f"error: the run produced no value for {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": outcome.wrong == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in declared},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({**result, "figures": figures, "failures": outcome.reasons}, indent=1, sort_keys=True)
    )
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    print(json.dumps({"workload": args.workload, "figures": figures, "failures": outcome.reasons}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
