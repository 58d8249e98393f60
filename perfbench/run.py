"""cvsim benchmark: one workload, closed loop, host time end to end or per layer.

Run from the root of a cvsim checkout:

    python3 perfbench/run.py --workload corridor_fleet --seed 1 --seconds 25 --trace 0

The process is single-threaded and runs one operation at a time; the next
starts when the last has finished and been checked. Inputs come from
``--seed`` and are made before timing. Operations run until ``--seconds``
have passed (at least three). Every operation's output is checked (recorded
digests at the default seed, invariants at any seed, the paper figures on
``paper_scenarios``); ``paper_scenarios`` runs also end with a cross-process
determinism check of one bundled scenario.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``:
medians over the operations of set-up and wall time, each scaled to the
reference machine speed by the calibration kernel timed around the operation
(see ``calibrate.py``), and the process's peak resident memory.

``--trace 1`` first times two untraced operations, then wraps cvsim's public
functions (see ``tracer.py``) and reports the ``per_layer`` metrics as means
per traced operation; the counters must agree exactly between traced
operations, and the spans of the last one are written to
``perfbench/out/<workload>/spans.csv``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (operations that raised, aborted or failed a check)
and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S, kernel_s
from tracer import Tracer, count_metrics, layer_metrics, ratio_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_OPS = 3
UNTRACED_OPS = 2
MAX_MEASURE_S = 120.0


def bootstrap() -> None:
    """Import cvsim from this checkout's sources, or stop."""
    src = ROOT / "src"
    if not (src / "cvsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no cvsim sources in {src}; run from the root of a cvsim checkout")
    sys.path.insert(0, str(src))
    import cvsim

    if Path(cvsim.__file__).resolve().parent != src / "cvsim":
        raise SystemExit(f"error: imported cvsim from {cvsim.__file__}, not from {src}")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_counts(op) -> dict[str, int]:
    """Counts read off the operation's results rather than from wrappers."""
    packets = retained = events = 0
    for _, _, result in op.outputs:
        if hasattr(result, "packets"):
            packets += len(result.packets)
            retained += sum(len(a) for a in result.archives.values())
            events += result.summary.events_processed
    return {"sim.packets": packets, "archive.records_retained": retained, "sim.events_processed": events}


class Run:
    """The operations of one benchmark run and everything that went wrong."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.succeeded = 0
        self.errors: list[str] = []

    def measure(self, seconds: float, min_ops: int, tracer=None) -> list:
        """Operate until ``seconds`` have passed and ``min_ops`` were attempted."""
        ops = []
        attempts = 0
        start = time.perf_counter()
        while attempts < min_ops or time.perf_counter() - start < seconds:
            if time.perf_counter() - start > MAX_MEASURE_S:
                self.errors.append(f"stopped after {attempts} operations: over {MAX_MEASURE_S:g} s")
                break
            attempts += 1
            self.attempted += 1
            gc.collect()
            before = kernel_s()
            try:
                if tracer is None:
                    op = self.workload.operate()
                else:
                    tracer.clear()
                    with tracer.installed(), tracer.root():
                        op = self.workload.operate()
                op_errors = self.workload.check(op)
            except Exception as exc:  # a failed operation is counted and the run goes on
                self.errors.append(f"operation {self.attempted} raised {exc!r}")
                continue
            if tracer is not None:
                op.trace = (tracer.aggregate(), {**count_metrics(tracer), **result_counts(op)})
            op.outputs.clear()  # keep no result alive into the next operation
            gc.collect()  # the second kernel, like the first, starts from a collected heap
            op.speed = REFERENCE_S / ((before + kernel_s()) / 2)
            if op_errors:
                self.errors += [f"operation {self.attempted}: {e}" for e in op_errors]
            else:
                ops.append(op)
                self.succeeded += 1
        return ops


def end_to_end(ops) -> dict[str, float]:
    return {
        "setup_s": statistics.median(op.setup_s * op.speed for op in ops),
        "wall_s": statistics.median(op.wall_s * op.speed for op in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run: Run, untraced, traced) -> dict[str, float]:
    counts = traced[0].trace[1]
    for op in traced[1:]:
        diff = sorted(k for k in counts if op.trace[1][k] != counts[k])
        if diff:
            run.errors.append(f"trace: counts differ between two operations of one seed: {diff}")
    if counts["engine.events"] != counts.pop("sim.events_processed"):
        run.errors.append("trace: traced events do not match the runs' own event counts")
    m = layer_metrics([op.trace[0] for op in traced])
    m.update(counts)
    m.update(ratio_metrics(counts))
    m["trace.overhead_s"] = (
        statistics.median(op.wall_s for op in traced) - statistics.median(op.wall_s for op in untraced)
    )
    for name in run.workload.entered:
        if not m[name]:
            run.errors.append(f"trace: {name} is 0, but every {run.workload.name} operation enters it")
    return m


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    bootstrap()
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        known = ", ".join(workloads.WORKLOADS)
        raise SystemExit(f"error: unknown workload {args.workload!r} (known: {known})")
    digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    workload = workloads.make_workload(args.workload, ROOT, args.seed, digests)
    workload.prepare()
    run = Run(workload)

    if args.trace:
        listed = spec["per_layer"]
        untraced = run.measure(0.0, UNTRACED_OPS)
        tracer = Tracer()
        traced = run.measure(args.seconds, 2, tracer)
        values = per_layer(run, untraced, traced) if len(untraced) and len(traced) >= 2 else {}
        if traced:
            tracer.write_spans(workload.out / "spans.csv")
        ops = traced
    else:
        listed = spec["end_to_end"]
        ops = run.measure(args.seconds, MIN_OPS)
        values = end_to_end(ops) if ops else {}
    run.errors += workload.self_check()

    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        run.errors.append(f"no value for {', '.join(missing)}")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed if m["name"] in values
    }
    for error in run.errors:
        print(f"FAIL {error}")
    failed = run.attempted - run.succeeded
    print(f"{args.workload} seed {args.seed}: {len(ops)} operations measured, "
          f"{run.attempted} attempted, error_rate {failed / run.attempted:g}")
    print("  wall_s per operation: " + " ".join(f"{op.wall_s:.4f}" for op in ops))
    print("  speed per operation:  " + " ".join(f"{op.speed:.4f}" for op in ops))
    if ops:
        print(f"  raw medians: setup_s {statistics.median(op.setup_s for op in ops):.6g} s, "
              f"wall_s {statistics.median(op.wall_s for op in ops):.6g} s")
    for name, metric in metrics.items():
        print(f"  {name:34} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
