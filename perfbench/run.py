"""Repository benchmark: serving and synthesis, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload atm_socket --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` for why each was chosen):

* ``atm_socket`` -- a separate generator process streams LDJSON lines
  over TCP into ``IngestServer`` -> ``FleetSupervisor`` (async, 1
  shard), in rounds of an open-loop burst at 8,000 events/s whose
  probes give the latency, then a flood pass that gives the
  throughput.
* ``atm_packed_replay`` -- the same fleet, packed once during set-up
  and replayed through ``LocalClient.inject_packed`` into a warm shard.
* ``unbalanced_oneshot`` -- ``FleetSimulator.run`` from cold on a net
  whose markings accumulate, so the cascade memo keeps missing.
* ``qss_synthesis`` -- ``analyse -> synthesize -> emit_c`` over the
  application nets, paper figures, two large generated nets and random
  free-choice nets drawn from the seed.

``BENCHMARK.json`` gates ``atm_socket`` and ``qss_synthesis``, which
between them reach every layer.  The two others stay runnable for
evidence but are not gated: their medians swung by 1.3-1.8x between
runs minutes apart on the 2-core VM the benchmark was tuned on, beyond
the largest bound a gate may set.

With ``--trace 0`` the run reports the end-to-end metrics (and
records the ungated ``latency_p90_ms`` in its row); with ``--trace 1``
it alternates untraced passes with passes that record spans around
every layer's public entry points, and reports the per-layer metrics
of the traced passes, a per-layer self-time table and the tracing
overhead (traced minus untraced time over neighbouring pass pairs).
Every output is checked against an oracle; the last stdout line is one
JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Rows (with input
digests and environment labels) and span dumps go to
``perfbench/.out/``.

Self-tests: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

import workloads
from common import (
    CheckoutError,
    append_row,
    environment_labels,
    reset_peak_rss,
    use_checkout_sources,
    write_spans,
)
from tracing import Tracer, layer_metrics, overhead, self_time_table


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, scale=None
) -> Dict[str, Any]:
    """Prepare, measure and check one workload; returns the result document.

    The document holds the final-line keys (``correct``, ``attempted``,
    ``failed``, ``metrics``) plus ``row`` and the printable ``lines``.
    """
    prepare, measure, _ = workloads.WORKLOADS[name]
    scale = scale or workloads.BENCH
    inputs = prepare(seed, scale)
    # the peak-RSS mark covers the program from here on, not the inputs'
    # generation
    reset_peak_rss()
    lines: List[str] = []
    try:
        if not trace:
            outcome = measure(inputs, seconds, None)
            units = workloads.E2E_UNITS
            values = dict(outcome.metrics)
            lines.extend(
                f"{key:<30} {values[key]:>18.6f} {unit} (recorded, not gated)"
                for key, unit in workloads.UNGATED_UNITS.items()
            )
        else:
            tracer = Tracer(f"{name}-{seed}-{os.getpid()}-{time.time_ns()}")
            outcome = measure(inputs, seconds, tracer)
            units = workloads.LAYER_UNITS
            values = {key: 0 for key in units}
            values.update(layer_metrics(tracer))
            values.update(outcome.layer)
            overhead_s, overhead_pct = overhead(outcome.windows)
            values["trace.overhead_s"] = overhead_s
            values["trace.overhead_pct"] = overhead_pct
            lines.append(
                f"tracing overhead: {overhead_s:+.6f} s per window "
                f"({overhead_pct:+.1f}%), median over "
                f"{len(outcome.windows) // 2} untraced/traced pass pair(s)"
            )
            lines.append("per-layer self time inside the timed windows:")
            lines.extend("  " + line for line in self_time_table(tracer))
            path = write_spans(f"trace-{name}-seed{seed}.jsonl", tracer.records())
            lines.append(f"spans written to {path}")
    finally:
        del inputs
        gc.unfreeze()
    attempted, failed = outcome.attempted, outcome.failed
    metrics = {
        key: {"value": values[key], "unit": unit} for key, unit in units.items()
    }
    error_rate = failed / attempted if attempted else 1.0
    row = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        **outcome.labels,
        **environment_labels(),
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": error_rate,
        "metrics": values,
    }
    lines = (
        [f"{key:<30} {values[key]:>18.6f} {unit}" for key, unit in units.items()]
        + [f"{'error_rate':<30} {error_rate:>18.6f} failed/attempted "
           f"({failed}/{attempted})"]
        + [f"oracle: {outcome.verdict}"]
        + lines
    )
    return {
        "correct": row["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "row": row,
        "lines": lines,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_checkout_sources()
    except CheckoutError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for line in result["lines"]:
        print("  " + line)
    print("  row: " + json.dumps(result["row"], sort_keys=True))
    append_row(result["row"])
    print(
        json.dumps(
            {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
