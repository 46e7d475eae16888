"""Runtime fleet benchmarks: batched compiled execution vs the per-instance reference.

The north-star workload is a server farm: thousands of independent
instances of the ATM server specification, each reacting to its own
Cell/Tick event stream.  The reference oracle
(:func:`repro.reference.run_fleet`) steps them one at a time on the
string-keyed reactive simulator; the compiled
:class:`~repro.runtime.fleet.FleetSimulator` steps the whole fleet as a
single ``(N, P)`` numpy marking matrix with vectorized enabledness.
These benches verify the two produce identical aggregate stats and
per-instance cycle vectors, and pin the performance contract:
**>= 5x wall-clock on a >= 1000-instance ATM fleet** (measured ~7x on a
development machine; the floor leaves headroom for noisy CI runners).

Run ``python benchmarks/bench_runtime_fleet.py --smoke`` for a fast
functional pass (equivalence, determinism and process-shard serving
on a small fleet, no timing statistics) — the mode CI uses.
"""

from __future__ import annotations

import sys
import time
from dataclasses import asdict

import numpy as np
import pytest

from repro import reference
from repro.apps.atm import MODULE_PARTITION, build_atm_server_net, make_fleet_testbench
from repro.runtime import FleetSimulator, ModuleAssignment

#: The contract fleet: >= 1000 instances of the 49-transition ATM server.
CONTRACT_INSTANCES = 1_000
#: Cells per instance; the concurrent Ticks ride along (~5 events total
#: per instance), keeping the per-instance reference baseline affordable.
CONTRACT_CELLS = 3

#: Required wall-clock speedup of the batched engine over the per-instance reference.
REQUIRED_SPEEDUP = 5.0


def _best_of(callable_, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


NET = build_atm_server_net()
ASSIGNMENT = ModuleAssignment.from_groups(MODULE_PARTITION)


def _fleet() -> FleetSimulator:
    return FleetSimulator(NET, ASSIGNMENT)


def _reference(streams):
    return reference.run_fleet(NET, ASSIGNMENT, streams)


def _assert_results_identical(oracle, compiled) -> None:
    assert asdict(oracle.stats) == asdict(compiled.stats)
    assert np.array_equal(oracle.instance_cycles, compiled.instance_cycles)
    assert np.array_equal(oracle.instance_events, compiled.instance_events)


def test_fleet_compiled_at_least_5x_faster():
    """Identical fleets, and >= 5x wall-clock on >= 1000 ATM instances."""
    streams = make_fleet_testbench(CONTRACT_INSTANCES, cells=CONTRACT_CELLS)
    compiled = _fleet()

    # both must do identical work before their times compare
    oracle_result = _reference(streams)
    compiled_result = compiled.run(streams)
    _assert_results_identical(oracle_result, compiled_result)

    reference_time = _best_of(lambda: _reference(streams), rounds=2)
    compiled_time = _best_of(lambda: compiled.run(streams))
    speedup = reference_time / compiled_time
    print(
        f"\nfleet of {CONTRACT_INSTANCES} ATM instances "
        f"({compiled_result.stats.events_processed} events): "
        f"reference={reference_time * 1000:.0f}ms "
        f"compiled={compiled_time * 1000:.0f}ms speedup={speedup:.1f}x"
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"batched fleet engine must be >= {REQUIRED_SPEEDUP}x faster than "
        f"the per-instance reference loop; measured {speedup:.2f}x"
    )


@pytest.mark.parametrize("engine", ["reference", "compiled"])
def test_fleet_engine_timings(benchmark, engine):
    """pytest-benchmark report rows for the reference loop and the kernel
    (small fleet)."""
    streams = make_fleet_testbench(100, cells=CONTRACT_CELLS)
    run = _reference if engine == "reference" else _fleet().run
    result = benchmark(run, streams)
    assert result.stats.events_processed > 0
    benchmark.extra_info["engine"] = engine
    benchmark.extra_info["instances"] = result.instances
    benchmark.extra_info["events"] = result.stats.events_processed


def test_fleet_scaling_rows(benchmark):
    """One report row pinning throughput at the contract fleet size."""
    streams = make_fleet_testbench(CONTRACT_INSTANCES, cells=CONTRACT_CELLS)
    result = benchmark(_fleet().run, streams)
    benchmark.extra_info["instances"] = result.instances
    benchmark.extra_info["events"] = result.stats.events_processed
    benchmark.extra_info["p95_cycles"] = result.percentile(95)


def _smoke() -> int:
    """Fast functional pass: equivalence, determinism, process shards."""
    streams = make_fleet_testbench(64, cells=CONTRACT_CELLS)
    oracle = _reference(streams)
    compiled = _fleet().run(streams)
    _assert_results_identical(oracle, compiled)
    print(
        f"smoke fleet 64x{CONTRACT_CELLS}: compiled == reference "
        f"({compiled.stats.events_processed} events, "
        f"{compiled.stats.total_cycles} cycles)"
    )
    again = _fleet().run(make_fleet_testbench(64, cells=CONTRACT_CELLS))
    _assert_results_identical(compiled, again)
    print("smoke determinism: identical results under the fixed fleet seed")
    pooled = _fleet().run(streams, workers=2)
    _assert_results_identical(compiled, pooled)
    print("smoke workers=2 (process shards) == in-process")
    return 0


if __name__ == "__main__":  # pragma: no cover
    if "--smoke" in sys.argv:
        sys.exit(_smoke())
    print("use --smoke, or run through pytest for the timing contract")
    sys.exit(2)
