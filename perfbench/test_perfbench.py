"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

A tiny pass over every workload checks that each named metric is
emitted with its unit, that a corrupted result is counted as failed,
that ``unbalanced_oneshot`` at benchmark size really ends on the
kernel's direct loop, that a wrong verdict or C size fails a net, that
the tracing overhead pairs neighbouring passes, that the peak-RSS mark
restarts where the benchmark resets it, that the paced phase holds its
rate within the reported generator lag, and that the benchmark refuses
to run outside a repository checkout.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

common.use_checkout_sources()

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())
SEED = 3


def tiny(name, trace=False, seed=SEED):
    return run.run_workload(name, seed, 0.0, trace, scale=workloads.TINY)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result = tiny(name, trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_lists_runnable_workloads():
    for workload in SPEC["workloads"]:
        assert workloads.WORKLOADS[workload["name"]][2] == workload["why"]
    assert SPEC["paths"] == [HERE.name]


def _corrupt(result):
    cycles = result.instance_cycles.copy()
    cycles[0] += 1
    return dataclasses.replace(result, instance_cycles=cycles)


@pytest.mark.parametrize("name", ["atm_socket", "atm_packed_replay"])
def test_corrupted_service_result_is_an_error(name, monkeypatch):
    from repro.service import FleetSupervisor

    stop = FleetSupervisor.stop

    async def corrupted_stop(self, drain=True):
        result = await stop(self, drain=drain)
        return _corrupt(result) if drain else result

    monkeypatch.setattr(FleetSupervisor, "stop", corrupted_stop)
    result = tiny(name)
    assert not result["correct"]
    assert result["row"]["error_rate"] > 0


def test_corrupted_oneshot_result_is_an_error(monkeypatch):
    from repro.runtime import FleetSimulator

    run_fleet = FleetSimulator.run
    monkeypatch.setattr(
        FleetSimulator, "run", lambda self, streams: _corrupt(run_fleet(self, streams))
    )
    result = tiny("unbalanced_oneshot")
    assert not result["correct"]
    assert result["row"]["error_rate"] > 0


def test_wrong_verdict_is_an_error(monkeypatch):
    import repro.qss
    from repro.apps.atm import build_atm_server_net

    analyse = repro.qss.analyse
    atm = build_atm_server_net().name

    def wrong_on_atm(net, *args, **kwargs):
        report = analyse(net, *args, **kwargs)
        if net.name == atm:
            report.schedulable = False
        return report

    inputs = workloads.prepare_qss(SEED, workloads.TINY)
    monkeypatch.setattr(repro.qss, "analyse", wrong_on_atm)
    outcome = workloads.measure_qss(inputs, 0.0, None)
    assert outcome.failed / outcome.attempted > 0


def test_wrong_c_size_is_an_error():
    inputs = workloads.prepare_qss(SEED, workloads.TINY)
    inputs["oracle"]["c_lines"]["atm"] += 1
    outcome = workloads.measure_qss(inputs, 0.0, None)
    assert outcome.failed == outcome.labels["passes"]


def test_tracing_overhead_pairs_neighbouring_passes():
    # windows alternate untraced, traced; the fifth has no partner
    s, pct = tracing.overhead([1.0, 1.5, 2.0, 2.2, 9.0])
    assert s == pytest.approx(0.35)
    assert pct == pytest.approx(30.0)


def test_peak_rss_restarts_at_the_reset():
    ballast = bytearray(64 * 1024 * 1024)
    ballast[:: 4096] = b"\x01" * len(ballast[:: 4096])
    before = common.peak_rss_mb()
    del ballast
    common.reset_peak_rss()
    assert common.peak_rss_mb() < before - 32


@pytest.mark.parametrize("seed", [1, 7])
def test_oneshot_ends_on_the_direct_loop_at_benchmark_size(seed):
    inputs = workloads.prepare_oneshot(seed, workloads.BENCH)
    outcome = workloads.measure_oneshot(inputs, 0.0, None)
    assert outcome.failed == 0
    assert outcome.labels["direct_loop"]
    assert outcome.layer["fleet.memo_flushes"] == 2


def test_paced_phase_holds_its_rate_within_the_reported_lag():
    row = tiny("atm_socket")["row"]
    interval = common.PACED_LINE_EVENTS / common.PACED_RATE
    # first to last probe of every burst took its scheduled span, give
    # or take one line interval, and most lines went out on time
    assert row["paced_drift_s"] < interval
    assert row["generator_lag_p90_ms"] / 1e3 < interval


def test_refuses_to_run_outside_a_checkout():
    bare = common.OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(
            HERE, bare / HERE.name, ignore=shutil.ignore_patterns(".*", "__pycache__")
        )
        shutil.copy(common.ROOT / "BENCHMARK.json", bare)
        out = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "atm_socket",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        assert out.returncode != 0
        assert '"correct"' not in out.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
