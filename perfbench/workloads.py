"""The four benchmark workloads: inputs, timed windows and oracle checks.

Every workload is a ``prepare(seed, scale)`` that generates its inputs
(and the oracle result) outside any timed window, and a
``measure(inputs, seconds, tracer)`` that sets the program up, times
its passes for about ``seconds`` and checks every output.  A workload
reports the same end-to-end metrics as every other; what one operation
and one request are differs:

=================== ========= ==============================================
workload            operation request (latency sample)
=================== ========= ==============================================
atm_socket          event     one paced 256-event line, from its due time
                              to the snapshot reply that follows it
atm_packed_replay   event     one replay pass of the fleet
unbalanced_oneshot  event     one ``FleetSimulator.run`` from cold
qss_synthesis       net       one pass of the net set through
                              ``analyse -> synthesize -> emit_c``
=================== ========= ==============================================

``ops_per_s`` is the operations of every timed pass (the flood passes
for ``atm_socket``) over their summed wall time; on ``qss_synthesis``
the net count over it is the pipeline's mean wall time per pass.
Latency percentiles are over the passes, or on ``atm_socket`` over all
paced probes of the run.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from common import (
    ATM_CELLS,
    HERE,
    PACED_LINE_EVENTS,
    PACED_RATE,
    ROOT,
    cached_oracle,
    memo_free_oracle,
    peak_rss_mb,
    result_doc,
    stream_digest,
)
from tracing import instrument, is_traced, traced_pass

#: End-to-end metrics (reported with tracing off) and their units.
E2E_UNITS = {
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Measured and recorded with them, but not gated: on a 2-core VM whose
#: neighbours stall it for tens of milliseconds, the paced p90 swings
#: by more than the largest bound the benchmark may set (IQR/median
#: 0.25-0.64 over 4-10 seeds).
UNGATED_UNITS = {"latency_p90_ms": "ms"}

#: Per-layer metrics (reported by the traced run) and their units.
LAYER_UNITS = {
    "messages.decode_s": "s",
    "messages.decode_events_per_s": "events/s",
    "messages.protocol_errors": "count",
    "ingest.self_s": "s",
    "ingest.bytes_in": "bytes",
    "supervisor.pack_s": "s",
    "supervisor.pack_events_per_s": "events/s",
    "supervisor.route_s": "s",
    "supervisor.barrier_wait_s": "s",
    "shard.serve_s": "s",
    "shard.serve_self_s": "s",
    "shard.events_per_serve": "events",
    "shard.queue_depth_max": "count",
    "shard.inbox_wait_s": "s",
    "fleet.dispatch_s": "s",
    "fleet.dispatch_calls": "count",
    "fleet.events_per_dispatch": "events",
    "fleet.prepare_s": "s",
    "fleet.run_self_s": "s",
    "fleet.firings": "count",
    "fleet.memo_flushes": "count",
    "fleet.direct_loop": "count",
    "petrinet.compile_net_s": "s",
    "qss.analyse_s": "s",
    "qss.allocations": "count",
    "qss.reductions": "count",
    "codegen.synthesize_s": "s",
    "codegen.emit_s": "s",
    "codegen.c_lines": "lines",
    "generator.lag_p90_ms": "ms",
    "trace.window_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


@dataclass(frozen=True)
class Scale:
    """Input sizes; :data:`BENCH` is what the benchmark runs."""

    #: ATM fleet of ``atm_socket`` and ``atm_packed_replay``: the same
    #: inputs served with and without the LDJSON ingest boundary.
    atm_instances: int = 1000
    oneshot_instances: int = 2000
    oneshot_events: int = 150
    corpus_nets: int = 6


BENCH = Scale()
#: A seconds-long pass over every workload, for the self-tests.
TINY = Scale(
    atm_instances=30,
    oneshot_instances=60,
    oneshot_events=20,
    corpus_nets=2,
)

#: Events per packed inject on the replay path (as ``bench_serve.py``).
REPLAY_CHUNK = 8192
#: Set-ups per sample point; ``setup_s`` is the median of every sample
#: in a run.  The socket server samples before the session and between
#: its rounds; a replay set-up packs the fleet and serves a warm-up
#: pass, so it is sampled every few seconds instead, at least a few
#: times.
SETUP_REPEATS = 15
SOCKET_SETUP_REPEATS = 5
REPLAY_SETUP_REPEATS = 3
REPLAY_SETUP_INTERVAL = 3.0
#: Longest a socket session may take before the run is abandoned.
SESSION_TIMEOUT = 150.0
#: Line limit for the generator's report (it carries the oracle result).
REPORT_LIMIT = 64 * 1024 * 1024


@dataclass
class Outcome:
    """What one ``measure`` call observed."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    verdict: str
    labels: Dict[str, Any]
    #: Every timed window in pass order; in a traced run the odd ones
    #: were traced (the tracing overhead pairs them with the even ones).
    windows: List[float]
    #: Per-layer metrics observed outside the spans.
    layer: Dict[str, float] = field(default_factory=dict)


def _timed_loop(seconds: float, minimum: int = 1):
    """Yield pass numbers until ``seconds`` have gone by (at least ``minimum``)."""
    started = time.perf_counter()
    count = 0
    while count < minimum or time.perf_counter() - started < seconds:
        yield count
        count += 1


def _freeze_inputs() -> None:
    # keep the generated inputs out of every garbage-collector pass
    gc.collect()
    gc.freeze()


def _e2e(ops: int, windows: List[float], setups, rss, latency_s=None):
    """End-to-end metrics; latency defaults to percentiles of the windows.

    Throughput is every pass's operations over the summed window time,
    which follows the machine's speed smoothly when it drifts within a
    run, where a median of passes would jump between its modes.
    """
    p50, p90 = latency_s if latency_s is not None else np.percentile(windows, [50, 90])
    return {
        "ops_per_s": ops * len(windows) / sum(windows),
        "latency_p50_ms": 1e3 * p50,
        "latency_p90_ms": 1e3 * p90,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }


def _atm():
    from repro.apps.atm import MODULE_PARTITION, build_atm_server_net
    from repro.runtime import ModuleAssignment

    return build_atm_server_net(), ModuleAssignment.from_groups(MODULE_PARTITION)


# ----------------------------------------------------------------------
# atm_socket
# ----------------------------------------------------------------------
def prepare_socket(seed: int, scale: Scale) -> Dict[str, Any]:
    net, assignment = _atm()
    return {"seed": seed, "instances": scale.atm_instances, "net": net,
            "assignment": assignment}


def measure_socket(inputs, seconds: float, tracer) -> Outcome:
    return asyncio.run(_socket_session(inputs, seconds, tracer))


async def _socket_session(inputs, seconds: float, tracer) -> Outcome:
    from repro.service import FleetSupervisor, IngestServer

    setups: List[float] = []

    async def set_up():
        started = time.perf_counter()
        supervisor = FleetSupervisor(
            inputs["net"], inputs["assignment"], shards=1, backend="async"
        )
        await supervisor.start()
        server = IngestServer(supervisor)
        await server.start()
        setups.append(time.perf_counter() - started)
        return supervisor, server

    async def throwaway_set_ups():
        for _ in range(SOCKET_SETUP_REPEATS):
            supervisor, server = await set_up()
            await server.stop()
            await supervisor.stop(drain=False)

    generator = await asyncio.create_subprocess_exec(
        sys.executable,
        str(HERE / "loadgen.py"),
        "--seed", str(inputs["seed"]),
        "--instances", str(inputs["instances"]),
        "--seconds", str(seconds),
        stdin=asyncio.subprocess.PIPE,
        stdout=asyncio.subprocess.PIPE,
        cwd=str(ROOT),
        limit=REPORT_LIMIT,
    )
    supervisor = server = None
    # round k is traced when is_traced(tracer, k): switched between rounds
    tracing = contextlib.ExitStack()
    try:
        ready = json.loads(
            await asyncio.wait_for(generator.stdout.readline(), SESSION_TIMEOUT)
        )
        await throwaway_set_ups()
        supervisor, server = await set_up()
        # the set-up heap is long-lived: keep it out of collector passes
        _freeze_inputs()
        reply = f"{server.port}\n".encode()
        round_index = 0
        while True:
            generator.stdin.write(reply)
            await generator.stdin.drain()
            line = await asyncio.wait_for(
                generator.stdout.readline(), SESSION_TIMEOUT
            )
            if line.strip() != b"idle":
                break
            round_index += 1
            tracing.close()
            if is_traced(tracer, round_index):
                tracing.enter_context(instrument(tracer))
            # between rounds nothing is in flight: more set-up samples,
            # so their median spans the run rather than one moment of it
            await throwaway_set_ups()
            reply = b"go\n"
        report = json.loads(line)
        await asyncio.wait_for(generator.wait(), SESSION_TIMEOUT)
        if not server.shutdown_requested.is_set():
            raise RuntimeError("the generator ended without a Shutdown")
        result = await supervisor.stop(drain=True)
        supervisor = None
        rss = peak_rss_mb()
        await server.stop()
        server = None
    finally:
        tracing.close()
        if generator.returncode is None:
            generator.kill()
            await generator.wait()
        if server is not None:
            await server.stop()
        if supervisor is not None:
            await supervisor.stop(drain=False)
    return _socket_outcome(inputs, ready, report, result, setups, rss, tracer)


def _socket_outcome(inputs, ready, report, result, setups, rss, tracer):
    total = ready["events"]
    oracle = report["oracle"]
    cycles = oracle["stats"]["total_cycles"]
    rounds = report["rounds"]
    burst = rounds[0]["probes"][-1]["events_sent"]
    failed = 0
    for round_ in rounds:
        flood = round_["flood"]
        if (
            flood["bad_acks"]
            or flood["snapshot_events"] != total
            or flood["snapshot_cycles"] != cycles
        ):
            failed += total
        # each reply follows its line, so it must observe every event so far
        if round_["paced_bad_acks"] or any(
            p["snapshot_events"] != p["events_sent"] for p in round_["probes"]
        ):
            failed += burst
    # every burst replays the same prefix after a Reload: same cycles
    if len({r["probes"][-1]["snapshot_cycles"] for r in rounds}) != 1:
        failed = max(failed, burst * len(rounds))
    attempted = (total + burst) * len(rounds)
    drained_ok = result_doc(result) == oracle
    if not drained_ok:
        failed = attempted
    floods = [r["flood"] for r in rounds]
    windows = [f["end"] - f["start"] for f in floods]
    if tracer is not None:
        tracer.windows.extend(
            (f["start"], f["end"])
            for k, f in enumerate(floods)
            if is_traced(tracer, k)
        )
    latencies = [p["reply"] - p["due"] for r in rounds for p in r["probes"]]
    lags = [p["sent"] - p["due"] for r in rounds for p in r["probes"]]
    lag_p90_ms = 1e3 * np.percentile(lags, 90)
    drift = max(
        abs(
            (r["probes"][-1]["sent"] - r["probes"][0]["sent"])
            - (r["probes"][-1]["due"] - r["probes"][0]["due"])
        )
        for r in rounds
    )
    return Outcome(
        metrics=_e2e(
            total,
            windows,
            setups,
            rss,
            latency_s=np.percentile(latencies, [50, 90]),
        ),
        attempted=attempted,
        failed=failed,
        verdict=(
            f"drained FleetResult {'==' if drained_ok else '!='} memo-free "
            f"oracle; {len(rounds)} round(s) of a {burst}-event paced burst "
            f"and a flood pass, {failed} event(s) failed"
        ),
        labels={
            "instances": inputs["instances"],
            "events": total,
            "shards": 1,
            "backend": "async",
            "input_sha256": ready["input_sha256"],
            "rounds": len(rounds),
            "paced_probes": sum(len(r["probes"]) for r in rounds),
            "paced_rate_eps": PACED_RATE,
            "generator_lag_p90_ms": lag_p90_ms,
            "generator_lag_max_ms": 1e3 * max(lags),
            "paced_drift_s": drift,
        },
        windows=windows,
        layer={
            "generator.lag_p90_ms": lag_p90_ms,
            "fleet.firings": sum(result.stats.firings.values()),
        },
    )


# ----------------------------------------------------------------------
# atm_packed_replay
# ----------------------------------------------------------------------
def prepare_replay(seed: int, scale: Scale) -> Dict[str, Any]:
    from repro.apps.atm import make_fleet_testbench
    from repro.service import events_to_injects

    net, assignment = _atm()
    streams = make_fleet_testbench(scale.atm_instances, cells=ATM_CELLS, seed=seed)
    digest = stream_digest(streams)
    oracle = cached_oracle("atm", digest, memo_free_oracle, net, assignment, streams)
    injects = events_to_injects(streams)
    del streams
    _freeze_inputs()
    return {"net": net, "assignment": assignment, "injects": injects,
            "oracle": oracle, "digest": digest,
            "instances": scale.atm_instances}


def measure_replay(inputs, seconds: float, tracer) -> Outcome:
    return asyncio.run(_replay(inputs, seconds, tracer))


async def _replay(inputs, seconds: float, tracer) -> Outcome:
    from repro.service import FleetSupervisor, LocalClient

    injects = inputs["injects"]
    total = len(injects)
    cycles = inputs["oracle"]["stats"]["total_cycles"]
    setups: List[float] = []

    async def set_up():
        started = time.perf_counter()
        supervisor = FleetSupervisor(
            inputs["net"], inputs["assignment"], shards=1, backend="async"
        )
        await supervisor.start()
        client = LocalClient(supervisor)
        packed = client.pack(injects)
        chunks = [
            packed.take(slice(lo, lo + REPLAY_CHUNK))
            for lo in range(0, total, REPLAY_CHUNK)
        ]
        # the warm-up pass fills the cascade memo: set-up, not serving
        for chunk in chunks:
            await client.inject_packed(chunk)
        await client.snapshot()
        setups.append(time.perf_counter() - started)
        return supervisor, client, chunks

    async def throwaway_set_up():
        await (await set_up())[0].stop(drain=False)

    supervisor = None
    try:
        supervisor, client, chunks = await set_up()
        windows, failed_passes = [], 0
        next_set_up = time.perf_counter() + REPLAY_SETUP_INTERVAL
        for index in _timed_loop(seconds, minimum=3):
            with traced_pass(tracer, index) as traced:
                if time.perf_counter() >= next_set_up:
                    # set-up samples spread over the run, outside its windows
                    await throwaway_set_up()
                    next_set_up = time.perf_counter() + REPLAY_SETUP_INTERVAL
                await client.reload()
                started = time.perf_counter()
                for chunk in chunks:
                    await client.inject_packed(chunk)
                reply = await client.snapshot()
                ended = time.perf_counter()
            windows.append(ended - started)
            if traced:
                tracer.windows.append((started, ended))
            if reply.events != total or reply.cycles != cycles:
                failed_passes += 1
        rss = peak_rss_mb()
        result = await supervisor.stop(drain=True)
        supervisor = None
        while len(setups) < REPLAY_SETUP_REPEATS:
            await throwaway_set_up()
    finally:
        if supervisor is not None:
            await supervisor.stop(drain=False)
    attempted = total * len(windows)
    drained_ok = result_doc(result) == inputs["oracle"]
    return Outcome(
        metrics=_e2e(total, windows, setups, rss),
        attempted=attempted,
        failed=attempted if not drained_ok else total * failed_passes,
        verdict=(
            f"drained FleetResult {'==' if drained_ok else '!='} memo-free "
            f"oracle; {len(windows)} pass(es), {failed_passes} snapshot "
            "mismatch(es)"
        ),
        labels={
            "instances": inputs["instances"],
            "events": total,
            "shards": 1,
            "backend": "async",
            "input_sha256": inputs["digest"],
            "passes": len(windows),
        },
        windows=windows,
        layer={"fleet.firings": sum(result.stats.firings.values())},
    )


# ----------------------------------------------------------------------
# unbalanced_oneshot
# ----------------------------------------------------------------------
def prepare_oneshot(seed: int, scale: Scale) -> Dict[str, Any]:
    from repro.petrinet.generators import unbalanced_choice_net
    from repro.runtime import ModuleAssignment, synthetic_streams

    net = unbalanced_choice_net(1, branches=4, max_weight=6, merge=True)
    assignment = ModuleAssignment.single_task(net)
    streams = synthetic_streams(
        net, scale.oneshot_instances, scale.oneshot_events, seed=seed
    )
    digest = stream_digest(streams)
    oracle = cached_oracle(
        "unbalanced", digest, memo_free_oracle, net, assignment, streams,
        on_budget="stop",
    )
    _freeze_inputs()
    return {"net": net, "assignment": assignment, "streams": streams,
            "oracle": oracle, "digest": digest,
            "instances": scale.oneshot_instances}


def measure_oneshot(inputs, seconds: float, tracer) -> Outcome:
    from repro.runtime import FleetSimulator

    streams = inputs["streams"]
    total = sum(len(stream) for stream in streams)
    setups, windows = [], []
    failed_passes = 0
    direct_loop = flushes = 0
    firings = 0
    # a traced run needs an untraced and a traced pass
    for index in _timed_loop(seconds, minimum=1 if tracer is None else 2):
        with traced_pass(tracer, index) as traced:
            for _ in range(SETUP_REPEATS):
                started = time.perf_counter()
                simulator = FleetSimulator(
                    inputs["net"], inputs["assignment"], on_budget="stop"
                )
                setups.append(time.perf_counter() - started)
            started = time.perf_counter()
            result = simulator.run(streams)
            ended = time.perf_counter()
        windows.append(ended - started)
        if traced:
            tracer.windows.append((started, ended))
        if result_doc(result) != inputs["oracle"]:
            failed_passes += 1
        # FleetEngine has no public view of its memo state; these two
        # private fields say whether the kernel gave up on the memo
        direct_loop = int(not simulator.kernel._memo_active)
        flushes = simulator.kernel._memo_flushes
        firings = sum(result.stats.firings.values())
        del simulator, result
        gc.collect()
    rss = peak_rss_mb()
    return Outcome(
        metrics=_e2e(total, windows, setups, rss),
        attempted=total * len(windows),
        failed=total * failed_passes,
        verdict=(
            f"{len(windows) - failed_passes}/{len(windows)} run() result(s) "
            "== memo-free oracle; kernel ended on the "
            f"{'direct loop' if direct_loop else 'cascade memo'} after "
            f"{flushes} flush(es)"
        ),
        labels={
            "instances": inputs["instances"],
            "events": total,
            "shards": 1,
            "backend": "oneshot",
            "input_sha256": inputs["digest"],
            "passes": len(windows),
            "direct_loop": bool(direct_loop),
        },
        windows=windows,
        layer={
            "fleet.firings": firings,
            "fleet.memo_flushes": flushes,
            "fleet.direct_loop": direct_loop,
        },
    )


# ----------------------------------------------------------------------
# qss_synthesis
# ----------------------------------------------------------------------
#: Net-set builds before each pass (``setup_s`` is their median).
QSS_SETUP_REPEATS = 3
#: Paper figures in the net set (figure 1b is not free-choice).
QSS_FIGURES = ("figure1a", "figure2", "figure3a", "figure3b", "figure4",
               "figure5", "figure7")
#: Verdicts the gallery documents (``repro.gallery.figures``); every
#: other net is checked against ``analyse(engine="legacy")``.
DOCUMENTED_VERDICTS = {
    "figure2": True,
    "figure3a": True,
    "figure3b": False,
    "figure4": True,
    "figure5": True,
    "figure7": False,
}


def build_net_set(seed: int, corpus_nets: int) -> List[Tuple[str, Any]]:
    """The fixed nets, plus ``corpus_nets`` random free-choice specs."""
    from repro.apps.atm import build_atm_server_net
    from repro.apps.heating import build_heating_net
    from repro.apps.router import build_router_net
    from repro.gallery import paper_figures
    from repro.petrinet.corpus import CORPUS_FAMILIES
    from repro.petrinet.generators import independent_choices_net, nested_choices_net

    figures = paper_figures()
    nets = [
        ("atm", build_atm_server_net()),
        ("router", build_router_net()),
        ("heating", build_heating_net()),
    ]
    nets += [(figure, figures[figure]()) for figure in QSS_FIGURES]
    nets += [
        ("nested_choices_10", nested_choices_net(10)),
        ("independent_choices_8x2", independent_choices_net(8, 2)),
    ]
    family = CORPUS_FAMILIES["random_free_choice"]
    rng = random.Random(seed)
    for _ in range(corpus_nets):
        spec = family.spec(rng.randrange(1_000_000))
        nets.append((f"random_free_choice_{spec.seed}", spec.build()))
    return nets


def qss_oracle(seed: int, corpus_nets: int) -> Dict[str, Any]:
    """Each net's verdict and C size by way of the legacy engine.

    The verdict is the gallery's where it documents one; the C size of
    a schedulable net is that of ``emit_c(synthesize(schedule))`` on
    the legacy engine's schedule.
    """
    from repro import codegen
    from repro.qss import analyse

    verdicts, c_lines = {}, {}
    for name, net in build_net_set(seed, corpus_nets):
        report = analyse(net, engine="legacy")
        verdicts[name] = DOCUMENTED_VERDICTS.get(name, report.schedulable)
        if report.schedulable:
            c_lines[name] = codegen.emit_c(
                codegen.synthesize(report.schedule)
            ).lines_of_code
    return {"verdicts": verdicts, "c_lines": c_lines}


def prepare_qss(seed: int, scale: Scale) -> Dict[str, Any]:
    import hashlib

    from repro.petrinet.serialization import net_to_json

    nets = build_net_set(seed, scale.corpus_nets)
    digest = hashlib.sha256(
        "\n".join(net_to_json(net) for _, net in nets).encode()
    ).hexdigest()
    oracle = cached_oracle("qss", digest, qss_oracle, seed, scale.corpus_nets)
    return {"seed": seed, "corpus_nets": scale.corpus_nets,
            "oracle": oracle, "digest": digest}


def measure_qss(inputs, seconds: float, tracer) -> Outcome:
    from repro import codegen, qss

    verdicts = inputs["oracle"]["verdicts"]
    sizes = inputs["oracle"]["c_lines"]
    setups, windows = [], []
    failed = 0
    for index in _timed_loop(seconds, minimum=3):
        with traced_pass(tracer, index) as traced:
            # set-up: build the net set, a few times per pass
            for _ in range(QSS_SETUP_REPEATS):
                started = time.perf_counter()
                nets = build_net_set(inputs["seed"], inputs["corpus_nets"])
                setups.append(time.perf_counter() - started)
            results = {}
            started = time.perf_counter()
            for name, net in nets:
                report = qss.analyse(net)
                results[name] = (
                    codegen.emit_c(codegen.synthesize(report.schedule)).lines_of_code
                    if report.schedulable
                    else None
                )
            ended = time.perf_counter()
        windows.append(ended - started)
        if traced:
            tracer.windows.append((started, ended))
        # a net fails on a wrong verdict or on C of another size
        failed += sum(
            1
            for name, _ in nets
            if (results[name] is not None) != verdicts[name]
            or results[name] != sizes.get(name)
        )
    rss = peak_rss_mb()
    schedulable = sum(1 for value in verdicts.values() if value)
    c_lines = sum(sizes.values())
    return Outcome(
        metrics=_e2e(len(nets), windows, setups, rss),
        attempted=len(nets) * len(windows),
        failed=failed,
        verdict=(
            f"{len(windows)} pass(es) over {len(nets)} nets, {failed} "
            "verdict or C-size mismatch(es) against the gallery/legacy "
            f"engine; {schedulable} schedulable, {c_lines} lines of C"
        ),
        labels={
            "instances": len(nets),
            "events": len(nets),
            "shards": 0,
            "backend": "qss",
            "input_sha256": inputs["digest"],
            "passes": len(windows),
            "c_lines": c_lines,
            "schedulable": schedulable,
        },
        windows=windows,
    )


#: name -> (prepare, measure, why)
WORKLOADS: Dict[str, Tuple[Callable, Callable, str]] = {
    "atm_socket": (
        prepare_socket,
        measure_socket,
        "LDJSON socket client to drained FleetResult: the ingest boundary "
        "(decode, pack) dominates; flood throughput and paced latency",
    ),
    "atm_packed_replay": (
        prepare_replay,
        measure_replay,
        "pre-packed replay into a warm async shard: no decode or pack, so "
        "shard and kernel dispatch dominate",
    ),
    "unbalanced_oneshot": (
        prepare_oneshot,
        measure_oneshot,
        "one-shot run() on a net whose markings accumulate: the cascade memo "
        "keeps missing and the kernel falls back to the direct loop",
    ),
    "qss_synthesis": (
        prepare_qss,
        measure_qss,
        "the compile-time side: analyse -> synthesize -> emit_c over "
        "schedulable and unschedulable nets",
    ),
}
