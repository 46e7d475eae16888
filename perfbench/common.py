"""Shared plumbing for the repository benchmark.

Locates the checkout's ``src`` tree, fingerprints inputs and sources,
computes and caches the memo-free oracle result, and builds the
self-describing rows every run prints.  Imported by ``run.py`` (the
serving process) and ``loadgen.py`` (the socket load generator); run
as a script, it is the child process that computes a missing oracle.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import platform
import subprocess
import sys
from dataclasses import asdict
from operator import attrgetter
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Oracle results cached per input and source digest (see ``.gitignore``).
CACHE_DIR = HERE / ".cache"
#: Rows and span dumps written at the end of each run (see ``.gitignore``).
OUT_DIR = HERE / ".out"

#: ATM cells per instance: the Table I testbench (~114 events each).
ATM_CELLS = 50
#: The ``atm_socket`` paced bursts' open-loop rate, line size and lines
#: per burst (about 1.3 s of probes per round).  One 256-event line
#: takes the server about 6 ms on a 2-core VM, so a line every 32 ms
#: keeps it mostly idle and a probe measures one line's service time.
#: At 25,000 events/s (a line every 10 ms) the server ran 60-90% busy
#: and the p50 measured queueing, which multiplied every swing of the
#: machine's speed (IQR/median up to 0.41 over ten seeds).
PACED_RATE = 8_000.0
PACED_LINE_EVENTS = 256
PACED_BURST_LINES = 40


class CheckoutError(RuntimeError):
    """The benchmark is not sitting in a repository checkout."""


def use_checkout_sources() -> None:
    """Put the checkout's ``src`` first on ``sys.path``.

    Refuses to fall back to any other installed ``repro``: the
    benchmark measures the code of the checkout it sits in.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckoutError(
            f"no src/repro package under {ROOT}; run the benchmark from a "
            "repository checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def source_digest() -> str:
    """SHA-256 over every Python source file of ``src/repro``."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git.

    ``None`` when the checkout is not a git repository (an exported
    tree); :func:`source_digest` then identifies the code instead.
    """
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def stream_digest(streams: Iterable[Sequence[Any]]) -> str:
    """SHA-256 of event streams, as ``tests/golden/workload_digests.json``."""
    blob = "\n".join(repr(e) for stream in streams for e in stream)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS mark from its current RSS.

    Called once the inputs are generated, so :func:`peak_rss_mb` covers
    the program's set-up and passes, not the input generation before
    them (Linux: ``/proc/self/clear_refs``).
    """
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """Peak resident set size since :func:`reset_peak_rss`, in MiB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


# ----------------------------------------------------------------------
# Results and the memo-free oracle
# ----------------------------------------------------------------------
def result_doc(result) -> Dict[str, Any]:
    """The parts of a ``FleetResult`` the oracle check compares."""
    return {
        "stats": asdict(result.stats),
        "instance_cycles": [int(c) for c in result.instance_cycles],
        "instance_events": [int(e) for e in result.instance_events],
    }


def memo_free_oracle(net, assignment, streams, **engine_options) -> Dict[str, Any]:
    """Serve ``streams`` on a memo-free ``FleetEngine`` via ``dispatch``.

    Round ``k`` dispatches the ``k``-th event (in time order) of every
    instance that has one: the per-instance order every serving path
    preserves.  This engine is one of the two oracles the ROADMAP
    keeps; the legacy simulator is the other, and too slow to run on
    every benchmark pass.
    """
    import numpy as np

    from repro.runtime.fleet import FleetEngine

    engine = FleetEngine(
        net, assignment, memo=False, instances=len(streams), **engine_options
    )
    ordered = [sorted(stream, key=attrgetter("time")) for stream in streams]
    lengths = np.array([len(stream) for stream in ordered], dtype=np.int64)
    for k in range(int(lengths.max(initial=0))):
        rows = np.flatnonzero(lengths > k)
        engine.dispatch(rows, [ordered[i][k] for i in rows.tolist()])
    return result_doc(engine.result())


def cached_oracle(kind: str, input_digest: str, compute, *args, **kwargs):
    """``compute(*args, **kwargs)``'s oracle document, cached.

    The key covers the workload kind, the SHA-256 of the generated
    inputs and of ``src/repro``, so a cached result never outlives the
    code or inputs it was computed from.  A missing document is computed
    in a fresh child process, so the oracle's memory never shows in the
    serving process's ``peak_rss_mb``, cold cache or warm.
    """
    key = hashlib.sha256(
        f"{kind}\n{input_digest}\n{source_digest()}".encode()
    ).hexdigest()[:32]
    path = CACHE_DIR / f"oracle-{key}.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        pass
    call = pickle.dumps((compute, args, kwargs))
    child = subprocess.run(
        [sys.executable, str(HERE / "common.py")],
        input=call, stdout=subprocess.PIPE, check=True,
    )
    doc = pickle.loads(child.stdout)
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(doc))
    os.replace(tmp, path)
    return doc


# ----------------------------------------------------------------------
# Rows
# ----------------------------------------------------------------------
def environment_labels() -> Dict[str, Any]:
    """What a row ran on: machine, interpreter, libraries and code."""
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def append_row(row: Dict[str, Any]) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / "rows.jsonl", "a") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")


def write_spans(name: str, records: List[Dict[str, Any]]) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / name
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    return path


if __name__ == "__main__":
    # the child of cached_oracle: one pickled call on stdin, its result
    # pickled on stdout
    use_checkout_sources()
    compute, args, kwargs = pickle.loads(sys.stdin.buffer.read())
    sys.stdout.buffer.write(pickle.dumps(compute(*args, **kwargs)))
