"""Reference executors: the oracles the differential suites check against.

Each run-time layer has one production executor; the slower, simpler
implementations they replaced live on here, unchanged, for the tests
and benchmarks to check the production paths against:

* :class:`ReactiveSimulator` / :func:`run_fleet` — the string-keyed
  reactive token game, one instance at a time;
* :class:`TaskExecutor` / :class:`RTOS` — the IR tree walk over a
  name-keyed counter dict;
* :func:`simulate_schedule` — the dict-based SDF PASS loop.

Only tests and benchmarks import this package
(`tests/test_reference_boundary.py` fails if a production module does).
"""

from .interpreter import RTOS, TaskExecutor
from .reactive import ReactiveSimulator, run_fleet
from .sdf import simulate_schedule

__all__ = [
    "RTOS",
    "TaskExecutor",
    "ReactiveSimulator",
    "run_fleet",
    "simulate_schedule",
]
