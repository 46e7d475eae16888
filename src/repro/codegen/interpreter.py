"""Execution of synthesized task code on a simulated target.

The paper reports "clock cycles" measured by compiling the generated C
for an embedded target and running a testbench.  We do not have that
target, so the same IR that the C emitter prints is executed directly by
this interpreter against a configurable cycle cost model
(:class:`~repro.runtime.cost.CostModel`); see DESIGN.md for the
substitution rationale.  Because both the QSS implementation and the
baselines are executed by the same interpreter with the same cost model,
the *relative* comparison of Table I is preserved.

An activation of a task executes its entry fragments once; counting
variables persist across activations (they are the statically allocated
buffers of the implementation).  Data-dependent choices are resolved by
a caller-provided resolver (the workload generator supplies one per
event).

The executor interprets schedules over *compiled markings*: at
construction every counting variable is mapped to a dense integer index
and the IR is lowered once into tuples of integer-indexed operations
(with the cost model baked in), so the per-activation inner loop runs on
a flat list of ints instead of string-keyed dicts — the same
representation shift as :class:`repro.petrinet.compiled.CompiledNet` for
the analysis side.  The public, name-keyed ``counters`` view is
preserved for diagnostics and tests.

The pre-lowering execution style — tree-walking the IR statement
objects against a name-keyed counter dict — is the test oracle
:class:`repro.reference.TaskExecutor`; both charge identical cycles and
fire identical sequences.

``engine="native"`` leaves interpretation behind entirely: the emitted
C is compiled to a shared library and the activations run the paper's
actual artifact (:mod:`repro.codegen.native`), with identical firing
sequences, choice consumption, counter trajectories and cycle charges
(`tests/test_codegen_native.py`).  On a machine without a C compiler
the executor emits a ``RuntimeWarning`` and falls back to the compiled
interpreter; :attr:`TaskExecutor.active_engine` reports which engine
actually runs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..petrinet.compiled import (
    ENGINE_COMPILED,
    ENGINE_NATIVE,
    EXEC_ENGINES,
    validate_engine,
)
from ..runtime.cost import CostModel
from .ir import (
    Block,
    CallFragment,
    ChoiceIf,
    Comment,
    DecCount,
    FireTransition,
    Guarded,
    IncCount,
    Program,
    TaskProgram,
)

#: A choice resolver maps a choice place to the transition selected by the
#: run-time data.  It is invoked once per evaluation of the choice.
ChoiceResolver = Callable[[str], str]


class ExecutionError(Exception):
    """Raised when generated code misbehaves (e.g. a counter going negative),
    which would indicate a code generation bug."""


@dataclass
class ActivationResult:
    """Outcome of one task activation."""

    task: str
    cycles: int
    fired: List[str] = field(default_factory=list)
    choices_taken: Dict[str, str] = field(default_factory=dict)


def _native_fallback_warning(err: Exception) -> None:
    warnings.warn(
        f"native execution tier unavailable ({err}); "
        "falling back to the compiled interpreter",
        RuntimeWarning,
        stacklevel=3,
    )


def _build_native_backend(task: TaskProgram, cost: CostModel):
    """Compile a single task for the native tier, or ``None`` (with a
    warning) when the machine has no C compiler."""
    from .native import NativeUnavailableError, native_task_backend

    try:
        return native_task_backend(task, cost)
    except NativeUnavailableError as err:
        _native_fallback_warning(err)
        return None


# Lowered opcodes: the IR is compiled once per executor into nested
# tuples of these, with counter names replaced by dense integer indices
# and per-statement cycle costs precomputed from the cost model.
_OP_FIRE = 0
_OP_INC = 1
_OP_DEC = 2
_OP_IF = 3
_OP_WHILE = 4
_OP_CHOICE = 5
_OP_CALL = 6


class TaskExecutor:
    """Executes activations of a single task, keeping its counter state.

    With ``engine="compiled"`` (default) the counting variables are held
    as a flat list of ints indexed by a dense place id (the task's
    compiled marking) and the IR is lowered once into integer opcodes;
    ``engine="native"`` runs the compiled shared library.  The
    name-keyed :attr:`counters` view is available either way.
    """

    def __init__(
        self,
        task: TaskProgram,
        cost_model: Optional[CostModel] = None,
        engine: str = ENGINE_COMPILED,
        _native_backend=None,
    ) -> None:
        self.task = task
        self.cost = cost_model or CostModel()
        self.engine = validate_engine(engine, EXEC_ENGINES)
        #: the engine actually executing activations; differs from
        #: :attr:`engine` only when ``"native"`` fell back
        self.active_engine = self.engine
        #: the :class:`~repro.codegen.native.NativeTaskBackend` running
        #: the activations when the native tier is active, else ``None``
        self.native_backend = None
        #: guards against runaway recursion caused by malformed fragments
        self._max_depth = 10_000
        if self.engine == ENGINE_NATIVE:
            backend = _native_backend
            if backend is None:
                backend = _build_native_backend(self.task, self.cost)
            if backend is not None:
                self.native_backend = backend
                return
            self.active_engine = ENGINE_COMPILED
        # dense index over the task's counting variables (declared
        # counters first, then any place only referenced by statements)
        self._place_ids: Dict[str, int] = {
            place: i for i, place in enumerate(task.counters)
        }
        self._code: Dict[str, Tuple] = {
            name: self._compile_block(fragment.body)
            for name, fragment in task.fragments.items()
        }
        self._initial: List[int] = [0] * len(self._place_ids)
        for place, value in task.counters.items():
            self._initial[self._place_ids[place]] = value
        self._values: List[int] = list(self._initial)

    @property
    def counters(self) -> Dict[str, int]:
        """Name-keyed snapshot of the counting variables.

        Contains every declared counter plus any statement-only counter
        that currently holds tokens.  The returned dict is a copy;
        assign to the property (or call :meth:`reset`) to change the
        executor's state.
        """
        if self.native_backend is not None:
            return self.native_backend.counters
        declared = self.task.counters
        return {
            place: self._values[index]
            for place, index in self._place_ids.items()
            if place in declared or self._values[index]
        }

    @counters.setter
    def counters(self, values: Mapping[str, int]) -> None:
        if self.native_backend is not None:
            self.native_backend.counters = values
            return
        self._values = [0] * len(self._place_ids)
        for place, value in values.items():
            self._values[self._place_ids[place]] = value

    def reset(self) -> None:
        """Reset counters to the initial marking."""
        if self.native_backend is not None:
            self.native_backend.reset()
        else:
            self._values = list(self._initial)

    def activate(self, resolve_choice: ChoiceResolver) -> ActivationResult:
        """Run one activation of the task (one input event)."""
        if self.native_backend is not None:
            return self.native_backend.activate(resolve_choice)
        result = ActivationResult(task=self.task.name, cycles=0)
        for entry in self.task.entry_fragments:
            self._run_fragment(entry, resolve_choice, result, depth=0)
        return result

    def activate_many(
        self, choice_maps: Sequence[Mapping[str, str]]
    ) -> List[ActivationResult]:
        """Run one activation per ``{place: transition}`` map.

        The native tier executes the whole batch in a single library
        call; the interpreter loops over :func:`make_resolver`-driven
        activations.  Results are engine-identical either way.
        """
        if self.native_backend is not None:
            return self.native_backend.activate_many(choice_maps)
        return [self.activate(make_resolver(mapping)) for mapping in choice_maps]

    # -- IR lowering -------------------------------------------------------
    def _place_id(self, place: str) -> int:
        if place not in self._place_ids:
            self._place_ids[place] = len(self._place_ids)
        return self._place_ids[place]

    def _compile_block(self, block: Block) -> Tuple:
        transition_cycles = self.cost.transition_cycles
        ops: List[Tuple] = []
        for statement in block:
            if isinstance(statement, Comment):
                continue
            if isinstance(statement, FireTransition):
                ops.append(
                    (_OP_FIRE, statement.transition, statement.cost * transition_cycles)
                )
            elif isinstance(statement, IncCount):
                ops.append((_OP_INC, self._place_id(statement.place), statement.amount))
            elif isinstance(statement, DecCount):
                ops.append(
                    (
                        _OP_DEC,
                        self._place_id(statement.place),
                        statement.amount,
                        statement.place,
                    )
                )
            elif isinstance(statement, Guarded):
                conditions = tuple(
                    (self._place_id(place), threshold)
                    for place, threshold in statement.conditions
                )
                opcode = _OP_IF if statement.kind == "if" else _OP_WHILE
                ops.append((opcode, conditions, self._compile_block(statement.body)))
            elif isinstance(statement, ChoiceIf):
                branches = tuple(
                    (choice, self._compile_block(branch))
                    for choice, branch in statement.branches
                )
                ops.append((_OP_CHOICE, statement.place, branches))
            elif isinstance(statement, CallFragment):
                ops.append((_OP_CALL, statement.fragment))
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown IR statement {statement!r}")
        return tuple(ops)

    # -- execution ---------------------------------------------------------
    def _run_fragment(
        self,
        name: str,
        resolve_choice: ChoiceResolver,
        result: ActivationResult,
        depth: int,
    ) -> None:
        if depth > self._max_depth:
            raise ExecutionError(
                f"fragment recursion exceeded {self._max_depth} levels in "
                f"task {self.task.name!r}"
            )
        result.cycles += self.cost.call_cycles
        self._run_ops(self._code[name], resolve_choice, result, depth)

    def _run_ops(
        self,
        ops: Tuple,
        resolve_choice: ChoiceResolver,
        result: ActivationResult,
        depth: int,
    ) -> None:
        values = self._values
        counter_cycles = self.cost.counter_cycles
        test_cycles = self.cost.test_cycles
        for op in ops:
            kind = op[0]
            if kind == _OP_FIRE:
                result.fired.append(op[1])
                result.cycles += op[2]
            elif kind == _OP_INC:
                values[op[1]] += op[2]
                result.cycles += counter_cycles
            elif kind == _OP_DEC:
                updated = values[op[1]] - op[2]
                if updated < 0:
                    raise ExecutionError(
                        f"counter for place {op[3]!r} went negative "
                        f"in task {self.task.name!r}"
                    )
                values[op[1]] = updated
                result.cycles += counter_cycles
            elif kind == _OP_IF:
                result.cycles += test_cycles
                if all(values[index] >= threshold for index, threshold in op[1]):
                    self._run_ops(op[2], resolve_choice, result, depth)
            elif kind == _OP_WHILE:
                iterations = 0
                while True:
                    result.cycles += test_cycles
                    if not all(
                        values[index] >= threshold for index, threshold in op[1]
                    ):
                        break
                    self._run_ops(op[2], resolve_choice, result, depth)
                    iterations += 1
                    if iterations > 1_000_000:
                        raise ExecutionError(
                            "while-guard did not terminate; the generated code "
                            "would loop forever"
                        )
            elif kind == _OP_CHOICE:
                result.cycles += test_cycles
                chosen = resolve_choice(op[1])
                result.choices_taken[op[1]] = chosen
                for choice, branch in op[2]:
                    if choice == chosen:
                        self._run_ops(branch, resolve_choice, result, depth)
                        break
                # otherwise the data selected an alternative outside this
                # task: nothing to do.
            else:  # _OP_CALL
                self._run_fragment(op[1], resolve_choice, result, depth + 1)


class ProgramExecutor:
    """Executes a whole program: one :class:`TaskExecutor` per task.

    ``engine`` is forwarded to every :class:`TaskExecutor`: the lowered
    integer-opcode form (``"compiled"``, default) or the compiled shared
    library (``"native"``, built once for the whole program so all tasks
    share one artifact).
    """

    def __init__(
        self,
        program: Program,
        cost_model: Optional[CostModel] = None,
        engine: str = ENGINE_COMPILED,
    ) -> None:
        self.program = program
        self.cost = cost_model or CostModel()
        self.engine = validate_engine(engine, EXEC_ENGINES)
        self.active_engine = self.engine
        #: the shared :class:`~repro.codegen.native.NativeProgram` when
        #: the native tier is active, else ``None``
        self.native_program = None
        backends: Dict[str, object] = {}
        if self.engine == ENGINE_NATIVE:
            from .native import NativeProgram, NativeUnavailableError

            try:
                native = NativeProgram(program, self.cost)
            except NativeUnavailableError as err:
                _native_fallback_warning(err)
                self.active_engine = ENGINE_COMPILED
            else:
                self.native_program = native
                backends = {
                    task.name: native.task_backend(task.name)
                    for task in program.tasks
                }
        self.tasks: Dict[str, TaskExecutor] = {
            task.name: TaskExecutor(
                task,
                self.cost,
                engine=self.engine if backends else self.active_engine,
                _native_backend=backends.get(task.name),
            )
            for task in program.tasks
        }
        self._source_to_task: Dict[str, str] = {}
        for task in program.tasks:
            for source in task.source_transitions:
                self._source_to_task[source] = task.name

    def task_for_source(self, source: str) -> TaskExecutor:
        try:
            return self.tasks[self._source_to_task[source]]
        except KeyError:
            raise KeyError(f"no task is triggered by source {source!r}") from None

    def reset(self) -> None:
        for executor in self.tasks.values():
            executor.reset()

    def activate_source(
        self, source: str, resolve_choice: ChoiceResolver
    ) -> ActivationResult:
        """Activate the task triggered by ``source`` (one input event)."""
        return self.task_for_source(source).activate(resolve_choice)


def make_resolver(choices: Mapping[str, str], default_first: bool = False) -> ChoiceResolver:
    """Build a resolver from a fixed ``{place: transition}`` mapping.

    When ``default_first`` is False a missing place raises ``KeyError`` so
    that workload bugs surface immediately.
    """

    def resolve(place: str) -> str:
        if place in choices:
            return choices[place]
        if default_first:
            return ""
        raise KeyError(f"no resolution provided for choice place {place!r}")

    return resolve
