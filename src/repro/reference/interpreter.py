"""The IR tree walk: task bodies executed statement by statement against a
name-keyed counter dict."""

from __future__ import annotations

from typing import Dict, Optional

from .. import runtime
from ..codegen.interpreter import ActivationResult, ExecutionError
from ..codegen.ir import Block, CallFragment, ChoiceIf, Comment, DecCount
from ..codegen.ir import FireTransition, Guarded, IncCount, Program, TaskProgram
from ..runtime.cost import CostModel


class TaskExecutor:
    """Executes activations of one task by walking its IR statements."""

    def __init__(self, task: TaskProgram, cost_model: Optional[CostModel] = None):
        self.task = task
        self.cost = cost_model or CostModel()
        self._max_depth = 10_000
        self._state: Dict[str, int] = dict(task.counters)

    @property
    def counters(self) -> Dict[str, int]:
        """Every declared counter plus any other counter holding tokens."""
        declared = self.task.counters
        return {
            place: value
            for place, value in self._state.items()
            if place in declared or value
        }

    def reset(self) -> None:
        self._state = dict(self.task.counters)

    def activate(self, resolve_choice) -> ActivationResult:
        result = ActivationResult(task=self.task.name, cycles=0)
        for entry in self.task.entry_fragments:
            self._run_fragment(entry, resolve_choice, result, depth=0)
        return result

    def _run_fragment(self, name, resolve_choice, result, depth: int) -> None:
        if depth > self._max_depth:
            raise ExecutionError(
                f"fragment recursion exceeded {self._max_depth} levels in "
                f"task {self.task.name!r}"
            )
        result.cycles += self.cost.call_cycles
        self._run_block(self.task.fragments[name].body, resolve_choice, result, depth)

    def _guard_holds(self, statement: Guarded) -> bool:
        state = self._state
        return all(
            state.get(place, 0) >= threshold
            for place, threshold in statement.conditions
        )

    def _run_block(self, block: Block, resolve_choice, result, depth: int) -> None:
        state = self._state
        cost = self.cost
        for statement in block:
            if isinstance(statement, Comment):
                continue
            if isinstance(statement, FireTransition):
                result.fired.append(statement.transition)
                result.cycles += statement.cost * cost.transition_cycles
            elif isinstance(statement, IncCount):
                state[statement.place] = (
                    state.get(statement.place, 0) + statement.amount
                )
                result.cycles += cost.counter_cycles
            elif isinstance(statement, DecCount):
                updated = state.get(statement.place, 0) - statement.amount
                if updated < 0:
                    raise ExecutionError(
                        f"counter for place {statement.place!r} went negative "
                        f"in task {self.task.name!r}"
                    )
                state[statement.place] = updated
                result.cycles += cost.counter_cycles
            elif isinstance(statement, Guarded):
                if statement.kind == "if":
                    result.cycles += cost.test_cycles
                    if self._guard_holds(statement):
                        self._run_block(statement.body, resolve_choice, result, depth)
                else:
                    iterations = 0
                    while True:
                        result.cycles += cost.test_cycles
                        if not self._guard_holds(statement):
                            break
                        self._run_block(statement.body, resolve_choice, result, depth)
                        iterations += 1
                        if iterations > 1_000_000:
                            raise ExecutionError(
                                "while-guard did not terminate; the generated "
                                "code would loop forever"
                            )
            elif isinstance(statement, ChoiceIf):
                result.cycles += cost.test_cycles
                chosen = resolve_choice(statement.place)
                result.choices_taken[statement.place] = chosen
                for choice, branch in statement.branches:
                    if choice == chosen:
                        self._run_block(branch, resolve_choice, result, depth)
                        break
                # otherwise the data selected an alternative outside this
                # task: nothing to do.
            elif isinstance(statement, CallFragment):
                self._run_fragment(
                    statement.fragment, resolve_choice, result, depth + 1
                )
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown IR statement {statement!r}")


class RTOS(runtime.RTOS):
    """The production executive, dispatching to tree-walking executors."""

    def __init__(self, program: Program, cost_model: Optional[CostModel] = None):
        super().__init__(program, cost_model)
        self.executor.tasks = {
            task.name: TaskExecutor(task, self.cost) for task in program.tasks
        }
