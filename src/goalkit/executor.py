"""Trace generation and reachable-state-graph construction.

A computation step attempts one conditional action: it executes where
``apply_M`` gives the action a transition (its condition holds and the
underlying action is enabled), and idles (state unchanged) otherwise.
Idle steps are recorded, never elided.  A schedule decides only which
action is attempted; its ``rr`` and ``random`` kinds are weakly fair in
the finite-surrogate sense of :func:`fair_picks`.
"""

from __future__ import annotations

import os
import random
from functools import partial
from itertools import count, cycle, islice
from typing import Iterable, Iterator, Optional

from .agent_program import Agent
from .mental_state import ConditionalAction, MentalState, StateSet, apply_M
from .prop_logic import Record

DEFAULT_BUDGET = 10_000
BUDGET_ENV_VAR = "GOAL_BUDGET"


class BudgetExceeded(Exception):
    """Raised when reachable-graph construction outgrows its node budget."""


class InvalidBudget(BudgetExceeded):
    """Raised for a budget that is not a non-negative integer: a usage error.

    It subclasses :class:`BudgetExceeded` so that callers which catch that
    around :func:`default_budget` keep working.
    """


def _non_negative(text: str) -> int:
    """``text`` read as a non-negative integer, or -1 when it is not one."""
    try:
        return max(int(text), -1)
    except ValueError:
        return -1


def default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    budget = DEFAULT_BUDGET if raw is None else _non_negative(raw)
    if budget < 0:
        raise InvalidBudget(
            f"{BUDGET_ENV_VAR} must be a non-negative integer, got {raw!r}")
    return budget


# ---------------------------------------------------------------------------


class Step(Record):
    """One attempted conditional action.  Idle steps leave the state fixed."""

    __slots__ = __match_args__ = ("source", "action", "target", "executed")

    def __post_init__(self) -> None:
        if not self.executed:
            assert self.target == self.source

    def line(self, i: int, label: str) -> str:
        """This step's trace line, as attempt ``i`` of action ``label``."""
        return (f"step {i} | {label} | "
                f"{'executed' if self.executed else 'idle'} | "
                f"{self.target.describe()}")


def step(state: MentalState, b: ConditionalAction) -> Step:
    """Attempt ``b`` at ``state``: it executes exactly where ``apply_M`` is
    defined."""
    nxt = apply_M(b, state)
    if nxt is None:
        return Step(state, b, state, False)
    return Step(state, b, nxt, True)


# ---------------------------------------------------------------------------
# Schedules.


def schedule(kind: str, n: int, seed: int = 0) -> Iterator[int]:
    """The action indices a scheduler of ``kind`` attempts over ``n`` actions.

    ``rr`` attempts the actions in program order, cyclically.  ``random`` is
    seeded and constructively fair: the first ``n`` picks are a random
    permutation of the program (so the per-action omission streaks stay
    pairwise distinct forever), and after that any action omitted ``n``
    times in a row is force-scheduled; the permutation guarantees at most
    one action is ever at the threshold, so no streak can exceed ``n``.
    ``unfair`` is plain seeded random choice with no fairness forcing
    (didactic only; excluded from verification semantics).  An unknown
    kind raises :class:`ValueError` here, not at the first pick.
    """
    if kind == "rr":
        return cycle(range(n))
    if kind == "random":
        return _forcing(n, random.Random(seed))
    if kind == "unfair":
        return iter(partial(random.Random(seed).randrange, n), None)
    raise ValueError(f"unknown scheduler kind {kind!r}")


def _forcing(n: int, rng: random.Random) -> Iterator[int]:
    # The omission streaks stay distinct after the opening permutation, so
    # the longest is the least recently picked action's: the first key of
    # ``last``, which maps each action to its latest pick, oldest first.
    last: dict[int, int] = {}
    for k, choice in enumerate(rng.sample(range(n), n)):
        last[choice] = k
        yield choice
    for k in count(n):
        oldest = next(iter(last))
        choice = oldest if k - last[oldest] > n else rng.randrange(n)
        del last[choice]
        last[choice] = k
        yield choice


def trace(agent: Agent, kind: str, steps: int,
          seed: int = 0) -> Iterator[tuple[int, Step]]:
    """The first ``steps`` attempts of ``agent`` under ``schedule(kind)``, as
    (pick, step) pairs, each attempted when it is asked for.  The schedule is
    built here, so an unknown kind raises before the first pick."""
    picks = islice(schedule(kind, len(agent.program), seed), steps)
    return _attempts(agent, picks)


def _attempts(agent: Agent,
              picks: Iterator[int]) -> Iterator[tuple[int, Step]]:
    state = agent.initial_state
    for b in picks:
        st = step(state, agent.program[b])
        state = st.target
        yield b, st


def fair_picks(picks: Iterable[int], n: int, kind: str) -> bool:
    """Finite surrogate for "every action is scheduled infinitely often":
    no action is omitted more than ``n - 1`` picks in a row, so any ``n``
    consecutive picks cover the program; ``random`` is held to its forcing
    bound ``n`` instead.  ``unfair`` picks generally fail."""
    return max_omission_streak(picks, n) <= (n if kind == "random" else n - 1)


def max_omission_streak(picks: Iterable[int], n_actions: int) -> int:
    """The longest run of consecutive picks omitting some single action: the
    longest gap around any action's picks, from one pass over ``picks``."""
    last = [-1] * n_actions     # the index of each action's latest pick
    worst, t = 0, -1
    for t, pick in enumerate(picks):
        worst = max(worst, t - last[pick] - 1)
        last[pick] = t
    return max(worst, t - min(last, default=t))


# ---------------------------------------------------------------------------
# Reachable-state graph.


class StateGraph:
    """The reachable states of an agent and every attempted step between them.

    The graph is indexed by position: ``position[s]`` is the index of ``s``
    in ``nodes``, ``targets[a][i]`` is the position of the state that action
    ``a`` leads to from node ``i``, and bit ``i`` of ``executed[a]`` is set
    where ``a`` executes rather than idles.  ``states`` evaluates formulas
    over the nodes as bit masks and keeps its values.
    """

    def __init__(self, agent: Agent, nodes: list[MentalState],
                 position: dict[MentalState, int],
                 targets: tuple[tuple[int, ...], ...], executed: tuple[int, ...]):
        self.agent = agent
        self.nodes = nodes
        self.position = position
        self.targets = targets
        self.executed = executed
        self.states = StateSet(nodes)

    @property
    def edges(self) -> list[tuple[int, int, int, bool]]:
        """Every attempted step as ``(source, action, target, executed)``
        positions, node by node in program order, idle self-loops included."""
        return [(i, a, row[i], bool(self.executed[a] >> i & 1))
                for i in range(len(self.nodes))
                for a, row in enumerate(self.targets)]

    def to_dot(self) -> str:
        lines = ["digraph reachable {"]
        for i, node in enumerate(self.nodes):
            lines.append(f'  n{i} [label="{node.digest()}"];')
        for i, a, target, executed in self.edges:
            style = "" if executed else ", style=dashed"
            lines.append(f'  n{i} -> n{target} '
                         f'[label="{self.agent.action_label(a)}"{style}];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def reachable(agent: Agent, budget: Optional[int] = None) -> StateGraph:
    """BFS over the step relation from the initial state.

    Every action is expanded at every node; idle attempts are recorded as
    self-loops.  Raises :class:`BudgetExceeded` before expanding a node
    when the graph has more nodes than the budget, the initial one included.
    """
    if budget is None:
        budget = default_budget()
    nodes = [agent.initial_state]
    position = {agent.initial_state: 0}
    targets: list[list[int]] = [[] for _ in agent.program]
    executed = [0] * len(agent.program)
    for i, state in enumerate(nodes):   # nodes grows as the BFS finds states
        if len(nodes) > budget:
            raise BudgetExceeded(
                f"reachable-state budget of {budget} nodes exceeded")
        for a, b in enumerate(agent.program):
            st = step(state, b)
            if st.target not in position:
                position[st.target] = len(nodes)
                nodes.append(st.target)
            targets[a].append(position[st.target])
            executed[a] |= st.executed << i
    return StateGraph(agent, nodes, position, tuple(map(tuple, targets)),
                      tuple(executed))
