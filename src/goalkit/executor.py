"""Trace generation and reachable-state-graph construction.

A computation step attempts one conditional action: it executes when the
condition holds and the underlying action is enabled, and idles (state
unchanged) otherwise.  Idle steps are recorded, never elided.  Schedulers
decide only which action is attempted; both shipped kinds are weakly fair
in the finite-surrogate sense documented on :func:`fairness_check`.
"""

from __future__ import annotations

import os
import random
from typing import Iterable, Optional

from .agent_program import Agent
from .capabilities import ConditionalAction, apply_M, enabled_cond
from .mental_state import MentalState, StateSet
from .prop_logic import Record, render

DEFAULT_BUDGET = 10_000
BUDGET_ENV_VAR = "GOAL_BUDGET"


class BudgetExceeded(Exception):
    """Raised when reachable-graph construction outgrows its node budget."""


class InvalidBudget(BudgetExceeded):
    """Raised for a budget that is not a non-negative integer: a usage error.

    It subclasses :class:`BudgetExceeded` so that callers which catch that
    around :func:`default_budget` keep working.
    """


def default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = -1
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


def step(state: MentalState, b: ConditionalAction) -> Step:
    """Attempt ``b`` at ``state``; executed when selected and enabled."""
    if enabled_cond(b, state):
        nxt = apply_M(b.action, state)
        assert nxt is not None
        return Step(state, b, nxt, True)
    return Step(state, b, state, False)


class TracePrefix(Record):
    """A finite prefix of a trace: n+1 states and n attempted actions."""

    # picks index agent.program; scheduler_kind: rr | random | unfair | manual
    __slots__ = __match_args__ = ("agent", "states", "picks", "executed",
                                  "scheduler_kind", "seed")
    _defaults = {"seed": None}

    def __post_init__(self) -> None:
        assert len(self.states) == len(self.picks) + 1
        assert len(self.executed) == len(self.picks)

    def __len__(self) -> int:
        return len(self.picks)

    def dump_lines(self) -> list[str]:
        lines = []
        for i, (pick, done) in enumerate(zip(self.picks, self.executed)):
            state = self.states[i + 1]
            bels = ", ".join(sorted(render(f) for f in state.beliefs)) or "-"
            gens = ", ".join(sorted(render(g) for g in state.goals)) or "-"
            lines.append(
                f"step {i} | {self.agent.action_label(pick)} | "
                f"{'executed' if done else 'idle'} | "
                f"beliefs: {bels} | goals: {gens}")
        return lines


# ---------------------------------------------------------------------------
# Schedulers.


class RoundRobin:
    """Attempts actions in program order, cyclically."""

    kind = "rr"
    seed: Optional[int] = None

    def __init__(self, n_actions: int):
        self.n = n_actions
        self._next = 0

    def pick(self) -> int:
        choice = self._next
        self._next = (self._next + 1) % self.n
        return choice


class RandomFair:
    """Seeded random scheduler with constructive fairness.

    The first ``n`` picks are a random permutation of the program (so the
    per-action omission streaks stay pairwise distinct forever).  After
    that, any action omitted ``n`` times in a row is force-scheduled; the
    permutation guarantees at most one action is ever at the threshold, so
    no streak can exceed ``n``.
    """

    kind = "random"

    def __init__(self, n_actions: int, seed: int):
        self.n = n_actions
        self.seed = seed
        self._rng = random.Random(seed)
        self._opening = self._rng.sample(range(n_actions), n_actions)
        self._step = 0
        self._streaks = [0] * n_actions

    def pick(self) -> int:
        if self._step < self.n:
            choice = self._opening[self._step]
        else:
            worst = max(range(self.n), key=lambda i: self._streaks[i])
            if self._streaks[worst] >= self.n:
                choice = worst
            else:
                choice = self._rng.randrange(self.n)
        self._step += 1
        for i in range(self.n):
            self._streaks[i] = 0 if i == choice else self._streaks[i] + 1
        return choice


class UnfairRandom:
    """Plain seeded random choice with no fairness forcing (didactic only;
    excluded from verification semantics)."""

    kind = "unfair"

    def __init__(self, n_actions: int, seed: int):
        self.n = n_actions
        self.seed = seed
        self._rng = random.Random(seed)

    def pick(self) -> int:
        return self._rng.randrange(self.n)


def make_scheduler(kind: str, n_actions: int, seed: int = 0):
    if kind == "rr":
        return RoundRobin(n_actions)
    if kind == "random":
        return RandomFair(n_actions, seed)
    if kind == "unfair":
        return UnfairRandom(n_actions, seed)
    raise ValueError(f"unknown scheduler kind {kind!r}")


def run(agent: Agent, sched, steps: int) -> TracePrefix:
    """Drive ``agent`` for ``steps`` attempts under ``sched``."""
    states = [agent.initial_state]
    picks: list[int] = []
    executed: list[bool] = []
    for _ in range(steps):
        b = sched.pick()
        st = step(states[-1], agent.program[b])
        states.append(st.target)
        picks.append(b)
        executed.append(st.executed)
    return TracePrefix(agent, tuple(states), tuple(picks), tuple(executed),
                       sched.kind, getattr(sched, "seed", None))


def fairness_check(prefix: TracePrefix) -> bool:
    """Finite surrogate for "every action is scheduled infinitely often".

    Round-robin prefixes must cover the whole program in every window of
    |program| consecutive picks; the forcing random scheduler is checked
    against its omission-streak bound (no streak above |program|).  Unfair
    prefixes are held to the window criterion, which they generally fail.
    """
    n = len(prefix.agent.program)
    if len(prefix) < n:
        return True
    if prefix.scheduler_kind == "random":
        return max_omission_streak(prefix.picks, n) <= n
    for start in range(len(prefix) - n + 1):
        if set(prefix.picks[start:start + n]) != set(range(n)):
            return False
    return True


def max_omission_streak(picks: Iterable[int], n_actions: int) -> int:
    """The longest run of consecutive picks omitting some single action."""
    streaks = [0] * n_actions
    worst = 0
    for pick in picks:
        for i in range(n_actions):
            streaks[i] = 0 if i == pick else streaks[i] + 1
        worst = max(worst, max(streaks))
    return worst


# ---------------------------------------------------------------------------
# Reachable-state graph.


class Edge(Record):
    __slots__ = __match_args__ = ("source", "action_index", "target",
                                  "executed")


class StateGraph:
    """The reachable states of an agent and every attempted step between them.

    ``edges`` lists the attempted steps node by node, in program order, idle
    self-loops included.  The graph is indexed by position: ``position[s]``
    is the index of ``s`` in ``nodes``, ``targets[a][i]`` is the position of
    the state that action ``a`` leads to from node ``i``, and bit ``i`` of
    ``executed[a]`` is set where ``a`` executes rather than idles.
    ``states`` evaluates formulas over the nodes as bit masks and keeps its
    values.
    """

    def __init__(self, agent: Agent, nodes: list[MentalState], edges: list[Edge],
                 position: dict[MentalState, int], targets: tuple[tuple[int, ...], ...],
                 executed: tuple[int, ...], states: StateSet):
        self.agent = agent
        self.nodes = nodes
        self.edges = edges
        self.position = position
        self.targets = targets
        self.executed = executed
        self.states = states

    def to_dot(self) -> str:
        lines = ["digraph reachable {"]
        for i, node in enumerate(self.nodes):
            lines.append(f'  n{i} [label="{node.digest()}"];')
        for edge in self.edges:
            style = "" if edge.executed else ", style=dashed"
            lines.append(
                f'  n{self.position[edge.source]} -> n{self.position[edge.target]} '
                f'[label="{self.agent.action_label(edge.action_index)}"{style}];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def reachable(agent: Agent, budget: Optional[int] = None) -> StateGraph:
    """BFS over the step relation from the initial state.

    Every action is expanded at every node; idle attempts are recorded as
    self-loop edges.  Raises :class:`BudgetExceeded` past the node budget.
    """
    if budget is None:
        budget = default_budget()
    nodes = [agent.initial_state]
    position = {agent.initial_state: 0}
    edges: list[Edge] = []
    targets: list[list[int]] = [[] for _ in agent.program]
    executed = [0] * len(agent.program)
    for i, state in enumerate(nodes):   # nodes grows as the BFS finds states
        for a, b in enumerate(agent.program):
            st = step(state, b)
            edges.append(Edge(state, a, st.target, st.executed))
            if st.target not in position:
                if len(position) >= budget:
                    raise BudgetExceeded(
                        f"reachable-state budget of {budget} nodes exceeded")
                position[st.target] = len(nodes)
                nodes.append(st.target)
            targets[a].append(position[st.target])
            executed[a] |= st.executed << i
    return StateGraph(agent, nodes, edges, position,
                      tuple(map(tuple, targets)), tuple(executed),
                      StateSet(nodes))
