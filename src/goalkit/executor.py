"""Trace generation and reachable-state-graph construction.

A computation step attempts one conditional action: it executes when the
condition holds and the underlying action is enabled, and idles (state
unchanged) otherwise.  Idle steps are recorded, never elided.  A schedule
decides only which action is attempted; its ``rr`` and ``random`` kinds are
weakly fair in the finite-surrogate sense of :func:`fairness_check`.
"""

from __future__ import annotations

import os
import random
from functools import partial
from itertools import count, cycle, islice
from typing import Iterable, Iterator, Optional

from .agent_program import Agent
from .capabilities import ConditionalAction, apply_M
from .mental_state import MentalState, StateSet, eval_msf
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
    """Attempt ``b`` at ``state``.  It executes when its condition holds and
    its action is enabled, which is exactly when ``apply_M`` is defined."""
    nxt = apply_M(b.action, state) if eval_msf(state, b.condition) else None
    if nxt is None:
        return Step(state, b, state, False)
    return Step(state, b, nxt, True)


class TracePrefix(Record):
    """A finite prefix of a trace: n+1 states and n attempted actions."""

    # picks index agent.program; scheduler_kind: rr | random | unfair | manual;
    # seed: the one run() gave schedule() (rr ignores it), None if hand-built
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
    opening = rng.sample(range(n), n)
    streaks = [0] * n
    for k in count():
        if k < n:
            choice = opening[k]
        else:
            worst = max(range(n), key=streaks.__getitem__)
            choice = worst if streaks[worst] >= n else rng.randrange(n)
        for i in range(n):
            streaks[i] = 0 if i == choice else streaks[i] + 1
        yield choice


def run(agent: Agent, kind: str, steps: int, seed: int = 0) -> TracePrefix:
    """Drive ``agent`` for ``steps`` attempts picked by ``schedule(kind)``."""
    picks = tuple(islice(schedule(kind, len(agent.program), seed), steps))
    states = [agent.initial_state]
    executed: list[bool] = []
    for b in picks:
        st = step(states[-1], agent.program[b])
        states.append(st.target)
        executed.append(st.executed)
    return TracePrefix(agent, tuple(states), picks, tuple(executed), kind, seed)


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
    self-loops.  Raises :class:`BudgetExceeded` past the node budget.
    """
    if budget is None:
        budget = default_budget()
    nodes = [agent.initial_state]
    position = {agent.initial_state: 0}
    targets: list[list[int]] = [[] for _ in agent.program]
    executed = [0] * len(agent.program)
    for i, state in enumerate(nodes):   # nodes grows as the BFS finds states
        for a, b in enumerate(agent.program):
            st = step(state, b)
            if st.target not in position:
                if len(position) >= budget:
                    raise BudgetExceeded(
                        f"reachable-state budget of {budget} nodes exceeded")
                position[st.target] = len(nodes)
                nodes.append(st.target)
            targets[a].append(position[st.target])
            executed[a] |= st.executed << i
    return StateGraph(agent, nodes, position, tuple(map(tuple, targets)),
                      tuple(executed))
