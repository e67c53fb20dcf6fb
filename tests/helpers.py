"""Shared test utilities: one execution attempt, canonical states, semantic
formula pools, and a seeded micro-agent generator."""

from __future__ import annotations

import random
from typing import Callable, Iterable, Optional, Sequence

from goalkit.prop_logic import (
    And, Atom, FALSE, Formula, Iff, Imp, Not, Or, TRUE, formula_for_table,
    truth_table,
)
from goalkit.mental_state import Bel, Goal, MentalState, canonical_formulas
from goalkit.capabilities import (
    Action, CapabilitySpec, ConditionalAction, EffectClause, GoalAction,
    apply_M, enabled_cap,
)
from goalkit.agent_program import Agent


def attempt(action: Action, state: MentalState) -> MentalState:
    """One execution attempt: the successor when enabled, else in place."""
    return apply_M(action, state) if enabled_cap(action, state) else state


def canonical_state(state: MentalState, vocab: tuple[str, ...]) -> MentalState:
    """Map a state to the enumeration representative with the same meaning."""
    n_vals = 1 << len(vocab)
    full = (1 << n_vals) - 1
    theory = full
    for f in state.beliefs:
        theory &= truth_table(f, vocab)
    beliefs = frozenset() if theory == full else frozenset(
        (formula_for_table(theory, vocab),))
    gens = frozenset(formula_for_table(truth_table(g, vocab), vocab)
                     for g in state.goals)
    return MentalState(beliefs, gens)


def semantic_pool(leaves: Sequence[Formula], depth: int,
                  key: Callable[[Formula], object]) -> list[Formula]:
    """Formulas up to ``depth`` connective levels over ``leaves``, deduped
    by ``key``.

    Deduping by a semantic key is exhaustive for any key-determined
    property: connectives act pointwise on keys, so every formula of the
    grammar shares its key with some retained representative.
    """
    seen: dict[object, Formula] = {}
    levels: list[list[Formula]] = [[]]
    for leaf in (*leaves, TRUE, FALSE):
        k = key(leaf)
        if k not in seen:
            seen[k] = leaf
            levels[0].append(leaf)
    for d in range(1, depth + 1):
        fresh: list[Formula] = []

        def offer(phi: Formula) -> None:
            k = key(phi)
            if k not in seen:
                seen[k] = phi
                fresh.append(phi)

        prior = [f for level in levels for f in level]
        for f in levels[d - 1]:
            offer(Not(f))
        for a in levels[d - 1]:
            for b in prior:
                offer(And(a, b))
                offer(Or(a, b))
                offer(Imp(a, b))
                offer(Imp(b, a))
        levels.append(fresh)
    return [f for level in levels for f in level]


def msf_leaves_over(vocab: tuple[str, ...],
                    args: Optional[Iterable[Formula]] = None) -> list[Formula]:
    if args is None:
        args = canonical_formulas(vocab, include_false=True)
    out: list[Formula] = []
    for phi in args:
        out.append(Bel(phi))
        out.append(Goal(phi))
    return out


def random_formula(rng: random.Random, vocab: tuple[str, ...],
                   depth: int) -> Formula:
    if depth == 0 or rng.random() < 0.2:
        roll = rng.random()
        if roll < 0.85:
            return Atom(rng.choice(vocab))
        return TRUE if roll < 0.925 else FALSE
    op = rng.randrange(5)
    if op == 0:
        return Not(random_formula(rng, vocab, depth - 1))
    a = random_formula(rng, vocab, depth - 1)
    b = random_formula(rng, vocab, depth - 1)
    return (And, Or, Imp, Iff)[op - 1](a, b)


def random_formula_for_table(rng: random.Random, table: int,
                             vocab: tuple[str, ...], tries: int = 40) -> Formula:
    """A randomized formula with the given truth table: random rewrites of
    the canonical form, falling back to the canonical form itself."""
    base = formula_for_table(table, vocab)
    for _ in range(tries):
        candidate = _mutate(rng, base, rounds=rng.randrange(1, 4))
        if truth_table(candidate, vocab) == table:
            return candidate
    return base


def _mutate(rng: random.Random, phi: Formula, rounds: int) -> Formula:
    for _ in range(rounds):
        roll = rng.randrange(4)
        if roll == 0:
            phi = Not(Not(phi))
        elif roll == 1:
            phi = And(phi, TRUE)
        elif roll == 2:
            phi = Or(phi, FALSE)
        else:
            phi = And(phi, Or(phi, phi))
    return phi


# ---------------------------------------------------------------------------
# Seeded micro-agents for the temporal-reduction tests.

_MICRO_VOCAB = ("p", "q")


def _random_prop(rng: random.Random) -> Formula:
    return random_formula(rng, _MICRO_VOCAB, 2)


def _random_condition(rng: random.Random) -> Formula:
    leaves = [Bel(Atom("p")), Bel(Atom("q")), Goal(Atom("p")),
              Goal(Atom("q")), Bel(And(Atom("p"), Atom("q"))),
              Goal(Or(Atom("p"), Atom("q"))), TRUE]
    a = rng.choice(leaves)
    if rng.random() < 0.4:
        a = Not(a)
    if rng.random() < 0.5:
        b = rng.choice(leaves)
        if rng.random() < 0.4:
            b = Not(b)
        return rng.choice((And, Or))(a, b)
    return a


def _random_capability(rng: random.Random, tag: int) -> CapabilitySpec:
    clauses = []
    for _ in range(rng.randrange(1, 3)):
        guard = _random_prop(rng) if rng.random() < 0.6 else TRUE
        adds = tuple(Atom(a) for a in rng.sample(_MICRO_VOCAB,
                                                 rng.randrange(0, 3)))
        dels = tuple(Atom(a) for a in rng.sample(_MICRO_VOCAB,
                                                 rng.randrange(0, 3)))
        clauses.append(EffectClause(guard, adds, dels))
    return CapabilitySpec(f"cap{tag}", tuple(clauses))


def micro_agent(seed: int) -> Optional[Agent]:
    """A small random agent over atoms p, q; None when the draw is not a
    legal agent (inconsistent or already-believed initial goals)."""
    rng = random.Random(seed)
    beliefs = frozenset(Atom(a) for a in _MICRO_VOCAB if rng.random() < 0.4)
    goal_pool = [Atom("p"), Atom("q"), And(Atom("p"), Atom("q")),
                 Or(Atom("p"), Atom("q")), Not(Atom("p"))]
    goals = frozenset(g for g in rng.sample(goal_pool, rng.randrange(0, 3)))
    capabilities = [_random_capability(rng, i) for i in range(2)]
    program = []
    for _ in range(rng.randrange(1, 4)):
        roll = rng.random()
        if roll < 0.6:
            action = rng.choice(capabilities)
        elif roll < 0.8:
            action = GoalAction("adopt", rng.choice(goal_pool))
        else:
            action = GoalAction("drop", rng.choice(goal_pool))
        program.append(ConditionalAction(_random_condition(rng), action))
    try:
        from goalkit.mental_state import MentalState
        initial = MentalState(beliefs, goals)
    except Exception:
        return None
    return Agent(_MICRO_VOCAB, (), tuple(capabilities), tuple(program),
                 initial, ())


def with_actions(agent: Agent, *actions: ConditionalAction) -> Agent:
    """``agent`` with ``actions`` appended to its program."""
    return Agent(agent.vocab, agent.books, agent.capabilities,
                 agent.program + actions, agent.initial_state,
                 agent.properties)
