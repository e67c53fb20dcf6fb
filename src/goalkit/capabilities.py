"""Belief-update capabilities, goal actions, and the mental-state transformer.

A capability is realized as an ordered list of guarded add/delete clauses:
the first clause whose guard the beliefs entail fires, deletion removes the
listed formulas by syntactic identity, and the update is undefined when no
clause fires or the updated base is inconsistent.  Undefined updates are a
normal value (``None``); the executor turns them into idle steps.
``CapabilitySpec``, ``EffectClause`` and ``apply_T`` are defined in
``mental_state``, where ``enabled(...)`` leaves evaluate through them, and
are re-exported here.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .prop_logic import (
    CACHE_SIZE, TRUE, Formula, Record, atoms_of, entails, formula_for_table, render,
    truth_table,
)
from .mental_state import (
    Action, CapabilitySpec, EffectClause, GoalAction, MentalState, apply_T,
    eval_msf, make_state,
)


class ConditionalAction(Record):
    """A guarded action: the condition is a mental-state formula over B/G."""

    __slots__ = __match_args__ = ("condition", "action")

    def __str__(self) -> str:
        return f"{render(self.condition)} -> do({self.action})"


def insert(phi: Formula) -> CapabilitySpec:
    """The built-in capability that adds ``phi`` to the beliefs."""
    return CapabilitySpec(f"ins({render(phi)})",
                          (EffectClause(TRUE, (phi,), ()),))


def remove(phi: Formula) -> CapabilitySpec:
    """The built-in capability that removes the formula ``phi`` (by identity)."""
    return CapabilitySpec(f"del({render(phi)})",
                          (EffectClause(TRUE, (), (phi,)),))


def enabled_cap(action: Action, state: MentalState) -> bool:
    """Enabledness of a basic action at ``state``.

    Belief capabilities are enabled exactly when their update is defined;
    drop is always enabled; adopt requires a satisfiable, not-yet-believed
    argument.
    """
    return action.enabled_at(state)


def apply_M(action: Action, state: MentalState) -> Optional[MentalState]:
    """The mental-state transformer; ``None`` when the action is not enabled.

    Belief updates prune every goal generator the new beliefs entail (the
    blind-commitment strategy: a goal is dropped exactly when believed
    achieved).  drop removes the generators entailing its argument; adopt
    adds its argument as a new generator.
    """
    if isinstance(action, GoalAction):
        if action.kind == "drop":
            kept: list[Formula] = []
            for g in state.goals:
                if entails((g,), action.argument):
                    kept.extend(_weakenings(g, action.argument))
                else:
                    kept.append(g)
            return make_state(state.beliefs, kept)
        if not enabled_cap(action, state):
            return None
        return MentalState(state.beliefs, state.goals | {action.argument})
    updated = apply_T(action, state.beliefs)
    if updated is None:
        return None
    return make_state(updated, state.goals)


@lru_cache(maxsize=CACHE_SIZE)
def _weakenings(gamma: Formula, phi: Formula) -> tuple[Formula, ...]:
    """Generators covering the consequences of ``gamma`` that survive drop(phi).

    The goal base is closed under consequence, so dropping phi removes only
    the consequences that entail phi; a consequence chi of gamma survives
    exactly when it has a model outside phi.  The strongest survivors are
    gamma-or-one-extra-model, one per non-phi valuation.  Both arguments
    are interned, so the answer is kept for every later drop.
    """
    vocab = tuple(sorted(atoms_of(gamma) | atoms_of(phi)))
    if not vocab:
        return ()
    g_table = truth_table(gamma, vocab)
    p_table = truth_table(phi, vocab)
    return tuple(formula_for_table(g_table | (1 << v), vocab)
                 for v in range(1 << len(vocab)) if not (p_table >> v) & 1)


def enabled_cond(b: ConditionalAction, state: MentalState) -> bool:
    """A conditional action executes iff its condition holds and the
    underlying action is enabled."""
    return eval_msf(state, b.condition) and enabled_cap(b.action, state)
