"""Belief-update capabilities, goal actions, and conditional actions.

A capability is realized as an ordered list of guarded add/delete clauses:
the first clause whose guard the beliefs entail fires, deletion removes the
listed formulas by syntactic identity, and the update is undefined when no
clause fires or the updated base is inconsistent.  Undefined updates are a
normal value (``None``); the executor turns them into idle steps.
``CapabilitySpec``, ``EffectClause``, ``apply_T`` and the mental-state
transformer ``apply_M`` are defined in ``mental_state``, where
``enabled(...)`` leaves and image sets evaluate through them, and are
re-exported here.
"""

from __future__ import annotations

from .prop_logic import TRUE, Formula, Record, render
from .mental_state import (
    Action, CapabilitySpec, EffectClause, GoalAction, MentalState, apply_M,
    apply_T, eval_msf,
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


def enabled_cond(b: ConditionalAction, state: MentalState) -> bool:
    """A conditional action executes iff its condition holds and the
    underlying action is enabled."""
    return eval_msf(state, b.condition) and enabled_cap(b.action, state)
