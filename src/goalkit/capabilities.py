"""Belief-update capabilities, goal actions, and conditional actions.

A capability is realized as an ordered list of guarded add/delete clauses:
the first clause whose guard the beliefs entail fires, deletion removes the
listed formulas by syntactic identity, and the update is undefined when no
clause fires or the updated base is inconsistent.  Undefined updates are a
normal value (``None``); the executor turns them into idle steps.
``CapabilitySpec``, ``EffectClause``, ``ConditionalAction``, ``apply_T``
and the mental-state transformer ``apply_M`` are defined in
``mental_state`` and re-exported here.  ``apply_M`` is the transition of
every action, conditional ones included, and builds the image sets.  An
``enabled(...)`` leaf reads ``GoalAction.enabled_at`` or
``CapabilitySpec.enabled_at`` instead, which decide it from the beliefs.
"""

from __future__ import annotations

from .prop_logic import TRUE, Formula, render
from .mental_state import (
    Action, CapabilitySpec, ConditionalAction, EffectClause, GoalAction,
    MentalState, apply_M, apply_T,
)


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
    """A conditional action executes iff its transition is defined: its
    condition holds and the underlying action is enabled."""
    return apply_M(b, state) is not None
