"""Enabledness under the module name that the benchmark tracer reads.

An action is enabled exactly where ``mental_state.apply_M`` is defined.
``bench/tracer.py`` reads ``apply_M``, ``enabled_cap`` and ``enabled_cond``
here until ROADMAP item 8; item 12 deletes this module.
"""

from __future__ import annotations

from .mental_state import Action, ConditionalAction, MentalState, apply_M


def enabled_cap(action: Action, state: MentalState) -> bool:
    """Whether the basic ``action`` is enabled at ``state``."""
    return apply_M(action, state) is not None


def enabled_cond(b: ConditionalAction, state: MentalState) -> bool:
    """Whether the conditional action ``b`` executes at ``state``."""
    return apply_M(b, state) is not None
