"""goalkit: an interpreter and verification toolkit for agents with
beliefs, declarative goals, and conditional actions."""

from .prop_logic import (
    And, Atom, Const, FALSE, Formula, FormulaError, Iff, Imp, Not, Or, TRUE,
    consistent, entails, parse_formula, render, tautology,
)
from .mental_state import (
    Bel, BoundsExceeded, Enabled, Goal, MentalState, MentalStateError,
    apply_M, enumerate_states, eval_msf, goal_holds, make_state,
    parse_msformula, validity_oracle,
)
from .capabilities import (
    CapabilitySpec, ConditionalAction, EffectClause,
    GoalAction, apply_T, enabled_cap, enabled_cond, insert, remove,
)
from .agent_program import (
    Agent, AgentParseError, PropertyDecl, SHOPPING_SOURCE, parse_agent,
)
from .executor import (
    BudgetExceeded, StateGraph, Step, fair_picks, reachable, schedule, step,
    trace,
)
from .verifier import (
    Disj, EnsuresLeaf, HoareTriple, MalformedProof, MissingAxiom, Trans,
    Verdict, check_ensures, check_hoare_basic, check_leadsto, check_unless,
    derive_hoare, prove_leadsto, render_report, verify_agent, wlp,
)
from .cli import main

__version__ = "0.1.0"
