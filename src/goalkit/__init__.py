"""goalkit: an interpreter and verification toolkit for agents with
beliefs, declarative goals, and conditional actions."""

from .prop_logic import (
    And, Atom, Const, FALSE, Formula, FormulaError, Iff, Imp, Not, Or, TRUE,
    consistent, entails, equivalent, parse_formula, render, tautology,
)
from .mental_state import (
    Bel, BoundsExceeded, Enabled, Goal, MentalState, MentalStateError,
    enumerate_states, eval_msf, goal_holds, make_state, parse_msformula,
    validity_oracle,
)
from .capabilities import (
    CapabilitySpec, ConditionalAction, EffectClause,
    GoalAction, apply_M, apply_T, enabled_cap, enabled_cond, insert, remove,
)
from .agent_program import (
    Agent, AgentParseError, PropertyDecl, SHOPPING_SOURCE,
    ground_shopping_fixture, parse_agent, pretty_print,
)
from .executor import (
    BudgetExceeded, StateGraph, Step, TracePrefix, fairness_check, reachable,
    run, schedule, step, trace,
)
from .verifier import (
    Disj, EnsuresLeaf, HoareTriple, LassoTrace, MalformedProof, MissingAxiom,
    Trans, Verdict, check_ensures, check_hoare_basic, check_hoare_conditional,
    check_leadsto, check_unless, derive_hoare, eval_temporal, fair_lasso,
    fair_lasso_from, graph_ensures, graph_eventuality, graph_unless,
    prove_leadsto, render_report, t_always, t_ensures, t_eventually, t_unless,
    trap_lasso, verify_agent, wlp,
)
from .cli import main

__version__ = "0.1.0"
