"""Formula nodes and records are hand-written slotted classes.  These tests
pin the behaviour they had as frozen dataclasses, with ``dataclasses``
itself as the reference, and keep the package's import graph free of it."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from goalkit.prop_logic import And, Atom, Const, Formula, Iff, Imp, Not, Or, TRUE
from goalkit.mental_state import (
    Bel, CapabilitySpec, EffectClause, Enabled, Goal, GoalAction, MentalState,
    enumerate_states, held_set, validity_oracle,
)
from goalkit.capabilities import ConditionalAction
from goalkit.executor import Step
from goalkit.agent_program import Agent, PropertyDecl
from goalkit.verifier import (
    Disj, EnsuresLeaf, HoareTriple, Trans, Verdict, Obligation,
)

from helpers import LassoTrace, Until, t_ensures, t_eventually, t_unless

P, Q = Atom("p"), Atom("q")
CLAUSE = EffectClause(TRUE, (P,), ())
CAP = CapabilitySpec("ins_p", (CLAUSE,))
RULE = ConditionalAction(Bel(P), CAP)
S0 = MentalState(frozenset(), frozenset({Q}))
S1 = MentalState(frozenset({P}), frozenset({Q}))
AGENT = Agent(("p", "q"), (), (CAP,), (RULE,), S0, ())
LEAF = EnsuresLeaf(Bel(P), Bel(Q))

# Each class with the values of one instance's fields, in field order.
FORMULAS = [
    (Atom, ("p",)), (Const, (True,)), (Not, (P,)), (And, (P, Q)),
    (Or, (P, Q)), (Imp, (P, Q)), (Iff, (P, Q)), (Bel, (P,)),
    (Goal, (And(P, Q),)), (Enabled, (CAP,)), (Until, (Bel(P), Bel(Q))),
]
RECORDS = [
    (GoalAction, ("adopt", Q)),
    (EffectClause, (TRUE, (P,), ())),
    (CapabilitySpec, ("ins_p", (CLAUSE,))),
    (MentalState, (frozenset({P}), frozenset({Q}))),
    (ConditionalAction, (Bel(P), CAP)),
    (Step, (S0, RULE, S1, True)),
    (Verdict, (False, S0, "reachable", "post fails")),
    (HoareTriple, (Bel(P), CAP, Bel(Q))),
    (PropertyDecl, ("unless", Bel(P), Bel(Q))),
    (Agent, (("p", "q"), (), (CAP,), (RULE,), S0, ())),
    (EnsuresLeaf, (Bel(P), Bel(Q))),
    (Trans, (LEAF, EnsuresLeaf(Bel(Q), Bel(Q)))),
    (Disj, (Or(Bel(P), Bel(Q)), (LEAF, EnsuresLeaf(Bel(Q), Bel(Q))))),
    (LassoTrace, ((S0, S1), 1)),
    (Obligation, ("inv", "unless-by-action-triples", Verdict(True))),
]


def fields(obj):
    return tuple(getattr(obj, name) for name in type(obj).__match_args__)


def rows(table):
    return [pytest.param(cls, values, id=cls.__name__) for cls, values in table]


# Temporal properties and the validity oracle's answers, under the names of
# the classes that once held them: a state formula stands in a temporal
# property as itself, the temporal connectives are the formula nodes, and
# validity_oracle returns a Verdict.
RENAMED = [
    pytest.param(Bel, (P,), id="TState"),
    pytest.param(Not, fields(t_eventually(Bel(Q))), id="TNot"),
    pytest.param(And, fields(t_ensures(Bel(P), Bel(Q))), id="TAnd"),
    pytest.param(Imp, fields(t_unless(Bel(P), Bel(Q))), id="TImp"),
    pytest.param(Verdict, fields(validity_oracle(Bel(P), ("p", "q"))),
                 id="OracleVerdict"),
]
ALL = rows(FORMULAS) + rows(RECORDS) + RENAMED


@pytest.mark.parametrize("cls, values", ALL)
def test_built_alike_by_position_and_by_keyword(cls, values):
    names = cls.__match_args__
    assert len(names) == len(values)
    obj = cls(*values)
    assert fields(obj) == values
    assert cls(**dict(zip(names, values))) == obj
    assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == obj
    for bad_args, bad_kwargs in [(values + (None,), {}), ((), {}),
                                 (values, {names[0]: values[0]}),
                                 (values, {"no_such_field": 1})]:
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)


def test_trailing_fields_have_their_defaults():
    assert Verdict(True) == Verdict(True, None, "", "")
    assert PropertyDecl("invariant", Bel(P)).right is None
    assert Agent(("p", "q"), (), (CAP,), (RULE,), S0).properties == ()
    assert Verdict(False, detail="x") == Verdict(False, None, "", "x")
    with pytest.raises(TypeError):
        Verdict()


@pytest.mark.parametrize("cls, values", rows(FORMULAS))
def test_formula_nodes_stay_interned(cls, values):
    assert cls(*values) is cls(**dict(zip(cls.__match_args__, values)))
    assert hash(cls(*values)) == object.__hash__(cls(*values))


@pytest.mark.parametrize("cls, values", rows(RECORDS) + RENAMED)
def test_records_are_equal_by_class_and_fields(cls, values):
    a, b = cls(*values), cls(*copy.copy(values))
    assert a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != values and a != object()


@pytest.mark.parametrize("one, other", [
    (Not(P), Bel(P)),
    (And(P, Q), Until(P, Q)),
    (Imp(P, Q), Until(P, Q)),
    (EnsuresLeaf(P, Q), Until(P, Q)),
    (Obligation("unless", Bel(P), Bel(Q)),
     PropertyDecl("unless", Bel(P), Bel(Q))),
    (And(P, Q), Or(P, Q)),
    (Bel(P), Goal(P)),
])
def test_different_classes_with_equal_fields_are_unequal(one, other):
    assert fields(one) == fields(other)
    assert one != other and other != one
    assert len({one, other}) == 2


@pytest.mark.parametrize("cls, values", ALL)
def test_fields_cannot_be_assigned_or_deleted(cls, values):
    obj = cls(*values)
    for name in cls.__match_args__:
        with pytest.raises(AttributeError):
            setattr(obj, name, values[0])
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.no_such_field = 1
    assert fields(obj) == values


@pytest.mark.parametrize("cls, values", ALL)
def test_repr_is_the_dataclass_text(cls, values):
    reference = dataclasses.make_dataclass(cls.__name__, cls.__match_args__,
                                           frozen=True)
    assert repr(cls(*values)) == repr(reference(*values))


def test_repr_examples():
    assert repr(And(P, Not(Q))) == \
        "And(left=Atom(name='p'), right=Not(operand=Atom(name='q')))"
    assert repr(Verdict(True)) == \
        "Verdict(holds=True, witness=None, scope='', detail='')"
    assert "table" not in repr(AGENT)
    assert repr(Enabled(CAP)) == (
        "Enabled(target=CapabilitySpec(name='ins_p', clauses=(EffectClause("
        "guard=Const(value=True), add=(Atom(name='p'),), delete=()),)))")


def _matched(obj, cls):
    """The values a class pattern with one capture per field binds."""
    n = len(cls.__match_args__)
    match obj:
        case cls(a) if n == 1:
            return (a,)
        case cls(a, b) if n == 2:
            return (a, b)
        case cls(a, b, c) if n == 3:
            return (a, b, c)
        case cls(a, b, c, d) if n == 4:
            return (a, b, c, d)
        case cls(a, b, c, d, e, f) if n == 6:
            return (a, b, c, d, e, f)
    return None


@pytest.mark.parametrize("cls, values", ALL)
def test_class_patterns_bind_the_fields_in_order(cls, values):
    assert _matched(cls(*values), cls) == values


@pytest.mark.parametrize("cls, values", ALL)
def test_copies_and_pickles_are_equal(cls, values):
    obj = cls(*values)
    for clone in (copy.copy(obj), copy.deepcopy(obj),
                  pickle.loads(pickle.dumps(obj))):
        assert type(clone) is cls and clone == obj
        if cls in dict(FORMULAS):
            assert clone is obj
        # formula fields come back as the interned nodes
        for mine, theirs in zip(fields(clone), values):
            if isinstance(theirs, Formula):
                assert mine is theirs


def test_a_copied_agent_rebuilds_its_capability_table():
    clone = pickle.loads(pickle.dumps(AGENT))
    assert clone == AGENT and clone.table == {"ins_p": CAP}


def test_equal_states_hash_equal():
    states = list(enumerate_states(("p", "q"), 1))
    rebuilt = [MentalState(frozenset([*s.beliefs]), frozenset([*s.goals]))
               for s in states]
    for s, t in zip(states, rebuilt):
        assert s == t and hash(s) == hash(t)
    assert len(set(states) | set(rebuilt)) == len(states)
    # the scope is found again from equal states built afresh
    assert held_set(tuple(rebuilt)) is held_set(tuple(states))


def test_importing_the_cli_loads_no_code_generation_or_json():
    # -S leaves out site, whose .pth files may import these modules
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, goalkit.cli; print(sorted(m for m in "
         "('dataclasses', 'inspect', 'json') if m in sys.modules))"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"
