"""The wlp memo against a fresh computation.

``verifier.wlp`` keeps its last ``CACHE_SIZE`` answers, keyed by the
statement and the interned postcondition.  Each question below is asked of
the memo and of the undecorated function (``wlp.__wrapped__``), and both
must give the very same interned node: on the first call, on a repeat,
and for an equal statement that is another object (a deep copy, as a
second ``insert(phi)`` of the same formula is).  The questions are the
benchmark's triple catalogue and the statements of random micro agents
under formulas over their own actions, ``enabled(...)`` leaves included.
"""

import copy

import pytest

from goalkit.prop_logic import CACHE_SIZE, And, Atom, Not, Or
from goalkit.mental_state import (
    Bel, ConditionalAction, Enabled, Goal, GoalAction, insert, msf_leaves,
    remove,
)
from goalkit.verifier import MissingAxiom, wlp

from helpers import micro_agent, oracle_triple
from test_parser import load_generators

P, Q = Atom("p"), Atom("q")


def catalogue_questions():
    """Each oracle triple's statement under its pre and under its post."""
    gen = load_generators()
    for i in range(gen.ORACLE_CATALOGUE):
        triple = oracle_triple(gen.oracle_case(1, i), gen.ORACLE_ATOMS)
        yield triple.statement, triple.pre
        yield triple.statement, triple.post


def micro_questions():
    """The statements of 40 micro agents, with conditional
    inserts and removes beside their own, under formulas over B, G and the
    ``enabled(...)`` leaves of their actions."""
    seed = found = 0
    while found < 40:
        agent = micro_agent(seed)
        seed += 1
        if agent is None:
            continue
        found += 1
        basic = [rule.action for rule in agent.program]
        conditions = [rule.condition for rule in agent.program]
        statements = list(agent.program) + basic + [
            ConditionalAction(conditions[0], insert(P)),
            ConditionalAction(conditions[-1], remove(Q))]
        sigmas = [Bel(P), Goal(Q), Not(Bel(Q)), And(Bel(P), Goal(Or(P, Q))),
                  *conditions]
        for action in basic + list(agent.capabilities):
            sigmas += [Enabled(action), Or(Not(Enabled(action)), Goal(P))]
        for statement in statements:
            for sigma in sigmas:
                yield statement, sigma


def test_the_memo_gives_the_node_a_fresh_computation_builds():
    answered = refused = under_enabled = 0
    for statement, sigma in [*catalogue_questions(), *micro_questions()]:
        try:
            fresh = wlp.__wrapped__(statement, sigma)
        except MissingAxiom as exc:
            with pytest.raises(MissingAxiom) as again:
                wlp(statement, sigma)
            assert str(again.value) == str(exc)
            refused += 1
            continue
        wlp.cache_clear()
        assert wlp(statement, sigma) is fresh
        assert wlp.cache_info().hits == 0 and wlp.cache_info().misses >= 1
        assert wlp(statement, sigma) is fresh
        assert wlp.cache_info().hits == 1
        twin = copy.deepcopy(statement)
        assert twin is not statement and twin == statement
        assert wlp(twin, sigma) is fresh
        assert wlp.cache_info().hits == 2
        answered += 1
        under_enabled += any(isinstance(leaf, Enabled)
                             for leaf in msf_leaves(sigma))
    assert answered > 1000 and refused > 1000 and under_enabled > 200


def test_a_refused_question_is_never_kept():
    sigma = Or(Enabled(GoalAction("adopt", Q)), Bel(P))
    for statement in (insert(P), ConditionalAction(Goal(P), insert(P))):
        size = wlp.cache_info().currsize
        for _ in range(3):
            with pytest.raises(MissingAxiom, match="no wlp axiom for enabled"):
                wlp(statement, sigma)
            assert wlp.cache_info().currsize == size


def test_the_memo_holds_at_most_cache_size_answers():
    drop = GoalAction("drop", P)
    for i in range(CACHE_SIZE + 10):
        sigma = Bel(Atom(f"memo_bound_{i}"))
        assert wlp(drop, sigma) is sigma
    info = wlp.cache_info()
    assert info.maxsize == CACHE_SIZE
    assert info.currsize <= CACHE_SIZE
