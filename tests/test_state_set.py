"""Mask evaluation over state sets against the state-by-state reference.

``validity_oracle`` and ``check_hoare_basic`` evaluate formulas as bit masks
over a :class:`StateSet`.  The reference loops below are their former
bodies, one ``eval_msf`` call per state; on seeded random formulas and
triples both must return the same verdict, the same countermodel or witness
object, and the same detail text.
"""

import random

import pytest

from goalkit.prop_logic import (
    And, Atom, FALSE, Iff, Imp, Not, Or, TRUE,
)
from goalkit.mental_state import (
    Bel, BoundsExceeded, Enabled, Goal, MentalStateError, OracleVerdict,
    StateSet,
    enumerate_states, eval_msf, validity_oracle,
)
from goalkit.capabilities import (
    CapabilitySpec, CapabilityTable, EffectClause, GoalAction, apply_M,
    enabled_cap, insert, remove,
)
from goalkit.executor import reachable
from goalkit.verifier import HoareTriple, Verdict, check_hoare_basic

from helpers import micro_agent, random_formula

P, Q = Atom("p"), Atom("q")
PQ = ("p", "q")

# Two resolvers that give the same capability name opposite guards, so an
# enabled(c) leaf cached under one would give wrong answers under the other.
TABLE_A = CapabilityTable(
    {"c": CapabilitySpec("c", (EffectClause(P, (Q,), ()),))})
TABLE_B = CapabilityTable(
    {"c": CapabilitySpec("c", (EffectClause(Not(P), (), (Q,)),))})


def oracle_by_state(phi, atoms, max_generators=2, tctx=None):
    """Reference: the first enumerated state falsifying ``phi``."""
    voc = tuple(sorted(atoms))
    for state in enumerate_states(voc, max_generators):
        if not eval_msf(state, phi, tctx):
            return OracleVerdict(False, state, voc, max_generators)
    return OracleVerdict(True, None, voc, max_generators)


def hoare_by_state(triple, states, tctx=None):
    """Reference: the triple checked one in-scope state at a time."""
    action = triple.statement
    for s in states:
        if not eval_msf(s, triple.pre, tctx):
            continue
        if enabled_cap(action, s):
            if not eval_msf(apply_M(action, s), triple.post, tctx):
                return Verdict(False, s, detail="post fails after execution")
        elif not eval_msf(s, triple.post, tctx):
            return Verdict(False, s, detail="post fails in place (not enabled)")
    return Verdict(True, scope="statewise")


def random_msf(rng, leaves, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(leaves)
    op = rng.randrange(5)
    if op == 0:
        return Not(random_msf(rng, leaves, depth - 1))
    return (And, Or, Imp, Iff)[op - 1](random_msf(rng, leaves, depth - 1),
                                       random_msf(rng, leaves, depth - 1))


def msf_leaves(rng, vocab, capability_names, count=12):
    leaves = [TRUE, FALSE]
    leaves += [Enabled(name) for name in capability_names]
    for _ in range(count):
        arg = random_formula(rng, vocab, 2)
        leaves.append(rng.choice((Bel, Goal))(arg))
        leaves.append(Enabled(GoalAction(rng.choice(("adopt", "drop")), arg)))
    return leaves


def mask_by_state(phi, states, tctx=None):
    """Reference: the mask built from one ``eval_msf`` call per state."""
    return sum(1 << i for i, s in enumerate(states) if eval_msf(s, phi, tctx))


def assert_same_verdict(got, want):
    assert got == want
    assert got.witness is want.witness


@pytest.fixture(scope="module")
def universe():
    return list(enumerate_states(PQ, max_generators=2))


def test_validity_oracle_matches_statewise_reference():
    rng = random.Random(0x0A)
    leaves = msf_leaves(rng, PQ, ["c"])
    outcomes = set()
    for _ in range(150):
        phi = random_msf(rng, leaves, 3)
        for max_generators in (1, 2):
            for table in (TABLE_A, TABLE_B, TABLE_A):
                got = validity_oracle(phi, PQ, max_generators, table)
                want = oracle_by_state(phi, PQ, max_generators, table)
                assert got == want, phi
                assert got.countermodel is want.countermodel
                outcomes.add(got.valid)
    assert outcomes == {True, False}


def test_masks_match_statewise_reference(universe):
    rng = random.Random(0x0D)
    leaves = msf_leaves(rng, PQ, ["c"])
    space = StateSet(universe)
    for _ in range(60):
        phi = random_msf(rng, leaves, 3)
        for table in (TABLE_A, TABLE_B):
            assert space.mask(phi, table) == mask_by_state(phi, universe, table)


def test_masks_kept_between_calls_match_statewise_reference(universe):
    # Without a context the set keeps what it evaluated; later calls reach
    # the same subformulas at other states and must extend, not reuse, it.
    rng = random.Random(0x0E)
    leaves = msf_leaves(rng, PQ, [], count=6)
    space = StateSet(universe)
    for _ in range(150):
        phi = random_msf(rng, leaves, 3)
        assert space.mask(phi) == mask_by_state(phi, universe)


def test_enabled_leaves_follow_the_resolver_of_each_call(universe):
    space = StateSet(universe)
    leaf = Enabled("c")
    masks = {}
    for table in (TABLE_A, TABLE_B, TABLE_A, TABLE_B):
        mask = space.mask(leaf, table)
        assert mask == mask_by_state(leaf, universe, table)
        masks.setdefault(table, mask)
        assert masks[table] == mask
    assert masks[TABLE_A] != masks[TABLE_B]
    with pytest.raises(MentalStateError):
        space.mask(leaf)


def test_hoare_basic_matches_statewise_reference_on_the_universe(universe):
    rng = random.Random(0x0B)
    leaves = msf_leaves(rng, PQ, ["c"])
    args = [random_formula(rng, PQ, 2) for _ in range(6)]
    statements = ([insert(phi) for phi in args] + [remove(P), remove(Q)]
                  + [GoalAction(kind, phi) for kind in ("adopt", "drop")
                     for phi in args]
                  + [TABLE_A["c"], TABLE_B["c"]])
    details = set()
    for _ in range(80):
        triple = HoareTriple(random_msf(rng, leaves, 2),
                             rng.choice(statements),
                             random_msf(rng, leaves, 2))
        for table in (TABLE_A, TABLE_B):
            got = check_hoare_basic(triple, universe, table)
            assert_same_verdict(got, hoare_by_state(triple, universe, table))
            details.add(got.detail)
    assert details == {"", "post fails after execution",
                       "post fails in place (not enabled)"}


def test_hoare_basic_matches_statewise_reference_on_reachable_graphs():
    rng = random.Random(0x0C)
    checked = 0
    for seed in range(40):
        agent = micro_agent(seed)
        if agent is None:
            continue
        states = reachable(agent).nodes
        names = list(agent.table.capabilities)
        leaves = msf_leaves(rng, agent.vocab, names, count=6)
        actions = [b.action for b in agent.program]
        for _ in range(10):
            triple = HoareTriple(random_msf(rng, leaves, 2),
                                 rng.choice(actions),
                                 random_msf(rng, leaves, 2))
            got = check_hoare_basic(triple, states, agent.table)
            assert_same_verdict(
                got, hoare_by_state(triple, states, agent.table))
            checked += 1
    assert checked >= 200


@pytest.mark.parametrize("atoms, max_generators", [
    (("a", "b", "c", "d", "e"), 2),
    (PQ, 4),
])
def test_oracle_bounds_are_still_enforced(atoms, max_generators):
    with pytest.raises(BoundsExceeded):
        validity_oracle(Bel(TRUE), atoms, max_generators)
    with pytest.raises(BoundsExceeded):
        list(enumerate_states(atoms, max_generators))


def test_leaves_are_evaluated_only_where_eval_msf_reaches_them(universe):
    # enabled(c) without a resolver raises wherever it is evaluated; behind
    # a leaf that decides the connective at every state it is never reached.
    leaf = Enabled("c")
    for phi in (And(FALSE, leaf), Or(TRUE, leaf), Imp(FALSE, leaf),
                Not(And(Bel(FALSE), leaf))):
        assert StateSet(universe).mask(phi) == mask_by_state(phi, universe)
        assert validity_oracle(phi, PQ, 2) == oracle_by_state(phi, PQ, 2)
    triple = HoareTriple(And(FALSE, leaf), insert(P), leaf)
    assert check_hoare_basic(triple, universe) == hoare_by_state(triple, universe)
    # reached at some state: it raises, as the state-by-state loop does
    phi = Or(Bel(P), leaf)
    with pytest.raises(MentalStateError):
        StateSet(universe).mask(phi)
    with pytest.raises(MentalStateError):
        oracle_by_state(phi, PQ, 2)
    with pytest.raises(MentalStateError):
        validity_oracle(phi, PQ, 2)


def test_a_leaf_reached_only_after_the_first_countermodel_raises(universe):
    # The one difference from the state-by-state loop: a mask evaluates
    # every state, so a raising leaf that the loop would reach only after
    # it stopped at its first countermodel is reached too.
    leaf = Enabled("c")
    phi = And(Bel(P), Or(Bel(Q), leaf))
    refuted = oracle_by_state(phi, PQ, 2)
    assert not refuted.valid
    with pytest.raises(MentalStateError):
        validity_oracle(phi, PQ, 2)
