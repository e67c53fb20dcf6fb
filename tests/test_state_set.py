"""Mask evaluation over state sets against the state-by-state reference.

``validity_oracle`` and ``check_hoare_basic`` evaluate formulas as bit masks
over a :class:`StateSet`; ``check_hoare_conditional``, the enabledness part
of ``check_ensures`` and ``_scope_entails`` do so over a reachable graph's
state set and read successors from the graph's index.  The reference loops
below are their former bodies, one ``eval_msf`` call per state; on seeded
random formulas, triples and properties both must return the same verdict,
the same countermodel or witness object, and the same detail text.
"""

import random

import pytest

from goalkit import executor, verifier
from goalkit.prop_logic import (
    And, Atom, FALSE, Iff, Imp, Not, Or, TRUE,
)
from goalkit.mental_state import (
    Bel, BoundsExceeded, Enabled, Goal, MentalStateError, OracleVerdict,
    StateSet,
    enumerate_states, eval_msf, validity_oracle,
)
from goalkit.capabilities import (
    CapabilitySpec, CapabilityTable, ConditionalAction, EffectClause,
    GoalAction, apply_M, enabled_cap, enabled_cond, insert, remove,
)
from goalkit.agent_program import ground_shopping_fixture
from goalkit.executor import reachable, step
from goalkit.verifier import (
    HoareTriple, Verdict, check_ensures, check_hoare_basic,
    check_hoare_conditional, check_leadsto, check_unless, prove_leadsto,
)

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


def hoare_conditional_by_state(triple, graph, tctx=None):
    """Reference: a conditional-action triple, one reachable state at a
    time, stepping the action afresh at each pre-state."""
    b = triple.statement
    for s in graph.nodes:
        if not eval_msf(s, triple.pre, tctx):
            continue
        st = step(s, b)
        if not eval_msf(st.target, triple.post, tctx):
            how = "after execution" if st.executed else "in place (idle)"
            return Verdict(False, s, detail=f"post fails {how}")
    return Verdict(True, scope="reachable")


def ensures_by_state(phi, psi, agent, graph):
    """Reference: the ensures rule with the pending states and the
    continuous enabledness checked one state at a time."""
    safety = verifier.check_unless(phi, psi, agent, graph)
    if not safety.holds:
        return Verdict(False, safety.witness,
                       detail=f"unless part: {safety.detail}")
    pre = And(phi, Not(psi))
    pending = [s for s in graph.nodes if eval_msf(s, pre, agent.table)]
    reasons = []
    for i, b in enumerate(agent.program):
        verdict = verifier.check_hoare_conditional(
            HoareTriple(pre, b, psi), graph, agent.table)
        if not verdict.holds:
            reasons.append(f"{agent.action_label(i)}: progress triple fails")
            continue
        disabled = next((s for s in pending if not enabled_cond(b, s)), None)
        if disabled is not None:
            reasons.append(f"{agent.action_label(i)}: not continuously enabled")
            continue
        return Verdict(True,
                       scope=f"reachable, witness {agent.action_label(i)}")
    return Verdict(False,
                   witness=pending[0] if pending else None,
                   detail="no witness action ("
                          + ("; ".join(reasons) if reasons else "empty program")
                          + ")")


def scope_entails_by_state(graph, tctx, alpha, beta):
    """Reference: every reachable alpha-state is a beta-state."""
    return all(eval_msf(s, beta, tctx)
               for s in graph.nodes if eval_msf(s, alpha, tctx))


def by_state(monkeypatch, fn, *args):
    """``fn(*args)`` with the verifier routed through the reference loops,
    so that its own check_unless, check_leadsto and prove_leadsto use them."""
    with monkeypatch.context() as m:
        m.setattr(verifier, "check_hoare_conditional",
                  hoare_conditional_by_state)
        m.setattr(verifier, "check_ensures", ensures_by_state)
        m.setattr(verifier, "_scope_entails", scope_entails_by_state)
        return fn(*args)


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


# -- the verifier over a reachable graph --------------------------------------


def shopping_pairs(agent):
    """(phi, psi) of every declared property; an invariant is phi unless
    false."""
    return [(prop.left, FALSE if prop.right is None else prop.right)
            for prop in agent.properties]


def test_shopping_obligations_match_statewise_reference(monkeypatch):
    agent = ground_shopping_fixture()
    graph = reachable(agent)
    pairs = shopping_pairs(agent)
    # the unless and progress triples of each property, for every action
    triples = [HoareTriple(And(phi, Not(psi)), b, post)
               for phi, psi in pairs for b in agent.program
               for post in (Or(phi, psi), psi)]
    details = set()
    for triple in triples:
        got = check_hoare_conditional(triple, graph, agent.table)
        want = hoare_conditional_by_state(triple, graph, agent.table)
        assert_same_verdict(got, want)
        details.add(got.detail)
    assert details == {"", "post fails after execution",
                       "post fails in place (idle)"}
    for phi, psi in pairs:
        assert_same_verdict(
            check_unless(phi, psi, agent, graph),
            by_state(monkeypatch, check_unless, phi, psi, agent, graph))
        assert_same_verdict(
            check_ensures(phi, psi, agent, graph),
            by_state(monkeypatch, ensures_by_state, phi, psi, agent, graph))


def test_verify_steps_each_action_only_while_building_the_graph(monkeypatch):
    attempts = []

    def counted(state, b):
        attempts.append(b)
        return step(state, b)

    monkeypatch.setattr(executor, "step", counted)
    monkeypatch.setattr(verifier, "step", counted)
    agent = ground_shopping_fixture()
    assert all(ob.verdict.holds for ob in verifier.verify_agent(agent))
    assert len(attempts) == 104     # the graph's edges: 13 nodes, 8 actions


def test_shopping_leadsto_proof_matches_statewise_reference(monkeypatch):
    agent = ground_shopping_fixture()
    graph = reachable(agent)
    steps = [(p.left, p.right) for p in agent.properties
             if p.kind == "ensures"]
    goal = next(p for p in agent.properties if p.kind == "leadsto")
    args = (goal.left, goal.right, agent, steps, graph)
    proof = prove_leadsto(*args)
    assert proof is not None
    assert proof == by_state(monkeypatch, prove_leadsto, *args)
    assert_same_verdict(check_leadsto(proof, agent, graph),
                        by_state(monkeypatch, check_leadsto, proof, agent, graph))


def test_actions_outside_the_program_match_statewise_reference():
    agent = ground_shopping_fixture()
    graph = reachable(agent)
    never = ConditionalAction(Bel(FALSE), agent.capabilities[0])
    outside = [never] + [ConditionalAction(TRUE, cap)
                         for cap in agent.capabilities]
    assert not any(b in agent.program for b in outside)
    details = set()
    for phi, psi in shopping_pairs(agent):
        for b in outside:
            for post in (phi, psi, Or(phi, psi)):
                triple = HoareTriple(And(phi, Not(psi)), b, post)
                got = check_hoare_conditional(triple, graph, agent.table)
                assert_same_verdict(
                    got, hoare_conditional_by_state(triple, graph, agent.table))
                details.add(got.detail)
    assert details == {"", "post fails after execution",
                       "post fails in place (idle)"}


def test_enabled_leaves_in_graph_triples_match_statewise_reference():
    # Under the agent's table the graph's state set keeps its values; under
    # a table that gives the same names other capabilities it must not.
    agent = ground_shopping_fixture()
    graph = reachable(agent)
    names = [cap.name for cap in agent.capabilities]
    shifted = CapabilityTable(
        {name: agent.capabilities[(i + 1) % len(names)]
         for i, name in enumerate(names)})
    rng = random.Random(0x0F)
    leaves = [Enabled(name) for name in names]
    leaves += [Bel(Atom(a)) for a in agent.vocab]
    leaves += [Goal(Atom(a)) for a in agent.vocab]
    actions = list(agent.program) + [
        ConditionalAction(TRUE, cap) for cap in agent.capabilities]
    verdicts = set()
    for _ in range(120):
        triple = HoareTriple(random_msf(rng, leaves, 2), rng.choice(actions),
                             random_msf(rng, leaves, 2))
        for table in (agent.table, shifted, agent.table):
            got = check_hoare_conditional(triple, graph, table)
            assert_same_verdict(
                got, hoare_conditional_by_state(triple, graph, table))
            verdicts.add(got.holds)
    assert verdicts == {True, False}


def test_micro_agent_graphs_match_statewise_reference(monkeypatch):
    rng = random.Random(0x10)
    checked = {"triples": 0, "unless": 0, "ensures": 0, "leadsto": 0}
    ensures_held, entailed = set(), set()
    for seed in range(60):
        agent = micro_agent(seed)
        if agent is None:
            continue
        graph = reachable(agent)
        names = list(agent.table.capabilities)
        leaves = msf_leaves(rng, agent.vocab, names, count=6)
        conditions = [f for f in leaves if isinstance(f, (Bel, Goal))]
        actions = list(agent.program) + [
            ConditionalAction(random_msf(rng, conditions, 1), cap)
            for cap in agent.capabilities]
        for _ in range(8):
            triple = HoareTriple(random_msf(rng, leaves, 2),
                                 rng.choice(actions),
                                 random_msf(rng, leaves, 2))
            assert_same_verdict(
                check_hoare_conditional(triple, graph, agent.table),
                hoare_conditional_by_state(triple, graph, agent.table))
            checked["triples"] += 1
        pairs = [(random_msf(rng, leaves, 2), random_msf(rng, leaves, 2))
                 for _ in range(4)]
        for phi, psi in pairs:
            assert_same_verdict(
                check_unless(phi, psi, agent, graph),
                by_state(monkeypatch, check_unless, phi, psi, agent, graph))
            got = check_ensures(phi, psi, agent, graph)
            assert_same_verdict(
                got, by_state(monkeypatch, ensures_by_state,
                              phi, psi, agent, graph))
            ensures_held.add(got.holds)
            checked["unless"] += 1
            checked["ensures"] += 1
        for _ in range(4):
            alpha, beta = random_msf(rng, leaves, 2), random_msf(rng, leaves, 2)
            got = verifier._scope_entails(graph, agent.table, alpha, beta)
            assert got == scope_entails_by_state(graph, agent.table,
                                                 alpha, beta)
            entailed.add(got)
        alpha, omega = random_msf(rng, leaves, 2), random_msf(rng, leaves, 2)
        args = (alpha, omega, agent, pairs, graph)
        assert prove_leadsto(*args) == by_state(monkeypatch, prove_leadsto,
                                                *args)
        checked["leadsto"] += 1
    assert min(checked.values()) >= 40
    assert ensures_held == entailed == {True, False}


def test_graph_post_is_evaluated_only_at_the_targets_of_pre_states():
    # enabled(c) without a resolver raises wherever it is evaluated.
    agent = ground_shopping_fixture()
    graph = reachable(agent)
    leaf = Enabled("c")
    for b in (agent.program[0], ConditionalAction(TRUE, agent.capabilities[0])):
        triple = HoareTriple(Bel(FALSE), b, leaf)
        assert check_hoare_conditional(triple, graph) == \
            hoare_conditional_by_state(triple, graph)
        triple = HoareTriple(TRUE, b, Or(TRUE, leaf))
        assert check_hoare_conditional(triple, graph).holds
        triple = HoareTriple(TRUE, b, Or(Bel(FALSE), leaf))
        with pytest.raises(MentalStateError):
            check_hoare_conditional(triple, graph)
        with pytest.raises(MentalStateError):
            hoare_conditional_by_state(triple, graph)


def test_a_graph_leaf_reached_only_after_the_first_failing_state_raises():
    # The reference stops at the first failing pre-state (the initial
    # state, whose goto_Am_com step reaches a state without page_T); the
    # mask path evaluates the post at every target, and a later target
    # believes page_T, so the raising leaf behind B(page_T) is reached.
    agent = ground_shopping_fixture()
    graph = reachable(agent)
    triple = HoareTriple(TRUE, agent.program[0],
                         And(Bel(Atom("page_T")), Enabled("c")))
    refuted = hoare_conditional_by_state(triple, graph)
    assert refuted.witness is agent.initial_state
    with pytest.raises(MentalStateError):
        check_hoare_conditional(triple, graph)


class CountingResolver:
    def __init__(self, table):
        self.table = table
        self.calls = 0

    def is_enabled(self, name, state):
        self.calls += 1
        return self.table.is_enabled(name, state)


def test_a_set_keeps_values_only_for_the_context_it_was_built_for(universe):
    a, b = CountingResolver(TABLE_A), CountingResolver(TABLE_B)
    space = StateSet(universe, a)
    n = len(universe)
    leaf = Enabled("c")
    phi = Or(Bel(P), leaf)
    want = {a: mask_by_state(leaf, universe, TABLE_A),
            b: mask_by_state(leaf, universe, TABLE_B)}
    assert want[a] != want[b]
    assert space.mask(leaf, a) == want[a] and a.calls == n
    for _ in range(2):
        assert space.mask(leaf, b) == want[b]
        assert space.mask(phi, b) == mask_by_state(phi, universe, TABLE_B)
        with pytest.raises(MentalStateError):
            space.mask(leaf)
        with pytest.raises(MentalStateError):
            space.mask(phi)
        # kept for the set's own context: asked again, nothing is evaluated
        assert space.mask(leaf, a) == want[a] and a.calls == n
    assert b.calls == 2 * (n + n - bin(mask_by_state(Bel(P), universe)).count("1"))
    assert space.mask(phi, a) == mask_by_state(phi, universe, TABLE_A)
