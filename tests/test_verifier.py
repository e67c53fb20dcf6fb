import json

import pytest

from goalkit.prop_logic import (
    And, Atom, FALSE, Imp, Not, Or, TRUE, tautology,
)
from goalkit.mental_state import (
    Bel, Enabled, Goal, MentalState, enumerate_states, eval_msf, msf_leaves,
    validity_oracle,
)
from goalkit.capabilities import (
    CapabilitySpec, ConditionalAction, EffectClause, GoalAction, insert,
    remove,
)
from goalkit.agent_program import Agent, ground_shopping_fixture
from goalkit.executor import Edge, StateGraph, reachable
from goalkit.mental_state import StateSet
from goalkit.verifier import (
    Disj, EnsuresLeaf, HoareTriple, MalformedProof, MissingAxiom, TState,
    Trans, VerifierError, check_ensures, check_hoare_basic,
    check_hoare_conditional, check_leadsto, check_unless, derive_hoare,
    eval_temporal, fair_lasso_from, graph_ensures, graph_eventuality,
    graph_unless, prove_leadsto, render_report, subst_insert, t_always,
    t_ensures, t_eventually, trap_lasso, verify_agent, wlp,
)

from helpers import micro_agent, with_actions

P, Q = Atom("p"), Atom("q")
PQ = ("p", "q")


@pytest.fixture(scope="module")
def shopping():
    agent = ground_shopping_fixture()
    return agent, reachable(agent)


def small_universe():
    return list(enumerate_states(PQ, max_generators=2))


# -- semantic Hoare checking --------------------------------------------------


def test_hoare_basic_on_shopping_goto(shopping):
    agent, graph = shopping
    goto = agent.capabilities[0]
    triple = HoareTriple(Bel(Atom("hpage_user")), goto, Bel(Atom("Am_com")))
    assert check_hoare_basic(triple, graph.nodes).holds


def test_hoare_basic_failure_carries_witness():
    triple = HoareTriple(TRUE, GoalAction("adopt", P), Goal(P))
    verdict = check_hoare_basic(triple, small_universe())
    assert not verdict.holds
    # the adopt is blocked exactly where p is already believed
    assert verdict.witness.believes(P)
    assert "not enabled" in verdict.detail
    assert "fails" in verdict.describe()


def test_hoare_basic_drop_is_always_enabled():
    triple = HoareTriple(TRUE, GoalAction("drop", TRUE), Not(Goal(P)))
    assert check_hoare_basic(triple, small_universe()).holds


def test_hoare_conditional_invariant_stability(shopping):
    agent, graph = shopping
    inv = next(p for p in agent.properties if p.kind == "invariant").left
    for b in agent.program:
        triple = HoareTriple(inv, b, inv)
        assert check_hoare_conditional(triple, graph).holds


def test_hoare_conditional_idle_branch(shopping):
    agent, shopping_graph = shopping
    never = ConditionalAction(Bel(FALSE), agent.capabilities[0])
    graph = reachable(with_actions(agent, never))
    # the condition is false everywhere, so the post must hold in place
    ok = HoareTriple(Bel(Atom("hpage_user")), never, Bel(Atom("hpage_user")))
    assert check_hoare_conditional(ok, graph).holds
    bad = HoareTriple(Bel(Atom("hpage_user")), never, Bel(Atom("Am_com")))
    verdict = check_hoare_conditional(bad, graph)
    assert not verdict.holds and "idle" in verdict.detail
    # the shipped graph has no steps of an action outside its program
    with pytest.raises(VerifierError, match="not an action of the agent"):
        check_hoare_conditional(ok, shopping_graph)


# -- the wlp calculus ---------------------------------------------------------


def test_wlp_drop_substitution():
    assert wlp(GoalAction("drop", P), Not(Goal(P))) == Not(FALSE)
    # a goal leaf not entailing the dropped formula is untouched
    assert wlp(GoalAction("drop", And(P, Q)), Goal(P)) == Goal(P)


def test_wlp_adopt_shape():
    out = wlp(GoalAction("adopt", P), Goal(P))
    en = Enabled(GoalAction("adopt", P))
    assert out == Or(And(en, Not(Bel(P))), And(Not(en), Goal(P)))


def test_wlp_conditional_splits_on_the_condition():
    b = ConditionalAction(Bel(Q), GoalAction("drop", P))
    out = wlp(b, Goal(P))
    assert out == Or(And(Bel(Q), FALSE), And(Not(Bel(Q)), Goal(P)))


def test_subst_insert():
    assert subst_insert(Bel(Q), P) == Bel(Imp(P, Q))
    assert subst_insert(Goal(Q), P) == And(Goal(Q), Not(Bel(Imp(P, Q))))


def test_wlp_remove_is_identity_on_canonical_bases():
    sigma = And(Bel(P), Goal(Q))
    assert wlp(remove(P), sigma) == sigma


def test_wlp_missing_axiom():
    cap = CapabilitySpec("odd", (EffectClause(P, (Q,), ()),
                                 EffectClause(TRUE, (), (P,))))
    with pytest.raises(MissingAxiom):
        wlp(cap, Bel(P))


# -- derived triples for the goal actions -------------------------------------


def test_derive_adopt_effect():
    # when the argument is satisfiable: {!B(phi)} adopt(phi) {G(phi)}
    triple = HoareTriple(Not(Bel(P)), GoalAction("adopt", P), Goal(P))
    assert derive_hoare(triple, PQ).holds


def test_derive_adopt_non_effects():
    # adopting never destroys a present goal
    keeps = HoareTriple(Goal(Q), GoalAction("adopt", And(P, Q)), Goal(Q))
    assert derive_hoare(keeps, PQ).holds
    # nor creates an absent one the argument does not entail
    absent = HoareTriple(Not(Goal(And(P, Q))), GoalAction("adopt", P),
                         Not(Goal(And(P, Q))))
    assert not tautology(Imp(P, And(P, Q)))
    assert derive_hoare(absent, PQ).holds


def test_derive_drop_effect():
    # when psi entails phi: {G(psi)} drop(phi) {!G(psi)}
    assert tautology(Imp(And(P, Q), P))
    triple = HoareTriple(Goal(And(P, Q)), GoalAction("drop", P),
                         Not(Goal(And(P, Q))))
    assert derive_hoare(triple, PQ).holds


def test_derive_drop_non_effects():
    absent = HoareTriple(Not(Goal(P)), GoalAction("drop", Q), Not(Goal(P)))
    assert derive_hoare(absent, PQ).holds
    survives = HoareTriple(And(Not(Goal(And(P, Q))), Goal(P)),
                           GoalAction("drop", Q), Goal(P))
    assert derive_hoare(survives, PQ).holds


def test_derive_insert_effect_and_agreement():
    effect = HoareTriple(And(Not(Bel(Not(P))), Bel(Imp(P, Q))),
                         insert(P), Bel(Q))
    too_weak = HoareTriple(Bel(Imp(P, Q)), insert(P), Bel(Q))
    for triple in (effect, too_weak):
        syntactic = derive_hoare(triple, PQ)
        semantic = check_hoare_basic(triple, small_universe())
        assert syntactic.holds == semantic.holds, str(triple)
    assert derive_hoare(effect, PQ).holds
    verdict = derive_hoare(too_weak, PQ)
    assert not verdict.holds and verdict.witness is not None


def test_wlp_under_enabled_leaves_refuses_or_agrees(shopping):
    """With enabled(...) leaves in the post, the wlp route either raises
    MissingAxiom (any belief update, bare or conditional) or agrees with
    the semantic route over the same bounded universe (adopt and drop)."""
    import random
    from helpers import micro_agent, random_formula
    rng = random.Random(0x11)
    universe = small_universe()
    agents = [shopping[0]] + [a for a in map(micro_agent, range(40))
                              if a is not None]
    refused, agreed = 0, set()
    for agent in agents:
        atoms = PQ if agent.vocab == PQ else ()
        enabled = [Enabled(cap) for cap in agent.capabilities]
        if atoms:
            enabled += [Enabled(GoalAction(kind, random_formula(rng, PQ, 1)))
                        for kind in ("adopt", "drop")]
            others = [m(random_formula(rng, PQ, 1)) for m in (Bel, Goal)
                      for _ in range(3)]
        else:
            others = [Bel(Atom(agent.vocab[0])), Goal(Atom(agent.vocab[1]))]
        statements = list(agent.program) + list(agent.capabilities)
        if atoms:
            statements += [insert(P), remove(Q)] + [
                GoalAction(kind, random_formula(rng, PQ, 1))
                for kind in ("adopt", "drop")]
        for statement in statements:
            for _ in range(2):
                leaf = rng.choice(enabled)
                post = rng.choice((leaf, Not(leaf), And(rng.choice(others), leaf),
                                   Or(Not(leaf), rng.choice(others))))
                pre = rng.choice(others + enabled + [TRUE])
                triple = HoareTriple(pre, statement, post)
                action = (statement.action
                          if isinstance(statement, ConditionalAction)
                          else statement)
                if not isinstance(action, GoalAction):
                    with pytest.raises(MissingAxiom, match=r"enabled\("):
                        derive_hoare(triple, atoms)
                    refused += 1
                elif atoms and statement is action:
                    verdict = derive_hoare(triple, atoms)
                    assert verdict.holds == check_hoare_basic(
                        triple, universe).holds, str(triple)
                    agreed.add(verdict.holds)
    assert refused >= 200 and agreed == {True, False}


def test_derive_failure_witness_refutes_the_triple():
    triple = HoareTriple(Goal(P), GoalAction("adopt", Q), Goal(And(P, Q)))
    verdict = derive_hoare(triple, PQ)
    assert not verdict.holds
    s = verdict.witness
    assert eval_msf(s, triple.pre)
    # re-check the witness against the semantic route
    assert not check_hoare_basic(triple, [s]).holds


# -- unless / ensures ---------------------------------------------------------


def test_check_unless_declared_properties(shopping):
    agent, graph = shopping
    for prop in agent.properties:
        if prop.kind == "unless":
            assert check_unless(prop.left, prop.right, agent, graph).holds


def test_check_unless_failure_names_the_action(shopping):
    agent, graph = shopping
    verdict = check_unless(Bel(Atom("hpage_user")), FALSE, agent, graph)
    assert not verdict.holds
    assert "goto_Am_com" in verdict.detail
    assert verdict.witness is not None


def test_check_ensures_declared_properties(shopping):
    agent, graph = shopping
    ensured = [p for p in agent.properties if p.kind == "ensures"]
    assert ensured
    for prop in ensured:
        verdict = check_ensures(prop.left, prop.right, agent, graph)
        assert verdict.holds, str(prop)
        assert "witness" in verdict.scope


def test_check_ensures_negative(shopping):
    agent, graph = shopping
    verdict = check_ensures(Bel(Atom("hpage_user")), Bel(Atom("in_cart_T")),
                            agent, graph)
    assert not verdict.holds


# -- leads-to proofs ----------------------------------------------------------


def test_a_holding_progress_triple_means_continuous_enabledness(shopping):
    """Why check_ensures tests only the progress triple: an action whose
    triple {phi & !psi} b {psi} holds executes at every pending state, as
    an idle step would leave that state, where psi is false, in place."""
    import random
    from helpers import micro_agent
    graphs = [shopping[1]] + [reachable(a) for a in map(micro_agent, range(40))
                              if a is not None]
    rng = random.Random(7)
    held = 0
    for graph in graphs:
        agent = graph.agent
        leaves = sorted({leaf for b in agent.program
                         for leaf in msf_leaves(b.condition)}, key=str)
        leaves += [m(Atom(a)) for a in agent.vocab[:2] for m in (Bel, Goal)]
        leaves += [Not(leaf) for leaf in leaves]
        for _ in range(12):
            phi, psi = rng.choice(leaves), rng.choice(leaves + [TRUE, FALSE])
            pre = And(phi, Not(psi))
            pending = graph.states.mask(pre)
            for i, b in enumerate(agent.program):
                triple = HoareTriple(pre, b, psi)
                if check_hoare_conditional(triple, graph).holds:
                    held += pending != 0
                    assert pending & ~graph.executed[i] == 0
    assert held >= 20


def test_leadsto_single_leaf(shopping):
    agent, graph = shopping
    prop = next(p for p in agent.properties if p.kind == "ensures")
    leaf = EnsuresLeaf(prop.left, prop.right)
    assert check_leadsto(leaf, agent, graph).holds


def test_leadsto_malformed_nodes(shopping):
    agent, graph = shopping
    props = [p for p in agent.properties if p.kind == "ensures"]
    a = EnsuresLeaf(props[0].left, props[0].right)
    b = EnsuresLeaf(props[1].left, props[1].right)
    with pytest.raises(MalformedProof, match="middle"):
        check_leadsto(Trans(a, EnsuresLeaf(Bel(P), Bel(Q))), agent, graph)
    with pytest.raises(MalformedProof, match="empty"):
        check_leadsto(Disj(a.left, ()), agent, graph)
    if a.right != b.right:
        with pytest.raises(MalformedProof, match="disagree"):
            check_leadsto(Disj(Or(a.left, b.left), (a, b)), agent, graph)


def test_leadsto_disjunction_children_must_split_the_left_formula(shopping):
    agent, graph = shopping
    x, y, z = (Bel(Atom(a)) for a in ("Am_com", "page_T", "in_cart_T"))
    # phi ensures true holds vacuously: no state satisfies phi & !true
    leaves = [EnsuresLeaf(phi, TRUE) for phi in (x, y, z)]
    right_nested, left_nested = Or(x, Or(y, z)), Or(Or(x, y), z)
    for left in (right_nested, left_nested):
        assert check_leadsto(Disj(left, tuple(leaves)), agent, graph).holds
    for left, children in ((right_nested, leaves[::-1]),
                           (right_nested, leaves[:2]),
                           (Or(x, y), leaves),
                           (x, leaves[:2])):
        with pytest.raises(MalformedProof, match="do not split"):
            check_leadsto(Disj(left, tuple(children)), agent, graph)


def test_prove_leadsto_main_property(shopping):
    agent, graph = shopping
    prop = next(p for p in agent.properties if p.kind == "leadsto")
    steps = [(p.left, p.right) for p in agent.properties
             if p.kind == "ensures"]
    proof = prove_leadsto(prop.left, prop.right, agent, steps, graph)
    assert proof is not None
    assert proof.left == prop.left or isinstance(proof, (Trans, Disj))
    assert check_leadsto(proof, agent, graph).holds


def test_prove_leadsto_gives_up_without_steps(shopping):
    agent, graph = shopping
    prop = next(p for p in agent.properties if p.kind == "leadsto")
    assert prove_leadsto(prop.left, prop.right, agent, [], graph) is None


# -- temporal evaluation over lassos ------------------------------------------


def bought_all():
    return And(Bel(Atom("bought_T")), Bel(Atom("bought_I")))


def test_fair_lasso_satisfies_the_goal_properties(shopping):
    agent, graph = shopping
    trace = fair_lasso_from(agent, graph, agent.initial_state)
    inv = next(p for p in agent.properties if p.kind == "invariant").left
    assert eval_temporal(trace, t_always(TState(inv))) is True
    assert eval_temporal(trace, t_eventually(TState(bought_all()))) is True
    prop = next(p for p in agent.properties if p.kind == "ensures")
    assert eval_temporal(trace, t_ensures(prop.left, prop.right)) is True


def test_temporal_false_is_definite(shopping):
    agent, graph = shopping
    trace = fair_lasso_from(agent, graph, agent.initial_state)
    assert eval_temporal(trace, t_always(TState(Bel(Atom("hpage_user"))))) is False


# -- graph-level trace oracles ------------------------------------------------


def test_graph_unless_agrees_with_the_rule(shopping):
    agent, graph = shopping
    for prop in agent.properties:
        if prop.kind == "unless":
            assert graph_unless(prop.left, prop.right, agent, graph).holds
    broken = graph_unless(Bel(Atom("hpage_user")), FALSE, agent, graph)
    assert not broken.holds and "goto_Am_com" in broken.detail


def test_graph_eventuality_on_shopping(shopping):
    agent, graph = shopping
    verdict = graph_eventuality(Bel(Atom("hpage_user")), bought_all(),
                                agent, graph)
    assert verdict.holds
    for prop in agent.properties:
        if prop.kind == "ensures":
            assert graph_ensures(prop.left, prop.right, agent, graph).holds


def stuck_agent():
    """One self-looping no-op: every fair trace stays in the initial state."""
    noop = CapabilitySpec("noop", (EffectClause(TRUE, (), ()),))
    rule = ConditionalAction(TRUE, noop)
    initial = MentalState(frozenset({P}), frozenset())
    return Agent(PQ, (), (noop,), (rule,), initial, ())


def test_graph_eventuality_finds_a_fair_trap():
    agent = stuck_agent()
    graph = reachable(agent)
    verdict = graph_eventuality(Bel(P), Bel(Q), agent, graph)
    assert not verdict.holds
    assert "trap" in verdict.detail


def test_trap_lasso_refutes_the_eventuality():
    agent = stuck_agent()
    graph = reachable(agent)
    lasso = trap_lasso(agent, graph, agent.initial_state, Bel(Q))
    assert lasso is not None and lasso.cycle_start is not None
    assert eval_temporal(lasso, t_eventually(TState(Bel(Q)))) is False
    assert eval_temporal(lasso, t_always(TState(Not(Bel(Q))))) is True


def hand_built_graph(targets):
    """A graph over three states, with the steps given position by position
    (``targets[a][i]`` is where action ``a`` leads from node ``i``) rather
    than by stepping an agent's program."""
    noop = CapabilitySpec("noop", (EffectClause(TRUE, (), ()),))
    rules = tuple(ConditionalAction(TRUE, noop) for _ in targets)
    nodes = [MentalState(frozenset(), frozenset()),
             MentalState(frozenset({P}), frozenset()),
             MentalState(frozenset({Q}), frozenset())]
    agent = Agent(PQ, (), (noop,), rules, nodes[0], ())
    edges = [Edge(s, a, nodes[row[i]], row[i] != i)
             for i, s in enumerate(nodes) for a, row in enumerate(targets)]
    executed = tuple(sum(1 << i for i, t in enumerate(row) if t != i)
                     for row in targets)
    return agent, StateGraph(agent, nodes, edges,
                             {s: i for i, s in enumerate(nodes)},
                             targets, executed, StateSet(nodes))


def test_a_cycle_that_one_action_always_leaves_is_no_trap():
    # Nodes 0 and 1 falsify B(q) and action 0 cycles between them, but
    # action 1 leads from both to node 2, where B(q) holds: every fair
    # trace attempts action 1 and so leaves the cycle.
    agent, graph = hand_built_graph(((1, 0, 2), (2, 2, 2)))
    assert graph_eventuality(TRUE, Bel(Q), agent, graph).holds
    assert trap_lasso(agent, graph, graph.nodes[0], Bel(Q)) is None
    # Once action 1 idles at node 0 it can be attempted inside the cycle.
    agent, graph = hand_built_graph(((1, 0, 2), (0, 2, 2)))
    verdict = graph_eventuality(TRUE, Bel(Q), agent, graph)
    assert not verdict.holds
    assert verdict.detail == "fair trap of 2 state(s) avoids the target"
    lasso = trap_lasso(agent, graph, graph.nodes[1], Bel(Q))
    assert lasso.states[0] == graph.nodes[1]
    assert set(lasso.states) == set(graph.nodes[:2])
    assert eval_temporal(lasso, t_always(TState(Not(Bel(Q))))) is True


def test_trap_lasso_absent_when_the_property_holds(shopping):
    agent, graph = shopping
    assert trap_lasso(agent, graph, agent.initial_state, bought_all()) is None


def test_trap_lasso_never_starts_at_a_psi_state():
    # A lasso whose first state satisfies psi does not avoid psi; from such
    # a start there is none.
    lassos = 0
    for seed in range(200):
        agent = micro_agent(seed)
        if agent is None:
            continue
        graph = reachable(agent)
        for psi in (Bel(P), Goal(Q), Bel(Q), Not(Bel(P))):
            avoided = t_always(TState(Not(psi)))
            for s in graph.nodes:
                lasso = trap_lasso(agent, graph, s, psi)
                if eval_msf(s, psi):
                    assert lasso is None, (seed, psi)
                elif lasso is not None:
                    assert lasso.states[0] is s
                    assert eval_temporal(lasso, avoided) is True, (seed, psi)
                    lassos += 1
    assert lassos >= 400


# -- whole-agent driver and reports -------------------------------------------


def test_verify_agent_shopping_all_hold(shopping):
    agent, _ = shopping
    obligations = verify_agent(agent)
    assert len(obligations) == len(agent.properties) + 1  # invariant splits
    assert all(ob.verdict.holds for ob in obligations)
    rules = {ob.rule for ob in obligations}
    assert "invariant-initialization" in rules
    assert "leadsto-composition" in rules


def test_render_report_text(shopping):
    agent, _ = shopping
    report = render_report(verify_agent(agent))
    assert report.startswith("verification report")
    assert "0 failing" in report


def test_render_report_records(shopping):
    agent, _ = shopping
    report = render_report(verify_agent(agent), fmt="records")
    lines = report.strip().split("\n")
    assert len(lines) == len(agent.properties) + 1
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"obligation", "rule", "verdict",
                               "witness_state_digest"}
        assert record["verdict"] == "holds"
