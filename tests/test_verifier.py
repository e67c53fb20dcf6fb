import gc
import json

import pytest

from goalkit.prop_logic import (
    And, Atom, FALSE, Iff, Imp, Not, Or, Record, TRUE, render, tautology,
)
from goalkit.mental_state import (
    Bel, CapabilitySpec, ConditionalAction, EffectClause, Enabled, Goal,
    GoalAction, MentalState, MentalStateError, Verdict, canonical_formulas,
    enumerate_states, eval_msf, insert, msf_leaves, remove, validity_oracle,
)
from goalkit.agent_program import Agent, PropertyDecl
from goalkit.executor import StateGraph, reachable
from goalkit.verifier import (
    Disj, EnsuresLeaf, HoareTriple, MalformedProof, MissingAxiom,
    Trans, check_ensures, check_hoare_basic, check_leadsto, check_unless,
    derive_hoare, prove_leadsto, render_report, subst_insert, verify_agent,
    wlp,
)

from helpers import (
    eval_temporal, fair_lasso_from, graph_ensures, graph_eventuality,
    graph_unless, ground_shopping_fixture, micro_agent, oracle_triple,
    t_always, t_ensures, t_eventually, trap_lasso, with_actions,
)

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
        assert check_hoare_basic(triple, graph.nodes).holds


def test_hoare_conditional_idle_branch(shopping):
    agent, shopping_graph = shopping
    never = ConditionalAction(Bel(FALSE), agent.capabilities[0])
    graph = reachable(with_actions(agent, never))
    # the condition is false everywhere, so the post must hold in place
    ok = HoareTriple(Bel(Atom("hpage_user")), never, Bel(Atom("hpage_user")))
    assert check_hoare_basic(ok, graph.nodes).holds
    bad = HoareTriple(Bel(Atom("hpage_user")), never, Bel(Atom("Am_com")))
    verdict = check_hoare_basic(bad, graph.nodes)
    assert not verdict.holds and "idle" in verdict.detail
    # any states are a scope, the shipped graph's too, whose program lacks
    # the action
    assert never not in agent.program
    assert check_hoare_basic(ok, shopping_graph.nodes).holds
    verdict = check_hoare_basic(bad, shopping_graph.nodes)
    assert not verdict.holds and verdict.detail == "post fails in place (idle)"


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


def test_derive_refuses_removing_a_belief_base():
    # x is the base of a state over the atom x, where removing it makes the
    # post fail, so wlp's "remove leaves sigma as it is" is not exact there
    x = Atom("x")
    triple = HoareTriple(Bel(x), remove(x), Bel(x))
    universe = list(enumerate_states(("x",), 2))
    semantic = check_hoare_basic(triple, universe)
    assert not semantic.holds
    assert semantic.witness.beliefs == frozenset({x})
    with pytest.raises(MissingAxiom) as refused:
        derive_hoare(triple, ("x",), 2)
    assert str(refused.value) == ("no wlp axiom for capability 'del(x)' over "
                                  "atoms x: it deletes x, a belief base there")
    # over the atoms p, q, neither atom is a base, and wlp is exact
    assert derive_hoare(HoareTriple(Bel(P), remove(P), Bel(P)), PQ).holds
    with pytest.raises(MissingAxiom, match=r"it deletes !p"):
        derive_hoare(HoareTriple(TRUE, ConditionalAction(Bel(P), remove(Not(P))),
                                 Bel(P)), ("p",))


def test_wlp_agrees_with_the_states_or_refuses_on_every_small_universe():
    """Insert and remove of each atom and each canonical formula, over every
    universe of at most 2 atoms and 2 generators: derive_hoare agrees with
    the statewise check, or refuses exactly where the removed formula is a
    belief base, where the unrefused wlp is wrong on some triples."""
    wrong = agreed = 0
    for n in range(3):
        atoms = PQ[:n]
        canonical = canonical_formulas(atoms)
        formulas = list(dict.fromkeys([Atom(a) for a in atoms] + canonical))
        posts = [m(phi) for phi in formulas for m in (Bel, Goal)]
        statements = [make(phi) for phi in formulas for make in (insert, remove)]
        for max_generators in range(3):
            universe = list(enumerate_states(atoms, max_generators))
            for statement in statements:
                deleted = statement.clauses[0].delete
                base = bool(deleted) and deleted[0] in canonical[1:]
                for post in posts:
                    for pre in (TRUE, post, Not(post)):
                        triple = HoareTriple(pre, statement, post)
                        semantic = check_hoare_basic(triple, universe).holds
                        if not base:
                            assert derive_hoare(triple, atoms, max_generators
                                                ).holds == semantic, str(triple)
                            agreed += 1
                            continue
                        with pytest.raises(MissingAxiom, match="belief base"):
                            derive_hoare(triple, atoms, max_generators)
                        unrefused = validity_oracle(
                            Imp(pre, wlp(statement, post)), atoms,
                            max_generators).holds
                        wrong += unrefused != semantic
    assert agreed > 1000 and wrong > 0


def test_the_benchmark_triples_agree_across_routes():
    """The oracle workload's triples, built as its op builds them: both
    routes agree, and agree with the expected verdict where one is set.
    Each triple is checked three times, built afresh each time: once, again
    straight away (wlp answers from its memo), and once more after the memo
    is emptied; the verdicts, witnesses and details of both routes are the
    same in all three."""
    from test_parser import load_generators
    gen = load_generators()
    atoms = gen.ORACLE_ATOMS
    states = list(enumerate_states(atoms, 2))

    def verdicts(case):
        triple = oracle_triple(case, atoms)
        return derive_hoare(triple, atoms, 2), check_hoare_basic(triple, states)

    expected = set()
    for i in range(gen.ORACLE_CATALOGUE):
        case = gen.oracle_case(1, i)
        first = verdicts(case)
        hits = wlp.cache_info().hits
        again = verdicts(case)
        assert wlp.cache_info().hits == hits + 1, i
        wlp.cache_clear()
        cleared = verdicts(case)
        assert first == again == cleared, i
        derived, semantic = first
        assert derived.holds == semantic.holds, i
        if case.expected is not None:
            assert semantic.holds == case.expected, i
            expected.add(i)
    assert len(expected) == 72


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


def test_check_ensures_builds_the_graph_it_is_not_given(shopping):
    # bench/test_generators.py calls check_ensures without a graph
    agent, _ = shopping
    pairs = [(p.left, p.right) for p in agent.properties
             if p.kind == "ensures"]
    pairs.append((Bel(Atom("hpage_user")), Bel(Atom("in_cart_T"))))
    verdicts = [check_ensures(phi, psi, agent) for phi, psi in pairs]
    assert verdicts == [check_ensures(phi, psi, agent, reachable(agent))
                        for phi, psi in pairs]
    assert not verdicts[-1].holds and all(v.holds for v in verdicts[:-1])


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
                if check_hoare_basic(triple, graph.nodes).holds:
                    held += pending != 0
                    assert pending & ~graph.executed[i] == 0
    assert held >= 20


def test_leadsto_single_leaf(shopping):
    agent, graph = shopping
    prop = next(p for p in agent.properties if p.kind == "ensures")
    leaf = EnsuresLeaf(prop.left, prop.right)
    assert check_leadsto(leaf, agent, graph).holds


def test_leadsto_malformed_nodes(shopping):
    agent, _ = shopping
    props = [p for p in agent.properties if p.kind == "ensures"]
    a = EnsuresLeaf(props[0].left, props[0].right)
    b = EnsuresLeaf(props[1].left, props[1].right)
    with pytest.raises(MalformedProof, match="middle"):
        Trans(a, EnsuresLeaf(Bel(P), Bel(Q)))
    with pytest.raises(MalformedProof, match="empty"):
        Disj(a.left, ())
    assert a.right != b.right
    with pytest.raises(MalformedProof, match="disagree"):
        Disj(Or(a.left, b.left), (a, b))


def test_inner_nodes_hold_their_own_conclusions():
    x, y, z = (Bel(Atom(a)) for a in ("x", "y", "z"))
    chain = Trans(EnsuresLeaf(x, y), Trans(EnsuresLeaf(y, z),
                                           EnsuresLeaf(z, TRUE)))
    assert (chain.left, chain.right) == (x, TRUE)
    split = Disj(Or(x, y), (EnsuresLeaf(x, z), EnsuresLeaf(y, z)))
    assert split.right == z
    assert Trans(split, EnsuresLeaf(z, TRUE)).left == Or(x, y)


def test_a_child_that_chains_but_is_no_proof_node_is_refused(shopping):
    # a declaration has left and right formulas, so the node can be built
    agent, graph = shopping
    am_com = Bel(Atom("Am_com"))
    proof = Trans(EnsuresLeaf(am_com, TRUE), PropertyDecl("ensures", TRUE, am_com))
    with pytest.raises(MalformedProof, match="not a proof node"):
        check_leadsto(proof, agent, graph)


def test_leadsto_returns_the_first_failing_node(shopping):
    agent, graph = shopping
    first = next(p for p in agent.properties if p.kind == "ensures")
    holds = EnsuresLeaf(first.left, first.right)
    target = Bel(Atom("in_cart_T"))
    fails = EnsuresLeaf(first.right, target)
    failed = check_leadsto(fails, agent, graph)
    assert not failed.holds and failed.witness is not None
    assert failed.detail.startswith(f"leaf {render(first.right)} ensures "
                                    f"B(in_cart_T): ")
    assert check_leadsto(Trans(holds, fails), agent, graph) == failed
    # B(in_cart_T) ensures itself vacuously; the second disjunct fails
    vacuous = EnsuresLeaf(target, target)
    assert check_leadsto(Disj(Or(target, first.right), (vacuous, fails)),
                         agent, graph) == failed
    assert check_leadsto(Disj(Or(target, target), (vacuous, vacuous)),
                         agent, graph) == Verdict(True, scope="disjunction")
    with pytest.raises(MalformedProof, match="not a proof node"):
        check_leadsto(first, agent, graph)


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
            Disj(left, tuple(children))


def test_a_wide_disjunction_is_split_without_recursion(shopping):
    # 3,000 right-nested disjuncts, each with a vacuous leaf: the split
    # used to take one frame per disjunct
    agent, graph = shopping
    parts = [Bel(Atom(f"x{i}")) for i in range(3000)]
    left = parts[-1]
    for phi in reversed(parts[:-1]):
        left = Or(phi, left)
    proof = Disj(left, tuple(EnsuresLeaf(phi, TRUE) for phi in parts))
    assert proof.right is TRUE
    assert check_leadsto(proof, agent, graph) == Verdict(True,
                                                          scope="disjunction")


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
    assert eval_temporal(trace, t_always(inv)) is True
    assert eval_temporal(trace, t_eventually(bought_all())) is True
    prop = next(p for p in agent.properties if p.kind == "ensures")
    assert eval_temporal(trace, t_ensures(prop.left, prop.right)) is True


def test_eval_temporal_reads_every_connective(shopping):
    agent, graph = shopping
    trace = fair_lasso_from(agent, graph, agent.initial_state)
    yes = t_eventually(bought_all())
    no = t_always(Bel(Atom("hpage_user")))
    for phi, want in ((Or(no, yes), True), (Or(no, Not(yes)), False),
                      (And(yes, no), False), (Imp(yes, no), False),
                      (Iff(no, Not(yes)), True), (Iff(yes, no), False)):
        assert eval_temporal(trace, phi) is want, phi
    # a state formula is asked of eval_msf, and Until is no state formula
    assert eval_temporal(trace, Bel(Atom("hpage_user"))) is True
    with pytest.raises(MentalStateError):
        eval_msf(agent.initial_state, no)


def test_eval_temporal_leaves_no_reference_cycle(shopping):
    # A finished evaluation and its memo are freed at once by reference
    # counting, not at some later cyclic collection.
    agent, graph = shopping
    trace = fair_lasso_from(agent, graph, agent.initial_state)
    prop = next(p for p in agent.properties if p.kind == "ensures")
    phi = And(t_ensures(prop.left, prop.right),
              Iff(t_eventually(bought_all()), Not(Bel(Atom("p")))))
    assert eval_temporal(trace, phi) is True
    gc.collect()
    gc.disable()
    try:
        eval_temporal(trace, phi)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_temporal_false_is_definite(shopping):
    agent, graph = shopping
    trace = fair_lasso_from(agent, graph, agent.initial_state)
    assert eval_temporal(trace, t_always(Bel(Atom("hpage_user")))) is False


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
    assert eval_temporal(lasso, t_eventually(Bel(Q))) is False
    assert eval_temporal(lasso, t_always(Not(Bel(Q)))) is True


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
    executed = tuple(sum(1 << i for i, t in enumerate(row) if t != i)
                     for row in targets)
    return agent, StateGraph(agent, nodes, {s: i for i, s in enumerate(nodes)},
                             targets, executed)


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
    assert eval_temporal(lasso, t_always(Not(Bel(Q)))) is True


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
            avoided = t_always(Not(psi))
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


def test_verify_never_searches_the_program_for_an_action(monkeypatch):
    # check_unless and check_ensures read each action's steps from the
    # graph's index by position, so no action is compared with another.
    agent = ground_shopping_fixture()
    compared = []
    original = Record.__eq__

    def counted(self, other):
        compared.append(type(self).__name__)
        return original(self, other)

    monkeypatch.setattr(Record, "__eq__", counted)
    obligations = verify_agent(agent)
    assert all(ob.verdict.holds for ob in obligations)
    assert "ConditionalAction" not in compared
    assert "CapabilitySpec" not in compared and "GoalAction" not in compared
