"""Mask evaluation over state sets against the state-by-state reference.

``validity_oracle`` and ``check_hoare_basic`` evaluate formulas as bit masks
over a :class:`StateSet`, and ``check_hoare_basic`` steps every statement,
conditional actions included, through its held image set.  The per-action
loop of ``check_unless`` and ``check_ensures`` and ``_scope_entails`` do so
over a reachable graph's state set and read successors from the graph's
index.  The reference loops below are their former bodies, one ``eval_msf``
call per state, and step a conditional action by evaluating its condition
and applying its basic action themselves; on seeded random formulas,
triples and properties both must return the same verdict, the same
countermodel or witness object, and the same detail text.
"""

import gc
import random

import pytest

from goalkit import executor, mental_state, verifier
from goalkit.prop_logic import (
    CACHE_SIZE, And, Atom, FALSE, Iff, Imp, Not, Or, TRUE, render,
)
from goalkit.mental_state import (
    Bel, BoundsExceeded, CapabilitySpec, ConditionalAction, EffectClause,
    Enabled, Goal, GoalAction, MentalState, MentalStateError, StateSet,
    apply_M, canonical_formulas, enumerate_states, eval_msf, insert, remove,
    set_bits, validity_oracle,
)
from goalkit.executor import reachable, step
from goalkit.verifier import (
    HoareTriple, Verdict, check_ensures, check_hoare_basic, check_leadsto,
    check_unless, prove_leadsto,
)

from helpers import (
    attempt, ground_shopping_fixture, micro_agent, random_formula,
    reference_enabled, with_actions,
)

P, Q = Atom("p"), Atom("q")
PQ = ("p", "q")

# Two capabilities with one name and opposite guards: their leaves both
# render enabled(c), and a value of one given for the other would be wrong.
CAP_A = CapabilitySpec("c", (EffectClause(P, (Q,), ()),))
CAP_B = CapabilitySpec("c", (EffectClause(Not(P), (), (Q,)),))

# eval_msf raises on a bare atom wherever it is evaluated.
RAISES = Atom("x")


def oracle_by_state(phi, atoms, max_generators=2):
    """Reference: the first enumerated state falsifying ``phi``."""
    voc = tuple(sorted(atoms))
    for state in enumerate_states(voc, max_generators):
        if not eval_msf(state, phi):
            return Verdict(False, state)
    return Verdict(True, scope=f"valid-within-bounds (atoms={','.join(voc)}, "
                               f"generators<={max_generators})")


def hoare_by_state(triple, states):
    """Reference: the triple checked one in-scope state at a time."""
    action = triple.statement
    for s in states:
        if not eval_msf(s, triple.pre):
            continue
        if reference_enabled(action, s):
            if not eval_msf(apply_M(action, s), triple.post):
                return Verdict(False, s, detail="post fails after execution")
        elif not eval_msf(s, triple.post):
            return Verdict(False, s, detail="post fails in place (not enabled)")
    return Verdict(True, scope="statewise")


def hoare_conditional_by_state(triple, states):
    """Reference: a conditional-action triple, one state at a time, stepping
    the action afresh at each pre-state: its condition evaluated and its
    basic action applied here, not through ``step``."""
    b = triple.statement
    for s in states:
        if not eval_msf(s, triple.pre):
            continue
        t = apply_M(b.action, s) if eval_msf(s, b.condition) else None
        if t is None and not eval_msf(s, triple.post):
            return Verdict(False, s, detail="post fails in place (idle)")
        if t is not None and not eval_msf(t, triple.post):
            return Verdict(False, s, detail="post fails after execution")
    return Verdict(True, scope="statewise")


def failing_sources_by_state(graph, pre, post):
    """Reference: ``verifier._failing_sources`` as one state-by-state
    conditional triple per action of the graph's program."""
    for b in graph.agent.program:
        verdict = hoare_conditional_by_state(HoareTriple(pre, b, post),
                                             graph.nodes)
        yield None if verdict.holds else graph.position[verdict.witness]


def ensures_by_state(phi, psi, agent, graph):
    """Reference: the ensures rule with the pending states and the
    continuous enabledness checked one state at a time."""
    safety = verifier.check_unless(phi, psi, agent, graph)
    if not safety.holds:
        return Verdict(False, safety.witness,
                       detail=f"unless part: {safety.detail}")
    pre = And(phi, Not(psi))
    pending = [s for s in graph.nodes if eval_msf(s, pre)]
    reasons = []
    for i, b in enumerate(agent.program):
        verdict = hoare_conditional_by_state(HoareTriple(pre, b, psi),
                                             graph.nodes)
        if not verdict.holds:
            reasons.append(f"{agent.action_label(i)}: progress triple fails")
            continue
        disabled = next((s for s in pending
                         if not (eval_msf(s, b.condition)
                                 and reference_enabled(b.action, s))), None)
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


def scope_entails_by_state(graph, alpha, beta):
    """Reference: every reachable alpha-state is a beta-state."""
    return all(eval_msf(s, beta)
               for s in graph.nodes if eval_msf(s, alpha))


def by_state(monkeypatch, fn, *args):
    """``fn(*args)`` with the verifier routed through the reference loops,
    so that its own check_unless, check_leadsto and prove_leadsto use them."""
    with monkeypatch.context() as m:
        m.setattr(verifier, "_failing_sources", failing_sources_by_state)
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


def msf_leaves(rng, vocab, capabilities, count=12):
    leaves = [TRUE, FALSE]
    leaves += [Enabled(cap) for cap in capabilities]
    for _ in range(count):
        arg = random_formula(rng, vocab, 2)
        leaves.append(rng.choice((Bel, Goal))(arg))
        leaves.append(Enabled(GoalAction(rng.choice(("adopt", "drop")), arg)))
    return leaves


def mask_by_state(phi, states):
    """Reference: the mask built from one ``eval_msf`` call per state."""
    return sum(1 << i for i, s in enumerate(states) if eval_msf(s, phi))


def assert_same_verdict(got, want):
    assert got == want
    assert got.witness is want.witness


@pytest.fixture(scope="module")
def universe():
    return list(enumerate_states(PQ, max_generators=2))


def test_validity_oracle_matches_statewise_reference():
    rng = random.Random(0x0A)
    leaves = msf_leaves(rng, PQ, [CAP_A, CAP_B])
    outcomes = set()
    for _ in range(150):
        phi = random_msf(rng, leaves, 3)
        for max_generators in (1, 2):
            got = validity_oracle(phi, PQ, max_generators)
            want = oracle_by_state(phi, PQ, max_generators)
            assert got == want, phi
            assert got.witness is want.witness
            outcomes.add(got.holds)
    assert outcomes == {True, False}


def test_masks_match_statewise_reference(universe):
    rng = random.Random(0x0D)
    leaves = msf_leaves(rng, PQ, [CAP_A, CAP_B])
    for _ in range(60):
        phi = random_msf(rng, leaves, 3)
        assert StateSet(universe).mask(phi) == mask_by_state(phi, universe)


def test_masks_kept_between_calls_match_statewise_reference(universe):
    # The set keeps what it evaluated; later calls reach the same
    # subformulas at other states and must extend, not reuse, it.
    rng = random.Random(0x0E)
    leaves = msf_leaves(rng, PQ, [CAP_A, CAP_B], count=6)
    space = StateSet(universe)
    for _ in range(150):
        phi = random_msf(rng, leaves, 3)
        assert space.mask(phi) == mask_by_state(phi, universe)


def test_capabilities_with_one_name_are_distinct_leaves(universe):
    a, b = Enabled(CAP_A), Enabled(CAP_B)
    assert a is not b and render(a) == render(b) == "enabled(c)"
    space = StateSet(universe)
    for leaf in (a, b, a, b):
        assert space.mask(leaf) == mask_by_state(leaf, universe)
    assert space.mask(a) != space.mask(b)


def test_hoare_basic_matches_statewise_reference_on_the_universe(universe):
    rng = random.Random(0x0B)
    leaves = msf_leaves(rng, PQ, [CAP_A, CAP_B])
    args = [random_formula(rng, PQ, 2) for _ in range(6)]
    statements = ([insert(phi) for phi in args] + [remove(P), remove(Q)]
                  + [GoalAction(kind, phi) for kind in ("adopt", "drop")
                     for phi in args]
                  + [CAP_A, CAP_B])
    details = set()
    for _ in range(80):
        triple = HoareTriple(random_msf(rng, leaves, 2),
                             rng.choice(statements),
                             random_msf(rng, leaves, 2))
        got = check_hoare_basic(triple, universe)
        assert_same_verdict(got, hoare_by_state(triple, universe))
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
        leaves = msf_leaves(rng, agent.vocab, agent.capabilities, count=6)
        actions = [b.action for b in agent.program]
        for _ in range(10):
            triple = HoareTriple(random_msf(rng, leaves, 2),
                                 rng.choice(actions),
                                 random_msf(rng, leaves, 2))
            got = check_hoare_basic(triple, states)
            assert_same_verdict(got, hoare_by_state(triple, states))
            checked += 1
    assert checked >= 200


@pytest.mark.parametrize("atoms, max_generators", [
    (("a", "b", "c", "d", "e"), 2),
    (PQ, 4),
])
def test_oracle_bounds_are_still_enforced(atoms, max_generators):
    # errors are never kept: a repeated call raises again
    held = list(mental_state._held)
    for _ in range(2):
        with pytest.raises(BoundsExceeded):
            validity_oracle(Bel(TRUE), atoms, max_generators)
        with pytest.raises(BoundsExceeded):
            list(enumerate_states(atoms, max_generators))
    assert mental_state._held == held


def test_held_universe_matches_statewise_reference():
    # Every call over one bound reuses one set; formulas built from a
    # growing pool share subformulas, so later calls meet memo entries that
    # earlier calls made at some states, under either bound.
    rng = random.Random(0x0F)
    pool = msf_leaves(rng, PQ, [CAP_A, CAP_B], count=8)
    outcomes = set()
    for i in range(320):
        if rng.random() < 0.2:
            phi = Not(rng.choice(pool))
        else:
            phi = rng.choice((And, Or, Imp, Iff))(rng.choice(pool),
                                                  rng.choice(pool))
        pool.append(phi)
        max_generators = 1 + i % 2
        got = validity_oracle(phi, PQ, max_generators)
        want = oracle_by_state(phi, PQ, max_generators)
        assert got == want, phi
        assert got.witness is want.witness
        outcomes.add(got.holds)
    assert outcomes == {True, False}
    for max_generators in (1, 2):
        space = mental_state.held_set(enumerate_states(PQ, max_generators))
        assert space is mental_state.held_set(
            enumerate_states(PQ, max_generators))
        assert 0 < len(space._known) <= CACHE_SIZE


def test_a_raising_leaf_leaves_no_value_in_the_held_universe():
    phi = Or(Bel(P), RAISES)
    for _ in range(2):
        with pytest.raises(MentalStateError):
            validity_oracle(phi, PQ, 2)
    known = mental_state.held_set(enumerate_states(PQ, 2))._known
    assert RAISES not in known and phi not in known
    for psi in (Or(Bel(P), Not(Bel(P))), Or(Bel(P), Goal(Q)),
                And(Bel(FALSE), RAISES), Imp(Bel(FALSE), RAISES)):
        got = validity_oracle(psi, PQ, 2)
        want = oracle_by_state(psi, PQ, 2)
        assert got == want
        assert got.witness is want.witness


def test_a_full_memo_is_emptied_and_its_masks_stay_exact(universe):
    # More distinct formulas than the memo bound, asked of one set: the memo
    # never holds more than CACHE_SIZE subformulas, and every mask, before
    # and after it is emptied, equals the state-by-state one.
    states = universe[::62]
    space = StateSet(states)
    rng = random.Random(0x10)
    leaves = msf_leaves(rng, PQ, [CAP_A, CAP_B], count=6)
    asked = []
    seen = set()
    emptied = False
    while len(seen) <= CACHE_SIZE:
        phi = random_msf(rng, leaves, 3)
        if phi in seen:
            continue
        seen.add(phi)
        asked.append(phi)
        before = len(space._known)
        assert space.mask(phi) == mask_by_state(phi, states), phi
        assert len(space._known) <= CACHE_SIZE
        emptied |= len(space._known) < before
    assert emptied
    for phi in asked[:200]:
        assert space.mask(phi) == mask_by_state(phi, states), phi


def test_leaves_are_evaluated_only_where_eval_msf_reaches_them(universe):
    # A leaf behind one that decides the connective at every state is
    # never reached.
    leaf = RAISES
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
    leaf = RAISES
    phi = And(Bel(P), Or(Bel(Q), leaf))
    refuted = oracle_by_state(phi, PQ, 2)
    assert not refuted.holds
    with pytest.raises(MentalStateError):
        validity_oracle(phi, PQ, 2)


# -- held scopes and image sets -------------------------------------------------

# Every canonical belief update and goal action over p, q.
CANONICAL_ACTIONS = [make(phi)
                     for phi in [*canonical_formulas(PQ), FALSE]
                     for make in (insert, remove,
                                  lambda phi: GoalAction("adopt", phi),
                                  lambda phi: GoalAction("drop", phi))]


def test_hoare_basic_on_a_rebuilt_universe_matches_statewise_reference(
        universe):
    # Equal sequences of distinct state objects share one held set, the
    # one validity_oracle uses, but each caller's witness is its own object.
    rebuilt = [MentalState(frozenset(s.beliefs), frozenset(s.goals))
               for s in universe]
    assert all(a == b and a is not b for a, b in zip(universe, rebuilt))
    scope = mental_state.held_set(enumerate_states(PQ, 2))
    assert mental_state.held_set(tuple(universe)) is scope
    assert mental_state.held_set(tuple(rebuilt)) is scope
    rng = random.Random(0x11)
    leaves = msf_leaves(rng, PQ, [CAP_A, CAP_B])
    statements = [insert(P), remove(P), GoalAction("adopt", Or(P, Q)),
                  GoalAction("drop", P), CAP_A, CAP_B]
    triples = [HoareTriple(random_msf(rng, leaves, 2), rng.choice(statements),
                           random_msf(rng, leaves, 2)) for _ in range(40)]
    details = set()
    for _ in range(2):
        for triple in triples:
            for states in (rebuilt, universe):
                got = check_hoare_basic(triple, states)
                assert_same_verdict(got, hoare_by_state(triple, states))
                details.add(got.detail)
    assert details == {"", "post fails after execution",
                       "post fails in place (not enabled)"}


def test_an_action_is_applied_once_per_scope_state(universe, monkeypatch):
    calls = []

    def counted(action, state):
        calls.append(state)
        return apply_M(action, state)

    monkeypatch.setattr(mental_state, "apply_M", counted)
    states = universe[5::9]
    probe = CapabilitySpec("probe", (EffectClause(Q, (P,), ()),))
    first = HoareTriple(Bel(Q), probe, Bel(P))
    assert_same_verdict(check_hoare_basic(first, states),
                        hoare_by_state(first, states))
    assert len(calls) == len(states)
    calls.clear()
    for triple in (first, HoareTriple(TRUE, probe, Goal(Q)),
                   HoareTriple(Goal(P), CapabilitySpec("probe", probe.clauses),
                               Not(Bel(P)))):
        assert_same_verdict(check_hoare_basic(triple, states),
                            hoare_by_state(triple, states))
    assert calls == []


def test_held_images_match_attempt_on_the_universe(universe):
    scope = StateSet(universe)
    scope_states = {s: s for s in universe}
    image_bases = []
    for action in CANONICAL_ACTIONS:
        images, executed = scope.image(action)
        assert scope.image(action) == (images, executed)
        assert executed == sum(1 << i for i, s in enumerate(universe)
                               if reference_enabled(action, s))
        for s, t in zip(universe, images.states):
            want = attempt(action, s)
            assert t == want
            if want == s:
                assert t is s
            elif want not in scope_states:
                image_bases += [t.beliefs, t.goals]
        # equal images of one action are one object, a state of the scope
        # where there is an equal one
        assert len(set(map(id, images.states))) == len(set(images.states))
        assert all(t is scope_states[t]
                   for t in images.states if t in scope_states)
        for leaf in (Bel(P), Goal(Or(P, Q)), Enabled(insert(Not(P)))):
            assert images.mask(leaf) == mask_by_state(leaf, images.states)
    # equal bases among the images that are not states of the scope are
    # one object
    assert len(set(map(id, image_bases))) == len(set(image_bases))


def test_apply_M_never_raises_over_the_universe(universe):
    # check_hoare_basic applies an action at every state of its scope, not
    # only where the precondition holds; apply_M is None exactly where the
    # action is not enabled.
    for action in CANONICAL_ACTIONS:
        for s in universe:
            assert ((apply_M(action, s) is None)
                    == (not reference_enabled(action, s)))


def test_a_raising_post_leaf_leaves_no_value_in_the_held_image_set(universe):
    action = GoalAction("adopt", And(P, Not(Q)))
    bad = HoareTriple(TRUE, action, Or(Bel(P), RAISES))
    for _ in range(2):
        with pytest.raises(MentalStateError):
            check_hoare_basic(bad, universe)
    images, _ = mental_state.held_set(tuple(universe)).image(action)
    assert RAISES not in images._known and bad.post not in images._known
    for post in (Or(Bel(P), Not(Bel(P))), Or(Bel(P), Goal(Q)),
                 And(Bel(FALSE), RAISES)):
        triple = HoareTriple(TRUE, action, post)
        assert_same_verdict(check_hoare_basic(triple, universe),
                            hoare_by_state(triple, universe))


def test_held_image_sets_stay_within_their_bound(universe):
    states = universe[::100]
    scope = mental_state.held_set(tuple(states))
    for i in range(mental_state.HELD_IMAGES + 20):
        action = CapabilitySpec(f"bound_{i}", (EffectClause(TRUE, (P,), ()),))
        triple = HoareTriple(Goal(P), action, Goal(P))
        assert_same_verdict(check_hoare_basic(triple, states),
                            hoare_by_state(triple, states))
        assert len(scope._images) <= mental_state.HELD_IMAGES


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
        got = check_hoare_basic(triple, graph.nodes)
        want = hoare_conditional_by_state(triple, graph.nodes)
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
    # Actions that the shipped program lacks, checked over the graph of the
    # program extended by them.
    agent = ground_shopping_fixture()
    never = ConditionalAction(Bel(FALSE), agent.capabilities[0])
    outside = [never] + [ConditionalAction(TRUE, cap)
                         for cap in agent.capabilities]
    assert not any(b in agent.program for b in outside)
    graph = reachable(with_actions(agent, *outside))
    details = set()
    for phi, psi in shopping_pairs(agent):
        for b in outside:
            for post in (phi, psi, Or(phi, psi)):
                triple = HoareTriple(And(phi, Not(psi)), b, post)
                got = check_hoare_basic(triple, graph.nodes)
                assert_same_verdict(
                    got, hoare_conditional_by_state(triple, graph.nodes))
                details.add(got.detail)
    assert details == {"", "post fails after execution",
                       "post fails in place (idle)"}


def test_enabled_leaves_in_graph_triples_match_statewise_reference():
    # Each capability's name is also given the next capability's clauses:
    # the graph's state set keeps the values of both leaves apart.
    agent = ground_shopping_fixture()
    caps = agent.capabilities
    shifted = [CapabilitySpec(cap.name, caps[(i + 1) % len(caps)].clauses)
               for i, cap in enumerate(caps)]
    rng = random.Random(0x0F)
    leaves = [Enabled(cap) for cap in caps + tuple(shifted)]
    leaves += [Bel(Atom(a)) for a in agent.vocab]
    leaves += [Goal(Atom(a)) for a in agent.vocab]
    extra = [ConditionalAction(TRUE, cap) for cap in agent.capabilities]
    actions = list(agent.program) + extra
    graph = reachable(with_actions(agent, *extra))
    verdicts = set()
    for _ in range(120):
        triple = HoareTriple(random_msf(rng, leaves, 2), rng.choice(actions),
                             random_msf(rng, leaves, 2))
        for _ in range(2):
            got = check_hoare_basic(triple, graph.nodes)
            assert_same_verdict(
                got, hoare_conditional_by_state(triple, graph.nodes))
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
        leaves = msf_leaves(rng, agent.vocab, agent.capabilities, count=6)
        conditions = [f for f in leaves if isinstance(f, (Bel, Goal))]
        extra = tuple(ConditionalAction(random_msf(rng, conditions, 1), cap)
                      for cap in agent.capabilities)
        actions = list(agent.program) + list(extra)
        extended = reachable(with_actions(agent, *extra))
        for _ in range(8):
            triple = HoareTriple(random_msf(rng, leaves, 2),
                                 rng.choice(actions),
                                 random_msf(rng, leaves, 2))
            assert_same_verdict(
                check_hoare_basic(triple, extended.nodes),
                hoare_conditional_by_state(triple, extended.nodes))
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
            got = verifier._scope_entails(graph, alpha, beta)
            assert got == scope_entails_by_state(graph, alpha, beta)
            entailed.add(got)
        alpha, omega = random_msf(rng, leaves, 2), random_msf(rng, leaves, 2)
        args = (alpha, omega, agent, pairs, graph)
        assert prove_leadsto(*args) == by_state(monkeypatch, prove_leadsto,
                                                *args)
        checked["leadsto"] += 1
    assert min(checked.values()) >= 40
    assert ensures_held == entailed == {True, False}


def test_graph_post_is_evaluated_only_at_the_targets_of_pre_states():
    agent = ground_shopping_fixture()
    unguarded = ConditionalAction(TRUE, agent.capabilities[0])
    graph = reachable(with_actions(agent, unguarded))
    leaf = RAISES
    for b in (agent.program[0], unguarded):
        triple = HoareTriple(Bel(FALSE), b, leaf)
        assert check_hoare_basic(triple, graph.nodes) == \
            hoare_conditional_by_state(triple, graph.nodes)
        triple = HoareTriple(TRUE, b, Or(TRUE, leaf))
        assert check_hoare_basic(triple, graph.nodes).holds
        triple = HoareTriple(TRUE, b, Or(Bel(FALSE), leaf))
        with pytest.raises(MentalStateError):
            check_hoare_basic(triple, graph.nodes)
        with pytest.raises(MentalStateError):
            hoare_conditional_by_state(triple, graph.nodes)


def test_a_graph_leaf_reached_only_after_the_first_failing_state_raises():
    # The reference stops at the first failing pre-state (the initial
    # state, whose goto_Am_com step reaches a state without page_T); the
    # mask path evaluates the post at every target, and a later target
    # believes page_T, so the raising leaf behind B(page_T) is reached.
    agent = ground_shopping_fixture()
    graph = reachable(agent)
    triple = HoareTriple(TRUE, agent.program[0],
                         And(Bel(Atom("page_T")), RAISES))
    refuted = hoare_conditional_by_state(triple, graph.nodes)
    assert refuted.witness is agent.initial_state
    with pytest.raises(MentalStateError):
        check_hoare_basic(triple, graph.nodes)


def acceptance_micro_agents(count):
    """The first ``count`` legal micro agents, as the acceptance criteria
    draw them: seeds in order, skipping the illegal draws."""
    agents, seed = [], 0
    while len(agents) < count:
        agent = micro_agent(seed)
        seed += 1
        if agent is not None:
            agents.append(agent)
    return agents


def test_micro_agent_conditional_triples_match_statewise_reference():
    # Every conditional action of the 500 acceptance micro agents, under
    # unless and progress triples built from random properties, over its
    # agent's reachable states.
    rng = random.Random(0x12)
    details = set()
    for agent in acceptance_micro_agents(500):
        nodes = reachable(agent).nodes
        leaves = msf_leaves(rng, agent.vocab, agent.capabilities, count=3)
        phi, psi = random_msf(rng, leaves, 2), random_msf(rng, leaves, 2)
        for b in agent.program:
            for post in (Or(phi, psi), psi):
                triple = HoareTriple(And(phi, Not(psi)), b, post)
                got = check_hoare_basic(triple, nodes)
                assert_same_verdict(
                    got, hoare_conditional_by_state(triple, nodes))
                details.add(got.detail)
    assert details == {"", "post fails after execution",
                       "post fails in place (idle)"}


def test_conditional_triples_over_the_universe_match_statewise_reference(
        universe):
    # Any sequence of states is a scope for a conditional action, not only
    # the reachable states of a program holding it.
    rng = random.Random(0x13)
    leaves = msf_leaves(rng, PQ, [CAP_A, CAP_B])
    conditions = [f for f in leaves if isinstance(f, (Bel, Goal))]
    actions = [ConditionalAction(random_msf(rng, conditions, 1), action)
               for action in CANONICAL_ACTIONS[::7] + [CAP_A, CAP_B]]
    details = set()
    for _ in range(80):
        triple = HoareTriple(random_msf(rng, leaves, 2), rng.choice(actions),
                             random_msf(rng, leaves, 2))
        for states in (universe, universe[::5]):
            got = check_hoare_basic(triple, states)
            assert_same_verdict(got, hoare_conditional_by_state(triple, states))
            details.add(got.detail)
    assert details == {"", "post fails after execution",
                       "post fails in place (idle)"}


def splits_a_belief_class(states, images):
    """Whether two states with equal beliefs have images whose beliefs
    differ."""
    first = {}
    for s, t in zip(states, images):
        if first.setdefault(s.beliefs, t.beliefs) != t.beliefs:
            return True
    return False


def assert_image_masks_match_statewise_reference(states, b, leaves):
    images, executed = StateSet(states).image(b)
    assert executed == sum(1 << i for i, s in enumerate(states)
                           if apply_M(b, s) is not None)
    for leaf in leaves:
        assert images.mask(leaf) == mask_by_state(leaf, images.states), leaf
    return images


def test_a_goal_condition_that_splits_a_belief_class_gets_its_own_classes():
    # Two states with equal beliefs, one with the goal q: G(q) -> do(ins(q))
    # steps the first and leaves the second, so their images disagree on
    # B(q) and on whether ins(!q) is enabled.  Classes taken over from the
    # source would give both images the value of the lower one.
    idle = MentalState(frozenset({P}), frozenset())
    steps = MentalState(frozenset({P}), frozenset({Q}))
    b = ConditionalAction(Goal(Q), insert(Q))
    leaves = [Bel(Q), Not(Bel(Q)), Enabled(insert(Not(Q))), Goal(Q)]
    for states in ([idle, steps], [steps, idle]):
        images = assert_image_masks_match_statewise_reference(states, b,
                                                              leaves)
        assert splits_a_belief_class(states, images.states)


def test_micro_agent_actions_that_split_a_belief_class_match_statewise_reference():
    split = 0
    for agent in acceptance_micro_agents(200):
        nodes = reachable(agent).nodes
        leaves = [Bel(P), Bel(Q), Bel(Or(P, Q)), Goal(P), Goal(Q)]
        leaves += [Enabled(cap) for cap in agent.capabilities]
        for b in agent.program:
            images = assert_image_masks_match_statewise_reference(nodes, b,
                                                                  leaves)
            split += splits_a_belief_class(nodes, images.states)
    assert split == 4


def belief_classes(states, mask):
    """The distinct belief bases among the states whose bits are in ``mask``."""
    return {s.beliefs for i, s in enumerate(states) if mask >> i & 1}


def test_a_set_answers_each_leaf_once(universe, monkeypatch):
    # enabled(...) reads only the belief base: a set asks apply_M for it once
    # per belief class among the states asked for, at the lowest of them,
    # and never again for the same states.
    a, b = Enabled(CAP_A), Enabled(CAP_B)
    phi = Or(Bel(P), b)
    want = {f: mask_by_state(f, universe) for f in (a, b, phi)}
    assert want[a] != want[b]
    position = {s: i for i, s in enumerate(universe)}
    calls = []
    apply_M = mental_state.apply_M

    def counted(cap, state):
        calls.append((cap, position[state]))
        return apply_M(cap, state)

    def asked(cap):
        return [i for c, i in calls if c == cap]

    def lowest_per_class(mask):
        firsts = {}
        for i in set_bits(mask):
            firsts.setdefault(universe[i].beliefs, i)
        return sorted(firsts.values())

    monkeypatch.setattr(mental_state, "apply_M", counted)
    space = StateSet(universe)
    full = space.full
    believed = mask_by_state(Bel(P), universe)
    assert len(belief_classes(universe, full)) == 15
    assert len(belief_classes(universe, full & ~believed)) == 12
    assert space.mask(a) == want[a]
    assert asked(CAP_A) == lowest_per_class(full)
    # b is reached only where B(p) is false; asked alone, it is evaluated
    # at the other classes only
    assert space.mask(phi) == want[phi]
    assert asked(CAP_B) == lowest_per_class(full & ~believed)
    assert space.mask(b) == want[b]
    assert sorted(asked(CAP_B)) == lowest_per_class(full)
    assert len(calls) == 30
    # asked again, nothing is evaluated
    for f in (a, b, phi):
        assert space.mask(f) == want[f]
    assert len(calls) == 30
    # a class is asked at its lowest state inside the mask asked for
    calls.clear()
    within = full & ~sum(1 << i for i in lowest_per_class(full))
    assert StateSet(universe).mask(a, within) == want[a] & within
    assert asked(CAP_A) == lowest_per_class(within)
    assert len(calls) == len(belief_classes(universe, within))


def test_a_set_leaves_no_reference_cycle(universe):
    # A dropped set, with its memo and class masks, is freed at once by
    # reference counting, not at some later cyclic collection.
    phi = Or(And(Bel(P), Goal(Q)), Not(Enabled(GoalAction("adopt", Q))))
    StateSet(universe).mask(phi)
    gc.collect()
    gc.disable()
    try:
        StateSet(universe).mask(phi)
        assert gc.collect() == 0
    finally:
        gc.enable()


def shuffled(states, seed):
    states = list(states)
    random.Random(seed).shuffle(states)
    return states


def test_masks_on_a_shuffled_universe_match_statewise_reference(universe):
    # In enumeration order each belief class is one run of states; shuffled,
    # the members of a class are scattered.
    rng = random.Random(0x11)
    leaves = msf_leaves(rng, PQ, [CAP_A, CAP_B])
    for seed in range(2):
        states = shuffled(universe, seed)
        space = StateSet(states)
        for _ in range(30):
            phi = random_msf(rng, leaves, 3)
            want = mask_by_state(phi, states)
            assert space.mask(phi) == want, phi
            assert StateSet(states).mask(phi) == want


def test_masks_within_random_masks_match_statewise_reference(universe):
    rng = random.Random(0x12)
    leaves = msf_leaves(rng, PQ, [CAP_A, CAP_B], count=8)
    states = shuffled(universe, 3)
    kept = StateSet(states)
    for _ in range(100):
        phi = random_msf(rng, leaves, 3)
        within = rng.getrandbits(len(states)) & rng.getrandbits(len(states))
        want = mask_by_state(phi, states) & within
        assert kept.mask(phi, within) == want, phi
        assert StateSet(states).mask(phi, within) == want


def test_masks_on_micro_agent_graphs_match_statewise_reference():
    rng = random.Random(0x13)
    checked = 0
    for seed in range(60):
        agent = micro_agent(seed)
        if agent is None:
            continue
        graph = reachable(agent)
        nodes = list(graph.nodes)
        leaves = msf_leaves(rng, agent.vocab, agent.capabilities, count=6)
        for _ in range(10):
            phi = random_msf(rng, leaves, 3)
            want = mask_by_state(phi, nodes)
            assert graph.states.mask(phi) == want, (seed, phi)
            within = rng.getrandbits(len(nodes))
            assert StateSet(nodes).mask(phi, within) == want & within
            checked += 1
    assert checked >= 400


GOAL_ARGS = [
    FALSE, And(P, Not(P)),      # inconsistent: G is false everywhere
    TRUE, Or(P, Not(P)),        # believed everywhere: G is false everywhere
    P, Q, Not(P), Or(P, Q), And(P, Q), Iff(P, Q),   # believed at some states
]


def test_goal_leaves_match_statewise_reference(universe):
    rng = random.Random(0x14)
    leaves = [Goal(arg) for arg in GOAL_ARGS]
    held = set()
    for seed in range(3):
        states = shuffled(universe, seed)
        for leaf in leaves:
            want = mask_by_state(leaf, states)
            assert StateSet(states).mask(leaf) == want, leaf
            within = rng.getrandbits(len(states))
            assert StateSet(states).mask(leaf, within) == want & within
            held.add((leaf, want != 0))
        # with B(arg) already known on the set, and under other leaves
        space = StateSet(states)
        for _ in range(40):
            phi = random_msf(rng, leaves + [Bel(arg) for arg in GOAL_ARGS], 2)
            assert space.mask(phi) == mask_by_state(phi, states), phi
    for arg in GOAL_ARGS[:4]:
        assert (Goal(arg), False) in held
    for arg in GOAL_ARGS[4:]:
        assert (Goal(arg), True) in held
        assert mask_by_state(Bel(arg), universe)


ENABLED_TARGETS = [CAP_A, CAP_B] + [
    GoalAction(kind, arg) for kind in ("adopt", "drop")
    for arg in (FALSE, TRUE, P, Q, Not(P), Or(P, Q), And(P, Q))]


def test_enabled_leaves_match_statewise_reference(universe):
    rng = random.Random(0x15)
    leaves = [Enabled(target) for target in ENABLED_TARGETS]
    for seed in range(3):
        states = shuffled(universe, seed)
        for leaf in leaves:
            want = mask_by_state(leaf, states)
            assert StateSet(states).mask(leaf) == want, leaf
            within = rng.getrandbits(len(states))
            assert StateSet(states).mask(leaf, within) == want & within
        space = StateSet(states)
        for _ in range(40):
            phi = random_msf(rng, leaves + [Bel(P), Goal(Q)], 2)
            assert space.mask(phi) == mask_by_state(phi, states), phi


def test_enabledness_depends_only_on_the_belief_base(universe):
    # The premise of evaluating enabled(...) once per belief class: states
    # with equal beliefs but different goals never disagree.
    by_beliefs = {}
    for s in universe:
        by_beliefs.setdefault(s.beliefs, []).append(s)
    assert len(by_beliefs) == 15
    values = set()
    for target in ENABLED_TARGETS:
        for group in by_beliefs.values():
            assert len({g.goals for g in group}) > 1
            enabled = {apply_M(target, s) is not None for s in group}
            assert len(enabled) == 1, target
            values |= enabled
    assert values == {True, False}


# -- one held-set cache ------------------------------------------------------


def test_the_universe_and_sixteen_graph_scopes_share_one_held_cache(universe):
    # Nothing is cleared: whatever other tests held, 16 graph scopes push the
    # universe's set out, and then both routes find one set for it again.
    scopes = []
    seed = 0
    while len(scopes) < mental_state.HELD_SETS:
        agent = micro_agent(seed)
        seed += 1
        if agent is not None:
            nodes = reachable(agent).nodes
            if all(nodes != other for other in scopes):
                scopes.append(nodes)
    validity_oracle(Bel(P), PQ, 2)
    for nodes in scopes:
        check_hoare_basic(HoareTriple(TRUE, insert(P), Bel(P)), nodes)
    space = mental_state.held_set(enumerate_states(PQ, 2))
    assert mental_state.held_set(universe) is space
    assert mental_state.held_set(tuple(universe)) is space
    assert len(mental_state._held) <= mental_state.HELD_SETS


def test_a_scope_list_mutated_between_calls_gets_its_own_set(universe):
    # Only the middle changes: both lists agree in length and at both ends.
    triple = HoareTriple(TRUE, insert(P), Bel(Q))
    good = [s for s in universe if hoare_by_state(triple, [s]).holds]
    bad = next(s for s in universe if not hoare_by_state(triple, [s]).holds)
    states = good[:30]
    first = check_hoare_basic(triple, states)
    assert first.holds
    kept = mental_state.held_set(states)
    states[12] = bad
    second = check_hoare_basic(triple, states)
    assert_same_verdict(second, hoare_by_state(triple, states))
    assert second.witness is bad
    assert mental_state.held_set(states).states == tuple(states)
    assert mental_state.held_set(states) is not kept
    states[12] = good[12]
    assert mental_state.held_set(states) is kept
    assert check_hoare_basic(triple, states).holds
