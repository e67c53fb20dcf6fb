import pytest
from hypothesis import given, settings, strategies as st

from goalkit.prop_logic import (
    And, Atom, FALSE, Iff, Imp, Not, Or, TRUE, formula_for_table, render,
    truth_table,
)
from goalkit.mental_state import (
    MAX_ORACLE_GENERATORS, MAX_ORACLE_WORK, Bel, BoundsExceeded,
    CapabilitySpec, EffectClause, Enabled, Goal, GoalAction, MentalState,
    MentalStateError, canonical_formulas, enumerate_states, eval_msf,
    goal_holds, make_state, msf_leaves, parse_msformula, universe_size,
    validity_oracle,
)

from helpers import equivalent

P, Q = Atom("p"), Atom("q")
PAY = CapabilitySpec("pay", (EffectClause(P, (Q,), ()),))


def state(beliefs=(), goals=()):
    return MentalState(frozenset(beliefs), frozenset(goals))


def test_state_invariants_enforced():
    with pytest.raises(MentalStateError):
        state(beliefs=[P, Not(P)])
    with pytest.raises(MentalStateError):
        state(goals=[And(P, Not(P))])          # inconsistent generator
    with pytest.raises(MentalStateError):
        state(beliefs=[P], goals=[P])          # already believed
    with pytest.raises(MentalStateError):
        state(goals=[Or(P, Not(P))])           # tautologies are always believed


def test_make_state_prunes_achieved_goals():
    s = make_state([P], [P, Q])
    assert s.goals == frozenset({Q})


def test_goal_holds_uses_single_generators():
    s = state(goals=[P, Imp(P, Q)])
    assert goal_holds(s, P)
    assert goal_holds(s, Imp(P, Q))
    # no pooling of separate generators
    assert not goal_holds(s, Q)
    assert not goal_holds(s, And(P, Imp(P, Q)))


def test_goal_holds_consequences_of_one_generator():
    s = state(goals=[And(P, Q)])
    assert goal_holds(s, P)
    assert goal_holds(s, Q)
    assert goal_holds(s, Or(P, Q))
    assert not goal_holds(s, FALSE)


def test_goal_blocked_by_belief():
    s = state(beliefs=[Q], goals=[And(P, Q)])
    assert goal_holds(s, P)
    assert not goal_holds(s, Q)        # believed, so not a goal


def test_eval_msf_connectives_and_leaves():
    s = state(beliefs=[P], goals=[Q])
    assert eval_msf(s, Bel(P))
    assert not eval_msf(s, Bel(Q))
    assert eval_msf(s, Goal(Q))
    assert eval_msf(s, And(Bel(P), Not(Bel(Q))))
    assert eval_msf(s, Imp(Bel(Q), FALSE))
    assert eval_msf(s, Iff(Goal(Q), Not(Bel(Q))))


def test_eval_msf_rejects_bare_atoms():
    with pytest.raises(MentalStateError):
        eval_msf(state(), P)


def test_enabled_goal_action_leaves():
    s = state(beliefs=[P])
    assert eval_msf(s, Enabled(GoalAction("drop", P)))
    assert not eval_msf(s, Enabled(GoalAction("adopt", P)))      # believed
    assert not eval_msf(s, Enabled(GoalAction("adopt", And(Q, Not(Q)))))
    assert eval_msf(s, Enabled(GoalAction("adopt", Q)))


def test_parse_msformula():
    phi = parse_msformula("B(p) & !G(p -> q)")
    assert phi == And(Bel(P), Not(Goal(Imp(P, Q))))
    phi = parse_msformula("enabled(pay) | B(true)", capabilities={"pay": PAY})
    assert phi == Or(Enabled(PAY), Bel(TRUE))
    with pytest.raises(Exception):
        parse_msformula("B(p) & r", vocab=("p",))


def test_digest_is_stable_and_syntax_sensitive_only_semantically():
    a = state(beliefs=[P], goals=[Q])
    b = state(beliefs=[P], goals=[Q])
    assert a.digest() == b.digest()
    assert a.digest() != state(beliefs=[Q]).digest()


def test_canonical_formulas_order_and_count():
    cs = canonical_formulas(("p",))
    # 3 nonempty tables over 1 atom: true first (weakest), then p-ish, then
    # the strongest pair
    assert len(cs) == 3
    assert cs[0] == TRUE or truth_table(cs[0], ("p",)) == 0b11
    assert len(canonical_formulas(("p", "q"))) == 15
    assert FALSE not in canonical_formulas(("p", "q"))


def test_enumerate_states_counts():
    # 1 atom: theories {true-only is the 2-model theory}, i.e. 3 nonempty
    # valuation sets; generators drawn from non-entailed canonical formulas
    # weakest theory: 2 usable generators -> 3 states; each 1-model theory:
    # 1 usable generator -> 2 states; 3 + 2 + 2 in total
    states = list(enumerate_states(("p",), max_generators=1))
    assert len(states) == 7
    assert len({ (s.beliefs, s.goals) for s in states }) == len(states)
    # every enumerated state satisfies the constructor invariants by
    # construction (constructing them again must not raise)
    for s in states:
        MentalState(s.beliefs, s.goals)


def test_enumerate_states_bounds():
    with pytest.raises(BoundsExceeded):
        list(enumerate_states(("a", "b", "c", "d", "e")))
    with pytest.raises(BoundsExceeded):
        list(enumerate_states(("p",), max_generators=9))


def test_the_oracle_witness_is_an_enumerated_state_after_other_universes():
    # The oracle takes its universe from enumerate_states' one cache: after
    # more other universes than that cache holds, its countermodel is still
    # one of the very states enumerate_states gives, not an equal copy.
    pq = ("p", "q")
    validity_oracle(Bel(P), pq, 1)
    for atom in "abcde":
        for g in range(MAX_ORACLE_GENERATORS + 1):
            assert len(list(enumerate_states((atom,), g))) > 1
    witness = validity_oracle(Bel(P), pq, 1).witness
    assert any(s is witness for s in enumerate_states(pq, 1))
    assert enumerate_states(pq, 1) is enumerate_states(pq, 1)
    for _ in range(2):
        with pytest.raises(BoundsExceeded):
            enumerate_states(("p", "q", "r"), 2)


# The universes within the work bound: up to 2 atoms with up to 3
# generators, and 3 atoms with at most 1.  The others are refused before
# any state is built (test_cli runs two of them under a memory limit).
BUILT = [(n, g) for n in range(3) for g in range(4)] + [(3, 0), (3, 1)]


@pytest.mark.parametrize("n, g", [(n, g) for n in range(5)
                                  for g in range(MAX_ORACLE_GENERATORS + 1)])
def test_universe_size_counts_the_enumerated_states(n, g):
    work = universe_size(n, g) + ((1 << (1 << n)) - 1) ** 2
    assert (work <= MAX_ORACLE_WORK) == ((n, g) in BUILT)
    if (n, g) in BUILT:
        states = enumerate_states(("p", "q", "r", "s")[:n], g)
        assert sum(1 for _ in states) == universe_size(n, g)


def test_universe_sizes_at_the_bounds():
    assert (universe_size(2, 2), universe_size(2, 3), universe_size(3, 1),
            universe_size(3, 2)) == (992, 3630, 58975, 6875072)


def test_validity_oracle_accepts_axiom():
    verdict = validity_oracle(Imp(Bel(P), Not(Goal(P))), ("p", "q"))
    assert verdict.holds
    assert verdict.witness is None


def test_validity_oracle_finds_first_countermodel_deterministically():
    phi = Imp(Goal(P), Goal(And(P, Q)))
    v1 = validity_oracle(phi, ("p", "q"))
    v2 = validity_oracle(phi, ("p", "q"))
    assert not v1.holds
    assert v1.witness == v2.witness
    s = v1.witness
    assert eval_msf(s, Goal(P)) and not eval_msf(s, Goal(And(P, Q)))


# -- property tests ---------------------------------------------------------

def canonical_pq():
    return st.sampled_from(canonical_formulas(("p", "q")))


@given(canonical_pq(), canonical_pq())
@settings(max_examples=100, deadline=None)
def test_goal_respects_equivalence_on_random_states(phi, psi):
    if not equivalent(phi, psi):
        return
    for s in list(enumerate_states(("p", "q"), max_generators=1))[:50]:
        assert goal_holds(s, phi) == goal_holds(s, psi)


@given(st.integers(min_value=1, max_value=15))
@settings(max_examples=50, deadline=None)
def test_canonical_formula_tables(table):
    phi = formula_for_table(table, ("p", "q"))
    assert truth_table(phi, ("p", "q")) == table


# -- hash-consing -----------------------------------------------------------


def test_modal_leaves_are_interned():
    assert Bel(P) is Bel(arg=Atom("p"))
    assert Goal(Imp(P, Q)) is Goal(Imp(P, Q))
    assert Enabled(PAY) is Enabled(target=PAY)
    assert Enabled(GoalAction("adopt", P)) is Enabled(GoalAction("adopt", P))
    assert Bel(P) is not Goal(P)


def test_modal_leaves_render_through_their_hooks():
    assert render(Bel(And(P, Q))) == "B(p & q)"
    assert render(Not(Goal(Or(P, Q)))) == "!G(p | q)"
    assert render(Enabled(PAY)) == "enabled(pay)"
    assert render(Enabled(GoalAction("drop", P))) == "enabled(drop(p))"


_props = st.recursive(
    st.sampled_from([P, Q, TRUE, FALSE]),
    lambda children: st.one_of(
        children.map(Not),
        st.tuples(st.sampled_from([And, Or, Imp, Iff]), children, children)
        .map(lambda t: t[0](t[1], t[2]))),
    max_leaves=4)

msformulas = st.recursive(
    st.one_of(_props.map(Bel), _props.map(Goal)),
    lambda children: st.one_of(
        children.map(Not),
        st.tuples(st.sampled_from([And, Or, Imp, Iff]), children, children)
        .map(lambda t: t[0](t[1], t[2]))),
    max_leaves=6)


@given(msformulas)
@settings(max_examples=200, deadline=None)
def test_parse_msformula_roundtrip_returns_identical_leaves(phi):
    assert parse_msformula(render(phi)) is phi
    for leaf in msf_leaves(phi):
        assert parse_msformula(render(leaf)) is leaf
