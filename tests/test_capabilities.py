import pytest

from goalkit import mental_state
from goalkit.prop_logic import (
    CACHE_SIZE, And, Atom, FALSE, Imp, Not, Or, TRUE, atoms_of, entails,
    formula_for_table, truth_table,
)
from goalkit.mental_state import (
    Bel, Goal, MentalState, canonical_formulas, enumerate_states, eval_msf,
    goal_holds, make_state,
)
from goalkit.capabilities import (
    CapabilitySpec, ConditionalAction, EffectClause,
    GoalAction, apply_M, apply_T, enabled_cap, enabled_cond, insert, remove,
)

from helpers import equivalent

P, Q = Atom("p"), Atom("q")


def state(beliefs=(), goals=()):
    return MentalState(frozenset(beliefs), frozenset(goals))


def cap(*clauses):
    return CapabilitySpec("c", tuple(clauses))


def test_apply_T_first_matching_clause_fires():
    c = cap(EffectClause(P, (Q,), ()), EffectClause(TRUE, (P,), ()))
    assert apply_T(c, frozenset({P})) == frozenset({P, Q})
    assert apply_T(c, frozenset()) == frozenset({P})


def test_apply_T_undefined_without_matching_clause():
    c = cap(EffectClause(P, (Q,), ()))
    assert apply_T(c, frozenset()) is None


def test_apply_T_undefined_on_inconsistent_result():
    c = cap(EffectClause(TRUE, (Not(P),), ()))
    assert apply_T(c, frozenset({P})) is None


def test_apply_T_deletion_is_syntactic():
    c = cap(EffectClause(TRUE, (), (P,)))
    assert apply_T(c, frozenset({P, Q})) == frozenset({Q})
    # an equivalent but different formula is untouched
    both = frozenset({And(P, P)})
    assert apply_T(c, both) == both


def test_builtin_insert_and_remove():
    ins = insert(P)
    assert ins.name == "ins(p)"
    assert apply_T(ins, frozenset()) == frozenset({P})
    assert apply_T(ins, frozenset({Not(P)})) is None
    rem = remove(P)
    assert rem.name == "del(p)"
    assert apply_T(rem, frozenset({P})) == frozenset()


def test_enabled_rules():
    s = state(beliefs=[P])
    assert enabled_cap(GoalAction("drop", FALSE), s)
    assert not enabled_cap(GoalAction("adopt", P), s)       # believed
    assert not enabled_cap(GoalAction("adopt", And(Q, Not(Q))), s)
    assert enabled_cap(GoalAction("adopt", Q), s)
    assert enabled_cap(insert(Q), s)
    assert not enabled_cap(insert(Not(P)), s)


def test_apply_M_prunes_achieved_goals():
    s = state(goals=[Q])
    out = apply_M(insert(Q), s)
    assert out is not None
    assert out.believes(Q)
    assert not out.goals


def test_apply_M_adopt():
    s = state(beliefs=[P])
    out = apply_M(GoalAction("adopt", Q), s)
    assert out is not None and goal_holds(out, Q)
    assert apply_M(GoalAction("adopt", P), s) is None       # not enabled


def test_apply_M_drop_removes_exactly_the_entailing_goals():
    s = state(goals=[P, Q])
    out = apply_M(GoalAction("drop", P), s)
    assert out is not None
    assert not goal_holds(out, P)
    assert goal_holds(out, Q)


def test_apply_M_drop_keeps_weaker_consequences():
    # dropping p from a goal base closed over p & q removes p and p & q but
    # must keep q and p | q
    s = state(goals=[And(P, Q)])
    out = apply_M(GoalAction("drop", P), s)
    assert out is not None
    assert not goal_holds(out, P)
    assert not goal_holds(out, And(P, Q))
    assert goal_holds(out, Q)
    assert goal_holds(out, Or(P, Q))


def test_apply_M_drop_true_clears_all_goals():
    s = state(goals=[P, And(P, Q)])
    out = apply_M(GoalAction("drop", TRUE), s)
    assert out is not None and not out.goals


def test_conditional_action_enabledness():
    c = cap(EffectClause(P, (Q,), ()))
    b = ConditionalAction(Bel(P), c)
    assert enabled_cond(b, state(beliefs=[P]))
    assert not enabled_cond(b, state())
    blocked = ConditionalAction(Goal(Q), c)
    assert not enabled_cond(blocked, state(beliefs=[P]))    # condition false


def test_capability_is_enabled_where_its_update_is_defined():
    from goalkit.mental_state import Enabled, enumerate_states
    c = cap(EffectClause(P, (Q,), ()), EffectClause(Q, (Not(P),), ()))
    assert c.enabled_at(state(beliefs=[P]))
    assert not c.enabled_at(state())
    for s in enumerate_states(("p", "q"), 1):
        rule = apply_T(c, s.beliefs) is not None
        assert c.enabled_at(s) == enabled_cap(c, s) == rule
        assert eval_msf(s, Enabled(c)) == rule


def test_goal_persistence_for_non_drop_actions():
    # {G phi} a {B phi | G phi} sampled over the small universe
    from goalkit.mental_state import enumerate_states
    phi = Or(P, Q)
    actions = [insert(P), insert(Not(Q)), remove(P),
               GoalAction("adopt", Q),
               cap(EffectClause(P, (Q,), (P,)), EffectClause(TRUE, (), ()))]
    for s in enumerate_states(("p", "q"), max_generators=2):
        if not goal_holds(s, phi):
            continue
        for a in actions:
            target = apply_M(a, s) if enabled_cap(a, s) else s
            assert target.believes(phi) or goal_holds(target, phi), (s, a)


def test_goal_action_is_one_class_everywhere():
    import goalkit
    assert goalkit.GoalAction is GoalAction is mental_state.GoalAction


def test_goal_action_enabledness_is_one_rule():
    """enabled_cap, the enabled(...) leaf and GoalAction.enabled_at agree."""
    from goalkit.mental_state import Enabled, enumerate_states
    args = [P, Q, Not(P), And(P, Q), Or(P, Q), And(Q, Not(Q)), TRUE, FALSE]
    actions = [GoalAction(kind, arg) for kind in ("adopt", "drop")
               for arg in args]
    for s in enumerate_states(("p", "q"), 1):
        for action in actions:
            rule = action.enabled_at(s)
            assert enabled_cap(action, s) == rule
            assert eval_msf(s, Enabled(action)) == rule
            assert rule == (action.kind == "drop" or (
                not equivalent(action.argument, FALSE)
                and not s.believes(action.argument)))


def test_named_enabled_leaves_are_bound_when_parsed():
    from goalkit.mental_state import Enabled, parse_msformula
    from goalkit.prop_logic import FormulaError
    c = cap(EffectClause(P, (Q,), ()))
    leaf = parse_msformula("enabled(c)", capabilities={"c": c})
    assert leaf is Enabled(c) and leaf.target == c
    assert eval_msf(state(beliefs=[P]), leaf)
    assert not eval_msf(state(), leaf)
    for capabilities in (None, {"d": c}):
        with pytest.raises(FormulaError, match=r"^unknown capability 'c'$"):
            parse_msformula("enabled(c)", capabilities=capabilities)
    with pytest.raises(TypeError):
        Enabled("c")


def weakenings_afresh(gamma, phi):
    """Reference: the weakenings of ``gamma`` that survive drop(phi), built
    anew on every call."""
    vocab = tuple(sorted(atoms_of(gamma) | atoms_of(phi)))
    if not vocab:
        return []
    g_table = truth_table(gamma, vocab)
    p_table = truth_table(phi, vocab)
    return [formula_for_table(g_table | (1 << v), vocab)
            for v in range(1 << len(vocab)) if not (p_table >> v) & 1]


def drop_afresh(phi, s):
    kept = []
    for g in s.goals:
        if entails((g,), phi):
            kept.extend(weakenings_afresh(g, phi))
        else:
            kept.append(g)
    return make_state(s.beliefs, kept)


def test_drop_matches_unmemoized_weakenings_on_the_universe():
    assert mental_state._weakenings.cache_info().maxsize == CACHE_SIZE
    vocab = ("p", "q")
    universe = list(enumerate_states(vocab, 2))
    for phi in [*canonical_formulas(vocab), FALSE]:
        action = GoalAction("drop", phi)
        for s in universe:
            assert apply_M(action, s) == drop_afresh(phi, s), (phi, s)
