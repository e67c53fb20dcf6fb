from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from goalkit.prop_logic import Atom, TRUE
from goalkit.mental_state import Bel, Goal, MentalState, parse_msformula
from goalkit.capabilities import (
    CapabilitySpec, ConditionalAction, EffectClause, GoalAction, apply_M,
    enabled_cond, insert,
)
from goalkit.agent_program import Agent, ground_shopping_fixture
from goalkit.executor import (
    BudgetExceeded, TracePrefix, fairness_check, max_omission_streak,
    reachable, run, schedule, step, trace,
)

from helpers import micro_agent, reference_omission_streak, window_fair

P, Q = Atom("p"), Atom("q")


def tiny_agent():
    """One action: insert p when not yet believed."""
    ins = insert(P)
    rule = ConditionalAction(TRUE, ins)
    initial = MentalState(frozenset(), frozenset({P}))
    return Agent(("p",), (), (ins,), (rule,), initial, ())


def test_step_executed_and_idle():
    agent = ground_shopping_fixture()
    s0 = agent.initial_state
    goto = agent.program[0]
    st = step(s0, goto)
    assert st.executed and st.target.believes(Atom("Am_com"))
    pay = next(b for i, b in enumerate(agent.program)
               if agent.action_label(i).endswith("pay_cart"))
    idle = step(s0, pay)
    assert not idle.executed and idle.target == s0


def test_step_matches_the_condition_and_enabledness_reference():
    # step applies the transformer once and reads None as idle; the
    # reference checks the condition and enabledness, then applies it.
    # Shopping and the 500 micro agents of the acceptance suite.
    agents = [ground_shopping_fixture()]
    seed = 0
    while len(agents) < 501:
        agent = micro_agent(seed)
        seed += 1
        if agent is not None:
            agents.append(agent)
    attempts = idle = 0
    for agent in agents:
        for s in reachable(agent).nodes:
            for b in agent.program:
                st = step(s, b)
                assert st.executed == enabled_cond(b, s), (agent, s, b)
                assert st.target == (apply_M(b.action, s) if st.executed
                                     else s), (agent, s, b)
                attempts += 1
                idle += not st.executed
    assert attempts > 1500 and 0 < idle < attempts


def test_drop_with_true_condition_always_executes():
    drop = GoalAction("drop", P)
    rule = ConditionalAction(TRUE, drop)
    s = MentalState(frozenset(), frozenset({P}))
    st = step(s, rule)
    assert st.executed and not st.target.goals


def test_run_zero_steps():
    agent = tiny_agent()
    prefix = run(agent, "rr", 0)
    assert prefix.states == (agent.initial_state,)
    assert len(prefix) == 0


def test_run_never_enabled_action_idles_forever():
    blocked = CapabilitySpec("blocked", (EffectClause(Q, (Q,), ()),))
    rule = ConditionalAction(TRUE, blocked)
    initial = MentalState(frozenset({P}), frozenset())
    agent = Agent(("p", "q"), (), (blocked,), (rule,), initial, ())
    prefix = run(agent, "rr", 5)
    assert not any(prefix.executed)
    assert all(s == initial for s in prefix.states)


def test_run_is_deterministic():
    agent = ground_shopping_fixture()
    for kind, seed in (("rr", 0), ("random", 7), ("unfair", 3)):
        p1 = run(agent, kind, 40, seed)
        p2 = run(agent, kind, 40, seed)
        assert p1.picks == p2.picks
        assert p1.states == p2.states


def test_round_robin_order():
    assert list(islice(schedule("rr", 3), 7)) == [0, 1, 2, 0, 1, 2, 0]


def test_random_fair_streak_bound():
    for n in (2, 3, 8):
        for seed in range(30):
            picks = list(islice(schedule("random", n, seed), 40 * n))
            assert max_omission_streak(picks, n) <= n, (n, seed)


def test_fairness_check_round_robin():
    agent = ground_shopping_fixture()
    prefix = run(agent, "rr", 64)
    assert fairness_check(prefix)


def test_fairness_check_rejects_starvation():
    agent = ground_shopping_fixture()
    n = len(agent.program)
    states = tuple([agent.initial_state] * (2 * n + 1))
    skewed = TracePrefix(agent, states, tuple([0] * 2 * n),
                         tuple([False] * 2 * n), "rr")
    assert not fairness_check(skewed)


def test_fairness_check_seeded_random_window():
    agent = ground_shopping_fixture()
    n = len(agent.program)
    prefix = run(agent, "random", 10 * n, 11)
    assert fairness_check(prefix)


def _pick_sequences(n):
    """Any picks over ``n`` actions, or runs of permutations of them, cut
    anywhere: these keep every streak below ``2n - 1``, near both bounds."""
    any_picks = st.lists(st.integers(0, n - 1), max_size=50)
    runs = st.lists(st.permutations(range(n)), max_size=50).map(
        lambda perms: [b for perm in perms for b in perm])
    return st.tuples(st.just(n), st.one_of(any_picks, runs),
                     st.integers(0, 50))


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 6).flatmap(_pick_sequences))
@example((1, [], 0))
@example((3, [0, 1, 2, 0, 1, 2], 6))     # every window of 3 covers 0, 1, 2
@example((3, [0, 1, 2, 1, 0, 2], 6))     # 0 left out 3 times: random only
def test_fairness_check_is_one_streak_rule(case):
    # rr and unfair prefixes obey the window rule exactly; random ones the
    # forcing scheduler's bound of n
    n, picks, cut = case
    picks = picks[:cut]
    agent = tiny_agent()
    agent = Agent(agent.vocab, (), agent.capabilities, agent.program * n,
                  agent.initial_state, ())
    streak = reference_omission_streak(picks, n)
    assert max_omission_streak(picks, n) == streak
    for kind, fair in (("rr", window_fair(picks, n)),
                       ("unfair", window_fair(picks, n)),
                       ("random", streak <= n)):
        prefix = TracePrefix(agent, (agent.initial_state,) * (len(picks) + 1),
                             tuple(picks), (False,) * len(picks), kind)
        assert fairness_check(prefix) == fair, kind


def test_unfair_scheduler_flagged():
    prefix = run(ground_shopping_fixture(), "unfair", 4, 5)
    assert (prefix.scheduler_kind, prefix.seed) == ("unfair", 5)


def test_unknown_kind_raises_before_the_first_pick():
    with pytest.raises(ValueError, match="unknown scheduler kind 'fifo'"):
        schedule("fifo", 3)
    with pytest.raises(ValueError):
        run(ground_shopping_fixture(), "fifo", 0)


def test_trace_dump_format():
    agent = ground_shopping_fixture()
    lines = [st.line(i, agent.action_label(pick))
             for i, (pick, st) in enumerate(trace(agent, "rr", 3))]
    assert lines[0].startswith("step 0 | b0:goto_Am_com | executed | beliefs: ")
    assert " | goals: " in lines[0]
    assert lines[1].split(" | ")[2] in ("executed", "idle")


def test_reachable_shopping_graph():
    agent = ground_shopping_fixture()
    graph = reachable(agent)
    assert len(graph.nodes) == 13
    assert len(graph.edges) == 13 * len(agent.program)
    # closed under successors, idle self-loops included; the edges list
    # each node's attempts in program order, as the position index does
    n = len(agent.program)
    for k, (i, a, target, executed) in enumerate(graph.edges):
        assert (i, a) == divmod(k, n)
        st = step(graph.nodes[i], agent.program[a])
        assert graph.position[st.target] == target == graph.targets[a][i]
        assert executed == st.executed == bool(graph.executed[a] >> i & 1)
        if not executed:
            assert target == i


def test_reachable_matches_traces():
    agent = ground_shopping_fixture()
    graph = reachable(agent)
    node_set = set(graph.nodes)
    prefix = run(agent, "random", 64, 5)
    assert set(prefix.states) <= node_set


def test_reachable_budget():
    agent = ground_shopping_fixture()
    with pytest.raises(BudgetExceeded):
        reachable(agent, budget=3)


def test_budget_env_default(monkeypatch):
    from goalkit import executor
    monkeypatch.setenv("GOAL_BUDGET", "4")
    assert executor.default_budget() == 4
    monkeypatch.setenv("GOAL_BUDGET", "zig")
    with pytest.raises(BudgetExceeded):
        executor.default_budget()
    monkeypatch.delenv("GOAL_BUDGET")
    assert executor.default_budget() == executor.DEFAULT_BUDGET


def test_dot_export():
    agent = ground_shopping_fixture()
    dot = reachable(agent).to_dot()
    assert dot.startswith("digraph reachable {")
    assert dot.rstrip().endswith("}")
    assert agent.initial_state.digest() in dot
    assert "b0:goto_Am_com" in dot


def test_single_insert_agent_two_states():
    agent = tiny_agent()
    graph = reachable(agent)
    assert len(graph.nodes) == 2
