import pytest

from goalkit.prop_logic import Atom, render
from goalkit.mental_state import Bel, CapabilitySpec, Goal, GoalAction, eval_msf
from goalkit.agent_program import AgentParseError, SHOPPING_SOURCE, parse_agent

from helpers import ground_shopping_fixture, pretty_print

MINI = """
vocab { p; q; }
beliefs { p; }
goals { q; }
capability flip {
  when p add { q } del { p };
  when true add { p } del { };
}
program {
  B(p) & G(q) -> do(flip);
  G(q) -> do(adopt(p | q));
}
properties {
  invariant B(p) | B(q);
  unless B(q), false;
}
"""


def test_parse_minimal_agent():
    agent = parse_agent(MINI)
    assert agent.vocab == ("p", "q")
    assert agent.books == ()
    assert [c.name for c in agent.capabilities] == ["flip"]
    assert len(agent.capabilities[0].clauses) == 2
    assert len(agent.program) == 2
    assert isinstance(agent.program[0].action, CapabilitySpec)
    assert isinstance(agent.program[1].action, GoalAction)
    assert agent.program[1].action.kind == "adopt"
    assert [p.kind for p in agent.properties] == ["invariant", "unless"]
    assert agent.initial_state.believes(Atom("p"))


def test_program_rule_rendering():
    agent = parse_agent(MINI)
    assert str(agent.program[0]) == "B(p) & G(q) -> do(flip)"
    assert str(agent.program[1]) == "G(q) -> do(adopt(p | q))"


def test_book_schema_expansion():
    agent = ground_shopping_fixture()
    assert agent.books == ("T", "I")
    assert "page_T" in agent.vocab and "page_I" in agent.vocab
    assert "page_book" not in agent.vocab
    names = [c.name for c in agent.capabilities]
    assert names == ["goto_Am_com", "search_T", "search_I",
                     "put_in_cart_T", "put_in_cart_I", "pay_cart"]
    # one goto/search/put/pay family per book: 8 grounded rules
    assert len(agent.program) == 8
    assert len(agent.properties) == 16
    assert agent.initial_state.believes(Atom("hpage_user"))


def test_grounding_is_deterministic():
    a1 = ground_shopping_fixture()
    a2 = ground_shopping_fixture()
    assert a1.vocab == a2.vocab
    assert a1.program == a2.program
    assert a1.capabilities == a2.capabilities
    assert a1.properties == a2.properties


def test_pretty_print_roundtrip():
    for source in (MINI, SHOPPING_SOURCE):
        agent = parse_agent(source)
        text = pretty_print(agent)
        again = parse_agent(text)
        assert again.vocab == agent.vocab
        assert again.capabilities == agent.capabilities
        assert again.program == agent.program
        assert again.initial_state == agent.initial_state
        assert again.properties == agent.properties
        # and printing is a fixpoint
        assert pretty_print(again) == text


def test_undeclared_atom_is_rejected():
    bad = MINI.replace("goals { q; }", "goals { r; }")
    with pytest.raises(AgentParseError, match="undeclared|unknown"):
        parse_agent(bad)


def test_initial_goal_diagnostics():
    believed = MINI.replace("goals { q; }", "goals { p; }")
    with pytest.raises(AgentParseError, match="clause \\(i\\)"):
        parse_agent(believed)
    inconsistent = MINI.replace("goals { q; }", "goals { q & !q; }")
    with pytest.raises(AgentParseError, match="clause \\(ii\\)"):
        parse_agent(inconsistent)


def test_inconsistent_beliefs_rejected():
    bad = MINI.replace("beliefs { p; }", "beliefs { p; !p; }")
    with pytest.raises(AgentParseError, match="inconsistent"):
        parse_agent(bad)


def test_unknown_capability_in_program():
    bad = MINI.replace("do(flip)", "do(flop)")
    with pytest.raises(AgentParseError, match="flop"):
        parse_agent(bad)


def test_enabled_banned_in_program_conditions():
    bad = MINI.replace("B(p) & G(q) -> do(flip);",
                       "enabled(flip) -> do(flip);")
    with pytest.raises(AgentParseError, match="enabled"):
        parse_agent(bad)


def test_bare_atom_banned_in_conditions():
    bad = MINI.replace("B(p) & G(q) -> do(flip);", "p -> do(flip);")
    with pytest.raises(AgentParseError, match="bare atom"):
        parse_agent(bad)


def test_section_order_is_enforced():
    shuffled = MINI.replace("beliefs { p; }\ngoals { q; }",
                            "goals { q; }\nbeliefs { p; }")
    with pytest.raises((AgentParseError, Exception)):
        parse_agent(shuffled)


def test_schema_without_books_is_rejected():
    bad = MINI.replace("vocab { p; q; }", "vocab { p; q; extra_book; }")
    with pytest.raises(AgentParseError, match="book"):
        parse_agent(bad)


def test_comments_are_ignored():
    agent = parse_agent("# leading comment\n" + MINI.replace(
        "beliefs { p; }", "beliefs { p; # trailing comment\n }"))
    assert agent.initial_state.believes(Atom("p"))
