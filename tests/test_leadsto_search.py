"""The leads-to search and proof check against their recursive reference.

``prove_leadsto`` answers each question of its search, a formula and the
steps used so far, once per call, and drives its frames from an explicit
stack; ``check_leadsto`` walks a proof from one.  The recursive versions
without a memo, ``helpers.reference_prove_leadsto`` and
``reference_check_leadsto``, must give the same proofs and verdicts.
"""

import random
import sys

from goalkit import verifier
from goalkit.agent_program import parse_agent
from goalkit.executor import reachable
from goalkit.verifier import Disj, Trans, check_leadsto, prove_leadsto

from helpers import (
    ground_shopping_fixture, micro_agent, reference_check_leadsto,
    reference_prove_leadsto,
)
from test_parser import load_generators
from test_state_set import msf_leaves, random_msf


def chain_agent(n):
    """Atoms x0..xn, x0 believed; capability ci moves the belief from xi to
    x(i+1).  Each ``ensures B(xi), B(x(i+1))`` holds, and the leads-to
    from B(x0) to B(xn) needs all n of them in a row."""
    props = [f"ensures B(x{i}), B(x{i + 1});" for i in range(n)]
    return "\n".join([
        "vocab { " + " ".join(f"x{i};" for i in range(n + 1)) + " }",
        "beliefs { x0; }",
        "goals { }",
        *(f"capability c{i} {{ when x{i} add {{ x{i + 1} }} del {{ x{i} }}; }}"
          for i in range(n)),
        "program { " + " ".join(f"B(x{i}) -> do(c{i});" for i in range(n))
        + " }",
        "properties { " + " ".join(props)
        + f" leadsto B(x0), B(x{n}); }}",
    ]) + "\n"


def fan_agent(k):
    """Atoms x0..x(k-1) and goal, with nothing believed; capability ci adds
    xi whenever it is attempted.  Each ``ensures true, B(xi)`` holds and
    applies everywhere, and ``leadsto true, B(goal)`` has no proof."""
    props = [f"ensures true, B(x{i});" for i in range(k)]
    return "\n".join([
        "vocab { " + " ".join(f"x{i};" for i in range(k)) + " goal; }",
        "beliefs { }",
        "goals { }",
        *(f"capability c{i} {{ when true add {{ x{i} }} del {{ }}; }}"
          for i in range(k)),
        "program { " + " ".join(f"true -> do(c{i});" for i in range(k))
        + " }",
        "properties { " + " ".join(props) + " leadsto true, B(goal); }",
    ]) + "\n"


def ensures_steps(agent):
    return [(p.left, p.right) for p in agent.properties
            if p.kind == "ensures"]


def assert_same_search(agent, steps, graph, shapes):
    """Every pair of the steps' formulas, tried as a leads-to."""
    formulas = list(dict.fromkeys(f for step in steps for f in step))
    for alpha in formulas:
        for omega in formulas:
            args = (alpha, omega, agent, steps, graph)
            proof = prove_leadsto(*args)
            assert proof == reference_prove_leadsto(*args), (alpha, omega)
            if proof is None:
                shapes["none"] += 1
                continue
            verdict = check_leadsto(proof, agent, graph)
            assert verdict == reference_check_leadsto(proof, agent, graph)
            shapes["holds" if verdict.holds else "fails"] += 1
            shapes["trans"] += isinstance(proof, Trans)
            shapes["disj"] += isinstance(proof, Disj)


def test_search_and_check_match_the_recursive_reference():
    shapes = dict.fromkeys(("none", "holds", "fails", "trans", "disj"), 0)
    shopping = ground_shopping_fixture()
    assert_same_search(shopping, ensures_steps(shopping), reachable(shopping),
                       shapes)
    gen = load_generators()
    for i in range(8):
        agent = parse_agent(gen.ntask_case(2, i, 5).text)
        assert_same_search(agent, ensures_steps(agent), reachable(agent),
                           shapes)
    rng = random.Random(0x1EAD)
    agents = [a for a in map(micro_agent, range(60)) if a is not None][:40]
    assert len(agents) == 40
    for agent in agents:
        leaves = msf_leaves(rng, agent.vocab, agent.capabilities, count=4)
        steps = [(random_msf(rng, leaves, 2), random_msf(rng, leaves, 2))
                 for _ in range(4)]
        assert_same_search(agent, steps, reachable(agent), shapes)
    assert min(shapes.values()) >= 10, shapes


def recursion_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_a_long_chain_of_steps_is_proved_without_recursion():
    # 150 steps under a limit 100 frames above the caller: the search and
    # the proof check each used to take one frame per step.
    agent = parse_agent(chain_agent(150))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(recursion_depth() + 100)
    try:
        obligations = verifier.verify_agent(agent)
    finally:
        sys.setrecursionlimit(limit)
    assert all(ob.verdict.holds for ob in obligations)
    assert obligations[-1].text() == (
        "leadsto B(x0), B(x150) | leadsto-composition | holds (transitivity)")


def test_each_question_of_the_search_is_answered_once(monkeypatch):
    # k steps that all apply everywhere: the search meets each (step, used
    # set) question once, k * 2^(k-1) of them, plus the root, where the
    # recursion without a memo met every ordering, floor(e * k!) calls.
    calls = []
    original = verifier.check_ensures

    def counted(*args):
        calls.append(args)
        return original(*args)

    for k, bound in ((5, 81), (7, 449)):
        agent = parse_agent(fan_agent(k))
        graph = reachable(agent)
        steps = ensures_steps(agent)
        goal = agent.properties[-1]
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(verifier, "check_ensures", counted)
            proof = prove_leadsto(goal.left, goal.right, agent, steps, graph)
        assert proof is None
        assert len(calls) <= bound, (k, len(calls))
        if k == 5:
            assert reference_prove_leadsto(goal.left, goal.right, agent,
                                           steps, graph) is None
    verdict = verifier.verify_agent(agent)[-1].verdict
    assert not verdict.holds
    assert verdict.detail == "no proof found from the declared ensures steps"
