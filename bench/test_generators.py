"""Self-check of the benchmark's inputs and tracer at small sizes.

    python3 -m pytest bench

The generated agents must parse and give the verdicts the generators
derive by construction; the tracer's self times must add up to the op time.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import goalkit  # noqa: E402
from goalkit.verifier import check_ensures  # noqa: E402

import generators  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ntask_verdicts_match_construction(n):
    case = generators.ntask_case(7, 0, n)
    agent = goalkit.parse_agent(case.text)
    assert len(goalkit.reachable(agent).nodes) == 2 ** n
    verdicts = tuple(ob.verdict.holds for ob in goalkit.verify_agent(agent))
    assert verdicts == case.expected
    assert case.exit_code == 1


def test_ntask_leadsto_needs_transitivity():
    case = generators.ntask_case(3, 1, 3)
    agent = goalkit.parse_agent(case.text)
    a, b = (goalkit.Atom(name) for name in case.leadsto)
    left = goalkit.And(goalkit.Goal(a), goalkit.Goal(b))
    right = goalkit.And(goalkit.Bel(a), goalkit.Bel(b))
    assert not check_ensures(left, right, agent).holds
    leadsto = [ob for ob in goalkit.verify_agent(agent)
               if ob.rule == "leadsto-composition"]
    assert [ob.verdict.scope for ob in leadsto] == ["transitivity"]


@pytest.mark.parametrize("w", [2, 4, 6])
def test_wide_verdicts_match_construction(w):
    case = generators.wide_case(5, 2, w)
    agent = goalkit.parse_agent(case.text)
    assert len(goalkit.reachable(agent).nodes) == 2
    verdicts = tuple(ob.verdict.holds for ob in goalkit.verify_agent(agent))
    assert verdicts == case.expected


def test_inputs_depend_only_on_seed_and_index():
    assert generators.ntask_case(1, 4, 3) == generators.ntask_case(1, 4, 3)
    assert generators.wide_case(1, 4, 3) == generators.wide_case(1, 4, 3)
    assert generators.oracle_case(1, 4) == generators.oracle_case(1, 4)
    assert generators.ntask_case(1, 4, 3) != generators.ntask_case(1, 5, 3)
    assert generators.ntask_case(1, 4, 3) != generators.ntask_case(2, 4, 3)


def test_oracle_catalogue_routes_agree_and_valid_triples_hold():
    workload = run.setup_oracle(11)
    cases = {workload.make(i) for i in range(generators.ORACLE_CATALOGUE)}
    assert len(cases) == generators.ORACLE_CATALOGUE
    assert sum(case.expected is None for case in cases) == len(cases) // 4
    for case in cases:
        assert workload.check(case, workload.op(case)) is None, case
    assert workload.make(generators.ORACLE_CATALOGUE) == workload.make(0)


def test_agent_check_rejects_a_wrong_verdict():
    workload = run.setup_wide(0)
    case = workload.make(0)
    obligations, report = workload.op(case)
    assert workload.check(case, (obligations, report)) is None
    flipped = generators.AgentCase(case.text, (True,) * len(case.expected))
    assert workload.check(flipped, (obligations, report)) is not None


def test_tail_uses_p90_or_the_highest_percentile_with_ten_above():
    assert run.tail([float(i) for i in range(200)]) == (179.0, 90.0)
    value, pct = run.tail([float(i) for i in range(50)])
    assert (value, pct) == (39.0, 80.0)


def test_tracer_self_times_add_up_to_the_op():
    text = generators.ntask_case(2, 0, 3).text
    original = goalkit.entails
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.op(0):
            goalkit.verify_agent(goalkit.parse_agent(text))
    finally:
        tracer.uninstall()
    assert goalkit.entails is original
    op_span = next(s for s in tracer.spans if s[2] == "op")
    assert sum(tracer.self_s.values()) == pytest.approx(op_span[5], rel=1e-6)
    assert tracer.calls["agent_program.parse_agent"] == 1
    assert tracer.calls["verifier.verify_agent"] == 1
    assert tracer.counts["executor.reachable.nodes"] == 8
    ids = {s[1] for s in tracer.spans}
    assert all(s[3] is None or s[3] in ids for s in tracer.spans)


def test_tracer_counts_a_generator_once_over_its_items():
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.op(0):
            goalkit.validity_oracle(goalkit.TRUE, ("p",), 1)
    finally:
        tracer.uninstall()
    assert tracer.calls["mental_state.enumerate_states"] == 1
    assert tracer.calls["mental_state.validity_oracle"] == 1
    assert sum(tracer.self_s.values()) == pytest.approx(
        next(s[5] for s in tracer.spans if s[2] == "op"), rel=1e-6)
