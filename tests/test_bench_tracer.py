"""The benchmark's span tracer still finds what it wraps and counts.

``bench/tracer.py`` patches goalkit functions by name and reads
``StateGraph.edges``; a rename or a dropped field would break traced
benchmark runs (``bench/run.py --trace 1``) without failing any other test.
"""

import importlib.util
from pathlib import Path

from goalkit import capabilities, mental_state, verifier
from goalkit.prop_logic import Atom, Not, TRUE

from helpers import ground_shopping_fixture

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_verification_of_the_shipped_agent():
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        with tracer.op(0):
            obligations = verifier.verify_agent(ground_shopping_fixture())
    finally:
        tracer.uninstall()
    assert all(ob.verdict.holds for ob in obligations)
    assert tracer.calls["verifier.verify_agent"] == 1
    assert tracer.counts["executor.reachable.edges"] == 104
    assert tracer.counts["executor.reachable.nodes"] == 13


def test_every_traced_name_is_a_callable_of_its_layer():
    for layer, names in load_tracer().LAYERS.items():
        module = importlib.import_module(f"goalkit.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    # the transformer is defined in mental_state and traced under
    # capabilities, whose name is the same object
    assert capabilities.apply_M is mental_state.apply_M


def test_image_set_builds_are_traced_as_apply_M_calls():
    states = tuple(mental_state.enumerate_states(("p",), 1))
    probe = mental_state.CapabilitySpec(
        "tracer_probe", (mental_state.EffectClause(TRUE, (Atom("p"),), ()),))
    triple = verifier.HoareTriple(TRUE, probe, TRUE)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        with tracer.op(0):
            assert verifier.check_hoare_basic(triple, states).holds
    finally:
        tracer.uninstall()
    assert tracer.calls["capabilities.apply_M"] == len(states)


def test_wlp_calls_count_calls_not_memo_misses():
    # wlp keeps its answers; the second derivation is answered from the
    # memo and still counts as a call
    triple = verifier.HoareTriple(
        TRUE, mental_state.GoalAction("drop", Atom("p")),
        Not(mental_state.Goal(Atom("p"))))
    verifier.wlp.cache_clear()
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        with tracer.op(0):
            for _ in range(2):
                assert verifier.derive_hoare(triple, ("p",)).holds
    finally:
        tracer.uninstall()
    assert verifier.wlp.cache_info().hits == 1
    assert tracer.calls["verifier.derive_hoare"] == 2
    assert tracer.calls["verifier.wlp"] == 2


def test_oracle_calls_are_traced_as_state_cache_hits():
    # validity_oracle asks enumerate_states for its universe on every call;
    # on a warm universe each is a hit of the one state cache, so no
    # universe is built inside an op
    mental_state.enumerate_states(("p",), 1)
    misses = mental_state._state_space.cache_info().misses
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        with tracer.op(0):
            for phi in (TRUE, mental_state.Bel(Atom("p")), Not(TRUE)):
                mental_state.validity_oracle(phi, ("p",), 1)
    finally:
        tracer.uninstall()
    assert tracer.calls["mental_state.validity_oracle"] == 3
    assert tracer.calls["mental_state.enumerate_states"] == 3
    assert mental_state._state_space.cache_info().misses == misses
