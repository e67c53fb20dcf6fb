"""The benchmark's span tracer still finds what it wraps and counts.

``bench/tracer.py`` patches goalkit functions by name and reads
``StateGraph.edges``; a rename or a dropped field would break traced
benchmark runs (``bench/run.py --trace 1``) without failing any other test.
"""

import importlib.util
from pathlib import Path

from goalkit import verifier
from goalkit.agent_program import ground_shopping_fixture

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
