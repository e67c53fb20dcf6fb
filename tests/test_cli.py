import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from goalkit.agent_program import SHOPPING_SOURCE, parse_agent
from goalkit.cli import (
    EXIT_BUDGET, EXIT_OK, EXIT_PROPERTY_FAILED, EXIT_USAGE, main,
)
from goalkit.executor import reachable
from goalkit.mental_state import MentalState
from goalkit.prop_logic import lex

GOOD_AGENT = """
vocab { p; q; }
beliefs { p; }
goals { q; }
capability flip {
  when p add { q } del { p };
  when true add { p } del { };
}
program {
  B(p) & G(q) -> do(flip);
}
properties {
  invariant B(p) | B(q);
  ensures B(p) & G(q), B(q);
}
"""

BROKEN_AGENT = GOOD_AGENT.replace("invariant B(p) | B(q);",
                                  "unless B(p), false;")


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_fixture_round_robin(capsys):
    code, out, err = invoke(capsys, "run", "--fixture", "shopping",
                            "--steps", "40")
    assert code == EXIT_OK and not err
    assert out.startswith("step 0 | b0:goto_Am_com | ")
    assert "fairness surrogate: pass" in out


def test_run_seeded_random_is_deterministic(capsys):
    args = ("run", "--fixture", "shopping", "--sched", "random",
            "--seed", "9", "--steps", "40")
    _, out1, _ = invoke(capsys, *args)
    _, out2, _ = invoke(capsys, *args)
    assert out1 == out2
    _, out3, _ = invoke(capsys, "run", "--fixture", "shopping", "--sched",
                        "random", "--seed", "10", "--steps", "40")
    assert out3 != out1


# The sha256 of the stdout of ``run --fixture shopping --steps 64`` with each
# scheduler option, recorded from the per-kind scheduler classes that
# ``executor.schedule`` replaced: every pick of every kind must stay the same.
RUN_DIGESTS = {
    "--sched rr":
        "1749d62a6ba8e1aad718932a5d4e7bf7a0d168778db55504a6d3352f4c17faf1",
    "--sched random --seed 0":
        "1929f71e83e1c9f56f3cba21a0f17cab942775a26bcd4e9b55a6ffc5ab240e00",
    "--sched random --seed 1":
        "2b6322a20c4d6193ff523022a548ae98b86650d7606b95e398b134323ed76b6c",
    "--sched random --seed 2":
        "bee5bceb91b73317b36e7787bbcd754d9220a55f920b90d8a2a4764ec338117c",
    "--sched random --seed 3":
        "ba1d39d8f831dda04639ede401327ca6b4821720d36b45c16e7579759f9401e8",
    "--sched random --seed 4":
        "d88d2253e75b8a9452e8062b442b3da2b2742aea386b6378796d15e23abeeb03",
    "--unfair --sched random --seed 3":
        "a2186b56588a201d98aee7b0059e20ca5f726fbb1d62546bd21c95176d38067c",
}


@pytest.mark.parametrize("options", RUN_DIGESTS)
def test_run_reproduces_the_recorded_pick_sequences(capsys, options):
    code, out, err = invoke(capsys, "run", "--fixture", "shopping",
                            "--steps", "64", *options.split())
    assert code == EXIT_OK and not err
    assert hashlib.sha256(out.encode()).hexdigest() == RUN_DIGESTS[options]


def test_run_unfair_flag(capsys):
    code, out, _ = invoke(capsys, "run", "--fixture", "shopping",
                          "--unfair", "--seed", "1", "--steps", "12")
    assert code == EXIT_OK
    assert "scheduler: unfair" in out


def test_verify_fixture_text(capsys):
    code, out, err = invoke(capsys, "verify", "--fixture", "shopping")
    assert code == EXIT_OK and not err
    assert out.startswith("verification report")
    assert "0 failing" in out


def test_verify_output_is_byte_identical(capsys):
    _, out1, _ = invoke(capsys, "verify", "--fixture", "shopping")
    _, out2, _ = invoke(capsys, "verify", "--fixture", "shopping")
    _, out4, _ = invoke(capsys, "verify", "--fixture", "shopping")
    assert out1 == out2 == out4


def test_verify_records_format(capsys):
    code, out, _ = invoke(capsys, "verify", "--fixture", "shopping",
                          "--format", "records")
    assert code == EXIT_OK
    for line in out.strip().split("\n"):
        record = json.loads(line)
        assert record["verdict"] == "holds"
        assert {"obligation", "rule", "witness_state_digest"} <= set(record)


def test_verify_failing_property_exits_1(capsys, tmp_path):
    path = tmp_path / "broken.agent"
    path.write_text(BROKEN_AGENT)
    code, out, _ = invoke(capsys, "verify", str(path))
    assert code == EXIT_PROPERTY_FAILED
    assert "fails" in out


def test_verify_agent_file(capsys, tmp_path):
    path = tmp_path / "good.agent"
    path.write_text(GOOD_AGENT)
    code, out, _ = invoke(capsys, "verify", str(path))
    assert code == EXIT_OK and "0 failing" in out


# The proof splits the middle formula B(p) | (B(q) | B(r)) by its disjuncts;
# a right-nested disjunction once made the split's conclusion mismatch.
DISJ_AGENT = """
vocab { p; q; r; s; }
beliefs { }
goals { s; }
capability mkp { when true add { p } del { }; }
capability mkq { when true add { q } del { }; }
capability fin { when true add { s } del { }; }
program {
  G(s) & !B(p) & !B(q) -> do(mkp);
  G(s) & !B(p) & !B(q) -> do(mkq);
  B(p) & G(s) -> do(fin);
  B(q) & G(s) -> do(fin);
}
properties {
  ensures !B(p) & !B(q) & G(s), B(p) | (B(q) | B(r));
  ensures B(p), B(s);
  ensures B(q), B(s);
  ensures B(r), B(s);
  leadsto !B(p) & !B(q) & G(s), B(s);
}
"""


@pytest.mark.parametrize("middle", ["B(p) | (B(q) | B(r))",
                                    "B(p) | B(q) | B(r)"])
def test_verify_leadsto_through_a_nested_disjunction(capsys, tmp_path,
                                                     middle):
    path = tmp_path / "disj.agent"
    path.write_text(DISJ_AGENT.replace("B(p) | (B(q) | B(r))", middle))
    code, out, err = invoke(capsys, "verify", str(path))
    assert code == EXIT_OK and not err
    assert "leadsto-composition | holds (transitivity)" in out
    assert "0 failing" in out


def test_parse_error_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.agent"
    path.write_text("vocab { p; }\nbeliefs { nope; }\n")
    code, _, err = invoke(capsys, "verify", str(path))
    assert code == EXIT_USAGE
    assert err.startswith("error:")


def test_missing_agent_file_exits_2(capsys):
    code, _, err = invoke(capsys, "verify", "/no/such/file.agent")
    assert code == EXIT_USAGE and "error:" in err


def test_missing_source_exits_2(capsys):
    code, _, err = invoke(capsys, "verify")
    assert code == EXIT_USAGE and "required" in err


def test_bad_subcommand_exits_2(capsys):
    assert invoke(capsys, "frobnicate")[0] == EXIT_USAGE


def test_budget_exceeded_exits_3(capsys):
    code, _, err = invoke(capsys, "verify", "--fixture", "shopping",
                          "--budget", "2")
    assert code == EXIT_BUDGET and "error:" in err


# One state, and a node budget of 0: the initial node alone exceeds it.
ONE_STATE_AGENT = """
vocab { p; q; } beliefs { p; } goals { q; }
capability nop { when q add { p } del { }; }
program { B(q) -> do(nop); }
properties { invariant B(p); }
"""


@pytest.mark.parametrize("command", ["verify", "graph"])
@pytest.mark.parametrize("how", ["flag", "env"])
def test_a_budget_of_0_exits_3_on_a_one_state_agent(capsys, monkeypatch,
                                                   tmp_path, command, how):
    path = tmp_path / "one.agent"
    path.write_text(ONE_STATE_AGENT)
    if how == "flag":
        argv = [command, str(path), "--budget", "0"]
    else:
        monkeypatch.setenv("GOAL_BUDGET", "0")
        argv = [command, str(path)]
    code, out, err = invoke(capsys, *argv)
    assert code == EXIT_BUDGET and not out
    assert err == "error: reachable-state budget of 0 nodes exceeded\n"
    code, out, _ = invoke(capsys, command, str(path), "--budget", "1")
    assert code == EXIT_OK and out


def test_graph_to_stdout(capsys):
    code, out, _ = invoke(capsys, "graph", "--fixture", "shopping")
    assert code == EXIT_OK
    assert out.startswith("digraph reachable {")


def test_graph_to_file(capsys, tmp_path):
    out_path = tmp_path / "g.dot"
    code, out, _ = invoke(capsys, "graph", "--fixture", "shopping",
                          "--out", str(out_path))
    assert code == EXIT_OK
    assert "wrote 13 nodes" in out
    assert out_path.read_text().startswith("digraph reachable {")


def test_check_triple_semantic(capsys):
    code, out, _ = invoke(capsys, "check-triple", "--fixture", "shopping",
                          "B(hpage_user)", "goto_Am_com", "B(Am_com)")
    assert code == EXIT_OK
    assert "route: semantic over reachable states" in out
    assert "verdict: holds" in out


def test_check_triple_wlp_mode(capsys):
    code, out, _ = invoke(capsys, "check-triple", "--fixture", "shopping",
                          "!B(bought_T)", "adopt(bought_T)", "G(bought_T)",
                          "--mode", "wlp")
    assert code == EXIT_OK
    assert "route: wlp + validity oracle" in out
    assert "verdict: holds" in out


def test_check_triple_failure_exits_1(capsys):
    code, out, _ = invoke(capsys, "check-triple", "--fixture", "shopping",
                          "B(true)", "adopt(bought_T)", "G(bought_T)",
                          "--mode", "wlp")
    assert code == EXIT_PROPERTY_FAILED
    assert "verdict: fails" in out


def test_check_triple_unknown_action(capsys):
    code, _, err = invoke(capsys, "check-triple", "--fixture", "shopping",
                          "B(true)", "warp_drive", "B(true)")
    assert code == EXIT_USAGE and "warp_drive" in err


@pytest.mark.parametrize("action, message", [
    ("adopt(Am_com &)", "expected a formula at position 14, found ')'"),
    ("adopt(Am_com))", "unexpected ')' at position 13"),
    ("drop((Am_com)", "expected ')' at position 13, found 'end of input'"),
    ("  drop(&)", "expected a formula at position 7, found '&'"),
    ("adopt()", "expected a formula at position 6, found ')'"),
    ("adopt(nosuch | Am_com)", "unknown atoms: nosuch"),
])
def test_check_triple_goal_action_diagnostics_count_from_the_action(
        capsys, action, message):
    for mode in ("semantic", "wlp"):
        code, out, err = invoke(capsys, "check-triple", "--fixture",
                                "shopping", "B(Am_com)", action, "B(Am_com)",
                                "--mode", mode)
        assert code == EXIT_USAGE and not out
        assert err == f"error: {message}\n"


def test_check_triple_goal_action_may_be_spaced(capsys):
    _, spaced, _ = invoke(capsys, "check-triple", "--fixture", "shopping",
                          "true", " drop( Am_com | bought_T ) ", "true")
    _, plain, _ = invoke(capsys, "check-triple", "--fixture", "shopping",
                         "true", "drop(Am_com|bought_T)", "true")
    assert spaced == plain and "drop(Am_com | bought_T)" in plain


@pytest.mark.parametrize("pre, post", [
    ("enabled(nosuch)", "true"),
    ("B(hpage_user)", "B(Am_com) | enabled(nosuch)"),
])
def test_check_triple_unknown_capability_exits_2(capsys, pre, post):
    for mode in ("semantic", "wlp"):
        code, out, err = invoke(capsys, "check-triple", "--fixture",
                                "shopping", pre, "pay_cart", post,
                                "--mode", mode)
        assert code == EXIT_USAGE and not out
        assert err == "error: unknown capability 'nosuch'\n"


ENABLED_AGENT = """
vocab { p; q; }
beliefs { }
goals { p; }
capability c { when q add { p } del { }; }
capability d { when true add { q } del { }; }
program { G(p) -> do(d); }
"""


def test_check_triple_wlp_counts_the_atoms_of_named_capabilities(
        capsys, tmp_path):
    """enabled(c) is decided over c's guard and effects, so the oracle's
    vocabulary must include their atoms, or the leaf is false everywhere."""
    path = tmp_path / "enabled.agent"
    path.write_text(ENABLED_AGENT)
    for mode in ("semantic", "wlp"):
        code, out, err = invoke(capsys, "check-triple", str(path),
                                "enabled(c)", "adopt(p)", "false",
                                "--mode", mode)
        assert code == EXIT_PROPERTY_FAILED and not err
        assert "verdict: fails" in out and "witness" in out
    code, out, _ = invoke(capsys, "check-triple", str(path), "enabled(c)",
                          "adopt(p)", "B(q)", "--mode", "wlp")
    assert code == EXIT_OK
    assert "verdict: holds (valid-within-bounds (atoms=p,q," in out


def test_check_triple_wlp_refuses_belief_updates_under_enabled_leaves(
        capsys, tmp_path):
    """d adds q and so enables c: wlp has no rule for that, and says so
    instead of answering."""
    path = tmp_path / "enabled.agent"
    path.write_text(ENABLED_AGENT)
    for pre, post in (("!B(q)", "!enabled(c)"), ("B(q)", "enabled(c)")):
        code, out, err = invoke(capsys, "check-triple", str(path), pre, "d",
                                post, "--mode", "wlp")
        assert code == EXIT_USAGE and not out
        assert err == ("error: no wlp axiom for enabled(c) under "
                       "capability 'd'\n")
    code, out, err = invoke(capsys, "check-triple", str(path), "!B(q)", "d",
                            "!enabled(c)")
    assert code == EXIT_PROPERTY_FAILED and not err
    assert "post fails after execution" in out


KILL_AGENT = """
vocab { x; y; }
beliefs { x; }
goals { y; }
capability kill { when true add { } del { x }; }
program { B(x) -> do(kill); }
"""


def test_check_triple_wlp_refuses_removing_a_belief_base(capsys, tmp_path):
    """Over the atom x, the base {x} loses B(x) to kill: wlp's "remove
    changes nothing" is wrong there, so the wlp route refuses."""
    path = tmp_path / "kill.agent"
    path.write_text(KILL_AGENT)
    code, out, err = invoke(capsys, "check-triple", str(path), "B(x)", "kill",
                            "B(x)", "--mode", "wlp")
    assert code == EXIT_USAGE and not out
    assert err == ("error: no wlp axiom for capability 'kill' over atoms x: "
                   "it deletes x, a belief base there\n")
    code, out, err = invoke(capsys, "check-triple", str(path), "B(x)", "kill",
                            "B(x)")
    assert code == EXIT_PROPERTY_FAILED and not err
    assert "post fails after execution" in out


def test_verify_reports_a_leadsto_with_no_proof(capsys, tmp_path):
    path = tmp_path / "stuck.agent"
    path.write_text(GOOD_AGENT.replace("ensures B(p) & G(q), B(q);",
                                       "leadsto B(q), B(p);"))
    code, out, err = invoke(capsys, "verify", str(path))
    assert code == EXIT_PROPERTY_FAILED and not err
    assert ("leadsto B(q), B(p) | leadsto-composition | fails; no proof "
            "found from the declared ensures steps\n") in out


def test_check_triple_wlp_on_a_large_named_capability_exceeds_bounds(capsys):
    code, out, err = invoke(capsys, "check-triple", "--fixture", "shopping",
                            "enabled(pay_cart)", "adopt(Am_com)", "false",
                            "--mode", "wlp")
    assert code == EXIT_BUDGET and not out
    assert err == "error: at most 3 atoms supported\n"


def test_verify_property_with_unknown_capability_exits_2(capsys, tmp_path):
    path = tmp_path / "unknown.agent"
    path.write_text(GOOD_AGENT.replace("invariant B(p) | B(q);",
                                       "invariant B(p) | enabled(nosuch);"))
    code, out, err = invoke(capsys, "verify", str(path))
    assert code == EXIT_USAGE and not out
    assert err == "error: property: unknown capability 'nosuch'\n"
    path.write_text(GOOD_AGENT.replace("invariant B(p) | B(q);",
                                       "invariant B(p) | enabled(flip);"))
    code, out, _ = invoke(capsys, "verify", str(path))
    assert code == EXIT_OK and "0 failing" in out


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "goalkit.cli", "verify", "--fixture",
         "shopping", "--format", "records"],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_OK
    assert proc.stdout.strip().count("\n") >= 10


@pytest.mark.parametrize("fmt", ["text", "records"])
@pytest.mark.parametrize("source", ["fixture", "failing"])
def test_verify_output_is_identical_across_hash_seeds(tmp_path, source, fmt):
    # set iteration order changes with the hash seed (and with addresses,
    # which formula hashes use); the output must not depend on it
    if source == "fixture":
        agent = ["--fixture", "shopping"]
        # an enabled(...) leaf hashes its capability, name and all
        triple = ["B(hpage_user) & enabled(goto_Am_com)", "adopt(Am_com)",
                  "G(Am_com) | enabled(search_T)"]
    else:
        path = tmp_path / "broken.agent"
        path.write_text(BROKEN_AGENT)
        agent = [str(path)]
        triple = ["enabled(flip)", "adopt(q)", "G(q) & enabled(flip)"]
    expected = EXIT_OK if source == "fixture" else EXIT_PROPERTY_FAILED
    commands = [(["verify", *agent, "--format", fmt], expected)]
    if fmt == "text":
        commands += [(["check-triple", *agent, *triple, "--mode", mode], code)
                     for mode, code in (("semantic", expected),
                                        ("wlp", EXIT_BUDGET if source == "fixture"
                                         else EXIT_PROPERTY_FAILED))]
    for argv, expected in commands:
        outputs = set()
        for seed in ("0", "1", "4242"):
            proc = subprocess.run(
                [sys.executable, "-m", "goalkit.cli", *argv],
                capture_output=True, text=True,
                env=dict(os.environ, PYTHONHASHSEED=seed))
            assert proc.returncode == expected, argv
            outputs.add(proc.stdout)
        assert len(outputs) == 1
        if expected == EXIT_PROPERTY_FAILED:
            assert "witness" in outputs.pop()


# The sha256 of the stdout of ``verify`` and ``graph``, recorded before
# conditional actions stepped through ``apply_M``: the same report, witness
# digests included, and the same graph under every hash seed.
OUTPUT_DIGESTS = {
    ("verify", "--fixture", "shopping", "--format", "text"):
        "b64690ad671ee12f0d272bcb8af468fbf55887d1224dee34f73a80cbd20dd1bc",
    ("verify", "--fixture", "shopping", "--format", "records"):
        "a5a79de1e8e68471a05b57378e350c760b95cccff41c587e6cb112936f6674b4",
    ("graph", "--fixture", "shopping"):
        "99406501b5dea1c15726854a4da0f403a2a6f019c193835c9670453d7ac22922",
    ("verify", "BROKEN_AGENT", "--format", "text"):
        "ce4c82e332cc2af1b7a1bc4a668432dcb6d1fa030ad9dc6ea1b6a149333ba7aa",
    ("verify", "BROKEN_AGENT", "--format", "records"):
        "483779c8d47203a605b9849aa460986fac4ed772aa1e5d15b384850947301fe3",
}


@pytest.mark.parametrize("seed", ["0", "7"])
def test_verify_and_graph_reproduce_the_recorded_output(tmp_path, seed):
    path = tmp_path / "broken.agent"
    path.write_text(BROKEN_AGENT)
    for argv, digest in OUTPUT_DIGESTS.items():
        argv = [str(path) if a == "BROKEN_AGENT" else a for a in argv]
        proc = subprocess.run(_cli(*argv), capture_output=True,
                              env=dict(os.environ, PYTHONHASHSEED=seed))
        expected = EXIT_PROPERTY_FAILED if "broken" in argv[1] else EXIT_OK
        assert proc.returncode == expected, argv
        assert hashlib.sha256(proc.stdout).hexdigest() == digest, argv


def test_deeply_nested_goal_exits_2(capsys, tmp_path):
    goal = " & ".join(["p"] * 2999 + ["q"])
    path = tmp_path / "deep.agent"
    path.write_text(GOOD_AGENT.replace("goals { q; }", f"goals {{ {goal}; }}"))
    code, out, err = invoke(capsys, "verify", str(path))
    assert code == EXIT_USAGE and not out
    assert err.startswith("error:") and err.count("\n") == 1
    assert "nested" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["abc", "-1", "1.5", ""])
def test_bad_goal_budget_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("GOAL_BUDGET", value)
    code, out, err = invoke(capsys, "verify", "--fixture", "shopping")
    assert code == EXIT_USAGE and not out
    assert err.startswith("error: GOAL_BUDGET")


@pytest.mark.parametrize("argv", [
    ("run", "--fixture", "shopping", "--steps", "-5"),
    ("verify", "--fixture", "shopping", "--budget", "-1"),
    ("graph", "--fixture", "shopping", "--budget", "-1"),
    ("check-triple", "--fixture", "shopping", "B(true)", "goto_Am_com",
     "B(true)", "--max-generators", "-1"),
])
def test_negative_counts_exit_2(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == EXIT_USAGE and not out
    assert "non-negative integer" in err


@pytest.mark.parametrize("text", ["abc", "-1", "-0x1", "1.5", "", " ", "1e3",
                                  "0x10", "--1", "+-1", "1__0", "0", " 7 ",
                                  "+3", "1_0", "\u0663", "100"])
def test_the_budget_flag_and_goal_budget_read_counts_alike(
        capsys, monkeypatch, text):
    code, out, err = invoke(capsys, "graph", "--fixture", "shopping",
                            f"--budget={text}")
    monkeypatch.setenv("GOAL_BUDGET", text)
    env_code, env_out, env_err = invoke(capsys, "graph", "--fixture",
                                        "shopping")
    assert (code, out) == (env_code, env_out)
    if code == EXIT_USAGE:
        assert err.endswith(f"argument --budget: must be a non-negative "
                            f"integer, got {text!r}\n")
        assert env_err == (f"error: GOAL_BUDGET must be a non-negative "
                           f"integer, got {text!r}\n")
    else:
        assert code == (EXIT_OK if text == "100" else EXIT_BUDGET)


def test_a_step_count_past_the_largest_sequence_exits_2(capsys):
    # only invalid counts here: a valid one this large would never finish
    for steps in (2 ** 63, 10 ** 23):
        code, out, err = invoke(capsys, "run", "--fixture", "shopping",
                                "--steps", str(steps))
        assert code == EXIT_USAGE and not out
        assert err.startswith("error: --steps") and err.count("\n") == 1


def test_an_agent_file_that_is_not_utf8_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.agent"
    path.write_bytes(b"vocab { p\xff; }\n")
    code, out, err = invoke(capsys, "verify", str(path))
    assert code == EXIT_USAGE and not out
    assert err.startswith("error:") and err.count("\n") == 1
    assert "not UTF-8 text" in err


@pytest.mark.parametrize("command, options", [
    ("verify", ()), ("run", ("--steps", "12")), ("graph", ()),
    ("check-triple", ("B(p)", "adopt(q)", "G(q)", "--mode", "wlp")),
])
def test_an_agent_file_with_a_byte_order_mark_reads_as_without(
        capsys, tmp_path, command, options):
    plain, marked = tmp_path / "plain.agent", tmp_path / "marked.agent"
    plain.write_bytes(GOOD_AGENT.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + GOOD_AGENT.encode())
    want = invoke(capsys, command, str(plain), *options)
    assert want[0] in (EXIT_OK, EXIT_PROPERTY_FAILED) and want[1]
    assert invoke(capsys, command, str(marked), *options) == want


def test_a_byte_order_mark_counts_in_the_not_utf8_position(capsys, tmp_path):
    marked = tmp_path / "marked.agent"
    marked.write_bytes(b"\xef\xbb\xbfvocab { p\xff; }\n")
    code, out, err = invoke(capsys, "verify", str(marked))
    assert code == EXIT_USAGE and not out
    assert err == (f"error: {marked}: not UTF-8 text "
                   f"(invalid start byte at byte 12)\n")


def test_run_renders_each_visited_state_once(capsys):
    describe = MentalState.describe
    describe.cache_clear()
    code, out, _ = invoke(capsys, "run", "--fixture", "shopping",
                          "--steps", "2000")
    assert code == EXIT_OK and out.count("\n") == 2001
    info = describe.cache_info()
    assert info.hits + info.misses == 2000
    assert info.misses <= len(reachable(parse_agent(SHOPPING_SOURCE)).nodes)


# A 3-atom triple at the default generator bound (6,875,072 states), over
# the work bound, and a 4-atom one with none, over the atom bound, each
# with the start of its refusal: refused before any state is built.  Never
# run them without a memory limit.
TOO_LARGE = [(("B(p)", "adopt(q)", "B(r)"), "error: the universe over "),
             (("B(p)", "adopt(q)", "B(r | s)", "--max-generators", "0"),
              "error: at most 3 atoms supported\n")]


@pytest.mark.parametrize("triple, refusal", TOO_LARGE,
                         ids=["triple0", "triple1"])
def test_a_universe_too_large_to_build_exits_3_with_one_line(tmp_path,
                                                            triple, refusal):
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    path = tmp_path / "four.agent"
    path.write_text(GOOD_AGENT.replace("vocab { p; q; }",
                                       "vocab { p; q; r; s; }"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from goalkit.cli import main; sys.exit(main())",
         "check-triple", str(path), *triple, "--mode", "wlp"],
        capture_output=True, text=True, preexec_fn=limit, timeout=120)
    assert proc.returncode == EXIT_BUDGET and not proc.stdout
    assert proc.stderr.startswith(refusal)
    assert proc.stderr.count("\n") == 1, proc.stderr


def _cli(*argv):
    return [sys.executable, "-m", "goalkit.cli", *argv]


def test_run_streams_in_memory_independent_of_the_step_count():
    # 100,000 steps under a 32 MB address space: a trace kept whole until
    # it is printed ran out of memory here, where 2,000 steps did not
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (32 << 20, 32 << 20))

    proc = subprocess.run(
        _cli("run", "--fixture", "shopping", "--steps", "100000"),
        capture_output=True, preexec_fn=limit, timeout=300)
    assert proc.returncode == EXIT_OK, proc.stderr[-500:]
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "51d4d0dab1514eb40505dafc029e6d2b3d06db75e4cd93c4a2242a87b3bc45ac")


def test_a_closed_pipe_ends_run_with_one_error_line():
    proc = subprocess.Popen(
        _cli("run", "--fixture", "shopping", "--steps", "100000"),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=300) == EXIT_USAGE
    assert first.startswith(b"step 0 | b0:goto_Am_com | executed | ")
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, err
    assert "Exception ignored" not in err and "Traceback" not in err


# -- the exit-code contract under random input --------------------------------


def run_quietly(argv):
    """``main(argv)`` in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv):
    """A contract exit code, at most one line of stderr, and the same
    stdout and exit code when called again."""
    code, out, err = run_quietly(argv)
    assert code in (EXIT_OK, EXIT_PROPERTY_FAILED, EXIT_USAGE, EXIT_BUDGET)
    assert err.count("\n") <= 1 and (not err or err.endswith("\n")), err
    assert run_quietly(argv)[:2] == (code, out)


SHOPPING_TOKENS = lex(SHOPPING_SOURCE)[:-1]
EXTRA_TOKENS = sorted(set(SHOPPING_TOKENS)) + [
    "enabled", "nosuch", "book", "X", "0", ";", ",", "(", ")", "{", "}"]
EDITS = st.lists(st.tuples(st.booleans(),
                           st.integers(0, len(SHOPPING_TOKENS) - 1),
                           st.sampled_from(EXTRA_TOKENS)),
                 max_size=3)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=EDITS)
def test_mutated_agent_sources_keep_the_exit_code_contract(tmp_path, edits):
    tokens = list(SHOPPING_TOKENS)
    for insert, at, token in edits:
        if insert:
            tokens.insert(at, token)
        else:
            del tokens[min(at, len(tokens) - 1)]
    path = tmp_path / "mutated.agent"
    path.write_text(" ".join(tokens))
    assert_contract(["verify", str(path)])


MSF_LEAVES = ["B(p)", "G(q)", "B(p | !q)", "G(p & q)", "true",
              "enabled(flip)", "enabled(nosuch)", "B(x)"]
MSF = st.recursive(
    st.sampled_from(MSF_LEAVES),
    lambda parts: st.one_of(
        parts.map(lambda f: f"!({f})"),
        st.tuples(parts, st.sampled_from(["&", "|", "->", "<->"]), parts)
          .map(lambda t: f"({t[0]} {t[1]} {t[2]})")),
    max_leaves=5)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pre=MSF, post=MSF,
       action=st.sampled_from(["flip", "adopt(q)", "drop(p)", "nosuch",
                               "adopt(p & !p)"]),
       mode=st.sampled_from(["semantic", "wlp"]))
def test_random_triples_keep_the_exit_code_contract(tmp_path, pre, post,
                                                    action, mode):
    path = tmp_path / "good.agent"
    path.write_text(GOOD_AGENT)
    assert_contract(["check-triple", str(path), pre, action, post,
                     "--mode", mode])


# One check-triple run on the shopping fixture, its precondition built in
# the child: 100,000 nested "B(" exceed what one argv string may hold.
DEEP_TRIPLE = """
import sys
from goalkit.cli import main
depth = 100_000
pre = {"(": "(" * depth + "B(Am_com)",
       "!": "!" * depth + "B(Am_com)",
       "B(": "B(" * depth + "Am_com" + ")" * depth,
       "enabled(": "B(Am_com) & enabled("}[sys.argv[1]]
sys.exit(main(["check-triple", "--fixture", "shopping", pre, "goto_Am_com",
               "B(Am_com)"]))
"""


@pytest.mark.parametrize("opening", ["(", "!", "B(", "enabled("])
def test_deep_and_unterminated_preconditions_exit_2_with_one_line(opening):
    proc = subprocess.run([sys.executable, "-c", DEEP_TRIPLE, opening],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_USAGE and not proc.stdout
    # the runpy warning of ``python -m goalkit.cli`` is not goalkit's own
    lines = [line for line in proc.stderr.splitlines()
             if "RuntimeWarning" not in line]
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RecursionError" not in proc.stderr
