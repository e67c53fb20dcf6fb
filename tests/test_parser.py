"""The one-pass lexer and parser against the parsers they replaced.

``prop_logic.parse_tokens`` reads B(...), G(...) and enabled(...) inline,
finds the leftmost bare atom and the atom names during the parse, and is
shared by ``parse_formula``, ``parse_msformula`` and ``parse_agent``.  The
stream parser with its leaf hook and post-parse walks is kept in
``helpers`` as the reference: on every input both give the same node (the
same object, nodes being interned) or the same error and message.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from goalkit import agent_program, prop_logic
from goalkit.prop_logic import (
    MAX_DEPTH, TRUE, And, Atom, FormulaError, Not, conj, lex, parse_formula,
    render, token_start,
)
from goalkit.mental_state import (
    Bel, CapabilitySpec, EffectClause, parse_msformula,
)
from goalkit.agent_program import SHOPPING_SOURCE, parse_agent, pretty_print

from helpers import (
    ref_parse_agent, ref_parse_formula, ref_parse_msformula,
    reference_tokenize,
)
from test_agent_program import MINI
from test_cli import DISJ_AGENT, ENABLED_AGENT, GOOD_AGENT

GENERATORS = Path(__file__).resolve().parent.parent / "bench" / "generators.py"

FLIP = CapabilitySpec("flip", (EffectClause(TRUE, (Atom("p"),), ()),))
CAPS = {"flip": FLIP}
VOCAB = ("p", "q")


def outcome(parse, *args):
    """What ``parse(*args)`` gives: ("ok", result) or (error type, message)."""
    try:
        return "ok", parse(*args)
    except Exception as exc:       # any difference in kind must show
        return type(exc).__name__, str(exc)


def assert_same(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        assert got[1] is want[1] or got[1] == want[1], (got, want)
    else:
        assert got[1] == want[1]


def assert_formula_parsers_agree(text):
    for vocab in (None, VOCAB):
        got = outcome(parse_formula, text, vocab)
        assert_same(got, outcome(ref_parse_formula, text, vocab))
        if got[0] == "ok":
            assert got[1] is ref_parse_formula(text, vocab)
        for caps in (None, CAPS):
            got = outcome(parse_msformula, text, vocab, caps)
            want = outcome(ref_parse_msformula, text, vocab, caps)
            assert_same(got, want)
            if got[0] == "ok":
                assert got[1] is want[1]


def assert_agent_parsers_agree(text):
    assert_same(outcome(parse_agent, text), outcome(ref_parse_agent, text))


# -- formula text ---------------------------------------------------------

PROP_LEAVES = ["p", "q", "x", "_y2", "true", "false", "B", "G", "enabled"]
MSF_LEAVES = ["B(p)", "G(q)", "B(p | !q)", "G(p & (q -> x))", "enabled(flip)",
              "enabled(nosuch)", "B(true)", "G(false)", "true", "p"]
CONNECTIVES = ["&", "|", "->", "<->"]


def formula_texts(leaves):
    return st.recursive(
        st.sampled_from(leaves),
        lambda parts: st.one_of(
            parts.map(lambda f: f"!{f}"),
            parts.map(lambda f: f"({f})"),
            parts.map(lambda f: f"B({f})"),
            parts.map(lambda f: f"G({f})"),
            st.tuples(parts, st.sampled_from(CONNECTIVES), parts)
              .map(lambda t: f"{t[0]} {t[1]} {t[2]}")),
        max_leaves=8)


WELL_FORMED = st.one_of(formula_texts(PROP_LEAVES), formula_texts(MSF_LEAVES))

# Pieces spliced into well-formed text to break it in odd places.
PIECES = st.sampled_from([
    "(", ")", "!", "&", "|", "->", "<->", "-", "<", "B(", "G(", "enabled(",
    "enabled", "B", ")", ",", ";", "{", "}", "# note\n", "#", "\n", " ",
    "1", "p1", "²", "½", "Ⅷ", "一", "é", "٣",
    "　", "true", "false", "flip", "nosuch", "x",
])


@st.composite
def mutated(draw):
    text = draw(WELL_FORMED)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 2))
        text = text[:at] + draw(PIECES) + text[at + cut:]
    return text


@settings(max_examples=400, deadline=None)
@given(st.one_of(WELL_FORMED, mutated(), st.text(max_size=30),
                 st.lists(PIECES, max_size=12).map(" ".join),
                 st.lists(PIECES, max_size=12).map("".join)))
@example("B(B(p))")
@example("G(B(p) & q)")
@example("B(p) & enabled(")
@example("enabled(")
@example("enabled")
@example("enabled(flip")
@example("enabled(flip))")
@example("enabled(()")
@example("enabled(1)")
@example("B(")
@example("B")
@example("B()")
@example("B(p) G(q)")
@example("B((p)")
@example("(B(p)")
@example("B(p))")
@example("(B((p)))")
@example("B(p # comment )\n)")
@example("# only a comment")
@example("")
@example("   \t\n")
@example("p & # cut\n q")
@example("B(p) & r & G(x)")
@example("B(p) & r & (")
@example("true(p)")
@example("B(p) -> ")
@example("! ! B(p) <-> G(q) -> B(x) | !p")
@example("B(é) & G(²a)")
@example("B(p) 　& G(q)")
@example("B(p) & G(q)٣")
def test_formula_parsers_match_the_reference(text):
    assert_formula_parsers_agree(text)


def chains(depth):
    """Texts whose formula is ``depth`` levels deep, in several shapes."""
    n = depth - 1
    return [
        " & ".join(["p"] * depth),
        " | ".join(["B(p)"] * depth),
        " -> ".join(["p"] * depth),
        " <-> ".join(["G(q)"] * depth),
        "!" * n + "p",
        "!" * n + "true",
        "(" * n + "!" * n + "p" + ")" * n,
        "!" * (n - 1) + "B(p)",
        "B(" + "!" * (n - 1) + "p)",
        "!" * (n // 2) + "G(" + "!" * (n - 1 - n // 2) + "q)",
        "B(" + " & ".join(["p"] * (depth - 1)) + ")",
        " & ".join(["B(p)"] * (depth - 1)) + " & (" + "!" * 3000,
        " & ".join(["p"] * depth) + " )",
    ]


@pytest.mark.parametrize("depth", [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1])
def test_depths_around_the_limit_match_the_reference(depth):
    for text in chains(depth):
        assert_formula_parsers_agree(text)
    if depth <= MAX_DEPTH:
        assert parse_formula(chains(depth)[0]).depth == depth


def test_the_depth_limit_holds_on_both_sides_of_it():
    assert parse_msformula("!" * (MAX_DEPTH - 2) + "B(p)").depth == MAX_DEPTH
    with pytest.raises(Exception, match="nested more than"):
        parse_msformula("!" * (MAX_DEPTH - 1) + "B(p)")
    with pytest.raises(Exception, match="nested more than"):
        parse_msformula("B(" + "!" * (MAX_DEPTH - 1) + "p)")


def test_an_interned_node_too_deep_to_parse_is_still_rejected():
    """The parser takes a node from the intern table when it is there and
    builds it only when it is not; a node found is held to the depth limit
    as one built is."""
    chain = Atom("p")                       # MAX_DEPTH levels deep
    for _ in range(MAX_DEPTH - 1):
        chain = Not(chain)
    wide = conj([Atom(f"a{k}") for k in range(MAX_DEPTH)])
    for phi in (Not(chain), Bel(chain), And(TRUE, wide), Bel(wide)):
        key = (type(phi), *(getattr(phi, f) for f in phi.__match_args__))
        assert prop_logic._nodes[key] is phi and phi.depth > MAX_DEPTH
        with pytest.raises(FormulaError, match="nested more than"):
            parse_msformula(render(phi))
        if phi._atoms is not None:
            with pytest.raises(FormulaError, match="nested more than"):
                parse_formula(render(phi))


def test_a_syntax_error_after_a_bare_atom_wins():
    for text in ("p & B(q) & (", "B(q) | r -> )", "r & enabled(flip"):
        got = outcome(parse_msformula, text, VOCAB, CAPS)
        assert got[0] == "FormulaError" and "bare atom" not in got[1]
        assert_formula_parsers_agree(text)


def test_positions_are_found_only_for_a_diagnostic():
    text = "  B(p) & # c\n G(q)\t"
    triples = reference_tokenize(text)
    assert lex(text) == [t for _, t, _ in triples]
    assert [token_start(text, k) for k in range(len(triples))] == [
        pos for _, _, pos in triples]


# -- agent files -----------------------------------------------------------


def load_generators():
    """``bench/generators.py``, loaded once (its dataclasses look their
    module up in ``sys.modules``)."""
    if "bench_generators" not in sys.modules:
        spec = importlib.util.spec_from_file_location("bench_generators",
                                                      GENERATORS)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    return sys.modules["bench_generators"]


def agent_sources():
    gen = load_generators()
    sources = [SHOPPING_SOURCE, MINI, GOOD_AGENT, DISJ_AGENT, ENABLED_AGENT]
    sources += [gen.ntask_case(1, i, n).text for i in range(3)
                for n in (2, 4)]
    sources += [gen.wide_case(1, i, 6).text for i in range(3)]
    sources += [pretty_print(parse_agent(s)) for s in list(sources)]
    return sources


def test_fixture_and_test_agents_match_the_reference():
    for text in agent_sources():
        assert parse_agent(text) == ref_parse_agent(text)


def test_the_agent_reader_finds_positions_only_for_a_diagnostic(monkeypatch):
    def refuse(text, k):
        raise AssertionError(f"position of token {k} asked for")

    monkeypatch.setattr(agent_program, "token_start", refuse)
    for text in agent_sources():
        parse_agent(text)
    with pytest.raises(AssertionError, match="token 2 asked for"):
        parse_agent("vocab { p q; }")


def test_benchmark_triples_match_the_reference():
    gen = load_generators()
    for i in range(gen.ORACLE_CATALOGUE):
        case = gen.oracle_case(1, i)
        for text in (case.pre, case.post):
            assert (parse_msformula(text, gen.ORACLE_ATOMS)
                    is ref_parse_msformula(text, gen.ORACLE_ATOMS))
        arg = case.statement[1]
        assert (parse_formula(arg, gen.ORACLE_ATOMS)
                is ref_parse_formula(arg, gen.ORACLE_ATOMS))


def test_msformulas_read_alike_with_and_without_capabilities():
    gen = load_generators()
    for i in range(gen.ORACLE_CATALOGUE):
        case = gen.oracle_case(1, i)
        for text in (case.pre, case.post):
            assert (parse_msformula(text, gen.ORACLE_ATOMS)
                    is parse_msformula(text, gen.ORACLE_ATOMS, CAPS))
    for caps in (None, {}, CAPS):
        assert outcome(parse_msformula, "B(p) & enabled(x)", VOCAB, caps) == (
            "FormulaError", "unknown capability 'x'")


AGENT_TOKENS = [t for _, t, _ in reference_tokenize(SHOPPING_SOURCE)[:-1]]
AGENT_PIECES = sorted(set(AGENT_TOKENS)) + [
    "enabled", "enabled(", "nosuch", "book", "X", "0", "1x", "-", "²",
    ";", ",", "(", ")", "{", "}", "do", "adopt", "drop", "when", "add", "del",
    "B(", "G(", "->", "# c\n"]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2),
                          st.integers(0, len(AGENT_TOKENS) - 1),
                          st.sampled_from(AGENT_PIECES)), max_size=3))
def test_mutated_agent_sources_match_the_reference(edits):
    tokens = list(AGENT_TOKENS)
    for how, at, piece in edits:
        if how == 0:
            tokens.insert(at, piece)
        elif how == 1:
            del tokens[min(at, len(tokens) - 1)]
        else:
            tokens[min(at, len(tokens) - 1)] = piece
    assert_agent_parsers_agree(" ".join(tokens))


@pytest.mark.parametrize("text", [
    "",
    "vocab",
    "vocab { p; } beliefs { p } goals { } capability",
    "vocab { p; } beliefs { p; } goals { } program { B(p) -> do(; }",
    "vocab { p; } beliefs { p; } goals { } program { B(p) -> do(adopt(p) }",
    "vocab { p; } beliefs { p; } goals { } program { B(p) -> do(adopt(p)) x }",
    "vocab { p; } beliefs { p; } goals { } program { -> do(drop(p)); }",
    "vocab { p; } beliefs { p; } goals { } capability c { when p add p; }"
    " program { B(p) -> do(c); }",
    "vocab { p; } beliefs { p; } goals { } capability c { when p add { p }"
    " rm { }; } program { B(p) -> do(c); }",
    "vocab { p; } beliefs { p; } goals { } capability c { when p add { p ; }"
    " program { B(p) -> do(c); }",
    "vocab { p; } beliefs { p; } goals { } capability c { if p add { p }; }"
    " program { B(p) -> do(c); }",
    "vocab { p; } beliefs { p & ; } goals { } program { B(p) -> do(drop(p)); }",
    "vocab { p; } beliefs { } goals { } program { B(p) -> do(drop(p)); }"
    " properties { invariant enabled(c); }",
    "vocab { p; } beliefs { } goals { } program { B(p) -> do(drop(p)); }"
    " properties { unless B(p), B(q) ; ensures B(p); }",
    "vocab { p; } beliefs { } goals { } program { B(p) -> do(drop(p)); }"
    " properties { leadsto B(p) , p; }",
    "vocab { p; } beliefs { } goals { } program { B(p) -> do(drop(p)); } }",
])
def test_broken_agent_files_match_the_reference(text):
    assert_agent_parsers_agree(text)
